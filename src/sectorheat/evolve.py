"""Forward time stepping past the contraction horizon, with blow-up capture.

Strang splitting of u_t = Lap u + a|u|^alpha u into two exactly solvable
sub-flows: the spectral heat step S (exact in time for the discrete modes)
and the pointwise nonlinear flow N

    u' = a|u|^alpha u   =>   |u|^{-alpha} -> |u|^{-alpha} - a alpha dt,

sign preserved, which blows up in finite time exactly when a = +1.  N is a
semigroup, so each step's trailing half fuses with the next leading half,
and monotone in |u|, so a step's sup is the scalar flow of the heated sup.
T_max is reported from the scalar remainder at the last resolved state,
gated by a type-I rate fit ||u(t)|| ~ (alpha (T - t))^{-1/alpha}.

Both sub-flows are exact, so the step is set by accuracy alone.  Steps sit
on the ladder dt_k = h^2 2^{k/2} (integer k, starting at the grid scale
k = 0) below the growth cap DT_GROWTH_FRAC / (alpha ||u||^alpha).  Every
PROBE_EVERY steps on the ladder, one extra 2 dt leg from the state beside
the next two dt steps estimates one step's local error in the sup (step
doubling).  The pair is discarded and the run drops a rung when the
estimate exceeds STEP_TOL; it is kept, a rung higher, when the higher
rung's estimate, 2^{3/2} times it, would not.  The sup is measured, not
the max norm of the difference: |u|^alpha u has a |x|^{1+alpha} kink at
the sector wall, where the nodewise estimate runs about a thousand times
the sup's.

Validation sits at the loop's edges.  run_trajectory checks its initial
field, and forms each state's moduli |u| and their max once, right after
the leg that produced the state, where it checks them finite; it passes
them to the next leg (strang_step and nonlinear_substep take them as
``moduli``), which then trusts them and its dt and runs under the loop's
errstate.  The same moduli serve the envelope check and the probe's 2 dt
leg, and the scalar remainder and sup flows run on Python floats.  Called
without moduli, both step functions validate their input themselves.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Field, SectorSpec, field_from_profile
from .semigroup import KernelPlan, _spectral_flow, check_profile_spec
from .picard import admissible_constants, solve_picard

STATUS_BLEWUP = "blew_up"
STATUS_GLOBAL = "global_horizon_reached"
STATUS_INCONCLUSIVE = "inconclusive"


@dataclass
class BlowupSignal:
    """Raised state from the exact nonlinear flow: the maximal node reaches
    infinity within the step.  ``remaining`` is its exact scalar blow-up
    remainder 1/(alpha |u|^alpha)."""

    node: tuple
    remaining: float


# dt = min(h^2 2^{k/2}, DT_GROWTH_FRAC / (alpha ||u||^alpha)), the rung k
# moved by a probe of the sup's relative local error against STEP_TOL every
# PROBE_EVERY steps on the ladder; singular data hand off from the Picard
# slices near HANDOFF_FRAC * T
STEP_TOL = 3e-7
PROBE_EVERY = 16
DT_GROWTH_FRAC = 0.1
HANDOFF_FRAC = 0.01
FIT_RESIDUAL_GATE = 0.02
MAX_STEPS = 2_000_000


@dataclass
class EvolveControls:
    horizon: float = 50.0
    cap: float = 1e8
    fixed_dt: float | None = None


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    sups: np.ndarray
    dts: np.ndarray
    status: str
    t_max: float | None
    uncertainty: float | None
    fit_residual: float | None
    extrapolation_justified: bool
    handoff_time: float | None = None
    bound_violation: tuple | None = None
    notes: dict = field(default_factory=dict)

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "sup_norm", "dt", "status"])
            for t, s, d in zip(self.times, self.sups, self.dts):
                w.writerow([repr(float(t)), repr(float(s)), repr(float(d)),
                            self.status])

    def save_json(self, path: str) -> None:
        rec = {
            "status": self.status,
            "t_max": self.t_max,
            "uncertainty": self.uncertainty,
            "fit_residual": self.fit_residual,
            "extrapolation_justified": self.extrapolation_justified,
            "handoff_time": self.handoff_time,
            "last_time": float(self.times[-1]) if self.times.size else None,
            "last_sup": float(self.sups[-1]) if self.sups.size else None,
            "notes": self.notes,
        }
        with open(path, "w") as fh:
            json.dump(rec, fh, sort_keys=True, indent=1)


def _remaining(spec: SectorSpec, vmax: float) -> float:
    """Scalar blow-up time 1/(alpha vmax^alpha) of the reaction flow, inf
    unless a = +1.  On Python floats: a vmax^alpha that overflows gives 0,
    one that is 0 (vmax 0, or an underflow) gives inf."""
    if spec.sign_a < 0:
        return math.inf
    try:
        d = spec.alpha * vmax ** spec.alpha
    except OverflowError:
        return 0.0
    return 1.0 / d if d else math.inf


def _modulus_flow(spec: SectorSpec, absv, dt: float):
    """Moduli (an array) after the reaction flow over dt.  |u|^-alpha is inf
    at a zero node (and overflows at a tiny one); the flow maps inf back to
    0, so neither needs a mask, only the caller's errstate."""
    a, alpha = spec.sign_a, spec.alpha
    return (absv ** -alpha - a * alpha * dt) ** (-1.0 / alpha)


def _sup_flow(spec: SectorSpec, m: float, tau: float) -> float:
    """_modulus_flow of one modulus m on Python floats: m^-alpha that
    overflows (m 0 or tiny) flows back to 0, and a base that rounding left
    at or below 0 (m at its blow-up within tau) or whose power overflows
    gives inf."""
    alpha = spec.alpha
    try:
        base = m ** -alpha - spec.sign_a * alpha * tau
    except (OverflowError, ZeroDivisionError):
        return 0.0
    if base <= 0.0:
        return math.inf
    try:
        return base ** (-1.0 / alpha)
    except OverflowError:
        return math.inf


def _moduli(v: np.ndarray) -> tuple[np.ndarray, float]:
    """|v| and its max, which must be finite: the reaction flow would map
    NaN to 0 and hide it."""
    absv = np.abs(v)
    vmax = float(absv.max())
    if not math.isfinite(vmax):
        raise ValueError("field values must be finite")
    return absv, vmax


def nonlinear_substep(spec: SectorSpec, v: np.ndarray, dt: float, *,
                      moduli: tuple | None = None):
    """Exact pointwise flow of u' = a|u|^alpha u over dt.

    Returns the new values, or a BlowupSignal when a = +1 and some node's
    scalar blow-up time 1/(alpha|u|^alpha) falls within dt.  Non-finite
    input raises: the flow would map NaN to 0 and hide it.

    ``moduli`` is (|v|, max |v|) as the stepping loop formed and checked
    them: given, the call trusts them and dt and runs under the caller's
    ``np.errstate(over="ignore", divide="ignore")``.
    """
    if moduli is None:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        with np.errstate(over="ignore", divide="ignore"):
            return _react(spec, v, dt, *_moduli(v))
    return _react(spec, v, dt, *moduli)


def _react(spec: SectorSpec, v: np.ndarray, dt: float, absv: np.ndarray,
           vmax: float):
    """nonlinear_substep on checked moduli, under the caller's errstate."""
    remaining = _remaining(spec, vmax)
    if dt >= remaining:
        node = np.unravel_index(int(np.argmax(absv)), absv.shape)
        return BlowupSignal(node=node, remaining=remaining)
    return np.copysign(_modulus_flow(spec, absv, dt), v)


def strang_step(plan: KernelPlan, w: np.ndarray, pending: float, dt: float,
                *, moduli: tuple | None = None):
    """Fused Strang leg on raw values over the plan's grid: the reaction flow
    over ``pending`` plus the leading half dt/2, then the spectral heat
    step.  The result has the trailing half dt/2 pending on it.
    ``moduli`` goes to nonlinear_substep."""
    lead = nonlinear_substep(plan.spec, w, pending + 0.5 * dt, moduli=moduli)
    if isinstance(lead, BlowupSignal):
        return lead
    return _spectral_flow(plan, dt, lead)


def _step_limit(spec: SectorSpec, sup: float, room: float) -> float:
    """The largest step an adaptive run may take from sup with ``room``
    left to the horizon: the growth cap DT_GROWTH_FRAC/(alpha sup^alpha)
    or the room, whichever is smaller."""
    if sup > 0.0:
        return min(room, DT_GROWTH_FRAC / (spec.alpha * sup ** spec.alpha))
    return room


def _flowed_sup(spec: SectorSpec, m: float, tau: float) -> float:
    """Sup of a state of sup m with reaction time tau pending on it, inf
    when its maximal node blows up within tau."""
    if tau >= _remaining(spec, m):
        return math.inf
    return _sup_flow(spec, m, tau)


def _probe_error(plan: KernelPlan, w: np.ndarray, tau: float, dt: float,
                 pair: np.ndarray, moduli: tuple | None = None) -> float:
    """Step-doubling estimate of one dt step's local error in the sup,
    relative to it: one 2 dt leg from (w, tau) beside ``pair``, the state
    two dt legs reach from there.  The scheme is second order, so the
    2 dt leg errs by 8 and the pair by 2 units of one step's error.
    ``moduli`` (w's) goes to the 2 dt leg."""
    big = strang_step(plan, w, tau, 2.0 * dt, moduli=moduli)
    if isinstance(big, BlowupSignal):
        return math.inf
    spec = plan.spec
    sup = _flowed_sup(spec, float(np.abs(pair).max()), 0.5 * dt)
    diff = abs(_flowed_sup(spec, float(np.abs(big).max()), dt) - sup)
    return diff / (6.0 * sup) if diff else 0.0


def _leg(plan: KernelPlan, w: np.ndarray, moduli: tuple, pending: float,
         dt: float):
    """strang_step from w with its moduli: a BlowupSignal, or the new state
    and its moduli, checked finite."""
    new = strang_step(plan, w, pending, dt, moduli=moduli)
    if isinstance(new, BlowupSignal):
        return new
    return new, _moduli(new)


def _typeI_fit(spec: SectorSpec, times, sups):
    """Type-I diagnostics from the late-time sup-norm record.

    T_fit comes from the last sample's exact scalar remainder.  The gate
    residual is |alpha * slope + 1| of the log ||u|| vs log(T_fit - t) fit
    over the decades one step below the cap (measuring there avoids the
    endpoint amplification of the T uncertainty); the spread of the
    per-sample predictions T_k = t_k + 1/(alpha M_k^alpha) over the last
    decade is the reported uncertainty.
    """
    times = np.asarray(times)
    sups = np.asarray(sups)
    peak = sups[-1]
    rem_last = 1.0 / (spec.alpha * peak ** spec.alpha)
    T_fit = float(times[-1] + rem_last)
    last = sups >= 0.1 * peak
    # T_k - T_fit in cancellation-free order (rem_k can be far below the
    # float resolution of the absolute times for large alpha)
    d_k = 1.0 / (spec.alpha * sups[last] ** spec.alpha) \
        - (times[-1] - times[last])
    spread = float(np.max(d_k) - np.min(d_k))
    window = (sups >= 1e-4 * peak) & (sups <= 0.1 * peak)
    if np.count_nonzero(window) < 5:
        window = sups >= 1e-4 * peak
    t_w, m_w = times[window], sups[window]
    gap = (times[-1] - t_w) + rem_last
    if np.count_nonzero(gap > 0) < 3:
        return T_fit, spread, np.inf
    good = gap > 0
    slope = np.polyfit(np.log(gap[good]), np.log(m_w[good]), 1)[0]
    residual = float(abs(spec.alpha * slope + 1.0))
    return T_fit, spread, residual


def run_trajectory(plan: KernelPlan, f0: Field, t0: float,
                   controls: EvolveControls | None = None,
                   bound_fn=None) -> tuple[TrajectoryRecord, Field | None]:
    """Step f0 forward from time t0 until blow-up cap, horizon, or stall.

    ``bound_fn(t, modulus)`` is an optional nodewise envelope: given the
    moduli |u(t)| it returns their excess over it, or None when it certified
    them without one.  The first violation (t, node) is recorded (used for
    global-existence certificates).
    The last state is returned as a Field, or None after a blow-up.
    """
    c = controls or EvolveControls()
    spec, grid = plan.spec, plan.grid
    if f0.spec != spec or f0.grid != grid:
        raise ValueError("initial field and plan differ in spec or grid")
    # the spectral slot starts empty, so a run's numbers do not depend on
    # what the plan stepped before
    plan._last_dt = plan._propagator = None
    justified = (spec.N - 2) * spec.alpha < 4.0
    h = min(grid.axis_spacing(i) for i in range(grid.ndim))
    w, tau = f0.values, 0.0     # post-heat state, reaction time pending
    moduli = _moduli(w)         # |w| and its max, checked finite
    sup = moduli[1]
    times, sups, dts = [t0], [sup], [0.0]
    violation = None
    t = t0
    status = STATUS_INCONCLUSIVE
    t_max = uncertainty = residual = None
    rung, since_probe = 0, 0
    # inf is part of the reaction formula, and every state is checked finite
    # as its leg forms its moduli, so the legs run under this errstate
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(MAX_STEPS):
            if t >= c.horizon:
                status = STATUS_GLOBAL
                break
            if spec.sign_a > 0 and sup >= c.cap:
                t_max, uncertainty, residual = _typeI_fit(spec, times, sups)
                break
            room = c.horizon - t + 1e-15
            probe = False
            if c.fixed_dt is not None:
                dt = min(c.fixed_dt, room)
            else:
                ladder = h * h * 2.0 ** (0.5 * rung)
                limit = _step_limit(spec, sup, room)
                dt = min(ladder, limit)
                probe = since_probe >= PROBE_EVERY and 2.0 * dt <= limit
                if dt == ladder:
                    since_probe += 1
            legs = [_leg(plan, w, moduli, tau, dt)]
            if probe and not isinstance(legs[0], BlowupSignal):
                legs.append(_leg(plan, *legs[0], 0.5 * dt, dt))
                if not isinstance(legs[1], BlowupSignal):
                    est = _probe_error(plan, w, tau, dt, legs[1][0], moduli)
                    if est > STEP_TOL:
                        rung -= 1           # discard the pair, probe again
                        continue
                    since_probe = 0
                    if 2.0 ** 1.5 * est <= STEP_TOL:
                        rung += 1
            for stepped in legs:
                if isinstance(stepped, BlowupSignal):
                    # remaining counts from the reaction time t - tau of w
                    t_max = t - tau + stepped.remaining
                    break
                (w, moduli), tau, t = stepped, 0.5 * dt, t + dt
                # blow-up within the trailing half
                if tau >= (rem := _remaining(spec, moduli[1])):
                    t_max = t - tau + rem
                    break
                sup = _sup_flow(spec, moduli[1], tau)
                if not math.isfinite(sup):
                    raise ValueError("field values must be finite")
                times.append(t)
                sups.append(sup)
                dts.append(dt)
                if bound_fn is not None and violation is None:
                    excess = bound_fn(t, _modulus_flow(spec, moduli[0], tau))
                    if excess is not None and np.any(excess > 0.0):
                        node = np.unravel_index(int(np.argmax(excess)),
                                                w.shape)
                        violation = (t, tuple(int(i) for i in node))
            if t_max is not None:
                break
    if t_max is not None and uncertainty is None:
        # a sub-flow diverged inside the last step: no state to return
        _, uncertainty, residual = _typeI_fit(spec, times, sups)
        w = None
    if residual is not None and residual < FIT_RESIDUAL_GATE:
        status = STATUS_BLEWUP
    rec = TrajectoryRecord(
        times=np.array(times), sups=np.array(sups), dts=np.array(dts),
        status=status, t_max=t_max, uncertainty=uncertainty,
        fit_residual=residual, extrapolation_justified=justified,
        bound_violation=violation)
    if not justified and status == STATUS_BLEWUP:
        rec.notes["extrapolation_unjustified"] = True
    if w is not None and tau > 0.0:
        w = nonlinear_substep(spec, w, tau)    # the pending trailing half
    return rec, None if w is None else Field(spec, grid, w)


def estimate_tmax(profile, plan: KernelPlan,
                  controls: EvolveControls | None = None) -> TrajectoryRecord:
    """T_max estimate: contraction construction on a short initial window
    for singular data, then adaptive Strang stepping to blow-up or horizon.
    The plan is the run: its spec is the equation and its grid the box; a
    profile made for another spec is refused before any work.

    Singular data hand off at the first node of the certificate's graded
    mesh at or after max(HANDOFF_FRAC T, (2h)^2), and the Picard solve
    covers only the mesh up to that node.  Their record's notes carry
    ``picard_slices`` (solved) and ``picard_sweeps``, and
    ``handoff_below_grid_scale`` when the mesh ends before (2h)^2, so the
    hand-off is its last node, T.
    """
    check_profile_spec(profile, plan)
    spec, grid = plan.spec, plan.grid
    # singular data carry the homogeneity degree of their tail
    use_picard = getattr(profile, "tail_degree", None) is not None
    if use_picard:
        K = profile.x_norm()
        _, T = admissible_constants(spec, K)
        # hand off at the first mesh node that the grid resolves: the
        # solve stops there, and its last slice is the hand-off state
        h = max(grid.axis_spacing(i) for i in range(grid.ndim))
        grid_scale = (2.0 * h) ** 2
        run = solve_picard(profile, plan, K=K,
                           until=max(HANDOFF_FRAC * T, grid_scale))
        f0 = run.slices[-1]
        t0 = float(run.config.mesh[-1])
    else:
        f0 = field_from_profile(spec, grid, profile)
        t0 = 0.0
    rec, _ = run_trajectory(plan, f0, t0, controls)
    if use_picard:
        rec.handoff_time = t0
        rec.notes.update(picard_slices=len(run.slices),
                         picard_sweeps=len(run.increments))
        if t0 < grid_scale:
            # the certified horizon T ends before the grid resolves sqrt(t)
            rec.notes["handoff_below_grid_scale"] = True
    return rec
