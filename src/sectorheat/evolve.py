"""Forward time stepping past the contraction horizon, with blow-up capture.

Strang splitting of u_t = Lap u + a|u|^alpha u into two exactly solvable
sub-flows: the spectral heat step (exact in time for the discrete modes)
and the pointwise nonlinear flow

    u' = a|u|^alpha u   =>   |u|^{-alpha} -> |u|^{-alpha} - a alpha dt,

sign preserved, which blows up in finite time exactly when a = +1.
T_max is reported from the scalar remainder at the last resolved state,
gated by a type-I rate fit ||u(t)|| ~ (alpha (T - t))^{-1/alpha}.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import Field, GridSpec, SectorSpec, field_from_profile
from .semigroup import KernelPlan, _spectral_flow
from .picard import check_profile_spec, solve_picard

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


# dt = min(DT_SAFETY h^2, DT_GROWTH_FRAC / (alpha ||u||^alpha)); singular
# data hand off from the Picard slices near HANDOFF_FRAC * T
DT_SAFETY = 1.0
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


def nonlinear_substep(spec: SectorSpec, v: np.ndarray, dt: float):
    """Exact pointwise flow of u' = a|u|^alpha u over dt.

    Returns the new values, or a BlowupSignal when a = +1 and some node's
    scalar blow-up time 1/(alpha|u|^alpha) falls within dt.  Non-finite
    input raises: the flow would map NaN to 0 and hide it.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    a, alpha = spec.sign_a, spec.alpha
    absv = np.abs(v)
    vmax = float(absv.max())
    if not np.isfinite(vmax):
        raise ValueError("field values must be finite")
    if a > 0 and vmax > 0.0:
        remaining = 1.0 / (alpha * vmax ** alpha)
        if dt >= remaining:
            node = np.unravel_index(int(np.argmax(absv)), absv.shape)
            return BlowupSignal(node=node, remaining=remaining)
    out = np.zeros_like(v)
    nz = absv > 0.0
    out[nz] = np.sign(v[nz]) * (absv[nz] ** -alpha
                                - a * alpha * dt) ** (-1.0 / alpha)
    return out


def strang_step(plan: KernelPlan, v: np.ndarray, dt: float):
    """Half nonlinear flow, exact spectral heat step, half nonlinear flow,
    on raw values over the plan's grid."""
    half = nonlinear_substep(plan.spec, v, 0.5 * dt)
    if isinstance(half, BlowupSignal):
        return half
    heated = _spectral_flow(plan, dt, half)
    return nonlinear_substep(plan.spec, heated, 0.5 * dt)


def _pick_dt(spec: SectorSpec, grid: GridSpec, sup: float,
             c: EvolveControls) -> float:
    if c.fixed_dt is not None:
        return c.fixed_dt
    h = min(grid.axis_spacing(i) for i in range(grid.ndim))
    dt = DT_SAFETY * h * h
    if sup > 0.0:
        dt = min(dt, DT_GROWTH_FRAC / (spec.alpha * sup ** spec.alpha))
    return dt


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

    ``bound_fn(t) -> array`` is an optional nodewise envelope; the first
    violation is recorded (used for global-existence certificates).
    The last state is returned as a Field, or None after a blow-up.
    """
    c = controls or EvolveControls()
    spec, grid = plan.spec, plan.grid
    if f0.spec != spec or f0.grid != grid:
        raise ValueError("initial field and plan differ in spec or grid")
    justified = (spec.N - 2) * spec.alpha < 4.0
    v = f0.values
    sup = f0.sup_norm()
    times, sups, dts = [t0], [sup], [0.0]
    violation = None
    t = t0
    status = STATUS_INCONCLUSIVE
    t_max = uncertainty = residual = None
    for _ in range(MAX_STEPS):
        if t >= c.horizon:
            status = STATUS_GLOBAL
            break
        if spec.sign_a > 0 and sup >= c.cap:
            t_max, uncertainty, residual = _typeI_fit(spec, times, sups)
            break
        dt = min(_pick_dt(spec, grid, sup, c), c.horizon - t + 1e-15)
        stepped = strang_step(plan, v, dt)
        if isinstance(stepped, BlowupSignal):
            # the exact sub-flow diverged inside the step
            _, uncertainty, residual = _typeI_fit(spec, times, sups)
            t_max = t + stepped.remaining
            v = None
            break
        v = stepped
        sup = float(np.max(np.abs(v)))
        if not np.isfinite(sup):
            raise ValueError("field values must be finite")
        t += dt
        times.append(t)
        sups.append(sup)
        dts.append(dt)
        if bound_fn is not None and violation is None:
            excess = np.abs(v) - bound_fn(t)
            if np.any(excess > 0.0):
                violation = (t, np.unravel_index(int(np.argmax(excess)),
                                                 v.shape))
    if residual is not None and residual < FIT_RESIDUAL_GATE:
        status = STATUS_BLEWUP
    rec = TrajectoryRecord(
        times=np.array(times), sups=np.array(sups), dts=np.array(dts),
        status=status, t_max=t_max, uncertainty=uncertainty,
        fit_residual=residual, extrapolation_justified=justified,
        handoff_time=t0, bound_violation=violation)
    if not justified and status == STATUS_BLEWUP:
        rec.notes["extrapolation_unjustified"] = True
    last = None if v is None else Field(spec, grid, v, time_tag=t)
    return rec, last


def estimate_tmax(profile, plan: KernelPlan,
                  controls: EvolveControls | None = None) -> TrajectoryRecord:
    """T_max estimate: contraction construction on a short initial window
    for singular data, then adaptive Strang stepping to blow-up or horizon.
    The plan is the run: its spec is the equation and its grid the box; a
    profile made for another spec is refused before any work.
    """
    check_profile_spec(profile, plan)
    spec, grid = plan.spec, plan.grid
    # singular data carry the homogeneity degree of their tail
    use_picard = getattr(profile, "tail_degree", None) is not None
    if use_picard:
        run = solve_picard(profile, plan)
        mesh = run.config.mesh
        # hand off at the first converged slice that the grid resolves
        h = max(grid.axis_spacing(i) for i in range(grid.ndim))
        t_target = max(HANDOFF_FRAC * run.config.T, (2.0 * h) ** 2)
        j = int(np.searchsorted(mesh, t_target))
        j = min(j, len(mesh) - 1)
        f0 = run.slices[j]
        t0 = float(mesh[j])
    else:
        f0 = field_from_profile(spec, grid, profile)
        t0 = 0.0
    rec, _ = run_trajectory(plan, f0, t0, controls)
    rec.handoff_time = t0 if use_picard else None
    return rec
