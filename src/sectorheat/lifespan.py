"""Life-span experiments: amplitude sweeps of T_max, dilation-limit probes,
the blow-up criterion, oscillating-lifespan constructions, and the
global-existence-by-smallness certificate.

The workhorse identity is parabolic rescaling: u_mu(t,x) = mu^{2/alpha}
u(mu^2 t, mu x) solves the same equation, so for tail-modulated data
f = psi0 * g(log|x|),

    lam^sigma T_max(lam f) = T_max( psi0 * g(log|x| + s) ),
    s = -(sigma/2) log lam,    sigma = (1/alpha - (gamma+m)/2)^{-1}.

Small-amplitude limits of the scaled life span are therefore exactly
log-shift limits of the modulation, which the solver can reach directly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .geometry import Field, SectorSpec, field_from_profile
from .profiles import (ConstantModulation, LogBlockModulation,
                       ModulatedProfile, Psi0Profile, eval_psi0)
from .semigroup import (KernelPlan, _kummer_params, apply_kernel,
                        check_profile_spec, linear_sup, psi_fast, psi_sup,
                        psi_values)
from .evolve import (STATUS_BLEWUP, STATUS_GLOBAL, EvolveControls,
                     estimate_tmax_many, run_trajectory)

# dilation probes sample N_RADIAL log-spaced radii in ANNULUS along
# N_ANGULAR sector directions, and call two probes equal within CONV_TOL
ANNULUS = (1.0, 2.0)
N_RADIAL = 64
N_ANGULAR = 16
CONV_TOL = 1e-6
# the blow-up criterion calls a candidate limit zero below this mean |z|
ZERO_TOL = 1e-8
# the oscillating life span uses psi0 (sin^2(log|x|) + OSC_EPS) and checks
# the log-shift identity by a direct run at amplitude CHECK_LAMBDA
OSC_EPS = 0.05
CHECK_LAMBDA = 0.5
# log-radius blocks whose centres the two-limit experiment shifts to
BLOCKS = (6, 8)
# short times at which the nonexistence signature compares Psi to the
# universal bound
NONEXISTENCE_T0 = (1e-2, 1e-3, 1e-4, 1e-5)
# margin of the smallness envelope's monotone bound over 1F1's 1e-12 error
ENVELOPE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# amplitude sweeps

@dataclass
class LifespanCurve:
    sigma: float
    lambdas: list
    t_max: list
    uncertainty: list
    scaled: list           # lam^sigma * T_max
    statuses: list
    slope: float | None    # log T_max vs log lam fit over conclusive points
    monotone: bool

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["lambda", "t_max", "uncertainty", "scaled", "status"])
            for row in zip(self.lambdas, self.t_max, self.uncertainty,
                           self.scaled, self.statuses):
                w.writerow([repr(v) if isinstance(v, float) else v
                            for v in row])


def sweep_lifespan(profile, lambdas, plan: KernelPlan,
                   controls: EvolveControls | None = None) -> LifespanCurve:
    """T_max(lam * profile) across amplitudes, with sigma-scaled values and
    a log-log slope fit; the plan's spec is the run's.  Inconclusive points
    are kept in the record but excluded from the fit."""
    spec = plan.spec
    lambdas = [float(l) for l in lambdas]
    t_max, unc, scaled, statuses = [], [], [], []
    recs = estimate_tmax_many([profile.scaled(lam) for lam in lambdas], plan,
                              controls=controls)
    for lam, rec in zip(lambdas, recs):
        statuses.append(rec.status)
        if rec.status == STATUS_BLEWUP:
            t_max.append(rec.t_max)
            unc.append(rec.uncertainty)
            scaled.append(lam ** spec.sigma * rec.t_max)
        else:
            t_max.append(np.inf if rec.status == STATUS_GLOBAL else np.nan)
            unc.append(np.nan)
            scaled.append(np.nan)
    ok = [i for i, s in enumerate(statuses) if s == STATUS_BLEWUP]
    slope = None
    if len(ok) >= 2:
        slope = float(np.polyfit(np.log([lambdas[i] for i in ok]),
                                 np.log([t_max[i] for i in ok]), 1)[0])
    finite = [(l, t, u) for l, t, u, s in zip(lambdas, t_max, unc, statuses)
              if s == STATUS_BLEWUP]
    finite.sort()
    # T_max(lam f) is non-increasing in lam for ordered nonnegative data
    monotone = all(t_lo + u_lo + u_hi >= t_hi
                   for (_, t_lo, u_lo), (_, t_hi, u_hi)
                   in zip(finite, finite[1:]))
    return LifespanCurve(sigma=spec.sigma, lambdas=lambdas, t_max=t_max,
                         uncertainty=unc, scaled=scaled, statuses=statuses,
                         slope=slope, monotone=monotone)


# ---------------------------------------------------------------------------
# dilation limits

@dataclass
class DilationProbe:
    lambdas: list
    points: np.ndarray      # ANNULUS sample points, shape (P, N)
    probes: np.ndarray      # lam^(gamma+m) f(lam x) per lambda, shape (len, P)
    distances: np.ndarray   # pairwise mean-L1 on the annulus
    limit: np.ndarray | None
    converged: bool
    bound_ok: bool          # every probe obeys |.| <= K psi0


def _annulus_points(spec: SectorSpec) -> np.ndarray:
    """Sector sample points with radii log-spaced in ANNULUS; directions
    sampled in the open sector interior."""
    r0, r1 = ANNULUS
    radii = np.geomspace(r0 * 1.001, r1 * 0.999, N_RADIAL)
    rng = np.random.default_rng(20240817)
    dirs = np.abs(rng.standard_normal((N_ANGULAR, spec.N))) + 0.05
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, spec.N)
    return pts


def dilation_limits(spec: SectorSpec, profile, lambdas) -> DilationProbe:
    """Evaluate lam^{gamma+m} f(lam x) on a fixed annulus for growing lam.

    Convergence (the tail of pairwise distances below tolerance) identifies
    a limit candidate; non-convergence is itself a finding.  The bound
    check uses K = ||f||_X, infinite for a profile with no x_norm.
    """
    pts = _annulus_points(spec)
    lambdas = [float(l) for l in lambdas]
    psi0v = eval_psi0(spec, pts)
    probes = np.array([lam ** spec.decay * np.asarray(profile(pts * lam))
                       for lam in lambdas])
    P = len(lambdas)
    dist = np.zeros((P, P))
    for i in range(P):
        for j in range(i + 1, P):
            dist[i, j] = dist[j, i] = float(
                np.mean(np.abs(probes[i] - probes[j])))
    scale = max(float(np.max(np.abs(probes))), 1e-300)
    converged = P >= 2 and dist[-1, -2] <= CONV_TOL * scale + CONV_TOL
    limit = probes[-1].copy() if converged else None
    K = getattr(profile, "x_norm", lambda: np.inf)()
    bound_ok = bool(np.all(np.abs(probes) <= K * psi0v[None, :] * (1 + 1e-10)))
    return DilationProbe(lambdas=lambdas, points=pts,
                         probes=probes, distances=dist, limit=limit,
                         converged=converged, bound_ok=bound_ok)


# ---------------------------------------------------------------------------
# blow-up criterion

CRITICAL_THRESHOLD = lambda alpha: (1.0 / alpha) ** (1.0 / alpha)


def blowup_criterion_check(z, plan: KernelPlan) -> dict:
    """Blow-up prediction from a dilation-limit candidate z >= 0 on the
    sector of the plan's spec.

    Subcritical alpha: any nontrivial z predicts finite-time blow-up.
    Critical alpha = 2/(gamma+m): prediction requires the linear-flow
    sup-norm ||e^D z|| to exceed (1/alpha)^(1/alpha).
    """
    check_profile_spec(z, plan)
    spec, grid = plan.spec, plan.grid
    if isinstance(z, Field):
        zf = z
    else:
        zf = field_from_profile(spec, grid, z)
    if not zf.is_nonnegative():
        raise ValueError("criterion requires z >= 0 on the sector")
    mass = float(np.mean(np.abs(zf.values)))
    report = {"mass": mass, "alpha": spec.alpha,
              "alpha_critical": spec.alpha_critical}
    if mass <= ZERO_TOL:
        report["verdict"] = "undetermined"
        report["reason"] = "z is numerically zero"
        return report
    if spec.subcritical:
        report["verdict"] = "blowup_predicted"
        report["reason"] = "nontrivial limit, subcritical alpha"
        return report
    if abs(spec.alpha - spec.alpha_critical) / spec.alpha_critical < 1e-12:
        if zf.profile is not None:
            sup = linear_sup(plan, zf.profile, 1.0)
        else:
            sup = apply_kernel(plan, 1.0, zf).sup_norm()
        thr = CRITICAL_THRESHOLD(spec.alpha)
        report["linear_sup"] = sup
        report["threshold"] = thr
        report["verdict"] = ("blowup_predicted" if sup > thr
                             else "undetermined")
        report["reason"] = "critical-threshold comparison"
        return report
    report["verdict"] = "undetermined"
    report["reason"] = "supercritical alpha: criterion not applicable"
    return report


# ---------------------------------------------------------------------------
# oscillating life span via the exact log-shift identity

def shifted_equivalent(spec: SectorSpec, profile: ModulatedProfile,
                       lam: float) -> ModulatedProfile:
    """The profile whose T_max equals lam^sigma T_max(lam * profile),
    exactly: the modulation log-shifted by s = -(sigma/2) log lam."""
    return profile.log_shifted(-(spec.sigma / 2.0) * np.log(lam))


def lam_for_shift(spec: SectorSpec, s: float) -> float:
    """Inverse of the shift map: the amplitude whose scaled life span is
    realized by the shift-s profile."""
    return float(np.exp(-2.0 * s / spec.sigma))


def _tmax_of(profiles, plan, controls=None) -> list:
    """(T_max, uncertainty) of each profile, all run by one
    estimate_tmax_many; the first in input order that did not blow up
    raises."""
    out = []
    for rec in estimate_tmax_many(profiles, plan, controls=controls):
        if rec.status != STATUS_BLEWUP:
            raise RuntimeError(f"expected finite life span, got {rec.status}")
        out.append((rec.t_max, rec.uncertainty))
    return out


def oscillation_experiment(plan: KernelPlan) -> dict:
    """Scaled life-span limits of psi0 (sin^2(log|x|) + OSC_EPS) along the two
    shift-matched amplitude subsequences (period pi vs offset pi/2), plus a
    homogeneous control and a direct simulation validating the identity;
    the plan's spec is the run's."""
    from .profiles import SinSquaredLog
    spec = plan.spec
    base = ModulatedProfile(spec, SinSquaredLog(OSC_EPS))
    # control: constant modulation shows no shift dependence at all
    ctrl = ModulatedProfile(spec, ConstantModulation(1.0 + OSC_EPS))
    # identity validation: simulate lam * f directly at a moderate amplitude
    lam = CHECK_LAMBDA
    ((t_a, u_a), (t_b, u_b), (c_a, cu_a), (c_b, cu_b), (direct, _),
     (via_shift, _)) = _tmax_of(
        [base.log_shifted(0.0), base.log_shifted(0.5 * np.pi),
         ctrl.log_shifted(0.0), ctrl.log_shifted(0.5 * np.pi),
         base.scaled(lam), shifted_equivalent(spec, base, lam)], plan)
    gap = abs(t_a - t_b)
    combined = u_a + u_b
    identity_rel = abs(lam ** spec.sigma * direct - via_shift) / via_shift
    return {
        "scaled_limit_seq_a": t_a, "uncertainty_a": u_a,
        "scaled_limit_seq_b": t_b, "uncertainty_b": u_b,
        "gap": gap, "combined_uncertainty": combined,
        "gap_significant": bool(gap > 5.0 * combined),
        "control_gap": abs(c_a - c_b),
        "control_uncertainty": cu_a + cu_b,
        "control_flat": bool(abs(c_a - c_b) <= 5.0 * (cu_a + cu_b)
                             + 1e-12 * c_a),
        "identity_check_lambda": lam,
        "identity_rel_error": identity_rel,
        "subsequence_lambda_example": [lam_for_shift(spec, np.pi * k)
                                       for k in (1, 2, 3)],
    }


def two_limit_experiment(plan: KernelPlan, c1: float = 1.0, c2: float = 2.0,
                         controls: EvolveControls | None = None) -> dict:
    """Tail interpolating c1*psi0 and c2*psi0 on alternating log-radius
    blocks of geometrically growing length: the scaled life span along
    shift sequences centered in even blocks tends to T_max(c1 psi0), along
    odd blocks to T_max(c2 psi0), so the small-amplitude limit genuinely
    depends on the subsequence.  The plan's spec is the run's."""
    spec = plan.spec
    g = LogBlockModulation(c1, c2)
    prof = ModulatedProfile(spec, g)
    n = len(BLOCKS)
    runs = _tmax_of(
        [prof.log_shifted(g.block_center(2 * k + odd))
         for odd in (0, 1) for k in BLOCKS]
        + [Psi0Profile(spec, c1), Psi0Profile(spec, c2)], plan, controls)
    lim_a, lim_b = runs[:n], runs[n:2 * n]
    (ref1, r1u), (ref2, r2u) = runs[2 * n:]
    t_a, u_a = lim_a[-1]
    t_b, u_b = lim_b[-1]
    stab_a = max(abs(t - t_a) for t, _ in lim_a)
    stab_b = max(abs(t - t_b) for t, _ in lim_b)
    return {
        "c1": c1, "c2": c2,
        "limit_even_blocks": t_a, "limit_odd_blocks": t_b,
        "uncertainty_even": u_a, "uncertainty_odd": u_b,
        "stabilization_even": stab_a, "stabilization_odd": stab_b,
        "reference_Tmax_c1": ref1, "reference_Tmax_c2": ref2,
        "matches_references": bool(
            abs(t_a - ref1) <= 0.02 * ref1 + stab_a + u_a + r1u
            and abs(t_b - ref2) <= 0.02 * ref2 + stab_b + u_b + r2u),
        "gap": abs(t_a - t_b),
        "gap_significant": bool(abs(t_a - t_b)
                                > 5.0 * (u_a + u_b + stab_a + stab_b)),
        "ordering_consistent": bool((c2 > c1) == (t_b < t_a)),
    }


# ---------------------------------------------------------------------------
# global existence by smallness (supercritical alpha)

def tail_alpha_integral(spec: SectorSpec, t0: float) -> float:
    """int_{t0}^infty ||Psi||^alpha dt, finite exactly when alpha is
    supercritical."""
    expo = spec.alpha * spec.decay / 2.0 - 1.0
    if expo <= 0.0:
        raise ValueError("tail integral diverges for subcritical alpha")
    return psi_sup(spec, 1.0) ** spec.alpha * t0 ** (-expo) / expo


def global_smallness_threshold(spec: SectorSpec, t0: float) -> float:
    """Largest amplitude lam for which data lam * Psi(t0) is certified
    global: 2^{alpha+2} (alpha+1) lam^alpha * tail integral <= 1."""
    I = tail_alpha_integral(spec, t0)
    return (2.0 ** (spec.alpha + 2.0) * (spec.alpha + 1.0) * I) \
        ** (-1.0 / spec.alpha)


def global_smallness_check(plan: KernelPlan, t0: float = 0.1,
                           lam: float | None = None,
                           horizon_factor: float = 100.0) -> dict:
    """Long-horizon run with data lam * Psi(t0), asserting the envelope
    |u(t)| <= 2 lam Psi(t + t0) nodewise to the horizon, for the plan's
    spec on its grid.

    Psi(s, x) = k x_1...x_m s^-a 1F1(a; b; -|x|^2/4s), a = gamma/2 + m, and
    1F1(a; b; -z) is positive and decreasing in z for 0 < a < b, so
    s^a Psi(s, x) is nondecreasing in s: Psi(s) >= (s1/s)^a Psi(s1) for
    s >= s1.  A state below (1 - ENVELOPE_SLACK) times that bound from the
    last exact envelope M Psi(s1) cannot violate; any other is compared
    with M Psi(s) exactly, which becomes the new anchor.
    """
    spec, grid = plan.spec, plan.grid
    thr = global_smallness_threshold(spec, t0)
    if lam is None:
        lam = 0.5 * thr
    c = EvolveControls(horizon=horizon_factor * t0)
    f0 = Field(spec, grid, lam * psi_fast(spec, t0, grid).values)
    M = 2.0 * lam
    pts = grid.points()
    a = _kummer_params(spec)[0]
    s1, bound1 = t0, 2.0 * f0.values    # the anchor: s1 and M Psi(s1)

    def envelope(t, modulus):
        nonlocal s1, bound1
        s = t + t0
        if np.all(modulus <= (1.0 - ENVELOPE_SLACK) * (s1 / s) ** a * bound1):
            return None
        s1, bound1 = s, M * psi_values(spec, s, pts)
        return modulus - bound1

    rec, _ = run_trajectory(plan, f0, 0.0, c, bound_fn=envelope)
    return {
        "t0": t0, "lambda": lam, "threshold": thr,
        "horizon": c.horizon, "status": rec.status,
        "bound_violation": rec.bound_violation,
        "certified": bool(rec.status == STATUS_GLOBAL
                          and rec.bound_violation is None),
        "final_sup": float(rec.sups[-1]),
    }


def nonexistence_signature(spec: SectorSpec) -> dict:
    """Supercritical nonexistence evidence: for data >= psi0 near 0 the
    short-time linear value violates the universal bound ||u(t)|| <=
    (alpha t)^{-1/alpha}, increasingly so as t0 -> 0."""
    if spec.subcritical:
        raise ValueError("signature applies to supercritical alpha only")
    ratios = []
    for t0 in NONEXISTENCE_T0:
        bound = (spec.alpha * t0) ** (-1.0 / spec.alpha)
        ratios.append(psi_sup(spec, t0) / bound)
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    return {"t0": list(NONEXISTENCE_T0), "ratio_to_bound": ratios,
            "diverges": bool(increasing and ratios[-1] > 1.0),
            "verdict": ("nonexistence_evidence"
                        if increasing and ratios[-1] > 1.0 else
                        "inconclusive")}


def save_report(report: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=1, default=float)
