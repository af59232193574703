"""End-to-end acceptance suite.

Each test exercises one headline capability at its stated tolerance and
reports a single pass/fail line (printed in the terminal summary).
"""

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from sectorheat import (AXIS_PERIODIC, Field, GridSpec, KernelPlan,
                        SectorSpec, apply_kernel, apply_spectral,
                        field_from_profile, linear_sup, psi_sup)
from sectorheat.evolve import (STATUS_BLEWUP, STATUS_GLOBAL, EvolveControls,
                               estimate_tmax, run_trajectory)
from sectorheat.lifespan import (blowup_criterion_check,
                                 global_smallness_check,
                                 oscillation_experiment, sweep_lifespan)
from sectorheat.picard import (contraction_bound, data_x_distance,
                               lipschitz_bound, lipschitz_check, solve_picard)
from sectorheat.profiles import (ConstantProfile, GaussianDerivativeProfile,
                                 ModulatedProfile, Psi0Profile, SinSquaredLog)


def _verdict(num, name, ok, detail):
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


@pytest.fixture(scope="module")
def setup20():
    spec = SectorSpec(2, 0, 1.0, 0.5, +1)
    grid = GridSpec.for_spec(spec, L=8.0, n=64)
    return spec, grid, KernelPlan(spec, grid)


@pytest.fixture(scope="module")
def sweep11(setup11):
    spec, grid, plan = setup11
    return sweep_lifespan(Psi0Profile(spec), (0.5, 1.0, 2.0), plan)


def _sup_law_spread(spec, plan):
    vals = [t ** (spec.decay / 2.0) * linear_sup(plan, Psi0Profile(spec), t)
            for t in (0.25, 1.0, 4.0)]
    return (max(vals) - min(vals)) / vals[1]


def test_criterion_01_sup_norm_law(setup11, setup21, setup20):
    spreads = {}
    for spec, grid, plan in (setup11[:3], setup21, setup20):
        spreads[(spec.N, spec.m)] = _sup_law_spread(spec, plan)
    worst = max(spreads.values())
    _verdict(1, "linear sup-norm decay law", worst < 5e-3,
             f"max rel spread {worst:.2e} over {sorted(spreads)}")


def test_criterion_02_cross_method(setup21):
    # the bump x_1 e^{-|x|^2} is pi^{N/2} 2^{-m} G_{1/4}, so its exact flow
    # is the same multiple of G_{1/4 + t}; the composition of radial_flow
    # takes the bump flowed for 0.1 in closed form on for 0.2
    spec, grid, plan = setup21
    pts = grid.points()
    f = Field(spec, grid, pts[..., 0] * np.exp(-np.sum(pts * pts, axis=-1)))
    amp = np.pi ** (spec.N / 2.0) * 2.0 ** -spec.m
    exact = GaussianDerivativeProfile(spec, 0.25 + 0.3, amp)(pts)
    s = apply_spectral(plan, 0.3, f)
    cross = float(np.max(np.abs(s.values - exact)) / np.max(np.abs(exact)))
    sa = apply_spectral(plan, 0.2, apply_spectral(plan, 0.1, f))
    sb = apply_spectral(plan, 0.3, f)
    comp_s = float(np.max(np.abs(sa.values - sb.values)) / sb.sup_norm())
    qa = apply_kernel(plan, 0.2, field_from_profile(
        spec, grid, GaussianDerivativeProfile(spec, 0.25 + 0.1, amp)))
    qb = apply_kernel(plan, 0.3, field_from_profile(
        spec, grid, GaussianDerivativeProfile(spec, 0.25, amp)))
    comp_q = float(np.max(np.abs(qa.values - qb.values)) / qb.sup_norm())
    ok = cross < 1e-3 and comp_s < 1e-6 and comp_q < 1e-3
    _verdict(2, "spectral flow against the exact flow, and composition", ok,
             f"cross {cross:.1e} against the exact flow G_(1/4+t), "
             f"comp spectral {comp_s:.1e}, comp radial_flow {comp_q:.1e}")


def test_criterion_03_picard_certification(setup11):
    spec, grid, plan = setup11
    run = solve_picard(Psi0Profile(spec), plan, J=10)
    q = contraction_bound(spec, run.config.M, run.config.T)
    p1, p2 = Psi0Profile(spec, 1.0), Psi0Profile(spec, 1.1)
    r1 = solve_picard(p1, plan, K=1.1, J=8)
    r2 = solve_picard(p2, plan, K=1.1, J=8)
    lratio = lipschitz_check(r1, r2, data_x_distance(spec, grid, p1, p2))
    lbound = lipschitz_bound(spec, r1.config.M, r1.config.T)
    ok = (run.converged and run.xt_norm <= run.config.M * (1 + 1e-9)
          and run.contraction_ratio <= q * 1.05
          and lratio <= lbound * 1.05)
    _verdict(3, "contraction construction certificates", ok,
             f"ratio {run.contraction_ratio:.3f} <= {q:.3f}, "
             f"norm {run.xt_norm:.3f} <= {run.config.M}, "
             f"Lipschitz {lratio:.3f} <= {lbound:.3f}")


def _ode_tmax(n):
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec(L=np.pi, n=n, axes=(AXIS_PERIODIC,))
    return estimate_tmax(ConstantProfile(spec, 1.0), KernelPlan(spec, grid))


def test_criterion_04_ode_oracle():
    rec = _ode_tmax(16)
    err = abs(rec.t_max - 1.0)
    _verdict(4, "exact scalar blow-up oracle",
             rec.status == STATUS_BLEWUP and err < 1e-3,
             f"T_max err {err:.1e}")


def test_criterion_05_lifespan_scaling(sweep11, setup11):
    spec = setup11[0]
    curve = sweep11
    base = curve.t_max[curve.lambdas.index(1.0)]
    devs = [abs(lam ** spec.sigma * t / base - 1.0)
            for lam, t in zip(curve.lambdas, curve.t_max) if lam != 1.0]
    ok = all(s == STATUS_BLEWUP for s in curve.statuses) and max(devs) < 0.02
    _verdict(5, "life-span amplitude scaling", ok,
             f"max scaled deviation {max(devs):.2%} at lambda in (1/2, 2)")


def test_criterion_06_a_priori_upper_bound(sweep11, setup11):
    spec, grid, plan = setup11
    # t* solves C_inf t^{-(gamma+m)/2} = (alpha t)^{-1/alpha}
    C_inf = psi_sup(spec, 1.0)
    t_star = (spec.alpha ** (-1.0 / spec.alpha) / C_inf) ** spec.sigma
    t_max = sweep11.t_max[sweep11.lambdas.index(1.0)]
    _verdict(6, "a-priori life-span upper bound", t_max <= t_star,
             f"T_max {t_max:.4f} <= t* {t_star:.4f}")


def test_criterion_07_order_properties(setup11):
    spec, grid, plan = setup11
    neg = SectorSpec(spec.N, spec.m, spec.gamma, spec.alpha, sign_a=-1)

    def slack(ref):
        return 1e-8 * np.maximum(1.0, np.abs(ref))

    checks = {}
    # (1) positivity, amplifying sign
    r_pos = solve_picard(Psi0Profile(spec), plan, J=8)
    checks["positivity a=+1"] = all(
        np.all(s.values >= -slack(s.values)) for s in r_pos.slices)
    # (2) positivity, absorbing sign
    r_neg = solve_picard(Psi0Profile(neg), KernelPlan(neg, grid), J=8)
    checks["positivity a=-1"] = all(
        np.all(s.values >= -slack(s.values)) for s in r_neg.slices)
    # (3) comparison for ordered data
    r_small = solve_picard(Psi0Profile(spec, 1.0), plan, K=1.2, J=8)
    r_big = solve_picard(Psi0Profile(spec, 1.2), plan, K=1.2, J=8)
    checks["comparison"] = all(
        np.all(a.values <= b.values + slack(b.values))
        for a, b in zip(r_small.slices, r_big.slices))
    # (4) modulus domination for sign-changing data
    r_signed = solve_picard(ModulatedProfile(spec, np.sin), plan, K=1.0, J=8)
    r_mod = solve_picard(ModulatedProfile(spec, lambda s: np.abs(np.sin(s))),
                         plan, K=1.0, J=8)
    checks["modulus domination"] = all(
        np.all(np.abs(a.values) <= b.values + slack(b.values))
        for a, b in zip(r_signed.slices, r_mod.slices))
    # (5) absorbing sign sits below the linear flow
    psi0f = field_from_profile(neg, grid, Psi0Profile(neg))
    checks["linear domination a=-1"] = all(
        np.all(s.values <= (lv := apply_kernel(plan, s_j,
                                               psi0f).values) + slack(lv))
        for s_j, s in zip(r_neg.config.mesh, r_neg.slices))
    failed = [k for k, v in checks.items() if not v]
    _verdict(7, "order and comparison matrix", not failed,
             "5 cases ok" if not failed else f"failed: {failed}")


def test_criterion_08_oscillating_lifespan(setup10):
    spec, grid, plan = setup10
    report = oscillation_experiment(plan)
    ok = (report["gap_significant"] and report["control_flat"]
          and report["identity_rel_error"] < 1e-3)
    _verdict(8, "subsequence-dependent scaled life span", ok,
             f"gap {report['gap']:.4f} vs uncertainty "
             f"{report['combined_uncertainty']:.1e}, control gap "
             f"{report['control_gap']:.1e}, identity err "
             f"{report['identity_rel_error']:.1e}")


def test_criterion_09_criterion_end_to_end(setup11):
    spec, grid, plan = setup11
    prof = ModulatedProfile(spec, SinSquaredLog(eps=0.05))
    # along lam = e^{pi k} the dilation probes coincide with the profile
    # itself: a nontrivial nonnegative limit
    report = blowup_criterion_check(prof, plan)
    rec = estimate_tmax(prof, plan)
    part1 = (report["verdict"] == "blowup_predicted"
             and rec.status == STATUS_BLEWUP and np.isfinite(rec.t_max))
    # compactly supported small data, alpha > 2/N: zero limit, no
    # prediction, and the solution stays bounded to the horizon
    sup_spec = SectorSpec(1, 0, 0.5, 3.0, +1)
    sup_grid = GridSpec.for_spec(sup_spec, L=10.0, n=256)
    sup_plan = KernelPlan(sup_spec, sup_grid)
    bump = Field(sup_spec, sup_grid,
                 0.05 * np.exp(-sup_grid.radii() ** 2))
    zrep = blowup_criterion_check(
        Field(sup_spec, sup_grid, np.zeros(sup_grid.shape())), sup_plan)
    traj, last = run_trajectory(sup_plan, bump, 0.0,
                                EvolveControls(horizon=10.0))
    part2 = (zrep["verdict"] == "undetermined"
             and traj.status == STATUS_GLOBAL
             and traj.sups[-1] < 2.0 * traj.sups[0])
    _verdict(9, "blow-up criterion end-to-end", part1 and part2,
             f"predicted+finite T_max {rec.t_max:.3f}; small data bounded "
             f"(final sup {traj.sups[-1]:.2e})")


def test_criterion_10_global_smallness(setup11):
    spec, grid, plan = setup11
    sup_spec = SectorSpec(spec.N, spec.m, spec.gamma, 2.0, +1)
    sup_plan = KernelPlan(sup_spec, grid)
    report = global_smallness_check(sup_plan, t0=0.1, horizon_factor=100.0)
    _verdict(10, "global existence by smallness", report["certified"],
             f"half-threshold data, horizon {report['horizon']:.0f}, "
             f"status {report['status']}, violation "
             f"{report['bound_violation']}")


def test_criterion_11_robustness():
    # criteria 1, 4, 5 at doubled resolution and 1.5x box
    spreads = []
    for N, m, gamma, n, L in ((1, 1, 0.5, 512, 15.0),
                              (2, 1, 1.0, 128, 12.0),
                              (2, 0, 1.0, 128, 12.0)):
        spec = SectorSpec(N, m, gamma, 0.5, +1)
        grid = GridSpec.for_spec(spec, L=L, n=n)
        spreads.append(_sup_law_spread(spec, KernelPlan(spec, grid)))
    c1_ok = max(spreads) < 5e-3

    rec = _ode_tmax(32)
    c4_ok = rec.status == STATUS_BLEWUP and abs(rec.t_max - 1.0) < 1e-3

    spec = SectorSpec(1, 1, 0.5, 0.5, +1)
    grid = GridSpec.for_spec(spec, L=15.0, n=512)
    plan = KernelPlan(spec, grid)
    curve = sweep_lifespan(Psi0Profile(spec), (0.5, 1.0, 2.0), plan)
    base = curve.t_max[curve.lambdas.index(1.0)]
    devs = [abs(lam ** spec.sigma * t / base - 1.0)
            for lam, t in zip(curve.lambdas, curve.t_max) if lam != 1.0]
    c5_ok = (all(s == STATUS_BLEWUP for s in curve.statuses)
             and max(devs) < 0.02)
    ok = c1_ok and c4_ok and c5_ok
    _verdict(11, "robustness at doubled resolution", ok,
             f"sup-law spread {max(spreads):.1e}, ODE err "
             f"{abs(rec.t_max - 1.0):.1e}, scaling dev {max(devs):.2%}")
