import csv
import json

import numpy as np
import pytest
from scipy.integrate import quad

from sectorheat import (Field, GridSpec, KernelPlan, SectorSpec, lifespan,
                        psi_fast, psi_sup, psi_values)
from sectorheat.evolve import EvolveControls, estimate_tmax, run_trajectory
from sectorheat.lifespan import (CRITICAL_THRESHOLD, blowup_criterion_check,
                                 dilation_limits, global_smallness_check,
                                 global_smallness_threshold, lam_for_shift,
                                 nonexistence_signature, save_report,
                                 shifted_equivalent, sweep_lifespan,
                                 tail_alpha_integral)
from sectorheat.profiles import (GaussianDerivativeProfile, ModulatedProfile,
                                 Psi0Profile, SinSquaredLog, eval_psi0)


def test_sweep_lifespan_scaling(setup11, tmp_path):
    spec, grid, plan = setup11
    lambdas = (1.0, 2.0)
    curve = sweep_lifespan(Psi0Profile(spec), lambdas, plan)
    assert curve.statuses == ["blew_up", "blew_up"]
    assert curve.monotone
    assert curve.t_max[1] < curve.t_max[0]
    # lam^sigma T_max(lam psi0) is lam-independent for homogeneous data
    assert abs(curve.scaled[1] - curve.scaled[0]) < 0.02 * curve.scaled[0]
    assert curve.slope == pytest.approx(-spec.sigma, rel=0.02)
    # the lam = 2 run starts on the plan the lam = 1 run stepped, and its
    # numbers are those of a run on a fresh plan
    fresh = estimate_tmax(Psi0Profile(spec, 2.0), KernelPlan(spec, grid))
    assert (curve.t_max[1], curve.uncertainty[1]) == (fresh.t_max,
                                                     fresh.uncertainty)
    path = tmp_path / "curve.csv"
    curve.save_csv(str(path))
    rows = list(csv.reader(open(path)))
    assert rows[0][0] == "lambda"
    assert float(rows[1][1]) == pytest.approx(curve.t_max[0])


def test_dilation_limit_of_homogeneous_data(setup11):
    spec, grid, plan = setup11
    probe = dilation_limits(spec, Psi0Profile(spec), [1.0, 4.0, 16.0, 64.0])
    assert probe.converged
    assert probe.bound_ok
    assert np.max(probe.distances) < 1e-12
    assert np.allclose(probe.limit, eval_psi0(spec, probe.points), rtol=1e-12)


def test_dilation_probe_oscillates_for_log_modulated_data(setup11):
    spec, grid, plan = setup11
    prof = ModulatedProfile(spec, SinSquaredLog(eps=0.05))
    lams = [float(np.exp(0.5 * np.pi * k)) for k in range(1, 5)]
    probe = dilation_limits(spec, prof, lams)
    assert not probe.converged
    assert probe.limit is None
    assert probe.bound_ok
    # the probes at shift pi are identical: the modulation has period pi
    period_pair = float(np.mean(np.abs(probe.probes[0] - probe.probes[2])))
    assert period_pair < 1e-12


def test_dilation_limit_of_localized_data_is_zero(setup11):
    spec, grid, plan = setup11
    prof = GaussianDerivativeProfile(spec, 0.5)
    probe = dilation_limits(spec, prof, [8.0, 16.0, 32.0])
    assert probe.converged
    assert float(np.max(np.abs(probe.limit))) < 1e-12
    report = blowup_criterion_check(_zero_field(spec, grid), plan)
    assert report["verdict"] == "undetermined"


def _zero_field(spec, grid):
    from sectorheat import Field
    return Field(spec, grid, np.zeros(grid.shape()))


def test_criterion_subcritical_predicts_blowup(setup11):
    spec, grid, plan = setup11
    report = blowup_criterion_check(Psi0Profile(spec), plan)
    assert report["verdict"] == "blowup_predicted"
    assert spec.alpha < report["alpha_critical"]


def test_criterion_rejects_sign_changing_data(setup11):
    spec, grid, plan = setup11
    prof = ModulatedProfile(spec, lambda s: np.sin(s))
    with pytest.raises(ValueError):
        blowup_criterion_check(prof, plan)


def test_criterion_refuses_data_of_another_spec(setup11):
    spec, grid, plan = setup11
    other = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    with pytest.raises(ValueError, match="differs from plan spec"):
        blowup_criterion_check(Psi0Profile(other), plan)


def test_criterion_critical_threshold_flip():
    # alpha = 2/(gamma+m) exactly; the verdict flips across the sup-norm
    # threshold (1/alpha)^(1/alpha)
    spec = SectorSpec(1, 0, 0.5, 4.0)
    assert spec.alpha == spec.alpha_critical
    grid = GridSpec.for_spec(spec, L=10.0, n=128)
    plan = KernelPlan(spec, grid)
    thr = CRITICAL_THRESHOLD(spec.alpha)
    assert thr == pytest.approx(0.25 ** 0.25)
    # ||e^D (c psi0)|| = c * C_inf with C_inf ~ 1.446
    C_inf = psi_sup(spec, 1.0)
    c_small = 0.8 * thr / C_inf
    c_large = 1.2 * thr / C_inf
    low = blowup_criterion_check(Psi0Profile(spec, c_small), plan)
    high = blowup_criterion_check(Psi0Profile(spec, c_large), plan)
    assert low["verdict"] == "undetermined"
    assert high["verdict"] == "blowup_predicted"
    assert low["linear_sup"] < thr < high["linear_sup"]
    # and the sup itself is the closed form: ||e^D (c psi0)|| = c C_inf
    for c, report in ((c_small, low), (c_large, high)):
        assert report["linear_sup"] == pytest.approx(c * C_inf, rel=1e-12)


def test_critical_threshold_values():
    assert CRITICAL_THRESHOLD(1.0) == pytest.approx(1.0)
    assert CRITICAL_THRESHOLD(2.0) == pytest.approx(2.0 ** -0.5)


def test_shift_amplitude_duality():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    prof = ModulatedProfile(spec, SinSquaredLog(0.05))
    lam = 0.37
    shifted = shifted_equivalent(spec, prof, lam)
    s = -(spec.sigma / 2.0) * np.log(lam)
    assert lam_for_shift(spec, s) == pytest.approx(lam, rel=1e-13)
    pts = np.array([[0.9], [2.3]])
    r = pts[:, 0]
    expected = eval_psi0(spec, pts) * (np.sin(np.log(r) + s) ** 2 + 0.05)
    assert np.allclose(shifted(pts), expected, rtol=1e-12)


def test_tail_alpha_integral_oracle(setup11):
    spec, grid, plan = setup11
    sup_spec = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    t0 = 0.3
    I = tail_alpha_integral(sup_spec, t0)
    body, _ = quad(lambda s: psi_sup(sup_spec, s) ** sup_spec.alpha, t0, 50.0)
    expo = sup_spec.alpha * sup_spec.decay / 2.0 - 1.0
    C_inf = psi_sup(sup_spec, 1.0)
    analytic_tail = C_inf ** sup_spec.alpha * 50.0 ** -expo / expo
    assert I == pytest.approx(body + analytic_tail, rel=1e-9)
    with pytest.raises(ValueError):
        tail_alpha_integral(spec, t0)      # subcritical diverges


def test_global_smallness_threshold_algebra(setup11):
    spec, grid, plan = setup11
    sup_spec = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    t0 = 0.2
    lam = global_smallness_threshold(sup_spec, t0)
    I = tail_alpha_integral(sup_spec, t0)
    lhs = 2.0 ** (sup_spec.alpha + 2) * (sup_spec.alpha + 1) \
        * lam ** sup_spec.alpha * I
    assert lhs == pytest.approx(1.0, rel=1e-12)


def test_global_smallness_certificate(setup11):
    spec, grid, plan = setup11
    sup_spec = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    sup_plan = KernelPlan(sup_spec, grid)
    report = global_smallness_check(sup_plan, t0=0.1,
                                    horizon_factor=10.0)
    assert report["certified"]
    assert report["status"] == "global_horizon_reached"
    assert report["bound_violation"] is None
    assert report["lambda"] == pytest.approx(0.5 * report["threshold"])


def test_global_smallness_envelope_fails_for_large_data(setup11):
    spec, grid, plan = setup11
    sup_spec = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    sup_plan = KernelPlan(sup_spec, grid)
    thr = global_smallness_threshold(sup_spec, 0.1)
    report = global_smallness_check(sup_plan, t0=0.1,
                                    lam=50.0 * thr, horizon_factor=5.0)
    assert not report["certified"]


def test_global_smallness_runs_do_not_depend_on_plan_history():
    # a plan keeps the propagator of its last step size; each run starts
    # without it, so repeated runs on one plan give a fresh plan's numbers
    spec = SectorSpec(1, 1, 0.5, 2.0)
    grid = GridSpec.for_spec(spec, L=10.0, n=256)
    fresh = global_smallness_check(KernelPlan(spec, grid), t0=0.1,
                                   horizon_factor=5.0)
    plan = KernelPlan(spec, grid)
    for _ in range(2):
        assert global_smallness_check(plan, t0=0.1,
                                      horizon_factor=5.0) == fresh


def test_global_smallness_horizon_is_factor_times_t0(setup11):
    spec, grid, plan = setup11
    sup_spec = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    horizon_factor, t0 = 1.0, 0.1
    report = global_smallness_check(KernelPlan(sup_spec, grid), t0=t0,
                                    horizon_factor=horizon_factor)
    assert report["horizon"] == pytest.approx(horizon_factor * t0)


def _per_step_smallness(plan, t0, lam, horizon_factor):
    """Reference envelope check: |u(t)| against 2 lam Psi(t + t0) with Psi
    evaluated at every step."""
    spec, grid = plan.spec, plan.grid
    f0 = Field(spec, grid, lam * psi_fast(spec, t0, grid).values)
    M, pts = 2.0 * lam, grid.points()

    def bound(t, modulus):
        return modulus - M * psi_values(spec, t + t0, pts)

    rec, _ = run_trajectory(plan, f0, 0.0,
                            EvolveControls(horizon=horizon_factor * t0),
                            bound_fn=bound)
    return rec


@pytest.mark.parametrize("N, m, gamma, alpha, L, n, factor, horizon_factor", [
    # the smallness-1d configuration (half the threshold, horizon 10),
    # then larger data: certified at 3x, violated at 8x and 30x
    (1, 1, 0.5, 2.0, 10.0, 256, 0.5, 100.0),
    (1, 1, 0.5, 2.0, 10.0, 256, 3.0, 100.0),
    (1, 1, 0.5, 2.0, 10.0, 256, 8.0, 100.0),
    (1, 1, 0.5, 2.0, 10.0, 256, 30.0, 100.0),
    (2, 0, 1.0, 3.0, 6.0, 24, 0.5, 20.0),
    (2, 0, 1.0, 3.0, 6.0, 24, 20.0, 20.0),
    (2, 1, 1.0, 3.0, 6.0, 24, 4.0, 20.0),
    (2, 1, 1.0, 3.0, 6.0, 24, 20.0, 20.0),
    (2, 2, 1.0, 3.0, 6.0, 24, 0.5, 20.0),
    (2, 2, 1.0, 3.0, 6.0, 24, 20.0, 20.0)])
def test_smallness_envelope_matches_per_step_reference(
        monkeypatch, N, m, gamma, alpha, L, n, factor, horizon_factor):
    # the monotone lower bound only skips steps that cannot violate, so
    # the verdict, the first violation and the last sup are bit-equal to
    # an exact comparison at every step, from a few Psi evaluations
    spec = SectorSpec(N, m, gamma, alpha)
    grid = GridSpec.for_spec(spec, L=L, n=n)
    t0 = 0.1
    lam = factor * global_smallness_threshold(spec, t0)
    ref = _per_step_smallness(KernelPlan(spec, grid), t0, lam,
                              horizon_factor)
    calls = []

    def counted(spec, t, pts):
        calls.append(t)
        return psi_values(spec, t, pts)

    monkeypatch.setattr(lifespan, "psi_values", counted)
    report = global_smallness_check(KernelPlan(spec, grid), t0=t0, lam=lam,
                                    horizon_factor=horizon_factor)
    assert report["status"] == ref.status
    assert report["bound_violation"] == ref.bound_violation
    assert report["final_sup"] == float(ref.sups[-1])
    assert len(calls) <= 30


def test_smallness_violation_node_is_written_as_integers(tmp_path):
    spec = SectorSpec(1, 1, 0.5, 2.0)
    plan = KernelPlan(spec, GridSpec.for_spec(spec, L=10.0, n=256))
    lam = 30.0 * global_smallness_threshold(spec, 0.1)
    report = global_smallness_check(plan, t0=0.1, lam=lam,
                                    horizon_factor=5.0)
    path = tmp_path / "global_smallness.json"
    save_report(report, str(path))
    _, node = json.loads(path.read_text())["bound_violation"]
    assert node and all(type(i) is int for i in node)


def test_nonexistence_signature(setup11):
    spec, grid, plan = setup11
    sup_spec = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    report = nonexistence_signature(sup_spec)
    assert report["diverges"]
    assert report["verdict"] == "nonexistence_evidence"
    r = report["ratio_to_bound"]
    assert all(b > a for a, b in zip(r, r[1:]))
    with pytest.raises(ValueError):
        nonexistence_signature(spec)


def test_save_report_handles_numpy_scalars(tmp_path):
    path = tmp_path / "report.json"
    save_report({"a": np.float64(1.5), "b": [np.float64(2.0)],
                 "c": "text"}, str(path))
    blob = json.load(open(path))
    assert blob == {"a": 1.5, "b": [2.0], "c": "text"}
