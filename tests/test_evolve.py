import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sectorheat.evolve as evolve
from sectorheat import (AXIS_PERIODIC, Field, GridSpec, KernelPlan,
                        SectorSpec, field_from_profile)
from sectorheat.evolve import (STATUS_BLEWUP, STATUS_GLOBAL, BlowupSignal,
                               EvolveControls, TrajectoryRecord, _typeI_fit,
                               estimate_tmax, nonlinear_substep,
                               run_trajectory, strang_step)
from sectorheat.profiles import ConstantProfile, Psi0Profile


def _periodic(spec, L=np.pi, n=64):
    return GridSpec(L=L, n=n, axes=(AXIS_PERIODIC,) * spec.N)


def test_nonlinear_substep_exact_scalar():
    # alpha = 1, a = +1: u' = u^2, u(0) = 1 -> u(dt) = 1/(1 - dt)
    spec = SectorSpec(1, 0, 0.5, 1.0)
    v = np.ones(8)
    out = nonlinear_substep(spec, v, 0.5)
    assert np.allclose(out, 2.0, rtol=1e-14)
    sig = nonlinear_substep(spec, v, 1.0)
    assert isinstance(sig, BlowupSignal)
    assert sig.remaining == pytest.approx(1.0)
    with pytest.raises(ValueError):
        nonlinear_substep(spec, v, 0.0)


def test_nonlinear_substep_signs_and_zeros():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    v = np.array([2.0, -1.0, 0.0, 0.5])
    sig = nonlinear_substep(spec, v, 0.6)
    assert isinstance(sig, BlowupSignal)       # max node 2 blows at t = 1/2
    assert sig.remaining == pytest.approx(0.5)
    out = nonlinear_substep(spec, v, 0.1)
    assert out[1] == pytest.approx(-1.0 / 0.9)   # sign preserved
    assert out[2] == 0.0
    # absorbing sign decreases moduli and never signals
    absorbing = SectorSpec(1, 0, 0.5, 1.0, sign_a=-1)
    dec = nonlinear_substep(absorbing, v, 10.0)
    assert np.all(np.abs(dec) <= np.abs(v))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, -1]), st.floats(0.2, 4.0),
       st.one_of(st.floats(0.01, 0.9), st.floats(1.001, 3.0)),
       st.floats(0.01, 0.99), st.integers(0, 2 ** 32 - 1))
def test_reaction_subflow_composes(sign_a, alpha, total, share, seed):
    # the exact reaction flow is a semigroup: N(t) N(s) = N(s + t).  Steps
    # are fractions of the scalar blow-up time R of the largest node; for
    # a = +1 and s + t > R both routes stop at that node
    spec = SectorSpec(1, 0, 0.5, alpha, sign_a)
    v = np.random.default_rng(seed).standard_normal(32)
    v[5] = 0.0
    R = 1.0 / (alpha * np.max(np.abs(v)) ** alpha)
    s, t = share * total * R, (1.0 - share) * total * R
    once = nonlinear_substep(spec, v, s + t)
    half = nonlinear_substep(spec, v, s)
    twice = half if isinstance(half, BlowupSignal) \
        else nonlinear_substep(spec, half, t)
    if sign_a > 0 and total > 1.0:
        assert isinstance(once, BlowupSignal)
        assert isinstance(twice, BlowupSignal)
        assert twice.node == once.node
        spent = 0.0 if twice is half else s
        assert spent + twice.remaining == pytest.approx(once.remaining,
                                                        rel=1e-12)
    else:
        assert np.allclose(twice, once, rtol=1e-12, atol=0)


def test_nonlinear_substep_refuses_nan():
    spec = SectorSpec(1, 0, 0.5, 1.0, sign_a=-1)
    v = np.array([0.5, np.nan, 1.0])
    with pytest.raises(ValueError, match="field values must be finite"):
        nonlinear_substep(spec, v, 0.1)


def test_strang_second_order_on_smooth_data():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = _periodic(spec, n=64)
    plan = KernelPlan(spec, grid)
    x = grid.axis_nodes(0)
    v0 = 0.3 + 0.2 * np.sin(x)
    T = 0.4

    def advance(dt):
        v = v0
        for _ in range(round(T / dt)):
            v = strang_step(plan, v, dt)
        return v

    ref = advance(T / 512)
    errs = [np.max(np.abs(advance(dt) - ref)) for dt in (T / 8, T / 16, T / 32)]
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(rates > 1.8)
    assert np.all(rates < 2.3)


def test_constant_data_matches_scalar_ode():
    # spatially constant state: heat step is the identity, so T_max is the
    # scalar value 1/(alpha c^alpha) exactly
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = _periodic(spec, n=16)
    rec = estimate_tmax(ConstantProfile(spec, 1.0),
                        KernelPlan(spec, grid))
    assert rec.status == STATUS_BLEWUP
    assert rec.t_max == pytest.approx(1.0, abs=1e-3)
    assert rec.fit_residual < 0.02
    assert rec.uncertainty < 1e-6
    assert rec.handoff_time is None


def test_singular_data_blows_up_with_picard_handoff(setup11):
    spec, grid, plan = setup11
    rec = estimate_tmax(Psi0Profile(spec), plan)
    assert rec.status == STATUS_BLEWUP
    assert rec.handoff_time is not None and rec.handoff_time > 0.0
    assert rec.fit_residual < 0.02
    assert 3.5 < rec.t_max < 5.5
    assert rec.extrapolation_justified


def test_tmax_refuses_profile_of_another_spec(setup11, monkeypatch):
    # a = -1 data on the a = +1 plan fail at the entry, before any Picard
    # sweep or Strang step
    spec, grid, plan = setup11
    neg = SectorSpec(spec.N, spec.m, spec.gamma, spec.alpha, sign_a=-1)

    def entered(*args, **kwargs):
        raise AssertionError("the solve started")

    monkeypatch.setattr(evolve, "solve_picard", entered)
    monkeypatch.setattr(evolve, "run_trajectory", entered)
    with pytest.raises(ValueError) as info:
        estimate_tmax(Psi0Profile(neg), KernelPlan(spec, grid))
    assert str(spec) in str(info.value) and str(neg) in str(info.value)


def test_absorbing_sign_is_global(setup11):
    spec, grid, plan = setup11
    neg = SectorSpec(spec.N, spec.m, spec.gamma, spec.alpha, sign_a=-1)
    f0 = field_from_profile(neg, grid, Psi0Profile(neg))
    rec, last = run_trajectory(KernelPlan(neg, grid), f0, 0.0,
                               EvolveControls(horizon=2.0))
    assert rec.status == STATUS_GLOBAL
    assert last is not None
    assert rec.sups[-1] < rec.sups[1]          # dissipative


def test_fixed_dt_refinement_consistency():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = _periodic(spec, n=64)
    plan = KernelPlan(spec, grid)
    x = grid.axis_nodes(0)
    f0 = Field(spec, grid, 1.2 + np.cos(x))

    def tmax_at(dt):
        # fixed dt stops on the mid-step divergence signal; too few samples
        # sit in the asymptotic window for the rate gate, but the reported
        # T_max must still be refinement-stable
        rec, _ = run_trajectory(plan, f0, 0.0,
                                EvolveControls(fixed_dt=dt, cap=1e8))
        assert rec.t_max is not None
        return rec.t_max

    t1, t2 = tmax_at(2e-3), tmax_at(1e-3)
    assert t2 == pytest.approx(t1, rel=5e-3)


def test_type_two_growth_fails_rate_gate():
    # synthetic record growing like (T - t)^(-2/alpha): the type-I fit must
    # refuse to certify
    spec = SectorSpec(1, 0, 0.5, 1.0)
    T = 1.0
    t = T - np.geomspace(0.5, 1e-9, 400)
    sups = (T - t) ** (-2.0 / spec.alpha)
    t_max, spread, residual = _typeI_fit(spec, t, sups)
    assert residual > 0.02


def test_type_one_growth_passes_rate_gate():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    T = 1.0
    t = T - np.geomspace(0.5, 1e-9, 400)
    sups = (spec.alpha * (T - t)) ** (-1.0 / spec.alpha)
    t_max, spread, residual = _typeI_fit(spec, t, sups)
    assert residual < 1e-10
    assert t_max == pytest.approx(T, rel=1e-9)
    assert spread < 1e-9


@pytest.mark.parametrize("alpha, sign_a, value, dt", [
    # a fresh plan's first step size goes through the unnormalised forward
    # Fourier factor, whose sum of 16 nodes at 1e308 overflows inside the
    # heat substep; the nonlinear flow would turn the NaN into 0
    (1e-6, -1, 1e308, 0.01),
    # a step a hair below the scalar blow-up time 1/(alpha c^alpha): the
    # exact reaction flow overflows to inf without signalling
    (0.5, 1, 1.5, np.nextafter(1.0 / (0.5 * 1.5 ** 0.5), 0.0)),
])
def test_non_finite_intermediate_values_raise(alpha, sign_a, value, dt):
    spec = SectorSpec(1, 0, 0.5, alpha, sign_a)
    grid = _periodic(spec, n=16)
    f0 = Field(spec, grid, np.full(16, value))
    with np.errstate(all="ignore"), \
            pytest.raises(ValueError, match="field values must be finite"):
        run_trajectory(KernelPlan(spec, grid), f0, 0.0,
                       EvolveControls(fixed_dt=dt))


def test_plan_must_match_initial_field():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = _periodic(spec, n=16)
    f0 = Field(spec, grid, np.full(16, 0.5))
    other = SectorSpec(1, 0, 0.5, 1.0, sign_a=-1)
    with pytest.raises(ValueError, match="differ"):
        run_trajectory(KernelPlan(other, grid), f0, 0.0)


def test_bound_violation_recorded():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = _periodic(spec, n=16)
    plan = KernelPlan(spec, grid)
    f0 = Field(spec, grid, np.full(16, 0.5))
    rec, _ = run_trajectory(plan, f0, 0.0,
                            EvolveControls(horizon=0.5, fixed_dt=0.01),
                            bound_fn=lambda t: np.full(16, 0.55))
    assert rec.bound_violation is not None
    t_viol, node = rec.bound_violation
    assert 0.0 < t_viol <= 0.5


def test_unjustified_extrapolation_is_flagged():
    # (N - 2) alpha >= 4: the rate gate alone cannot justify extrapolation
    spec = SectorSpec(3, 0, 0.5, 4.0)
    grid = GridSpec(L=np.pi, n=8, axes=(AXIS_PERIODIC,) * 3)
    # cap kept low: with alpha = 4 the blow-up remainders under a 1e8 cap
    # drop below the float resolution of the accumulated time
    rec = estimate_tmax(ConstantProfile(spec, 1.0),
                        KernelPlan(spec, grid),
                        controls=EvolveControls(cap=1e3))
    assert not rec.extrapolation_justified
    assert rec.notes.get("extrapolation_unjustified") is True
    assert rec.t_max == pytest.approx(0.25, abs=1e-3)


def test_record_serialization(tmp_path):
    rec = TrajectoryRecord(
        times=np.array([0.0, 0.1]), sups=np.array([1.0, 2.0]),
        dts=np.array([0.0, 0.1]), status=STATUS_BLEWUP, t_max=0.5,
        uncertainty=1e-6, fit_residual=1e-3, extrapolation_justified=True)
    p_csv = tmp_path / "traj.csv"
    p_json = tmp_path / "traj.json"
    rec.save_csv(str(p_csv))
    rec.save_json(str(p_json))
    rows = list(csv.reader(open(p_csv)))
    assert rows[0] == ["t", "sup_norm", "dt", "status"]
    assert float(rows[2][1]) == 2.0
    blob = json.load(open(p_json))
    assert blob["status"] == STATUS_BLEWUP
    assert blob["t_max"] == 0.5
    assert blob["last_sup"] == 2.0
