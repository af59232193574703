import csv
import json

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sectorheat.evolve as evolve
import sectorheat.semigroup as semigroup
from sectorheat import (AXIS_ANTISYM, AXIS_PERIODIC, AXIS_SYM, Field,
                        GridSpec, KernelPlan, SectorSpec, field_from_profile)
from sectorheat.evolve import (STATUS_BLEWUP, STATUS_GLOBAL, BlowupSignal,
                               EvolveControls, TrajectoryRecord, _typeI_fit,
                               estimate_tmax, nonlinear_substep,
                               run_trajectory, strang_step)
from sectorheat.lifespan import global_smallness_check
from sectorheat.picard import solve_picard
from sectorheat.profiles import (ConstantProfile, ModulatedProfile,
                                 Psi0Profile, SinSquaredLog)
from sectorheat.semigroup import apply_spectral


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


def _masked_reaction(spec, v, dt):
    # reference: the divisor form v / (1 - a alpha dt |v|^alpha)^(1/alpha)
    # with zeros masked out, so that only the nonzero nodes take it; nodes
    # whose divisor passes DIVISOR_MAX (a = -1 only) take the reciprocal
    # form sign(v) (|v|^-alpha + alpha dt)^(-1/alpha)
    a, alpha = spec.sign_a, spec.alpha
    out = np.zeros_like(v)
    nz = v != 0.0
    w, m = v[nz], np.abs(v[nz])
    with np.errstate(over="ignore"):
        div = (1.0 - a * alpha * dt * m ** alpha) ** (1.0 / alpha)
        flow = w / div
        big = div > evolve.DIVISOR_MAX
        flow[big] = np.sign(w[big]) * (m[big] ** -alpha
                                       + alpha * dt) ** (-1.0 / alpha)
    out[nz] = flow
    return out


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, -1]), st.floats(0.2, 4.0),
       st.lists(st.one_of(st.just(0.0), st.floats(-300.0, 300.0)),
                min_size=1, max_size=40),
       st.integers(0, 2 ** 32 - 1))
def test_nonlinear_substep_at_extremes(sign_a, alpha, exponents, seed):
    # moduli 10^(-300..300) of both signs, and zeros: the unmasked flow
    # equals the masked one bit for bit, keeps zeros at exactly 0, stays
    # finite and warns of nothing (the RuntimeWarning filter is an error).
    # For a = +1 a finite step is a fraction of the largest node's blow-up
    # time; that time is 0 where |u|^alpha overflows (then the flow must
    # signal blow-up) and inf where it underflows
    spec = SectorSpec(1, 0, 0.5, alpha, sign_a)
    rng = np.random.default_rng(seed)
    v = np.array([0.0 if e == 0.0 else 10.0 ** e for e in exponents])
    v *= rng.choice([-1.0, 1.0], size=v.size)
    vmax = np.max(np.abs(v))
    dt = 0.5
    if sign_a > 0 and vmax > 0.0:
        with np.errstate(over="ignore", divide="ignore"):
            remaining = 1.0 / (alpha * vmax ** alpha)
        if remaining == 0.0:
            sig = nonlinear_substep(spec, v, 1e-300)
            assert isinstance(sig, BlowupSignal) and sig.remaining == 0.0
            return
        if np.isfinite(remaining):
            dt = float(rng.uniform(0.01, 0.99) * remaining)
    out = nonlinear_substep(spec, v, dt)
    assert not isinstance(out, BlowupSignal)
    assert np.all(np.isfinite(out))
    assert np.all(out[v == 0.0] == 0.0)
    assert np.array_equal(out, _masked_reaction(spec, v, dt))


EPS = np.finfo(float).eps / 2.0     # unit roundoff


def _mp_reaction(spec, u, tau):
    # sign(u) (|u|^-alpha - a alpha tau)^(-1/alpha) at 50 digits, and the
    # base y = 1 - a alpha tau |u|^alpha of the divisor form
    if u == 0.0:
        return mpmath.mpf(0), mpmath.mpf(1)
    with mpmath.workdps(50):
        a, alpha, tau = spec.sign_a, mpmath.mpf(spec.alpha), mpmath.mpf(tau)
        m = abs(mpmath.mpf(u))
        flow = (m ** -alpha - a * alpha * tau) ** (-1 / alpha)
        return mpmath.sign(u) * flow, 1 - a * alpha * tau * m ** alpha


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, -1]), st.floats(0.2, 4.0),
       st.lists(st.one_of(st.just(0.0), st.floats(-300.0, 300.0)),
                min_size=1, max_size=12),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(-12.0, 12.0),
       st.integers(0, 2 ** 32 - 1))
# a = -1 where the divisor overflows: p = |u|^2 past 1e308, and at
# alpha = 1/2 the power y^2 of y = 1 + alpha tau |u|^(1/2) past it; the
# flow is (alpha tau)^(-1/alpha) sign(u) there, not 0
@example(-1, 2.0, [200.0, 0.0, 1.0, -250.0], 0.0, 0.0, 1)
@example(-1, 0.5, [300.0, 0.0, -299.0], 0.0, 10.0, 2)
def test_reaction_flow_matches_mpmath(sign_a, alpha, exponents, share,
                                      log_tau, seed):
    # moduli 10^(-300..300) of both signs and zeros.  For a = +1 the step
    # is a share of the largest node's blow-up time (10^log_tau where that
    # time is inf); a signal must come at that time, up to rounding.  Each
    # node, and the scalar sup flow of the largest modulus, matches the
    # 50-digit flow to 8 eps (1 + (1 + 1/y + |ln y|) / alpha) with
    # y = 1 - a alpha tau |u|^alpha: the rounding of y, about
    # 6 eps (1 + 1/y), and of the exponent 1/alpha, eps |ln y| on the
    # power, are raised to the power 1/alpha
    spec = SectorSpec(1, 0, 0.5, alpha, sign_a)
    rng = np.random.default_rng(seed)
    v = np.array([0.0 if e == 0.0 else 10.0 ** e for e in exponents])
    v *= rng.choice([-1.0, 1.0], size=v.size)
    vmax = float(np.max(np.abs(v)))
    tau = 10.0 ** log_tau
    if sign_a > 0 and vmax > 0.0:
        with np.errstate(over="ignore", divide="ignore"):
            remaining = float(1.0 / (alpha * np.float64(vmax) ** alpha))
        if 0.0 < remaining < np.inf:
            tau = share * remaining
    assume(tau > 0.0)
    out = nonlinear_substep(spec, v, tau)
    if isinstance(out, BlowupSignal):
        assert sign_a > 0
        assert _mp_reaction(spec, vmax, tau)[1] <= 4.0 * EPS
        return
    assert np.all(np.isfinite(out))
    assert np.all(out[v == 0.0] == 0.0)
    for u, got in zip(np.append(v, vmax),
                      np.append(out, evolve._sup_flow(spec, vmax, tau))):
        exact, y = _mp_reaction(spec, u, tau)
        bound = 8.0 * EPS * (1.0 + (1.0 + 1.0 / y + abs(mpmath.log(y)))
                             / alpha)
        assert abs(got - exact) <= bound * abs(exact)


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
        # fused legs carry the trailing half dt/2; it is flowed once at the end
        w, pending = v0, 0.0
        for _ in range(round(T / dt)):
            w, pending = strang_step(plan, w, pending, dt), 0.5 * dt
        return nonlinear_substep(spec, w, pending)

    ref = advance(T / 512)
    errs = [np.max(np.abs(advance(dt) - ref)) for dt in (T / 8, T / 16, T / 32)]
    rates = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(rates > 1.8)
    assert np.all(rates < 2.3)


@pytest.mark.parametrize("dt", [0.15, 0.3, 0.45, 0.7])
def test_blowup_in_the_trailing_half_reports_exact_tmax(dt):
    # constant data: the heat step is the identity and the reaction alone
    # blows up at 1/(alpha c^alpha) = 2.  At dt = 0.3 and 0.7 the node
    # diverges in a step's trailing half, whose remainder counts from the
    # reaction time t + dt/2, not from t
    spec = SectorSpec(1, 0, 0.5, 0.5)
    grid = _periodic(spec, n=16)
    rec, last = run_trajectory(KernelPlan(spec, grid),
                               Field(spec, grid, np.ones(16)), 0.0,
                               EvolveControls(fixed_dt=dt))
    assert last is None
    assert rec.t_max == pytest.approx(2.0, rel=1e-12)


def _unfused(plan, v, t0, c, dts, bound_fn=None):
    """Reference stepper: the plain composition N(dt/2) S(dt) N(dt/2) per
    step, with every state formed and its sup read off it.  An adaptive run
    replays the steps ``dts`` that the fused loop recorded; a step past them
    (one that blows up, which no record holds) takes the growth cap.
    Returns the status, the sups, T_max, the first envelope violation and
    the last state (None after a blow-up)."""
    spec = plan.spec
    steps = iter(dts)
    t, sups, times = t0, [np.max(np.abs(v))], [t0]
    violation = t_max = residual = None
    while t < c.horizon:
        if spec.sign_a > 0 and sups[-1] >= c.cap:
            t_max, _, residual = _typeI_fit(spec, times, sups)
            break
        room = c.horizon - t + 1e-15
        if c.fixed_dt is not None:
            dt = min(c.fixed_dt, room)
        else:
            dt = next(steps, None) \
                or evolve._step_limit(spec, sups[-1], room)
        out = nonlinear_substep(spec, v, 0.5 * dt)
        spent = 0.0
        if not isinstance(out, BlowupSignal):
            heated = apply_spectral(plan, dt, Field(spec, plan.grid, out))
            out = nonlinear_substep(spec, heated.values, 0.5 * dt)
            spent = 0.5 * dt
        if isinstance(out, BlowupSignal):
            _, _, residual = _typeI_fit(spec, times, sups)
            t_max, v = t + spent + out.remaining, None
            break
        v, t = out, t + dt
        times.append(t)
        sups.append(np.max(np.abs(v)))
        if bound_fn is not None and violation is None:
            excess = bound_fn(t, np.abs(v))
            if np.any(excess > 0.0):
                violation = (t, np.unravel_index(int(np.argmax(excess)),
                                                 v.shape))
    if t >= c.horizon and t_max is None:
        status = STATUS_GLOBAL
    elif residual is not None and residual < evolve.FIT_RESIDUAL_GATE:
        status = STATUS_BLEWUP
    else:
        status = evolve.STATUS_INCONCLUSIVE
    return status, np.array(sups), t_max, violation, v


def _assert_matches_unfused(rec, last, f0, t0, c, bound_fn=None):
    """Assert that the fused loop's record and last field from f0 agree with
    the unfused reference's (on a fresh plan) to 1e-12, scaled by the
    growth (u(t)/u(0))^alpha of the flow since f0."""
    status, sups, t_max, violation, v = _unfused(
        KernelPlan(f0.spec, f0.grid), f0.values, t0, c, rec.dts[1:],
        bound_fn)
    assert rec.status == status
    assert rec.sups.shape == sups.shape
    # the exact flow u' = u^(1+alpha) multiplies a relative perturbation
    # of u(0) by (u(t)/u(0))^alpha
    ratio = np.maximum(1.0, np.r_[1.0, sups[1:] / sups[:-1]])
    growth = np.cumprod(ratio ** f0.spec.alpha)
    assert np.all(np.abs(rec.sups - sups) <= 1e-12 * growth * sups)
    if t_max is None:
        assert rec.t_max is None
    else:
        assert rec.t_max == pytest.approx(t_max, rel=1e-12)
    # the same envelope crossing: the same node at the same step
    if violation is None:
        assert rec.bound_violation is None
    else:
        assert rec.bound_violation[1] == violation[1]
        assert rec.bound_violation[0] == pytest.approx(violation[0],
                                                       rel=1e-12)
    if v is None:
        assert last is None
    else:
        # relative to the sup: every heat step adds rounding of the order
        # of the sup to each node, however small
        assert np.max(np.abs(last.values - v)) \
            <= 1e-12 * growth[-1] * np.max(np.abs(v))


# at alpha = 2.5 these runs reach the cap with T - t ~ 4e-21, far below
# ulp(t) ~ 5.5e-17, so the two loops' last steps round apart and their
# records end at different lengths and statuses
_BELOW_ULP = ("ROADMAP item 2: at large alpha T - t falls below the float "
              "spacing of t before the cap")


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([1, -1]), st.sampled_from([0.5, 1.0, 2.5]),
       st.permutations([AXIS_ANTISYM, AXIS_SYM, AXIS_PERIODIC]),
       st.integers(1, 3), st.sampled_from([None, 0.013, 0.07]),
       st.floats(0.05, 1.5), st.floats(0.8, 1.6), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(1, 1.0, [AXIS_PERIODIC, AXIS_SYM, AXIS_ANTISYM], 1, None, 1.5, 1.5,
         False, 0)
@example(1, 2.5, [AXIS_SYM, AXIS_ANTISYM, AXIS_PERIODIC], 1, None, 1.0, 1.5,
         False, 0).xfail(raises=AssertionError, reason=_BELOW_ULP)
@example(1, 2.5, [AXIS_SYM, AXIS_ANTISYM, AXIS_PERIODIC], 1, None, 1.0, 1.5,
         False, 1).xfail(raises=AssertionError, reason=_BELOW_ULP)
def test_fused_stepping_matches_unfused_strang(sign_a, alpha, kinds, ndim,
                                               fixed_dt, horizon, amp,
                                               envelope, seed):
    # the fused loop (one reaction flow per step, the sup from the scalar
    # flow, the state formed only where it is read) against the plain
    # composition.  The horizon is no multiple of the step, so the last
    # step is clipped; the envelope is crossed by growth (a = +1) or sits
    # across the initial data (a = -1).  Both loops amplify their rounding
    # as the flow grows, whether they sample at fixed times or the
    # reference replays an adaptive run's steps: the first example (alpha
    # = 1, to the cap) differs by 3.3e-9 relative at a growth of 7.9e7
    spec = SectorSpec(ndim, 0, 0.5, alpha, sign_a)
    grid = GridSpec(L=2.0, n=8, axes=kinds[:ndim])
    v0 = amp * np.random.default_rng(seed).uniform(0.2, 1.0, grid.shape())
    bound_fn = None
    if envelope:
        level = np.full(grid.shape(), 1.05 * amp if sign_a > 0 else 0.6 * amp)
        bound_fn = lambda t, modulus: modulus - level   # noqa: E731
    f0 = Field(spec, grid, v0)
    c = EvolveControls(horizon=horizon, fixed_dt=fixed_dt)
    rec, last = run_trajectory(KernelPlan(spec, grid), f0, 0.0, c,
                               bound_fn=bound_fn)
    _assert_matches_unfused(rec, last, f0, 0.0, c, bound_fn)


def test_probed_run_to_blowup_matches_unfused_strang(monkeypatch):
    # psi0 data on setup11's spec at n = 64 run to the blow-up cap: the
    # ladder probes and climbs, so the fused record holds probe legs and
    # propagators built at several rungs, while the reference replays its
    # accepted steps.  Over the ~400 steps to the cap the flow amplifies
    # rounding by (u(t)/u(0))^alpha, about 3.5e3 at the cap, where the two
    # records differ by about 2e-10 relative
    spec = SectorSpec(1, 1, 0.5, 0.5, +1)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    calls = {"probes": 0, "builds": 0}
    probe_error, axis_propagator = evolve._probe_error, \
        semigroup._axis_propagator

    def probe(*args):
        calls["probes"] += 1
        return probe_error(*args)

    def build(*args):
        calls["builds"] += 1
        return axis_propagator(*args)

    monkeypatch.setattr(evolve, "_probe_error", probe)
    monkeypatch.setattr(semigroup, "_axis_propagator", build)
    f0 = field_from_profile(spec, grid, Psi0Profile(spec))
    rec, last = run_trajectory(KernelPlan(spec, grid), f0, 0.0,
                               EvolveControls())
    assert rec.status == STATUS_BLEWUP
    assert calls["probes"] >= 3 and calls["builds"] >= 2
    _assert_matches_unfused(rec, last, f0, 0.0, EvolveControls())


def _spy_moduli(monkeypatch):
    """Wrap nonlinear_substep: each call that brings the loop's moduli is
    checked against |v|, its max and |v|^alpha, bit for bit, and counted."""
    seen = {"with": 0, "without": 0}
    substep = evolve.nonlinear_substep

    def spy(spec, v, dt, *, moduli=None):
        if moduli is None:
            seen["without"] += 1
        else:
            absv, vmax, p = moduli
            assert np.array_equal(absv, np.abs(v))
            assert type(vmax) is float and vmax == np.abs(v).max()
            assert np.array_equal(p, np.abs(v) ** spec.alpha)
            seen["with"] += 1
        return substep(spec, v, dt, moduli=moduli)

    monkeypatch.setattr(evolve, "nonlinear_substep", spy)
    return seen


def test_loop_moduli_are_those_of_each_leg_input(monkeypatch):
    # the probed psi0 run to blow-up above, then an envelope run: every
    # leg, probe legs included, takes the moduli the loop formed from
    # its input state; only the pending trailing half of the state a run
    # returns validates on its own
    seen = _spy_moduli(monkeypatch)
    spec = SectorSpec(1, 1, 0.5, 0.5, +1)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    f0 = field_from_profile(spec, grid, Psi0Profile(spec))
    rec, _ = run_trajectory(KernelPlan(spec, grid), f0, 0.0,
                            EvolveControls())
    assert rec.status == STATUS_BLEWUP
    assert seen["without"] == 1
    assert seen["with"] > len(rec.times) - 1    # probe legs too
    before = seen["with"]
    sup_spec = SectorSpec(1, 1, 0.5, 2.0, +1)
    report = global_smallness_check(KernelPlan(sup_spec, grid), t0=0.1,
                                    horizon_factor=10.0)
    assert report["certified"]
    assert seen["without"] == 2 and seen["with"] > before


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


def test_step_ladder_keeps_time_converged_tmax(setup11):
    # 4.4651982 is the Richardson value of fixed steps h^2/4 and h^2/8;
    # fixed steps h^2 take 2,977 steps and land 6.7e-6 relative from it
    spec, grid, plan = setup11
    rec = estimate_tmax(Psi0Profile(spec), plan)
    assert rec.status == STATUS_BLEWUP
    assert rec.t_max == pytest.approx(4.4651982, rel=2e-5, abs=0.0)
    assert len(rec.times) - 1 <= 595
    assert rec.dts.max() > grid.axis_spacing(0) ** 2


def test_constant_data_probe_reads_no_error(monkeypatch):
    # the heat step leaves constants alone and the reaction flow is a
    # semigroup, so a 2 dt leg and two dt legs agree to rounding: every
    # probe climbs the ladder, and the scalar blow-up time stays exact
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = _periodic(spec, n=64)
    estimates, probe_error = [], evolve._probe_error

    def probe(*args):
        estimates.append(probe_error(*args))
        return estimates[-1]

    monkeypatch.setattr(evolve, "_probe_error", probe)
    rec = estimate_tmax(ConstantProfile(spec, 1.0), KernelPlan(spec, grid))
    assert estimates and max(estimates) <= 1e-15
    assert len(set(rec.dts[1:])) > 1
    assert rec.status == STATUS_BLEWUP
    assert abs(rec.t_max - 1.0) < 1e-3


def test_probe_leaves_the_rung_propagator():
    # the probe's 2 dt leg goes through the factored path: the slot keeps
    # P(dt), and the next dt step reuses it rather than building it anew
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    plan = KernelPlan(spec, grid)
    w = field_from_profile(spec, grid, Psi0Profile(spec, 0.1)).values
    dt = grid.axis_spacing(0) ** 2
    pair = strang_step(plan, strang_step(plan, w, 0.0, dt), 0.5 * dt, dt)
    slot = plan._propagator
    assert slot[0] == dt
    for _ in range(2):
        evolve._probe_error(plan, w, 0.0, dt, pair)
        w, pair = pair, strang_step(plan, pair, 0.5 * dt, dt)
        assert plan._propagator is slot


def _full_solve_handoff_tmax(profile, plan):
    """Reference T_max run: the whole Picard mesh solved, then the hand-off
    at its first node >= max(HANDOFF_FRAC T, (2h)^2)."""
    run = solve_picard(profile, plan)
    mesh = run.config.mesh
    h = plan.grid.axis_spacing(0)
    target = max(evolve.HANDOFF_FRAC * run.config.T, (2.0 * h) ** 2)
    j = min(int(np.searchsorted(mesh, target)), len(mesh) - 1)
    rec, _ = run_trajectory(plan, run.slices[j], float(mesh[j]))
    return rec, float(mesh[j])


@pytest.mark.parametrize("profile", [
    lambda spec: Psi0Profile(spec, 0.5), lambda spec: Psi0Profile(spec, 1.0),
    lambda spec: Psi0Profile(spec, 2.0),
    lambda spec: ModulatedProfile(spec, SinSquaredLog(0.05))],
    ids=["psi0-0.5", "psi0-1", "psi0-2", "sin2log"])
def test_prefix_handoff_matches_full_solve_handoff(setup11, profile):
    # the prefix solve stops a sweep earlier than the full one, so its
    # hand-off state moves within the Picard tolerance and T_max with it
    spec, grid, plan = setup11
    prof = profile(spec)
    ref, t0 = _full_solve_handoff_tmax(prof, plan)
    rec = estimate_tmax(prof, plan)
    assert rec.status == ref.status == STATUS_BLEWUP
    assert rec.handoff_time == t0
    assert len(rec.times) == len(ref.times)
    assert rec.t_max == pytest.approx(ref.t_max, rel=1e-10, abs=0.0)


def test_handoff_below_grid_scale_is_noted(setup11, setup21):
    # on the 2-D grid the certified horizon T ends before (2h)^2, so the
    # hand-off is T itself and the notes say so; the 1-D grid hands off at
    # a node it resolves and carries no such note
    short = EvolveControls(horizon=0.1)
    for (spec, grid, plan), below in ((setup21, True), (setup11, False)):
        h = max(grid.axis_spacing(i) for i in range(grid.ndim))
        rec = estimate_tmax(Psi0Profile(spec), plan, short)
        assert (rec.handoff_time < (2.0 * h) ** 2) == below
        assert rec.notes.get("handoff_below_grid_scale", False) == below


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
    # a step a hair below the scalar blow-up time 1/(alpha c^alpha) at a
    # small alpha: the divisor's base is about 1e-16 and its power
    # 1/alpha = 20 underflows, so the exact reaction flow overflows to inf
    # without signalling
    (0.05, 1, 1.5, np.nextafter(1.0 / (0.05 * 1.5 ** 0.05), 0.0)),
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
    # constant data follow u(t) = 0.5/(1 - t/2), which crosses 0.552 at
    # t = 0.188: the first state above it is the one at t = 0.19, whose
    # post-heat state u(0.185) is still below it
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = _periodic(spec, n=16)
    plan = KernelPlan(spec, grid)
    f0 = Field(spec, grid, np.full(16, 0.5))
    rec, _ = run_trajectory(plan, f0, 0.0,
                            EvolveControls(horizon=0.5, fixed_dt=0.01),
                            bound_fn=lambda t, modulus: modulus - 0.552)
    assert rec.bound_violation is not None
    t_viol, node = rec.bound_violation
    assert t_viol == pytest.approx(0.19, rel=1e-12)


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
