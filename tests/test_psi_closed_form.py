"""The reference field E = e^{D} psi0 in closed form against independent
oracles: the radial flow of psi0 (radial_flow, through apply_kernel and
linear_sup), and mpmath's 1F1 (a test-only dependency).  Also the radial
flow's own invariants: dilation and positivity."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import gamma as gamma_fn, hyp1f1

from sectorheat import (GridSpec, KernelPlan, SectorSpec, apply_kernel,
                        build_psi_cache, field_from_profile, linear_sup,
                        psi_values)
from sectorheat.profiles import (ModulatedProfile, Psi0Profile,
                                 SinSquaredLog, leading_constant)
from sectorheat.semigroup import (E, _kummer_params, _radial_max, _sup_E,
                                  radial_flow)

FEW = settings(max_examples=15, deadline=None)


@st.composite
def specs(draw):
    """N <= 2, m <= N, 0 < gamma < N, kept 1e-6 from the ends (psi0 is
    proportional to gamma when m >= 1, so it underflows at subnormal
    gamma)."""
    N = draw(st.integers(1, 2))
    return SectorSpec(N, draw(st.integers(0, N)),
                      draw(st.floats(1e-6, N - 1e-6)), 0.5)


def _oracle_grid(spec):
    return GridSpec.for_spec(spec, L=8.0, n=32) if spec.N == 1 \
        else GridSpec.for_spec(spec, L=6.0, n=12)


@FEW
@given(specs())
def test_E_matches_quadrature(spec):
    grid = _oracle_grid(spec)
    quad = apply_kernel(KernelPlan(spec, grid), 1.0,
                        field_from_profile(spec, grid, Psi0Profile(spec)))
    closed = E(spec, grid.points())
    assert np.max(np.abs(closed - quad.values)) \
        <= 1e-12 * np.max(np.abs(closed))


@FEW
@given(specs(), st.floats(0.1, 10.0), st.floats(0.01, 100.0),
       st.integers(0, 2 ** 32 - 1))
def test_psi_values_dilation_identity(spec, lam, t, seed):
    # Psi(lam^2 t, lam x) = lam^{-(gamma+m)} Psi(t, x)
    x = np.random.default_rng(seed).uniform(-20.0, 20.0, (64, spec.N))
    x[:, :spec.m] = np.abs(x[:, :spec.m])
    lhs = psi_values(spec, lam * lam * t, lam * x)
    rhs = lam ** -spec.decay * psi_values(spec, t, x)
    assert np.allclose(lhs, rhs, rtol=1e-10, atol=0)
    assert np.all(psi_values(spec, t, x) > 0)


@st.composite
def specs_3d(draw):
    """N <= 3, m <= N, 0 < gamma < N, kept 1e-6 from the ends."""
    N = draw(st.integers(1, 3))
    return SectorSpec(N, draw(st.integers(0, N)),
                      draw(st.floats(1e-6, N - 1e-6)), 0.5)


@FEW
@given(specs_3d(), st.floats(1e-3, 10.0), st.floats(1.0, 1e3),
       st.integers(0, 2 ** 32 - 1))
def test_psi_monotone_lower_bound(spec, s1, ratio, seed):
    # s^a Psi(s, x) = k x_1...x_m 1F1(a; b; -|x|^2/4s), a = gamma/2 + m, is
    # nondecreasing in s, so Psi(s) >= (s1/s)^a Psi(s1): the bound that
    # certifies the smallness envelope.  It is tight as |x| -> 0, where
    # 1F1 -> 1, so the radii reach down to 1e-8 sqrt(s1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((64, spec.N))
    x[:, :spec.m] = np.abs(x[:, :spec.m])
    radii = np.sqrt(s1) * 10.0 ** rng.uniform(-8.0, 1.5, 64)
    x *= (radii / np.linalg.norm(x, axis=1))[:, None]
    s = s1 * ratio
    a = _kummer_params(spec)[0]
    assert np.all(psi_values(spec, s, x) >= (s1 / s) ** a
                  * psi_values(spec, s1, x) * (1.0 - 1e-12))


@FEW
@given(specs())
def test_C_inf_matches_linear_sup(spec):
    grid = _oracle_grid(spec)
    oracle = linear_sup(KernelPlan(spec, grid), Psi0Profile(spec), 1.0)
    assert build_psi_cache(spec, grid).C_inf \
        == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("fun, r, peak", [
    # an interior maximum between samples: r e^{-r^2} peaks at 1/sqrt 2,
    # between the samples 0.625 and 0.75
    (lambda r: r * np.exp(-r * r), np.linspace(0.0, 5.0, 41),
     np.exp(-0.5) / np.sqrt(2.0)),
    # the maximum at the first sample, and at the last
    (lambda r: np.exp(-r * r), np.linspace(0.0, 5.0, 41), 1.0),
    (np.arctan, np.linspace(0.0, 2.0, 17), np.arctan(2.0)),
])
def test_radial_max_on_closed_forms(fun, r, peak):
    assert _radial_max(fun, r) == pytest.approx(peak, rel=1e-15, abs=0)


@pytest.mark.parametrize("N, m, gamma", [
    (1, 1, 0.5), (2, 1, 1.0), (3, 2, 1.5), (2, 2, 0.7), (3, 3, 2.5)])
def test_C_inf_against_mpmath(N, m, gamma):
    # C_inf = k max_r (r^2/m)^{m/2} 1F1(a; b; -r^2/4) along the diagonal,
    # from mpmath at 40 digits: the maximiser is the root of the
    # derivative, m 1F1(a; b; -z) = (a/b) 2z 1F1(a+1; b+1; -z), z = r^2/4,
    # found from its small-z estimate mb/2a, and k from mpmath's Gamma and
    # Pochhammer
    with mpmath.workdps(40):
        g, n = mpmath.mpf(gamma), mpmath.mpf(N)
        a, b = g / 2 + m, n / 2 + m
        z = mpmath.findroot(lambda z: m * mpmath.hyp1f1(a, b, -z)
                            - a / b * 2 * z * mpmath.hyp1f1(a + 1, b + 1, -z),
                            m * b / (2 * a))
        A = mpmath.gamma((n - g) / 2) / (mpmath.gamma(n / 2) * 2 ** g)
        k = A * mpmath.mpf(2) ** -m * mpmath.rf(g / 2, m) / mpmath.rf(n / 2, m)
        ref = k * (4 * z / m) ** (mpmath.mpf(m) / 2) * mpmath.hyp1f1(a, b, -z)
    assert _sup_E(SectorSpec(N, m, gamma, 0.5)) \
        == pytest.approx(float(ref), rel=1e-13, abs=0)


@st.composite
def specs_near_N(draw):
    """specs_3d, with gamma drawn within 0.05 of N half of the time, where
    the integrand rho^{N-1-gamma} of the radial flow's core is least
    integrable.  gamma stays 1e-3 from N: E's 1F1 takes a = gamma/2 + m
    rounded, and its far field goes as 1/Gamma(b - a), so it carries a
    relative error of about ulp(a)/(N - gamma), 1e-11 at N - gamma = 1e-5
    (against mpmath at 40 digits, where the radial flow is 2e-14 off)."""
    N = draw(st.integers(1, 3))
    gamma = draw(st.one_of(st.floats(1e-6, N - 1e-3),
                           st.floats(N - 0.05, N - 1e-3)))
    return SectorSpec(N, draw(st.integers(0, N)), gamma, 0.5)


@FEW
@given(specs_near_N(), st.floats(-4.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_radial_flow_matches_E(spec, log_t, seed):
    # e^{tD} psi0 = x_1...x_m F(t, |x|) with F = t^{-(gamma+2m)/2} k
    # 1F1(a; b; -r^2/4t), the radial part of Psi = t^{-(gamma+m)/2}
    # E(x/sqrt t); at radii from 0 to 12 sqrt(t), t in [1e-4, 10]
    t = 10.0 ** log_t
    rng = np.random.default_rng(seed)
    r = np.sqrt(t) * np.r_[0.0, rng.uniform(0.0, 12.0, 31)]
    a, b, k = _kummer_params(spec)
    exact = t ** (-(spec.gamma + 2 * spec.m) / 2.0) * k \
        * hyp1f1(a, b, -r * r / (4.0 * t))
    got = radial_flow(Psi0Profile(spec), t, r)
    assert np.max(np.abs(got / exact - 1.0)) <= 1e-12


@FEW
@given(specs_3d(), st.floats(-3.0, 3.0), st.floats(-3.0, 0.0),
       st.integers(0, 2 ** 32 - 1))
def test_radial_flow_dilation_and_positivity(spec, shift, log_t, seed):
    # with lam = e^shift, log_shifted is lam^{gamma+m} D_lam, and the heat
    # flow commutes with dilation: u_shift(t, x) = lam^{gamma+m}
    # u(lam^2 t, lam x).  gamma is kept 0.01 from N, where the origin's
    # blocks of the flow (_deep_mass) still reach e^{-40} of its mass
    spec = SectorSpec(spec.N, spec.m, min(spec.gamma, spec.N - 0.01), 0.5)
    lam, t = np.exp(shift), 10.0 ** log_t
    prof = ModulatedProfile(spec, SinSquaredLog())
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 6.0 * np.sqrt(t), (32, spec.N))
    x[0] = 0.0
    r = np.linalg.norm(x, axis=1)
    coords = np.prod(x[:, :spec.m], axis=1)
    lhs = coords * radial_flow(prof.log_shifted(shift), t, r)
    rhs = lam ** spec.decay * lam ** spec.m * coords \
        * radial_flow(prof, lam * lam * t, lam * r)
    scale = np.max(np.abs(lhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale
    # nonnegative data flow to a nonnegative F, so to u >= 0 on the sector
    assert np.all(radial_flow(prof, t, r) >= 0.0)


@pytest.mark.parametrize("N, m, gamma", [
    (1, 0, 0.5), (1, 1, 0.5), (2, 0, 1.0), (2, 1, 1.0), (2, 2, 1.0),
    (2, 1, 1.9), (3, 1, 1.5)])
def test_kummer_function_against_mpmath(N, m, gamma):
    a, b = gamma / 2 + m, N / 2 + m
    z = np.array([0.0, 0.1, 1.0, 7.5, 30.0, 300.0, 1e4, 1e6])
    ref = np.array([float(mpmath.hyp1f1(a, b, -v)) for v in z])
    assert np.allclose(hyp1f1(a, b, -z), ref, rtol=1e-12, atol=0)
    # and the constant in front: E at one point from mpmath's own Gamma,
    # Pochhammer and 1F1
    spec = SectorSpec(N, m, gamma, 0.5)
    x = np.linspace(0.7, 1.9, N)
    A = mpmath.gamma((N - gamma) / 2) / (mpmath.gamma(N / 2) * 2 ** gamma)
    ref_E = (A * mpmath.mpf(2) ** -m * mpmath.rf(gamma / 2, m)
             / mpmath.rf(N / 2, m) * mpmath.fprod(x[:m])
             * mpmath.hyp1f1(a, b, -float(np.sum(x * x)) / 4))
    assert E(spec, x) == pytest.approx(float(ref_E), rel=1e-12)


@pytest.mark.parametrize("N, m, gamma", [
    (1, 1, 0.5), (1, 1, 0.95), (1, 1, 0.99), (2, 2, 1.95), (3, 0, 2.95),
    (3, 3, 2.95), (3, 1, 0.01)])
def test_sin2log_flow_at_origin_closed_form(N, m, gamma):
    # F(t, 0) = 2/Gamma(d/2) int_0^inf e^{-s^2} s^{d-1} f(sqrt(4t) s) ds,
    # and with f = c rho^{-(gamma+2m)} (sin^2(log rho) + eps) the Mellin
    # integrals are Gamma functions, the oscillation's at a complex
    # argument: an oracle for the origin's mass of an oscillating datum,
    # within 0.05 of N as well
    spec = SectorSpec(N, m, gamma, 0.5)
    eps, a = 0.05, N - gamma
    for t in (1e-4, 1.0):
        sigma = np.sqrt(4.0 * t)
        mellin = ((0.5 + eps) * gamma_fn(a / 2)
                  - np.real(sigma ** 2j * gamma_fn(a / 2 + 1j)) / 2)
        exact = (leading_constant(spec) * sigma ** -(gamma + 2 * m)
                 / gamma_fn((N + 2 * m) / 2) * mellin)
        got = radial_flow(ModulatedProfile(spec, SinSquaredLog(eps)), t,
                          np.array([0.0]))[0]
        assert got == pytest.approx(exact, rel=1e-12)


def test_psi_exact_across_old_interpolation_seam():
    # the 2-D acceptance grid (N=2, m=1, gamma=1, L=8, n=64) at t = 0.5:
    # Psi used to switch from a cubic interpolant of a cached E to a
    # six-term far-field series at |x / sqrt t| = 0.95 of the box, and was
    # 6e-4 to 8e-3 off around there
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=8.0, n=64)
    t = 0.5
    seam = 0.95 * grid.axis_nodes(0)[-1]
    radius = seam * np.array([0.9, 0.95, 0.99, 1.0, 1.01, 1.05])
    angle = np.linspace(-1.5, 1.5, 8)
    y = radius[:, None, None] * np.stack([np.cos(angle), np.sin(angle)], -1)
    pts = np.sqrt(t) * y.reshape(-1, 2)
    oracle = pts[:, 0] * radial_flow(Psi0Profile(spec), t,
                                     np.linalg.norm(pts, axis=1))
    got = psi_values(spec, t, pts)
    assert np.max(np.abs(got / oracle - 1)) <= 1e-12
