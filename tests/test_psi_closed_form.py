"""The reference field E = e^{D} psi0 in closed form against independent
oracles: the analytic kernel quadrature of psi0, the simplex search of its
sup-norm (linear_sup), and mpmath's 1F1 (a test-only dependency)."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import hyp1f1

from sectorheat import (GridSpec, KernelPlan, SectorSpec, apply_kernel,
                        build_psi_cache, field_from_profile, linear_sup,
                        psi_values)
from sectorheat.profiles import Psi0Profile
from sectorheat.semigroup import E, _kummer_params, heat_at_points

FEW = settings(max_examples=15, deadline=None)


@st.composite
def specs(draw, oracle=False):
    """N <= 2, m <= N, 0 < gamma < N, kept 1e-6 from the ends (psi0 is
    proportional to gamma when m >= 1, so it underflows at subnormal
    gamma).  The quadrature oracle limits gamma to [N/4, N - 0.4]: it drops
    a strip of width ~2^-levels around each axis, whose mass grows as
    gamma -> 0 when m < N, and its dyadic shells lose accuracy as
    gamma -> N."""
    N = draw(st.integers(1, 2))
    m = draw(st.integers(0, N))
    if oracle:
        gamma = draw(st.floats(N / 4.0, N - 0.4))
    else:
        gamma = draw(st.floats(1e-6, N - 1e-6))
    return SectorSpec(N, m, gamma, 0.5)


def _oracle_grid(spec):
    return GridSpec.for_spec(spec, L=8.0, n=32) if spec.N == 1 \
        else GridSpec.for_spec(spec, L=6.0, n=12)


@FEW
@given(specs(oracle=True))
def test_E_matches_quadrature(spec):
    grid = _oracle_grid(spec)
    quad = apply_kernel(KernelPlan(spec, grid), 1.0,
                        field_from_profile(spec, grid, Psi0Profile(spec)))
    closed = E(spec, grid.points())
    assert np.max(np.abs(closed - quad.values)) \
        <= 1e-6 * np.max(np.abs(closed))


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
@given(specs(oracle=True))
def test_C_inf_matches_linear_sup(spec):
    grid = _oracle_grid(spec)
    oracle = linear_sup(KernelPlan(spec, grid), Psi0Profile(spec), 1.0)
    assert build_psi_cache(spec, grid).C_inf \
        == pytest.approx(oracle, rel=1e-6)


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
    oracle = heat_at_points(KernelPlan(spec, grid), t, Psi0Profile(spec),
                            pts)
    got = psi_values(spec, t, pts)
    assert np.max(np.abs(got / oracle - 1)) <= 1e-6
