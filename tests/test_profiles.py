import numpy as np
import pytest

from sectorheat import GridSpec, SectorSpec
from sectorheat.profiles import (ConstantModulation, GaussianDerivativeProfile,
                                 LogBlockModulation, ModulatedProfile,
                                 Psi0Profile, SinSquaredLog,
                                 eval_gaussian_derivative, eval_psi0,
                                 leading_constant)


@pytest.mark.parametrize("N, m, gamma", [(1, 0, 0.5), (1, 1, 0.5),
                                          (2, 1, 1.0), (3, 2, 2.5)])
def test_radial_form(N, m, gamma):
    # profile(x) = x_1...x_m f(|x|) with f = profile.radial
    spec = SectorSpec(N, m, gamma, 0.5)
    x = np.random.default_rng(N + m).uniform(0.1, 3.0, (50, N))
    coords = np.prod(x[:, :m], axis=1)
    r = np.linalg.norm(x, axis=1)
    for prof in (Psi0Profile(spec, 1.5),
                 ModulatedProfile(spec, SinSquaredLog(0.1, 0.3), -2.0),
                 GaussianDerivativeProfile(spec, 0.7, 3.0)):
        assert np.allclose(prof(x), coords * prof.radial(r), rtol=1e-13,
                           atol=0)


def test_leading_constant():
    assert leading_constant(SectorSpec(2, 0, 1.0, 0.5)) == 1.0
    assert leading_constant(SectorSpec(2, 1, 1.0, 0.5)) == 1.0   # gamma
    # gamma (gamma + 2) = 1 * 3
    assert leading_constant(SectorSpec(2, 2, 1.0, 0.5)) == 3.0
    assert leading_constant(SectorSpec(3, 3, 0.5, 0.5)) \
        == pytest.approx(0.5 * 2.5 * 4.5)


def test_eval_psi0_values():
    # m = 0, gamma = 1: |x|^-1 at |x| = 2
    spec = SectorSpec(2, 0, 1.0, 0.5)
    assert eval_psi0(spec, np.array([np.sqrt(2), np.sqrt(2)])) \
        == pytest.approx(0.5)
    # m = 1, gamma = 1, x = (1, 1): 1 * 1 * sqrt(2)^-3
    spec = SectorSpec(2, 1, 1.0, 0.5)
    assert eval_psi0(spec, np.array([1.0, 1.0])) \
        == pytest.approx(2.0 ** -1.5)


def test_eval_psi0_rejects_walls_and_origin():
    spec = SectorSpec(2, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        eval_psi0(spec, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        eval_psi0(spec, np.array([0.0, 0.0]))


def test_psi0_homogeneity_machine_precision():
    spec = SectorSpec(3, 2, 0.75, 0.5)
    rng = np.random.default_rng(5)
    pts = np.abs(rng.standard_normal((50, 3))) + 0.1
    for lam in (0.5, 2.0, 7.3):
        lhs = eval_psi0(spec, pts * lam)
        rhs = lam ** -spec.decay * eval_psi0(spec, pts)
        assert np.allclose(lhs, rhs, rtol=1e-13)


def test_gaussian_derivative_values():
    # m = 0, N = 1, t = 1/(4 pi): normalization gives exactly 1 at x = 0
    spec = SectorSpec(1, 0, 0.5, 1.0)
    assert eval_gaussian_derivative(spec, 1 / (4 * np.pi),
                                    np.array([0.0])) == pytest.approx(1.0)
    # anti-symmetry: zero on the wall
    spec = SectorSpec(2, 1, 1.0, 0.5)
    assert eval_gaussian_derivative(spec, 1.0, np.array([0.0, 0.3])) == 0.0
    with pytest.raises(ValueError):
        eval_gaussian_derivative(spec, -1.0, np.array([1.0, 1.0]))


def test_gaussian_derivative_maximizer_1d():
    # N = m = 1, t = 1: maximum of x/(2) G_1(x) at x = sqrt(2)
    spec = SectorSpec(1, 1, 0.5, 1.0)
    x = np.linspace(0.01, 6.0, 20000)[:, None]
    vals = eval_gaussian_derivative(spec, 1.0, x)
    xmax = x[np.argmax(vals), 0]
    assert xmax == pytest.approx(np.sqrt(2.0), abs=1e-3)
    expected = np.exp(-0.5) / np.sqrt(4 * np.pi) * np.sqrt(2.0) / 2.0
    assert np.max(vals) == pytest.approx(expected, rel=1e-6)


def test_gaussian_derivative_moment_normalization():
    # integral of x_1 Phi0(t0) over R is 1 for every t0 (N = m = 1;
    # the integrand is even, so it is twice the sector integral)
    spec = SectorSpec(1, 1, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=20.0, n=2000)
    x = grid.axis_nodes(0)[:, None]
    h = grid.axis_spacing(0)
    for t0 in (0.1, 0.5, 2.0):
        vals = eval_gaussian_derivative(spec, t0, x)
        moment = 2.0 * np.sum(x[:, 0] * vals) * h
        assert moment == pytest.approx(1.0, abs=1e-4)


def test_eval_modulated():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    pts = np.array([[1.3], [2.6]])
    ones = ModulatedProfile(spec, lambda s: np.ones_like(s))(pts)
    assert np.allclose(ones, eval_psi0(spec, pts))
    # peak of sin^2(log r) at r = e^(pi/2)
    peak = ModulatedProfile(spec, lambda s: np.sin(s) ** 2)(
        np.array([[np.exp(np.pi / 2)]]))
    assert peak == pytest.approx(eval_psi0(spec, np.array([np.exp(np.pi / 2)])))


def test_modulated_log_shift_identity():
    # f(lam x) = lam^-(gamma+m) psi0(x) g(log|x| + log lam)
    spec = SectorSpec(2, 1, 1.0, 0.5)
    g = SinSquaredLog(eps=0.05)
    f = ModulatedProfile(spec, g)
    rng = np.random.default_rng(17)
    pts = np.abs(rng.standard_normal((100, 2))) + 0.05
    lam = 3.7
    lhs = f(pts * lam)
    r = np.linalg.norm(pts, axis=-1)
    rhs = lam ** -spec.decay * eval_psi0(spec, pts) * g(np.log(r)
                                                        + np.log(lam))
    assert np.allclose(lhs, rhs, rtol=1e-12)


def test_log_shifted_profile():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    f = ModulatedProfile(spec, SinSquaredLog(eps=0.05))
    s = 1.234
    shifted = f.log_shifted(s)
    pts = np.array([[0.7], [1.9], [4.2]])
    r = pts[:, 0]
    expected = eval_psi0(spec, pts) * (np.sin(np.log(r) + s) ** 2 + 0.05)
    assert np.allclose(shifted(pts), expected, rtol=1e-13)
    assert shifted.x_norm() == pytest.approx(1.05)


@pytest.mark.parametrize("g", [SinSquaredLog(0.05, 0.4),
                               LogBlockModulation(1.0, 3.0),
                               lambda s: np.cos(s) + 0.5])
def test_log_shifts_compose(g):
    # two log shifts are the one by their sum, and leave the X-norm alone
    spec = SectorSpec(2, 1, 1.0, 0.5)
    p = ModulatedProfile(spec, g, 1.5)
    a, b = 0.8, -2.3
    twice, once = p.log_shifted(a).log_shifted(b), p.log_shifted(a + b)
    pts = np.random.default_rng(3).uniform(0.05, 20.0, (200, 2))
    assert np.allclose(twice(pts), once(pts), rtol=1e-13, atol=0)
    assert twice.x_norm() == p.x_norm()


def test_profiles_respect_weighted_bound():
    # every built-in: |f| <= K * x1...xm |x|^-(gamma+2m) at nodes
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=8.0, n=32)
    pts = grid.points()
    psi0v = eval_psi0(spec, pts)
    profiles = [
        (Psi0Profile(spec, 2.0), 2.0),
        (ModulatedProfile(spec, SinSquaredLog(0.05)), 1.05),
        (ModulatedProfile(spec, LogBlockModulation(1.0, 2.0)), 2.0),
        # eps < -1/2: sup |g| is |eps|, not 1 + eps
        (ModulatedProfile(spec, SinSquaredLog(-0.7)), 0.7),
        (ModulatedProfile(spec, SinSquaredLog(-2.0)), 2.0),
        (GaussianDerivativeProfile(spec, 0.5),
         GaussianDerivativeProfile(spec, 0.5).x_norm()),
    ]
    for prof, K in profiles:
        assert prof.x_norm() == pytest.approx(K, rel=1e-12)
        assert np.all(np.abs(prof(pts)) <= K * psi0v * (1 + 1e-10))


def test_x_norms():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    assert Psi0Profile(spec).x_norm() == 1.0
    assert Psi0Profile(spec, -2.5).x_norm() == 2.5
    assert ModulatedProfile(spec, SinSquaredLog(0.1), 2.0).x_norm() \
        == pytest.approx(2.2)
    assert ModulatedProfile(spec, ConstantModulation(3.0)).x_norm() \
        == pytest.approx(3.0)
    # g = sin^2 + eps ranges over [eps, 1 + eps]
    assert ModulatedProfile(spec, SinSquaredLog(-0.7)).x_norm() \
        == pytest.approx(0.7)
    assert ModulatedProfile(spec, SinSquaredLog(-2.0), -1.5).x_norm() \
        == pytest.approx(3.0)


@pytest.mark.parametrize("t0", [0.5, 1e-7])
def test_gaussian_derivative_x_norm_closed_form(t0):
    # the ratio to psi0 peaks at r* = sqrt(2 t0 k), k = gamma + 2m, where
    # it is |A| (4 pi t0)^(-N/2) (2 t0)^(-m) / c (2 t0 k)^(k/2) e^(-k/2);
    # at t0 = 1e-7 the peak lies at r* = 7.1e-4
    spec = SectorSpec(1, 1, 0.5, 0.5)
    k = spec.gamma + 2 * spec.m
    exact = (2.0 * (4 * np.pi * t0) ** -0.5 * (2 * t0) ** -1 / 0.5
             * (2 * t0 * k) ** (k / 2) * np.exp(-k / 2))
    prof = GaussianDerivativeProfile(spec, t0, -2.0)
    assert prof.x_norm() == pytest.approx(exact, rel=1e-13)
    r = np.geomspace(1e-6, 1e3, 20001) * np.sqrt(t0)
    assert np.max(np.abs(prof.radial(r)) / Psi0Profile(spec).radial(r)) \
        <= prof.x_norm() * (1 + 1e-12)


def test_log_block_modulation_structure():
    g = LogBlockModulation(1.0, 2.0)
    assert g(np.array([1.5]))[0] == 1.0      # block 0: [1, 2)
    assert g(np.array([3.0]))[0] == 2.0      # block 1: [2, 4)
    assert g(np.array([5.0]))[0] == 1.0      # block 2: [4, 8)
    assert g(np.array([0.1]))[0] == 1.0      # below base -> block 0
    assert g.block_edge(3) == 8.0
    assert g.block_center(0) == pytest.approx(1.5)
    assert g.sup == 2.0


def test_scale_profile():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    p = Psi0Profile(spec).scaled(3.0)
    pts = np.array([[1.0], [2.0]])
    assert np.allclose(p(pts), 3.0 * eval_psi0(spec, pts))
