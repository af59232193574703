import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import sectorheat.semigroup as semigroup
from sectorheat import (AXIS_ANTISYM, AXIS_PERIODIC, AXIS_SYM, Field,
                        GridSpec, KernelPlan, SectorSpec,
                        alpha_time_integral, apply_kernel, apply_spectral,
                        build_psi_cache, field_from_profile, linear_sup,
                        load_cache, psi_fast, psi_sup, psi_values, save_cache)
from sectorheat.profiles import (ConstantProfile, CustomProfile,
                                 GaussianDerivativeProfile, ModulatedProfile,
                                 Psi0Profile, SinSquaredLog,
                                 eval_gaussian_derivative, eval_psi0)
from sectorheat.semigroup import (E, _contract, _gauss_legendre, _grid_matrix,
                                  _radial_kernel, radial_flow)


def test_gaussian_semigroup_m0():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=10.0, n=128)
    plan = KernelPlan(spec, grid)
    f = field_from_profile(spec, grid, GaussianDerivativeProfile(spec, 0.5))
    out = apply_kernel(plan, 1.0, f)
    exact = eval_gaussian_derivative(spec, 1.5, grid.points())
    assert np.max(np.abs(out.values - exact)) < 1e-6


def test_gaussian_derivative_eigenflow_m1():
    spec = SectorSpec(1, 1, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=10.0, n=128)
    plan = KernelPlan(spec, grid)
    f = field_from_profile(spec, grid, GaussianDerivativeProfile(spec, 0.5))
    out = apply_kernel(plan, 1.0, f)
    exact = eval_gaussian_derivative(spec, 1.5, grid.points())
    assert np.max(np.abs(out.values - exact)) < 1e-8


def test_kernel_vanishes_at_wall():
    # the flow x_1 F(t, x_1) near the anti-symmetric wall scales linearly
    # in x_1: F is continuous at r = 0, across the radius where the kernel
    # switches from ive to its series (2 r s / 4t = 1e-6)
    spec = SectorSpec(1, 1, 0.5, 1.0)
    t = 0.5
    x = np.array([0.0, 1e-9, 1e-7, 4e-7, 1e-6, 1e-5])
    ratio = radial_flow(Psi0Profile(spec), t, x)
    assert np.all(np.abs(x * ratio) < 1e-4)     # -> 0 at the wall
    assert np.allclose(ratio, ratio[0], rtol=1e-10, atol=0)


def test_modulated_apply_near_gamma_N_is_finite(monkeypatch):
    # gamma within 0.05 of N: the integrand rho^{N-1-gamma} of the flow's
    # core is barely integrable and psi0 overflows long before its mass
    # is in.  The values are finite and do not move when every rule's
    # node count doubles
    spec = SectorSpec(1, 1, 0.95, 0.5)
    grid = GridSpec.for_spec(spec, L=6.0, n=64)
    plan = KernelPlan(spec, grid)
    f = field_from_profile(spec, grid, ModulatedProfile(spec, SinSquaredLog()))
    out = apply_kernel(plan, 1.0, f).values
    assert np.all(np.isfinite(out))
    monkeypatch.setattr(semigroup, "WINDOW_ORDER", 2 * semigroup.WINDOW_ORDER)
    monkeypatch.setattr(semigroup, "PANEL_ORDER", 2 * semigroup.PANEL_ORDER)
    ref = apply_kernel(plan, 1.0, f).values
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_radial_flow_matches_apply_kernel_2d():
    # the pointwise evaluator at a few nodes and the grid apply, which
    # evaluates it once per distinct radius, agree at every node
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=8.0, n=16)
    plan = KernelPlan(spec, grid)
    prof = Psi0Profile(spec)
    on_grid = apply_kernel(plan, 0.5, field_from_profile(spec, grid, prof))
    idx = (np.array([0, 3, 9, 15]), np.array([0, 8, 2, 15]))
    pts = grid.points()[idx]
    at_points = pts[:, 0] * radial_flow(prof, 0.5, np.hypot(*pts.T))
    assert np.allclose(at_points, on_grid.values[idx], rtol=1e-12, atol=0)
    assert np.allclose(on_grid.values, psi_values(spec, 0.5, grid.points()),
                       rtol=1e-12, atol=0)


def _exact_factor(kind, x, t):
    """Whole-space flow of the one-axis datum: x e^{-x^2} on an antisym
    axis, e^{-x^2} on the others; e^{tD} e^{-x^2} = s^{-1/2} e^{-x^2/s}
    with s = 1 + 4t, and x e^{-x^2} is its x-derivative over -2."""
    s = 1.0 + 4.0 * t
    if kind == AXIS_ANTISYM:
        return s ** -1.5 * x * np.exp(-x * x / s)
    return s ** -0.5 * np.exp(-x * x / s)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from((AXIS_ANTISYM, AXIS_SYM, AXIS_PERIODIC)),
                min_size=1, max_size=3),
       st.floats(9.0, 10.0), st.floats(0.1, 0.5))
def test_both_engines_match_the_exact_flow(axes, L, t):
    # the exact flow is the product of the per-axis flows.  L >= 9 and
    # t <= 0.5 keep the walls invisible (e^{-L^2/(1+4t)} < 1e-11), and
    # about 7 nodes per unit length resolve the data and a kernel of
    # t >= 0.1; the transform pair alone could not see a wrong basis
    grid = GridSpec(L=L, n=int(np.ceil(7.0 * L)), axes=tuple(axes))
    spec = SectorSpec(grid.ndim, 0, 0.5, 1.0)
    plan = KernelPlan(spec, grid)
    mesh = grid.meshgrid()
    f = Field(spec, grid, np.prod([_exact_factor(k, x, 0.0)
                                   for k, x in zip(axes, mesh)], axis=0))
    exact = np.prod([_exact_factor(k, x, t) for k, x in zip(axes, mesh)],
                    axis=0)
    for engine in (apply_kernel, apply_spectral):
        err = np.max(np.abs(engine(plan, t, f).values - exact))
        assert err <= 1e-9 * np.max(np.abs(exact)), engine.__name__


def test_analytic_apply_refuses_periodic_axis():
    # the radial flow of psi0-class data is the whole-space flow, which a
    # periodised kernel does not reproduce; a profile with no radial form
    # takes the grid rule, which on a periodic axis keeps a constant exact
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec(np.pi, 32, (AXIS_PERIODIC,))
    plan = KernelPlan(spec, grid)
    psi0 = Psi0Profile(spec)
    with pytest.raises(ValueError, match="axis 0 is 'periodic'"):
        apply_kernel(plan, 0.05, field_from_profile(spec, grid, psi0))
    with pytest.raises(ValueError, match="axis 0 is 'periodic'"):
        linear_sup(plan, psi0, 1.0)
    spec21 = SectorSpec(2, 1, 1.0, 0.5)
    grid21 = GridSpec(4.0, 8, ("antisym", "periodic"))
    with pytest.raises(ValueError, match="axis 1 is 'periodic'"):
        apply_kernel(KernelPlan(spec21, grid21), 0.5,
                     field_from_profile(spec21, grid21, Psi0Profile(spec21)))
    one = ConstantProfile(spec, 1.0)
    for f in (Field(spec, grid, np.ones(32)),
              field_from_profile(spec, grid, one)):
        out = apply_kernel(plan, 2.0, f)
        assert np.max(np.abs(out.values - 1.0)) < 1e-9
    assert linear_sup(plan, one, 2.0) == pytest.approx(1.0, abs=1e-9)


def test_linear_sup_refuses_profile_of_another_spec():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    plan = KernelPlan(spec, GridSpec.for_spec(spec, L=10.0, n=64))
    other = SectorSpec(1, 0, 0.75, 1.0)
    with pytest.raises(ValueError, match="differs from plan spec"):
        linear_sup(plan, Psi0Profile(other), 1.0)


def test_positivity_and_sub_markov():
    spec = SectorSpec(1, 1, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=10.0, n=128)
    plan = KernelPlan(spec, grid)
    ones = Field(spec, grid, np.ones(grid.shape()))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        out = apply_kernel(plan, 0.5, ones)
    assert out.values.min() >= -1e-12
    assert out.values.max() <= 1.0 + 1e-10


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_contract_matches_tensordot(ndim, dtype):
    # bare matmuls in 1-D and 2-D, the tensordot chain in 3-D, against the
    # chain that applies mats[i] along axis i; rectangular on every axis,
    # complex as the periodic Fourier factors are
    rng = np.random.default_rng(ndim)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    n_in, n_out = (7, 5, 4)[:ndim], (3, 6, 2)[:ndim]
    mats = [draw(m, n) for m, n in zip(n_out, n_in)]
    F = draw(*n_in)
    ref = F
    for A in mats:
        ref = np.tensordot(ref, A, axes=([0], [1]))
    out = _contract(mats, F)
    assert out.shape == n_out
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_kernel_symmetry():
    # the radial kernel e^{-(q-s)^2} z^{-nu} ive(nu, z), z = 2qs, is
    # symmetric in its two radii, in every dimension d = 2nu + 2 and on
    # both sides of the series switch at z = 1e-6
    q = np.r_[0.0, 1e-8, 3e-4, np.linspace(0.01, 12.0, 60)]
    for nu in (-0.5, 0.0, 0.5, 1.0, 2.5):
        K = _radial_kernel(nu, q[:, None], q[None, :])
        assert np.max(np.abs(K - K.T)) <= 1e-15 * np.max(K)
    # and, at d = 1, it is the sym axis's kernel folded onto r >= 0:
    # (e^{-(q-s)^2} + e^{-(q+s)^2}) / 2 = e^{-(q-s)^2} cosh(2qs) e^{-2qs}
    K1 = _radial_kernel(-0.5, q[:, None], q[None, :])
    folded = 0.5 * (np.exp(-(q[:, None] - q) ** 2)
                    + np.exp(-(q[:, None] + q) ** 2))
    assert np.allclose(K1 * np.sqrt(np.pi / 2.0), folded, rtol=1e-13,
                       atol=1e-300)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from((AXIS_ANTISYM, AXIS_SYM, AXIS_PERIODIC)),
       st.integers(16, 512), st.floats(1.0, 15.0), st.floats(1e-5, 10.0))
def test_grid_matrix_matches_the_pairwise_kernel(kind, n, L, t):
    # the offset-built matrix equals the kernel evaluated at every node
    # pair (2n^2 exponentials, images of the period 2L summed on a
    # periodic axis), times the weight h, and is symmetric
    grid = GridSpec(L=L, n=n, axes=(kind,))
    x = grid.axis_nodes(0)
    dx = x[:, None] - x[None, :]
    ref = np.exp(-dx * dx / (4.0 * t))
    if kind == AXIS_ANTISYM:
        sx = x[:, None] + x[None, :]
        ref -= np.exp(-sx * sx / (4.0 * t))
    if kind == AXIS_PERIODIC:
        images = int(np.ceil(4.0 * np.sqrt(t) / (2.0 * L))) + 1
        ref = sum(np.exp(-(dx + 2.0 * L * k) ** 2 / (4.0 * t))
                  for k in range(-images, images + 1))
    ref *= grid.axis_spacing(0) / np.sqrt(4.0 * np.pi * t)
    K = _grid_matrix(grid, 0, t)
    assert np.max(np.abs(K - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(K, K.T)


def test_quadrature_weights_positive_kernel_nonnegative():
    # the radial flow's rules (per-radius windows and log-radius panels)
    # have positive weights, and its kernel is nonnegative, so a
    # nonnegative datum flows to a nonnegative F
    a, b = np.array([-300.0, 2.5]), np.array([-298.0, 10.5])
    for order in (16, 48):
        x, w = _gauss_legendre(a, b, order)
        assert np.all(w > 0)
        assert np.allclose(w.sum(axis=-1), [2.0, 8.0], rtol=1e-14)
        assert np.all(np.diff(x, axis=-1) > 0)
    q = np.r_[0.0, np.geomspace(1e-9, 20.0, 40)]
    for nu in (-0.5, 0.0, 0.5, 2.5):
        assert _radial_kernel(nu, q[:, None], q[None, :]).min() >= 0.0


def test_x_norm_stability(setup11):
    # the weighted ratio sup |e^(tD) psi0| / psi0 is finite and, by the
    # dilation identity, independent of t (it is NOT <= 1 here: the far
    # field of E overshoots psi0 since c1 > 0)
    spec, grid, plan = setup11
    psi0f = field_from_profile(spec, grid, Psi0Profile(spec))
    ratios = []
    for t in (0.1, 0.5, 2.0):
        out = apply_kernel(plan, t, psi0f)
        ratios.append(float(np.max(np.abs(out.values) / psi0f.values)))
    assert all(np.isfinite(c) and c > 0 for c in ratios)
    assert max(ratios) - min(ratios) < 1e-3 * ratios[0]


def test_commutation_with_dilation():
    # D_lam e^(tau lam^2 D) = e^(tau D) D_lam
    spec = SectorSpec(1, 1, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=8.0, n=512)
    plan = KernelPlan(spec, grid)
    # localized enough that the dilated copy still vanishes at the box edge
    prof = CustomProfile(
        spec, lambda p: p[..., 0] * np.exp(-2.0 * np.sum(p * p, axis=-1)))
    x = grid.axis_nodes(0)
    lam, tau = 0.5, 0.4
    # the flowed grid field at lam x, linear between nodes and 0 at the wall
    heated = apply_spectral(plan, tau * lam * lam,
                            Field(spec, grid, prof(grid.points())))
    lhs = np.interp(lam * x, np.r_[0.0, x], np.r_[0.0, heated.values])
    rhs = apply_spectral(plan, tau,
                         Field(spec, grid, prof(grid.points() * lam)))
    assert np.max(np.abs(lhs - rhs.values)) < 1e-4


def test_spectral_identity_and_mode_decay():
    spec = SectorSpec(1, 1, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=6.0, n=64)
    plan = KernelPlan(spec, grid)
    # lowest sine mode is a discrete eigenfunction; L' is the wall-to-edge
    # width so k = pi / L
    x = grid.axis_nodes(0)
    mode = Field(spec, grid, np.sin(np.pi * x / grid.L))
    assert np.allclose(apply_spectral(plan, 0.0, mode).values, mode.values,
                       rtol=0, atol=1e-14)
    t = 0.37
    out = apply_spectral(plan, t, mode)
    factor = np.exp(-t * (np.pi / grid.L) ** 2)
    assert np.allclose(out.values, factor * mode.values, rtol=1e-12)


def test_spectral_refuses_field_on_another_grid():
    spec = SectorSpec(1, 1, 0.5, 1.0)
    plan = KernelPlan(spec, GridSpec.for_spec(spec, L=6.0, n=64))
    other = GridSpec.for_spec(spec, L=6.0, n=32)
    with pytest.raises(ValueError, match="differ in grid"):
        apply_spectral(plan, 0.1, Field(spec, other, np.ones(32)))


def test_kernel_refuses_field_on_another_grid():
    # same node count, another box: the shapes agree, the quadrature would
    # mix the plan's nodes with the field's values
    spec = SectorSpec(1, 1, 0.5, 1.0)
    plan = KernelPlan(spec, GridSpec.for_spec(spec, L=10.0, n=64))
    other = GridSpec.for_spec(spec, L=15.0, n=64)
    grid_field = Field(spec, other, np.exp(-other.axis_nodes(0) ** 2))
    profile_field = field_from_profile(spec, other, Psi0Profile(spec))
    for f in (grid_field, profile_field):
        with pytest.raises(ValueError, match="differ in grid"):
            apply_kernel(plan, 0.1, f)


def test_spectral_composition_exact():
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=6.0, n=48)
    plan = KernelPlan(spec, grid)
    rng = np.random.default_rng(23)
    f = Field(spec, grid, rng.standard_normal(grid.shape()))
    two = apply_spectral(plan, 0.2, apply_spectral(plan, 0.1, f))
    one = apply_spectral(plan, 0.3, f)
    assert np.max(np.abs(two.values - one.values)) < 1e-12


def test_cross_method_agreement_2d():
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=8.0, n=64)
    plan = KernelPlan(spec, grid)
    pts = grid.points()
    f = Field(spec, grid,
              pts[..., 0] * np.exp(-np.sum(pts * pts, axis=-1)))
    k = apply_kernel(plan, 0.3, f)
    s = apply_spectral(plan, 0.3, f)
    assert np.max(np.abs(k.values - s.values)) / k.sup_norm() < 1e-4


def test_psi_cache_oracle_1d_radial(setup10):
    # independent adaptive quadrature for E(0) = e^D |x|^(-1/2) at 0
    spec, grid, plan = setup10
    oracle, err = quad(lambda y: 2 * (4 * np.pi) ** -0.5
                       * np.exp(-y * y / 4) * y ** -0.5, 0, np.inf)
    assert abs(psi_sup(spec, 1.0) - oracle) / oracle < 1e-5


def test_psi_fast_t1_is_reference(setup11):
    # both sides are E at the grid nodes, so they agree at every node
    spec, grid, plan = setup11
    f = psi_fast(spec, 1.0, grid)
    cache = build_psi_cache(spec, grid)
    assert np.allclose(f.values, cache.values, rtol=1e-12, atol=0)


def test_psi_fast_matches_quadrature(setup11):
    spec, grid, plan = setup11
    direct = apply_kernel(plan, 0.5,
                          field_from_profile(spec, grid, Psi0Profile(spec)))
    fast = psi_fast(spec, 0.5, grid)
    rel = np.max(np.abs(direct.values - fast.values) / direct.values)
    assert rel < 1e-3


def test_sup_norm_law(setup11):
    spec, grid, plan = setup11
    vals = [psi_sup(spec, t) * t ** (spec.decay / 2) for t in (0.25, 1, 4)]
    assert max(vals) - min(vals) < 1e-12   # exact by construction
    measured = [t ** (spec.decay / 2) * linear_sup(plan, Psi0Profile(spec), t)
                for t in (0.25, 1.0, 4.0)]
    assert (max(measured) - min(measured)) / measured[1] < 5e-3


def test_reference_field_tail_expansion(setup11):
    # far field: E(y) = psi0(y) sum_k c_k r^(-2k) (asymptotic; c1 dominates),
    # from iterating Lap (psi0 r^{-2k}) = (gamma+2m+2k)(gamma+2k+2-N)
    # psi0 r^{-2k-2}: c_{k+1} = c_k (gamma+2m+2k)(gamma+2k+2-N)/(k+1)
    spec, grid, plan = setup11
    ck = [1.0]
    for k in range(6):
        ck.append(ck[-1] * (spec.gamma + 2 * spec.m + 2 * k)
                  * (spec.gamma + 2 * k + 2.0 - spec.N) / (k + 1))
    c1, c2 = ck[1:3]
    assert c1 == pytest.approx(3.75)
    assert c2 == pytest.approx(3.75 * 4.5 * 3.5 / 2)
    pts = np.array([[8.5], [12.0]])
    closed = E(spec, pts)
    r = pts[:, 0]
    two_term = eval_psi0(spec, pts) * (1 + c1 / r ** 2 + c2 / r ** 4)
    # truncation after c2 is O(c3 / r^6)
    assert np.max(np.abs(closed / two_term - 1)) < 2e-3
    full = eval_psi0(spec, pts) * np.polyval(ck[::-1], r ** -2.0)
    assert np.max(np.abs(closed / full - 1)) < 1e-4


def test_reference_field_bounded_by_weighted_profile(setup11):
    spec, grid, plan = setup11
    values = E(spec, grid.points())
    assert np.all(values > 0)
    psi0v = eval_psi0(spec, grid.points())
    c_emp = np.max(values / psi0v)
    assert np.isfinite(c_emp) and c_emp < 5.0


def test_alpha_time_integral(setup11):
    spec, grid, plan = setup11
    assert alpha_time_integral(spec, 0.0) == 0.0
    I1 = alpha_time_integral(spec, 1.0)
    I2 = alpha_time_integral(spec, 2.0)
    assert I2 / I1 == pytest.approx(2 ** (1 - spec.alpha * spec.decay / 2))
    # quadrature oracle for the time integral of the sup-norm law
    oracle, _ = quad(lambda s: psi_sup(spec, s) ** spec.alpha, 0.0, 1.0,
                     points=[0.0])
    assert I1 == pytest.approx(oracle, rel=1e-6)
    with pytest.raises(ValueError):
        alpha_time_integral(replace(spec, alpha=spec.alpha_critical), 1.0)
    with pytest.raises(ValueError):
        alpha_time_integral(spec, -1.0)


def test_psi_sup_matches_grid_sup(setup11):
    spec, grid, plan = setup11
    for t in (0.5, 1.0, 3.0):
        grid_sup = psi_fast(spec, t, grid).sup_norm()
        assert grid_sup == pytest.approx(psi_sup(spec, t), rel=5e-3)
        assert grid_sup <= psi_sup(spec, t) * (1 + 1e-6)


def test_under_resolution_warning():
    spec = SectorSpec(1, 1, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=10.0, n=32)
    plan = KernelPlan(spec, grid)
    f = Field(spec, grid, np.exp(-grid.radii() ** 2))
    with pytest.warns(RuntimeWarning, match="under-resolved"):
        apply_kernel(plan, 1e-4, f)


def test_cache_persistence(tmp_path, setup11):
    spec, grid, plan = setup11
    cache = build_psi_cache(spec, grid)
    path = str(tmp_path / "psi.shc")
    save_cache(cache, path)
    loaded = load_cache(path)
    assert loaded.spec == spec
    assert loaded.grid == grid
    assert loaded.C_inf == cache.C_inf
    assert np.array_equal(loaded.values, cache.values)
    # checksum must catch corruption
    raw = bytearray(open(path, "rb").read())
    raw[-5] ^= 0xFF
    open(path, "wb").write(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        load_cache(path)


def test_psi_values_positive_everywhere(setup11):
    spec, grid, plan = setup11
    rng = np.random.default_rng(9)
    pts = np.column_stack([rng.uniform(1e-3, 30.0, 500)])
    for t in (0.01, 1.0, 100.0):
        assert np.all(psi_values(spec, t, pts) > 0)
    with pytest.raises(ValueError):
        psi_values(spec, 0.0, pts)


def test_psi_fast_rejects_off_sector_grid(setup11):
    # off the sector Psi is negative, and the weighted norm divides by it,
    # so a grid whose first m axes leave the sector is refused up front
    spec, grid, plan = setup11
    off = GridSpec(grid.L, grid.n, ("sym",))
    with pytest.raises(ValueError, match="axis 0 is 'sym'"):
        psi_fast(spec, 1.0, off)
    sym = SectorSpec(2, 1, 1.0, 0.5)
    with pytest.raises(ValueError, match="axis 0 is 'sym'"):
        psi_fast(sym, 1.0, GridSpec(4.0, 4, ("sym", "antisym")))


def test_psi_refuses_periodic_axis():
    # the periodised kernel breaks the dilation identity, so neither a
    # cache nor a psi_fast grid may carry a periodic axis
    spec20 = SectorSpec(2, 1, 1.0, 0.5)
    grid20 = GridSpec(4.0, 8, ("antisym", "periodic"))
    with pytest.raises(ValueError, match="axis 1 is 'periodic'"):
        build_psi_cache(spec20, grid20)
    radial = SectorSpec(1, 0, 0.5, 0.5)
    with pytest.raises(ValueError, match="axis 0 is 'periodic'"):
        build_psi_cache(radial, GridSpec(4.0, 8, ("periodic",)))
    with pytest.raises(ValueError, match="axis 1 is 'periodic'"):
        psi_fast(spec20, 1.0, grid20)


def test_apply_kernel_rejects_nonpositive_time(setup11):
    spec, grid, plan = setup11
    f = field_from_profile(spec, grid, Psi0Profile(spec))
    with pytest.raises(ValueError):
        apply_kernel(plan, 0.0, f)


def test_tail_mass_warning_only_at_outer_faces(setup11):
    # the criterion-02 bump is ~1e-42 at x = L; its large values next to
    # the anti-symmetric wall are not a truncation
    spec, grid, plan = setup11
    x = grid.axis_nodes(0)
    bump = Field(spec, grid, x * np.exp(-x * x))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        apply_kernel(plan, 0.3, bump)
    edge = Field(spec, grid, np.exp(-(x - grid.L) ** 2))
    with pytest.warns(RuntimeWarning, match="truncation mass"):
        apply_kernel(plan, 0.3, edge)


def test_tail_mass_warning_per_axis_in_2d():
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=8.0, n=64)
    plan = KernelPlan(spec, grid)
    x, y = grid.meshgrid()
    wall = Field(spec, grid, np.exp(-4.0 * x - y * y))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        apply_kernel(plan, 0.3, wall)
    # O(1) values on either face of the symmetric axis
    for side in (-1.0, 1.0):
        f = Field(spec, grid, x * np.exp(-x * x - (y - side * grid.L) ** 2))
        with pytest.warns(RuntimeWarning, match="truncation mass"):
            apply_kernel(plan, 0.3, f)
