import warnings

import numpy as np
import pytest

from sectorheat import (AXIS_FULL, Field, GridSpec, SectorSpec, dilate,
                        extend_antisym, field_from_profile, load_field,
                        restrict_antisym, save_field, weighted_sup_ratio)
from sectorheat.profiles import (GaussianDerivativeProfile, ModulatedProfile,
                                 Psi0Profile, SinSquaredLog, eval_psi0)


def test_spec_validation():
    SectorSpec(2, 1, 1.0, 0.5)
    with pytest.raises(ValueError):
        SectorSpec(4, 0, 0.5, 1.0)
    with pytest.raises(ValueError):
        SectorSpec(2, 3, 1.0, 0.5)
    with pytest.raises(ValueError):
        SectorSpec(2, 1, 2.5, 0.5)   # gamma must be < N
    with pytest.raises(ValueError):
        SectorSpec(2, 1, 1.0, -0.5)
    with pytest.raises(ValueError):
        SectorSpec(2, 1, 1.0, 0.5, sign_a=0)


def test_spec_derived_quantities():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    assert spec.decay == 1.5
    assert spec.alpha_critical == pytest.approx(4.0 / 3.0)
    assert spec.subcritical
    # sigma = (1/alpha - (gamma+m)/2)^(-1) = (2 - 0.75)^(-1)
    assert spec.sigma == pytest.approx(0.8)
    sup = SectorSpec(1, 1, 0.5, 2.0)
    assert not sup.subcritical
    with pytest.raises(ValueError):
        sup.sigma


def test_grid_excludes_origin_and_walls():
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=8.0, n=32)
    x1 = grid.axis_nodes(0)
    assert np.all(x1 > 0)
    assert x1[0] == pytest.approx(8.0 / 33)
    x2 = grid.axis_nodes(1)
    assert np.all(x2 != 0.0)          # half-cell offset grid
    assert np.all(grid.radii() > 0)


def test_extend_antisym_m0_identity():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=5.0, n=16)
    f = Field(spec, grid, np.arange(16, dtype=float))
    g = extend_antisym(f)
    assert np.array_equal(g.values, f.values)


def test_extend_antisym_odd_identity_1d():
    spec = SectorSpec(1, 1, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=5.0, n=16)
    x = grid.axis_nodes(0)
    f = Field(spec, grid, x.copy())
    g = extend_antisym(f)
    assert g.grid.axes == (AXIS_FULL,)
    nodes = g.grid.axis_nodes(0)
    assert np.allclose(g.values, nodes)   # odd extension of x is x


def test_extend_antisym_matches_analytic_odd_function():
    spec = SectorSpec(2, 1, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=4.0, n=24)

    def odd(pts):
        return pts[..., 0] * np.exp(-np.sum(pts * pts, axis=-1))

    f = Field(spec, grid, odd(grid.points()))
    g = extend_antisym(f)
    assert np.allclose(g.values, odd(g.grid.points()), atol=0, rtol=0)


def test_extend_restrict_roundtrip():
    spec = SectorSpec(2, 2, 1.0, 0.5)
    grid = GridSpec.for_spec(spec, L=3.0, n=12)
    rng = np.random.default_rng(7)
    f = Field(spec, grid, rng.standard_normal(grid.shape()))
    assert np.array_equal(restrict_antisym(extend_antisym(f)).values, f.values)


def test_dilate_identity_and_homogeneity():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    f = field_from_profile(spec, grid, Psi0Profile(spec))
    assert np.array_equal(dilate(f, 1.0).values, f.values)
    d = dilate(f, 2.0)
    # psi0 is homogeneous of degree -(gamma + m)
    assert np.allclose(d.values, 2.0 ** -spec.decay * f.values, rtol=1e-14)
    with pytest.raises(ValueError):
        dilate(f, -1.0)


def test_dilate_gaussian_analytic():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=8.0, n=64)
    g1 = GaussianDerivativeProfile(spec, 1.0)    # = G_1 for m = 0
    f = field_from_profile(spec, grid, g1)
    d = dilate(f, 2.0)
    assert np.allclose(d.values, g1(grid.points() * 2.0), rtol=1e-14)


def test_dilate_composition():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=8.0, n=128)
    f = field_from_profile(spec, grid, GaussianDerivativeProfile(spec, 1.0))
    ab = dilate(dilate(f, 1.3), 0.6)
    once = dilate(f, 1.3 * 0.6)
    assert np.max(np.abs(ab.values - once.values)) < 1e-6


def test_dilate_truncation_warning_on_grid_only_fields():
    spec = SectorSpec(1, 0, 0.5, 1.0)
    grid = GridSpec.for_spec(spec, L=8.0, n=64)
    f = Field(spec, grid, np.exp(-grid.radii() ** 2))
    with pytest.warns(RuntimeWarning, match="outside the source box"):
        dilate(f, 5.0)


def test_weighted_sup_ratio_basics():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    psi = field_from_profile(spec, grid, Psi0Profile(spec))
    assert weighted_sup_ratio(psi, psi) == pytest.approx(1.0)
    scaled = psi.with_values(3.7 * psi.values)
    assert weighted_sup_ratio(scaled, psi) == pytest.approx(3.7)
    bad = psi.with_values(np.zeros(grid.shape()))
    with pytest.raises(ValueError):
        weighted_sup_ratio(psi, bad)


def test_weighted_sup_ratio_modulated_vs_dense_oracle():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    g = SinSquaredLog(eps=0.0)
    f = field_from_profile(spec, grid, ModulatedProfile(spec, g))
    psi = field_from_profile(spec, grid, Psi0Profile(spec))
    got = weighted_sup_ratio(f, psi)
    # dense 10x sampling of the ratio sin^2(log r) at node radii
    expected = float(np.max(np.sin(np.log(grid.axis_nodes(0))) ** 2))
    assert got == pytest.approx(expected, rel=1e-14)


def test_weighted_sup_ratio_triangle_inequality():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=10.0, n=64)
    psi = field_from_profile(spec, grid, Psi0Profile(spec))
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = psi.with_values(rng.standard_normal(grid.shape()))
        b = psi.with_values(rng.standard_normal(grid.shape()))
        s = a.with_values(a.values + b.values)
        assert weighted_sup_ratio(s, psi) <= (weighted_sup_ratio(a, psi)
                                              + weighted_sup_ratio(b, psi)
                                              + 1e-12)


def test_field_validation_and_flags():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=5.0, n=8)
    with pytest.raises(ValueError):
        Field(spec, grid, np.ones(7))
    with pytest.raises(ValueError):
        Field(spec, grid, np.full(8, np.inf))
    f = Field(spec, grid, np.full(8, 2.0))
    assert f.is_nonnegative()
    g = f.with_values(f.values - 2.0 - 1e-6)
    assert not g.is_nonnegative()


def test_field_serialization_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    for spec, axes in [(SectorSpec(2, 1, 1.0, 0.75, -1), None),
                       (SectorSpec(2, 1, 1.0, 0.5), (AXIS_FULL, "sym")),
                       (SectorSpec(1, 0, 0.5, 1.0), ("periodic",)),
                       (SectorSpec(3, 2, 1.5, 0.5), None)]:
        grid = GridSpec.for_spec(spec, L=6.0, n=5) if axes is None \
            else GridSpec(6.0, 5, axes)
        f = Field(spec, grid, rng.standard_normal(grid.shape()))
        path = str(tmp_path / "field.shc")
        save_field(f, path)
        g = load_field(path)
        assert g.spec == spec
        assert g.grid == grid
        assert np.array_equal(g.values, f.values)
