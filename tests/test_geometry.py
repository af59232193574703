import numpy as np
import pytest

from sectorheat import (AXIS_PERIODIC, AXIS_SYM, Field, GridSpec, PsiCache,
                        SectorSpec, load_cache, save_cache)


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


def test_field_validation_and_flags():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    grid = GridSpec.for_spec(spec, L=5.0, n=8)
    with pytest.raises(ValueError):
        Field(spec, grid, np.ones(7))
    with pytest.raises(ValueError):
        Field(spec, grid, np.full(8, np.inf))
    f = Field(spec, grid, np.full(8, 2.0))
    assert f.is_nonnegative()
    g = Field(spec, grid, f.values - 2.0 - 1e-6)
    assert not g.is_nonnegative()


def test_cache_serialization_roundtrip(tmp_path):
    # the container keeps any spec, grid and values exactly, not only
    # those build_psi_cache makes
    rng = np.random.default_rng(3)
    for spec, axes in [(SectorSpec(2, 1, 1.0, 0.75, -1), None),
                       (SectorSpec(2, 1, 1.0, 0.5), (AXIS_PERIODIC, AXIS_SYM)),
                       (SectorSpec(1, 0, 0.5, 1.0), ("periodic",)),
                       (SectorSpec(3, 2, 1.5, 0.5), None)]:
        grid = GridSpec.for_spec(spec, L=6.0, n=5) if axes is None \
            else GridSpec(6.0, 5, axes)
        c = PsiCache(spec, grid, rng.standard_normal(grid.shape()),
                     C_inf=float(rng.random()))
        path = str(tmp_path / "cache.shc")
        save_cache(c, path)
        g = load_cache(path)
        assert g.spec == spec
        assert g.grid == grid
        assert np.array_equal(g.values, c.values)
        assert g.C_inf == c.C_inf
