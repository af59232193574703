"""Properties of the spectral heat engine over random small grids of every
axis kind: cached per-axis propagator matrices against the sine/Fourier
transform pair they stand for; and on every axis kind up to n = 256, the
slot's offset-filled propagator against the dense basis product, and the
cosine table that fills it against the DCT-I it stands for."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import dct, dst, fft, idst, ifft

from sectorheat import (AXIS_ANTISYM, AXIS_PERIODIC, AXIS_SYM, GridSpec,
                        KernelPlan, SectorSpec)
from sectorheat.semigroup import _spectral_basis, _spectral_flow

KINDS = (AXIS_ANTISYM, AXIS_SYM, AXIS_PERIODIC)
FEW = settings(max_examples=15, deadline=None)


@st.composite
def grids(draw, kinds=st.sampled_from(KINDS)):
    axes = tuple(draw(st.lists(kinds, min_size=1, max_size=3)))
    n = draw(st.integers(4, 12 if len(axes) < 3 else 6))
    L = draw(st.floats(2.0, 10.0))
    return GridSpec(L=L, n=n, axes=axes)


def _plan(grid):
    return KernelPlan(SectorSpec(grid.ndim, 0, 0.5, 1.0), grid)


def _data(grid, seed):
    return np.random.default_rng(seed).standard_normal(grid.shape())


def _transform_pair(grid, t, values):
    """e^{tD} by per-axis transforms, one pair per call."""
    v = values.astype(complex)
    for i, kind in enumerate(grid.axes):
        n = v.shape[i]
        if kind == AXIS_ANTISYM:
            v = dst(v, type=1, axis=i)
            k = np.arange(1, n + 1) * np.pi / grid.L
        elif kind == AXIS_SYM:
            v = dst(v, type=2, axis=i)
            k = np.arange(1, n + 1) * np.pi / (2.0 * grid.L)
        else:
            v = fft(v, axis=i)
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * grid.L / n)
        shape = [1] * grid.ndim
        shape[i] = n
        v = v * np.exp(-t * k ** 2).reshape(shape)
    for i, kind in enumerate(grid.axes):
        if kind == AXIS_ANTISYM:
            v = idst(v, type=1, axis=i)
        elif kind == AXIS_SYM:
            v = idst(v, type=2, axis=i)
        else:
            v = ifft(v, axis=i)
    return v.real


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@FEW
@given(grids(), st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
def test_matches_transform_pair(grid, t, seed):
    plan = _plan(grid)
    v = _data(grid, seed)
    ref = _transform_pair(grid, t, v)
    # first call: the three factors; second: builds P(t); third: reuses it
    for _ in range(3):
        assert _rel(_spectral_flow(plan, t, v), ref) <= 1e-12


@FEW
@given(grids(), st.floats(0.01, 0.3), st.floats(0.01, 0.3),
       st.integers(0, 2 ** 32 - 1))
def test_semigroup_composition(grid, s, t, seed):
    plan = _plan(grid)
    v = _data(grid, seed)
    whole = _spectral_flow(plan, s + t, v)
    # e^{sD} e^{sD} steps once through the factors, once through P(s)
    twice = _spectral_flow(plan, s, _spectral_flow(plan, s, v))
    assert plan._propagator[0] == s
    assert _rel(twice, _spectral_flow(plan, 2.0 * s, v)) <= 1e-12
    # e^{tD} e^{sD}: P(s) from the slot, then t
    split = _spectral_flow(plan, t, _spectral_flow(plan, s, v))
    assert _rel(split, whole) <= 1e-12


@FEW
@given(grids(st.sampled_from((AXIS_SYM, AXIS_PERIODIC))),
       st.floats(0.0, 0.5), st.integers(0, 2 ** 32 - 1))
def test_odd_data_on_sym_axes_stay_odd(grid, t, seed):
    # sym nodes are symmetric under x -> -x, so reversing an axis reflects it
    sym = [i for i, kind in enumerate(grid.axes) if kind == AXIS_SYM]
    if not sym:
        grid = GridSpec(grid.L, grid.n, (AXIS_SYM,) + grid.axes[1:])
        sym = [0]
    plan = _plan(grid)
    v = _data(grid, seed)
    for i in sym:
        v = v - np.flip(v, axis=i)
    for _ in range(2):
        out = _spectral_flow(plan, t, v)
        for i in sym:
            assert np.max(np.abs(out + np.flip(out, axis=i))) \
                <= 1e-12 * np.max(np.abs(out))


def test_caches_stay_bounded_over_distinct_step_sizes():
    grid = GridSpec(L=5.0, n=16, axes=(AXIS_ANTISYM, AXIS_SYM))
    plan = _plan(grid)
    v = _data(grid, 7)
    for dt in np.linspace(1e-3, 5e-2, 50):
        _spectral_flow(plan, dt, v)
        _spectral_flow(plan, dt, v)
    # one propagator slot per plan, the last repeated step size
    assert plan._propagator[0] == dt
    assert len(plan._propagator[1]) == grid.ndim
    info = _spectral_basis.cache_info()
    assert info.currsize <= info.maxsize


def test_grid_with_axes_given_as_a_list():
    grid = GridSpec(L=5.0, n=8, axes=[AXIS_SYM])
    v = _data(grid, 3)
    ref = _transform_pair(grid, 0.1, v)
    assert _rel(_spectral_flow(_plan(grid), 0.1, v), ref) <= 1e-12


@pytest.mark.parametrize("t", [1e-4, 0.01, 0.3])
@pytest.mark.parametrize("n", [5, 64, 256])
@pytest.mark.parametrize("kind", KINDS)
def test_slot_propagator_matches_basis_product(kind, n, t):
    # the slot's P(t) is filled from one cosine transform of the mode
    # factors; the dense product of the basis matrices is the reference
    grid = GridSpec(L=10.0, n=n, axes=(kind,))
    plan = _plan(grid)
    v = _data(grid, 11)
    for _ in range(3):
        _spectral_flow(plan, t, v)
    assert plan._propagator[0] == t
    (P,) = plan._propagator[1]
    basis = _spectral_basis(grid)
    ref = np.real((basis.inverse[0] * np.exp(-t * basis.ksq[0].ravel()))
                  @ basis.forward[0])
    assert np.max(np.abs(P - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(P, P.T)


@pytest.mark.parametrize("n", [4, 5, 64, 256])
@pytest.mark.parametrize("kind", [AXIS_ANTISYM, AXIS_SYM])
def test_cosine_table_offsets_match_dct1(kind, n):
    # the cached table's matvec is a DCT-I: of [0, e, 0] over 2(n+1) on
    # antisym axes, of [0, e] over 2n on sym ones.  At n = 256 each is up
    # to about 1.1e-15 of the max off a long-double sum of the cosines,
    # so they agree to 2e-15 of it
    grid = GridSpec(L=10.0, n=n, axes=(kind,))
    basis = _spectral_basis(grid)
    (table,), (k2,) = basis.cosine, basis.ksq
    for t in np.geomspace(1e-5, 10.0, 31):
        e = np.exp(-t * k2.ravel())
        if kind == AXIS_ANTISYM:
            ref = dct(np.concatenate(([0.0], e, [0.0])), type=1) \
                / (2.0 * (n + 1))
        else:
            ref = dct(np.concatenate(([0.0], e)), type=1) / (2.0 * n)
        assert np.max(np.abs(table @ e - ref)) \
            <= 2e-15 * np.max(np.abs(ref))
