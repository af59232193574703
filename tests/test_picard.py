import numpy as np
import pytest
from scipy.integrate import quad

from sectorheat import Field, GridSpec, KernelPlan, SectorSpec, \
    alpha_time_integral, apply_kernel, field_from_profile, psi_fast
import sectorheat.picard as picard
import sectorheat.semigroup as semigroup
from sectorheat.evolve import HANDOFF_FRAC, EvolveControls, estimate_tmax
from sectorheat.picard import (admissible_constants, contraction_bound,
                               data_x_distance, duhamel_weights,
                               graded_mesh, lipschitz_bound, lipschitz_check,
                               solve_picard)
from sectorheat.profiles import (ModulatedProfile, Psi0Profile, SinSquaredLog,
                                 eval_psi0)


def test_admissible_constants_satisfy_conditions(setup11):
    spec, grid, plan = setup11
    for K in (0.3, 1.0, 4.0):
        M, T = admissible_constants(spec, K)
        assert M == 2.0 * K
        I = alpha_time_integral(spec, T)
        condA = K + 2 * (spec.alpha + 1) * M ** (spec.alpha + 1) * I
        condB = 2 * (spec.alpha + 1) * M ** spec.alpha * I
        assert condA <= M * (1 + 1e-12)
        # with M = 2K the smallness condition sits exactly at MARGIN/2
        assert condB == pytest.approx(0.45, rel=1e-12)
        assert condB < 1.0


def test_horizon_scaling_in_data_size(setup11):
    # T(lam K) = lam^-sigma T(K), and T -> infinity as K -> 0
    spec, grid, plan = setup11
    _, T1 = admissible_constants(spec, 1.0)
    for lam in (0.5, 2.0, 10.0):
        _, Tlam = admissible_constants(spec, lam)
        assert Tlam == pytest.approx(lam ** -spec.sigma * T1, rel=1e-12)
    _, Ttiny = admissible_constants(spec, 1e-6)
    assert Ttiny == pytest.approx(1e-6 ** -spec.sigma * T1, rel=1e-9)
    assert Ttiny > 1e4 * T1


def test_admissible_constants_rejections(setup11):
    spec, grid, plan = setup11
    supercrit = SectorSpec(spec.N, spec.m, spec.gamma, 2.0)
    with pytest.raises(ValueError):
        admissible_constants(supercrit, 1.0)
    with pytest.raises(ValueError):
        admissible_constants(spec, 0.0)
    with pytest.raises(ValueError):
        lipschitz_bound(spec, 1e6, 1e6)


def test_graded_mesh_shape():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    T, J = 0.37, 16
    mesh = graded_mesh(spec, T, J)
    assert mesh.shape == (J,)
    assert mesh[-1] == pytest.approx(T)
    assert np.all(np.diff(mesh) > 0)
    p = 2.0 / (2.0 - spec.alpha * spec.decay)
    assert mesh[0] == pytest.approx(T * (1.0 / J) ** p, rel=1e-13)


def test_duhamel_weights_exact_on_power_singularity():
    # the product-integration rule reproduces int_0^{s_i} sigma^-beta exactly
    spec = SectorSpec(1, 1, 0.5, 0.5)
    beta = spec.alpha * spec.decay / 2.0
    mesh = graded_mesh(spec, 0.8, 10)
    for i in (0, 4, 9):
        w = duhamel_weights(spec, mesh, i)
        assert w.shape == (i + 1,)
        assert np.all(w > 0)
        got = float(np.sum(w * mesh[:i + 1] ** -beta))
        exact = mesh[i] ** (1 - beta) / (1 - beta)
        assert got == pytest.approx(exact, rel=1e-13)


def test_duhamel_weights_converge_on_smooth_integrand():
    spec = SectorSpec(1, 1, 0.5, 0.5)
    beta = spec.alpha * spec.decay / 2.0
    g = lambda s: s ** -beta * np.cos(3.0 * s)
    exact, _ = quad(g, 0.0, 0.8, points=[0.0])
    errs = []
    for J in (10, 40):
        mesh = graded_mesh(spec, 0.8, J)
        w = duhamel_weights(spec, mesh, J - 1)
        errs.append(abs(float(np.sum(w * g(mesh))) - exact))
    assert errs[1] < errs[0] / 8.0


def test_solve_picard_certificates(setup11):
    spec, grid, plan = setup11
    run = solve_picard(Psi0Profile(spec), plan, J=10)
    assert run.converged
    assert run.xt_norm <= run.config.M * (1 + 1e-9)
    q = contraction_bound(spec, run.config.M, run.config.T)
    assert run.contraction_ratio <= q * 1.05
    assert all(np.all(np.isfinite(s.values)) for s in run.slices)


def test_solve_picard_refuses_profile_of_another_spec(setup11):
    # the plan is the run: psi0 data built for gamma = 0.75 are not the
    # gamma = 0.5 run's data, though the psi0 branch reads only amplitudes
    spec, grid, plan = setup11
    other = SectorSpec(spec.N, spec.m, 0.75, spec.alpha)
    with pytest.raises(ValueError) as info:
        solve_picard(Psi0Profile(other), plan)
    assert str(spec) in str(info.value) and str(other) in str(info.value)


def test_solve_picard_positivity(setup11):
    # a = +1 and nonnegative data keep every slice nonnegative
    spec, grid, plan = setup11
    run = solve_picard(Psi0Profile(spec), plan, J=8)
    for s in run.slices:
        assert s.values.min() >= -1e-12


def test_kato_inequality_absorbing_sign(setup11):
    # a = -1, psi >= 0: the fixed point sits below the linear flow
    spec, grid, plan = setup11
    neg = SectorSpec(spec.N, spec.m, spec.gamma, spec.alpha, sign_a=-1)
    run = solve_picard(Psi0Profile(neg), KernelPlan(neg, grid), J=8)
    psi0f = field_from_profile(neg, grid, Psi0Profile(neg))
    for s_j, s in zip(run.config.mesh, run.slices):
        lin = apply_kernel(plan, s_j, psi0f)
        assert np.all(s.values <= lin.values * (1 + 1e-9) + 1e-12)
        assert s.values.min() >= -1e-12


def test_comparison_with_modulus_data(setup11):
    # |u| for sign-changing data is dominated by the solution with |data|
    spec, grid, plan = setup11

    def signed(pts):
        r = np.sqrt(np.sum(np.asarray(pts) ** 2, axis=-1))
        return eval_psi0(spec, pts) * np.sin(np.log(r))

    g = lambda s: np.sin(s)
    prof = ModulatedProfile(spec, g)
    prof_abs = ModulatedProfile(spec, lambda s: np.abs(np.sin(s)))
    run = solve_picard(prof, plan, K=1.0, J=8)
    run_abs = solve_picard(prof_abs, plan, K=1.0, J=8)
    for a, b in zip(run.slices, run_abs.slices):
        assert np.all(np.abs(a.values) <= b.values * (1 + 1e-8) + 1e-12)


def test_initial_trace(setup11):
    # the Duhamel correction vanishes at the bottom of the mesh, so u(s_1)
    # approaches the linear flow of the data in the weighted norm
    spec, grid, plan = setup11
    run = solve_picard(Psi0Profile(spec), plan, J=12)
    mesh = run.config.mesh
    M = run.config.M
    psi0f = field_from_profile(spec, grid, Psi0Profile(spec))
    devs = []
    for k in (0, len(mesh) - 1):
        lin = apply_kernel(plan, mesh[k], psi0f)
        dev = float(np.max(np.abs(run.slices[k].values - lin.values)
                           / run.psi_slices[k]))
        bound = 2 * (spec.alpha + 1) * M ** (spec.alpha + 1) \
            * alpha_time_integral(spec, mesh[k])
        assert dev <= bound * (1 + 1e-6)
        devs.append(dev)
    # grading puts s_1/T = 12^-p, so I(s_1)/I(T) ~ 0.08 here
    assert devs[0] < 0.15 * devs[-1]


def test_lipschitz_dependence_on_data(setup11):
    spec, grid, plan = setup11
    p1 = Psi0Profile(spec, 1.0)
    p2 = Psi0Profile(spec, 1.1)
    # shared K => shared horizon and mesh, as lipschitz_check requires
    run1 = solve_picard(p1, plan, K=1.1, J=8)
    run2 = solve_picard(p2, plan, K=1.1, J=8)
    dist = data_x_distance(spec, grid, p1, p2)
    assert dist == pytest.approx(0.1, rel=1e-12)
    ratio = lipschitz_check(run1, run2, dist)
    L = lipschitz_bound(spec, run1.config.M, run1.config.T)
    assert 1.0 - 1e-9 <= ratio <= L * 1.05
    with pytest.raises(ValueError):
        lipschitz_check(run1, run2, 0.0)
    run3 = solve_picard(p1, plan, K=1.0, J=8)
    with pytest.raises(ValueError):
        lipschitz_check(run1, run3, dist)


def test_admissible_constants_raise_on_failed_condition(setup11,
                                                        monkeypatch):
    # the certificate is an exception, not an assert, so it holds under -O;
    # with M = 2K condition (B) follows from (A), so (A) is the one to break
    spec, grid, plan = setup11
    monkeypatch.setattr(picard, "alpha_time_integral",
                        lambda spec, T: 10.0)
    with pytest.raises(ValueError, match=r"condition \(A\) fails"):
        admissible_constants(spec, 1.0)


def test_psi0_linear_part_comes_from_cache(setup11, monkeypatch):
    # with the nonlinearity switched off the fixed point is the linear part:
    # A * Psi(s_j) from the closed form, within the quadrature's accuracy of
    # the direct kernel apply, down to the smallest node where the dilated
    # argument of most grid points lies beyond 0.95 of the box
    spec, grid, plan = setup11
    monkeypatch.setattr(picard, "_nonlinear_values",
                        lambda spec, v: np.zeros_like(v))
    prof = Psi0Profile(spec, 1.3)
    run = solve_picard(prof, plan, J=12)
    mesh = run.config.mesh
    y = grid.axis_nodes(0) / np.sqrt(mesh[0])
    assert np.mean(y >= 0.95 * grid.axis_nodes(0)[-1]) > 0.5
    data = field_from_profile(spec, grid, prof)
    assert len(run.slices) == mesh.size      # slice j is u(mesh[j])
    for s_j, sl in zip(mesh, run.slices):
        closed = 1.3 * psi_fast(spec, s_j, grid).values
        assert np.array_equal(sl.values, closed)
        direct = apply_kernel(plan, s_j, data).values
        assert np.max(np.abs(closed - direct) / np.abs(direct)) < 1e-3


def test_solve_picard_raises_on_non_finite_sweep(setup11, monkeypatch):
    # the sweeps run on plain arrays, so a non-finite Duhamel term is
    # refused at the sweep that makes it, not carried to the returned slices
    spec, grid, plan = setup11
    monkeypatch.setattr(picard, "_nonlinear_values",
                        lambda spec, v: np.full_like(v, np.nan))
    with pytest.raises(ValueError, match="Picard sweep 1: increment"):
        solve_picard(Psi0Profile(spec), plan, J=4)


def test_psi0_solve_builds_no_kernel_matrix(setup11, monkeypatch):
    # the linear part of psi0 data is the closed form and the Duhamel
    # history goes through spectral propagators, one per axis and
    # consecutive gap of the mesh, built once however many sweeps run
    spec, grid, plan = setup11
    calls = {"matrices": 0, "propagators": 0}
    build, propagator = semigroup._grid_matrix, semigroup._axis_propagator

    def spy_matrix(*args):
        calls["matrices"] += 1
        return build(*args)

    def spy_propagator(*args):
        calls["propagators"] += 1
        return propagator(*args)

    monkeypatch.setattr(semigroup, "_grid_matrix", spy_matrix)
    monkeypatch.setattr(semigroup, "_axis_propagator", spy_propagator)
    run = solve_picard(Psi0Profile(spec), plan)
    assert len(run.increments) > 1
    assert calls["matrices"] == 0
    assert calls["propagators"] == grid.ndim * (len(run.config.mesh) - 1)


def _explicit_sweep(plan, prof, mesh):
    """One Picard sweep from the linear part, each Duhamel term flowed over
    its own gap s_i - s_j by _spectral_flow: the sum the recurrence
    telescopes."""
    spec, grid = plan.spec, plan.grid
    if isinstance(prof, Psi0Profile):
        lin = [prof.amplitude * psi_fast(spec, s, grid).values for s in mesh]
    else:
        data = field_from_profile(spec, grid, prof)
        lin = [apply_kernel(plan, s, data).values for s in mesh]
    nl = [np.abs(v) ** spec.alpha * v for v in lin]
    flow = KernelPlan(spec, grid)
    out = []
    for i, s_i in enumerate(mesh):
        w = duhamel_weights(spec, mesh, i)
        acc = w[i] * nl[i]
        for j in range(i):
            acc = acc + w[j] * semigroup._spectral_flow(flow, s_i - mesh[j],
                                                        nl[j])
        out.append(lin[i] + spec.sign_a * acc)
    return out


@pytest.mark.parametrize("spec, L, n, make, until", [
    (SectorSpec(1, 1, 0.5, 0.5), 10.0, 256,
     lambda spec: Psi0Profile(spec, 1.3), None),
    (SectorSpec(1, 1, 0.5, 0.5), 10.0, 256,
     lambda spec: ModulatedProfile(spec, SinSquaredLog(0.05)), None),
    (SectorSpec(2, 1, 1.0, 0.5), 8.0, 64, Psi0Profile, None),
    (SectorSpec(3, 1, 1.5, 0.3), 6.0, 16, Psi0Profile, None),
    (SectorSpec(1, 1, 0.5, 0.5, -1), 10.0, 256, Psi0Profile, 0.3)],
    ids=["1d-psi0", "1d-sin2log", "2d-psi0", "3d-psi0", "1d-until"])
def test_one_sweep_is_the_explicit_duhamel_sum(spec, L, n, make, until,
                                               monkeypatch):
    # the recurrence H_i = P(s_i - s_{i-1}) (H_{i-1} + w_{i-1} n_{i-1})
    # against the sum over every gap, to rounding of the slice's size;
    # until is a fraction of the certificate's horizon
    monkeypatch.setattr(picard, "TOL", 0.0)
    monkeypatch.setattr(picard, "MAX_ITER", 1)
    plan = KernelPlan(spec, GridSpec.for_spec(spec, L=L, n=n))
    prof = make(spec)
    _, T = admissible_constants(spec, prof.x_norm())
    run = solve_picard(prof, plan, until=None if until is None else until * T)
    mesh = run.config.mesh
    assert len(run.increments) == 1
    assert len(mesh) == (12 if until is None else 6)
    for sl, ref in zip(run.slices, _explicit_sweep(plan, prof, mesh)):
        assert np.max(np.abs(sl.values - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [256, 64])
@pytest.mark.parametrize("profile", [
    lambda spec: Psi0Profile(spec, 0.5),
    lambda spec: Psi0Profile(spec, 2.0),
    lambda spec: ModulatedProfile(spec, SinSquaredLog(0.05))],
    ids=["psi0-0.5", "psi0-2", "sin2log"])
def test_prefix_solve_is_the_full_solve_on_its_slices(n, profile,
                                                      monkeypatch):
    # the Duhamel map is causal, so sweep for sweep a solve up to a node
    # computes on its slices exactly what the full solve does; with the
    # stopping rule off both run the same sweeps
    monkeypatch.setattr(picard, "TOL", 0.0)
    monkeypatch.setattr(picard, "MAX_ITER", 3)
    spec = SectorSpec(1, 1, 0.5, 0.5, +1)
    plan = KernelPlan(spec, GridSpec.for_spec(spec, L=10.0, n=n))
    prof = profile(spec)
    full = solve_picard(prof, plan)
    mesh = full.config.mesh
    assert len(mesh) == 12 and len(full.increments) == 3
    for until, j in ((0.0, 0), (mesh[3], 3),
                     (0.5 * (mesh[5] + mesh[6]), 6), (mesh[-1], 11),
                     (2.0 * mesh[-1], 11)):
        pre = solve_picard(prof, plan, until=until)
        c = pre.config
        assert (c.K, c.M, c.T) == (full.config.K, full.config.M,
                                   full.config.T)
        assert np.array_equal(c.mesh, mesh[:j + 1])
        assert len(pre.slices) == len(pre.psi_slices) == j + 1
        for a, b in zip(pre.slices, full.slices):
            assert np.array_equal(a.values, b.values)


def test_handoff_solve_solves_only_its_prefix(setup11):
    # a T_max run solves up to its hand-off node, the first of the mesh at
    # or after max(HANDOFF_FRAC T, (2h)^2), and no further
    spec, grid, plan = setup11
    h = grid.axis_spacing(0)
    for lam in (0.5, 1.0, 2.0):
        prof = Psi0Profile(spec, lam)
        rec = estimate_tmax(prof, plan, EvolveControls(horizon=0.0))
        _, T = admissible_constants(spec, prof.x_norm())
        mesh = graded_mesh(spec, T, 12)
        j = int(np.searchsorted(mesh, max(HANDOFF_FRAC * T, (2 * h) ** 2)))
        assert 0 < j < 11
        assert rec.handoff_time == mesh[j]
        assert rec.notes["picard_slices"] == j + 1


@pytest.mark.filterwarnings("error:apply_kernel. boundary truncation"
                            ":RuntimeWarning")
@pytest.mark.xfail(strict=True, raises=RuntimeWarning, reason=(
    "ROADMAP item 4: psi0 decays like x^-1.5, so |u|^alpha u is ~2e-3 at "
    "x = L and the kernel pulls an edge mass ~7e-4 from beyond the box"))
def test_duhamel_term_has_no_edge_truncation(setup11):
    # the Duhamel terms of a converged solve, applied through the public,
    # checked kernel over every gap it resolves (sqrt(4 gap) >= 1.5h, the
    # rule of its under-resolution warning).  The edge mass it reports is
    # what the box loses of those terms: the solve's propagators meet it
    # as a Dirichlet wall at x = L, where the whole space would carry the
    # tail on
    spec, grid, plan = setup11
    run = solve_picard(Psi0Profile(spec), plan)
    mesh = run.config.mesh
    h = max(grid.axis_spacing(i) for i in range(grid.ndim))
    nl = [Field(spec, grid, np.abs(s.values) ** spec.alpha * s.values)
          for s in run.slices]
    gaps = [(s_i - mesh[j], j) for i, s_i in enumerate(mesh)
            for j in range(i + 1) if np.sqrt(4.0 * (s_i - mesh[j])) >= 1.5 * h]
    assert gaps
    for gap, j in gaps:
        apply_kernel(plan, gap, nl[j])
