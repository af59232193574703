"""The heat semigroup on the sector, three ways, on grids whose axes are
antisym (the sector's walls), sym or periodic.

* apply_kernel: quadrature against the reflected product kernel
      K_t(x,y) = (4 pi t)^{-N/2} prod_sym exp(-(x_j-y_j)^2/4t)
                 * prod_anti [exp(-(x_i-y_i)^2/4t) - exp(-(x_i+y_i)^2/4t)],
  periodised by images on periodic axes.  Grid fields take the grid as
  the rule; its axes are uniform, so the kernel depends on node offsets
  only, and each axis matrix is filled from about 2n exponentials:
  Toeplitz in i - j minus Hankel in i + j on antisym axes, Toeplitz on
  sym axes, Toeplitz with the images summed per offset on periodic axes.
  Each call builds its matrices and keeps none; a Picard solve builds
  those of its Duhamel gaps once and holds them for its sweeps only.
  Profile-backed fields take geometric (dyadic-shell) radial
  refinement toward the origin, so singular data integrate accurately,
  and analytic continuation of the quadrature beyond the box; a profile
  is not periodic, so profile-backed fields on a periodic axis are
  refused.
* apply_spectral: the per-axis sine/Fourier basis (DST-I on antisym axes,
  DST-II on sym axes, both with a Dirichlet outer boundary; the DFT on
  periodic axes), exact in time for the discrete modes; for bounded
  post-smoothing data.  Per-axis propagator matrices from that basis,
  built once per grid and once per repeated step size, so a time step
  runs no transform.
* psi_values / psi_fast / psi_sup: the reference flow through the
  dilation identity
      e^{t D} psi0 = t^{-(gamma+m)/2} E(x / sqrt t),  E = e^{D} psi0,
  with E in closed form, a Kummer function (DLMF 13.3), so Psi is exact
  at every t and point.  Psi and C_inf = sup |E| are functions of the spec
  (N, m, gamma) alone; C_inf is computed once per spec.  The quadrature of
  psi0 remains an independent check of E, and the route for data that are
  not psi0.  build_psi_cache / save_cache export E on a grid with C_inf as
  an SHC1 file; no computation reads that file back.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import dst, idst, fft, ifft
from scipy.linalg import hankel, toeplitz
from scipy.optimize import minimize, minimize_scalar
from scipy.special import erfc, hyp1f1, poch
from scipy.special import gamma as gamma_fn

from .geometry import (AXIS_ANTISYM, AXIS_PERIODIC, AXIS_SYM, Field,
                       GridSpec, SectorSpec, _read_container,
                       _write_container, field_from_profile)
from .profiles import _split_points


# quadrature settings: relative mass tolerance for the dropped origin core,
# Gauss-Legendre orders on regular cells and on dyadic shells near the
# origin, the analytic rule's reach L + PAD_SIGMA sqrt(t), and the
# truncation-mass warning threshold for grid-only fields
REFINE_TARGET = 1e-10
GL_SMOOTH = 3
GL_SINGULAR = 6
PAD_SIGMA = 8.0
TAIL_TOL = 1e-8


@dataclass
class KernelPlan:
    """Quadrature/transform plan bound to one sector spec and grid, with
    its caches of analytic rules and spectral propagators.  Kernel
    matrices are built per call and not kept."""

    spec: SectorSpec
    grid: GridSpec
    _rules: dict = field(default_factory=dict, repr=False)
    _last_dt: float | None = field(default=None, repr=False)
    _propagator: tuple | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# quadrature rules

def _gl_on_cells(edges: np.ndarray, order: int):
    """Composite Gauss-Legendre nodes/weights on consecutive cells."""
    x0, w0 = leggauss(order)
    a = edges[:-1]
    b = edges[1:]
    mid = 0.5 * (a + b)[:, None]
    half = 0.5 * (b - a)[:, None]
    nodes = (mid + half * x0[None, :]).ravel()
    weights = (half * w0[None, :]).ravel()
    return nodes, weights


def _positive_partition(plan: KernelPlan, t: float) -> np.ndarray:
    """Cell edges on (0, L_out] for the analytic rule: dyadic shells toward
    the origin, uniform cells across the box, geometric extension beyond."""
    grid = plan.grid
    h = min(grid.axis_spacing(i) for i in range(grid.ndim))
    w = min(h, np.sqrt(t), 0.5)
    # dyadic levels chosen so the dropped core mass ~ r_min^(N-gamma) is
    # below the refinement target
    margin = plan.spec.N - plan.spec.gamma
    levels = int(np.ceil(np.log2(w) - np.log(REFINE_TARGET) / margin
                         / np.log(2.0)))
    levels = min(max(levels, 10), 400)
    shells = w * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))
    n_cells = int(np.ceil((grid.L - w) / w))
    body = np.linspace(w, grid.L, n_cells + 1)[1:]
    L_out = grid.L + PAD_SIGMA * np.sqrt(t)
    w_ext = max(w, np.sqrt(t))
    n_ext = int(np.ceil((L_out - grid.L) / w_ext))
    ext = grid.L + w_ext * np.arange(1, n_ext + 1)
    return np.concatenate([shells, body, ext])


def _axis_rule(plan: KernelPlan, axis: int, t: float):
    """Per-axis nodes/weights of the analytic rule, the refined composite
    rule that integrates a profile-backed field over the whole line.  A
    profile is not periodic, so against the periodised kernel this rule
    would count every image twice: profile data on a periodic axis are
    refused.
    """
    kind = plan.grid.axes[axis]
    key = (axis, float(t))
    rule = plan._rules.get(key)
    if rule is not None:
        return rule
    if kind == AXIS_PERIODIC:
        raise ValueError(
            f"analytic rule: axis {axis} is {kind!r}, but profile-backed data "
            f"live on the whole space: apply them on {AXIS_ANTISYM!r} or "
            f"{AXIS_SYM!r} axes, or sample them as a grid field")
    edges = _positive_partition(plan, t)
    h = min(plan.grid.axis_spacing(i) for i in range(plan.grid.ndim))
    w = min(h, np.sqrt(t), 0.5)
    n_shells = int(np.searchsorted(edges, w * (1.0 + 1e-12)))
    sing_nodes, sing_w = _gl_on_cells(edges[:n_shells + 1], GL_SINGULAR)
    smooth_nodes, smooth_w = _gl_on_cells(edges[n_shells:], GL_SMOOTH)
    # innermost dropped core [0, edges[0]] is below REFINE_TARGET by
    # construction
    pos = np.concatenate([sing_nodes, smooth_nodes])
    wts = np.concatenate([sing_w, smooth_w])
    if kind == AXIS_SYM:
        pos = np.concatenate([-pos[::-1], pos])
        wts = np.concatenate([wts[::-1], wts])
    rule = (pos, wts)
    plan._rules[key] = rule
    return rule


def _k1d(kind: str, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """One-axis kernel factor matrix at arbitrary nodes, shape
    (len(x), len(y)); antisym or sym axes only, as the analytic rule.
    Evaluated in place, so a build holds at most two such matrices."""
    def gauss(d):
        # exp(-d^2 / 4t), overwriting d
        np.multiply(d, d, out=d)
        np.negative(d, out=d)
        np.divide(d, 4.0 * t, out=d)
        return np.exp(d, out=d)

    out = gauss(x[:, None] - y[None, :])
    if kind == AXIS_ANTISYM:
        out -= gauss(x[:, None] + y[None, :])
    out *= (4.0 * np.pi * t) ** -0.5
    return out


def _grid_matrix(grid: GridSpec, axis: int, t: float) -> np.ndarray:
    """Kernel matrix of the grid rule on one axis, weight h included.

    The nodes are uniform, so with g(k) = exp(-(h k)^2 / 4t) the matrix
    depends on integer offsets only: g(i - j) - g(i + j + 2) on an antisym
    axis (nodes h, 2h, ..., nh), Toeplitz minus Hankel; g(i - j) on a sym
    axis; and on a periodic axis g(i - j) summed over the images of the
    period 2L.  About 2n exponentials fill the n x n matrix."""
    kind = grid.axes[axis]
    n = grid.n
    h = grid.axis_spacing(axis)
    c = h * (4.0 * np.pi * t) ** -0.5
    d = h * np.arange(2 * n + 1 if kind == AXIS_ANTISYM else n, dtype=float)
    if kind == AXIS_PERIODIC:
        images = int(np.ceil(4.0 * np.sqrt(t) / (2.0 * grid.L))) + 1
        return toeplitz(c * sum(np.exp(-(d + 2.0 * grid.L * k) ** 2
                                       / (4.0 * t))
                                for k in range(-images, images + 1)))
    g = c * np.exp(-d * d / (4.0 * t))
    if kind == AXIS_SYM:
        return toeplitz(g)
    out = toeplitz(g[:n])
    out -= hankel(g[2:n + 2], g[n + 1:])
    return out


def _analytic_rows(plan: KernelPlan, t: float, nodes) -> list[np.ndarray]:
    """Per-axis kernel matrices of the analytic rule, weights included,
    from the points nodes[i] of axis i to that axis's rule nodes."""
    rows = []
    for i, x in enumerate(nodes):
        y, w = _axis_rule(plan, i, t)
        row = _k1d(plan.grid.axes[i], x, y, t)
        row *= w
        rows.append(row)
    return rows


def _quad_mesh(plan: KernelPlan, t: float) -> np.ndarray:
    axes = [_axis_rule(plan, i, t)[0] for i in range(plan.grid.ndim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def _contract(mats: list[np.ndarray], F: np.ndarray) -> np.ndarray:
    """Apply mats[i] along axis i of F: A @ F in 1-D, A0 @ F @ A1.T in 2-D;
    in 3-D each tensordot consumes the leading axis and appends the new."""
    if len(mats) == 1:
        return mats[0] @ F
    if len(mats) == 2:
        return mats[0] @ F @ mats[1].T
    out = F
    for A in mats:
        out = np.tensordot(out, A, axes=([0], [1]))
    return out


def apply_kernel(plan: KernelPlan, t: float, f: Field) -> Field:
    """e^{t D_Omega} f by product-kernel quadrature.

    Profile-backed fields are re-sampled on the refined rule (resolving the
    origin singularity and the tail beyond the box); plain grid fields use
    the grid itself as the rule.
    """
    if t <= 0.0:
        raise ValueError("apply_kernel requires t > 0")
    if f.grid != plan.grid:
        raise ValueError("field and plan differ in grid")
    if f.profile is None:
        h = max(f.grid.axis_spacing(i) for i in range(f.grid.ndim))
        if np.sqrt(4.0 * t) < 1.5 * h:
            warnings.warn(
                f"apply_kernel: kernel width sqrt(4t)={np.sqrt(4 * t):.3g} "
                f"under-resolved by grid spacing {h:.3g}", RuntimeWarning)
        _warn_tail_mass(plan, t, f)
        mats = [_grid_matrix(f.grid, i, t) for i in range(f.grid.ndim)]
        return Field(f.spec, f.grid, _contract(mats, f.values))
    F = f.profile(_quad_mesh(plan, t))
    mats = _analytic_rows(plan, t, [f.grid.axis_nodes(i)
                                    for i in range(f.grid.ndim)])
    return Field(f.spec, f.grid, _contract(mats, F))


def _warn_tail_mass(plan: KernelPlan, t: float, f: Field) -> None:
    # crude truncation estimate per axis: largest magnitude on the outer
    # faces times the Gaussian mass the kernel pulls in from beyond the
    # box.  Index 0 of an anti-symmetric axis is the sector wall, not an
    # edge, and periodic axes have no edge at all.
    est = 0.0
    for i, kind in enumerate(f.grid.axes):
        if kind == AXIS_PERIODIC:
            continue
        mass = 0.5 * erfc(0.5 * f.grid.axis_spacing(i) / np.sqrt(4.0 * t))
        sl = [slice(None)] * f.grid.ndim
        for j in ((-1,) if kind == AXIS_ANTISYM else (0, -1)):
            sl[i] = j
            est = max(est, mass * float(np.max(np.abs(f.values[tuple(sl)]))))
    if est > TAIL_TOL * max(f.sup_norm(), 1e-300):
        warnings.warn(
            f"apply_kernel: boundary truncation mass ~{est:.2e} "
            "exceeds tolerance; enlarge the box", RuntimeWarning)


def heat_at_points(plan: KernelPlan, t: float, profile, pts,
                   F: np.ndarray | None = None) -> np.ndarray:
    """Pointwise e^{t D_Omega} applied to an analytic profile at arbitrary
    points (used for sup-norm refinement off the grid).  Pass F (the profile
    pre-sampled on the quadrature mesh) to amortize repeated calls."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if F is None:
        F = profile(_quad_mesh(plan, t))
    return np.array([_contract(_analytic_rows(plan, t, x[:, None]), F).item()
                     for x in pts])


# ---------------------------------------------------------------------------
# spectral path (Dirichlet at the outer box, sine bases make anti-symmetry
# exact; periodic axes use the discrete Fourier basis).  The transforms run
# only to build each axis's basis matrices; stepping contracts matrices.

def _axis_freqs(grid: GridSpec, i: int) -> np.ndarray:
    kind = grid.axes[i]
    n = len(grid.axis_nodes(i))
    if kind == AXIS_ANTISYM:
        return np.arange(1, n + 1) * np.pi / grid.L
    if kind == AXIS_SYM:
        return np.arange(1, n + 1) * np.pi / (2.0 * grid.L)
    # periodic
    return 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * grid.L / n)


def _forward(kind: str, v: np.ndarray) -> np.ndarray:
    """Forward transform of each column of v."""
    if kind == AXIS_ANTISYM:
        return dst(v, type=1, axis=0)
    if kind == AXIS_SYM:
        return dst(v, type=2, axis=0)
    return fft(v, axis=0)


def _inverse(kind: str, v: np.ndarray) -> np.ndarray:
    """Inverse transform of each column of v."""
    if kind == AXIS_ANTISYM:
        return idst(v, type=1, axis=0)
    if kind == AXIS_SYM:
        return idst(v, type=2, axis=0)
    return ifft(v, axis=0)


@dataclass(frozen=True)
class _SpectralBasis:
    """Per-axis transform matrices of one grid (complex on periodic axes)
    and the squared frequencies, each shaped to broadcast along its axis."""

    forward: tuple
    inverse: tuple
    ksq: tuple


@lru_cache(maxsize=8)
def _spectral_basis(grid: GridSpec) -> _SpectralBasis:
    """The transforms applied to the identity, so the matrices are exactly
    the discrete operator of the per-axis transform pair."""
    forward, inverse, ksq = [], [], []
    for i, kind in enumerate(grid.axes):
        eye = np.eye(len(grid.axis_nodes(i)))
        shape = [1] * grid.ndim
        shape[i] = eye.shape[0]
        forward.append(_forward(kind, eye))
        inverse.append(_inverse(kind, eye))
        ksq.append((_axis_freqs(grid, i) ** 2).reshape(shape))
    for a in forward + inverse + ksq:
        a.flags.writeable = False   # shared by every caller of the cache
    return _SpectralBasis(tuple(forward), tuple(inverse), tuple(ksq))


def _spectral_flow(plan: KernelPlan, t: float,
                   values: np.ndarray) -> np.ndarray:
    """Array kernel of apply_spectral: e^{t D} on raw values over the plan's
    grid.

    A step size equal to the previous call's goes through the per-axis
    propagators P(t) = inverse diag(e^{-t k^2}) forward, built once and kept
    in the plan's single slot; any other step size goes through the three
    cached factors."""
    if plan._propagator is not None and plan._propagator[0] == t:
        return _contract(plan._propagator[1], values)
    basis = _spectral_basis(plan.grid)
    if t == plan._last_dt:
        mats = [np.real((inv * np.exp(-t * k2.ravel())) @ fwd)
                for fwd, inv, k2 in zip(basis.forward, basis.inverse,
                                        basis.ksq)]
        plan._propagator = (t, mats)
        return _contract(mats, values)
    plan._last_dt = t
    v = _contract(basis.forward, values)
    for k2 in basis.ksq:
        v = v * np.exp(-t * k2)
    return np.real(_contract(basis.inverse, v))


def apply_spectral(plan: KernelPlan, t: float, f: Field) -> Field:
    """e^{t D} f in the per-axis sine/Fourier bases; exact in time for the
    discrete modes, identity at t = 0."""
    if t < 0.0:
        raise ValueError("apply_spectral requires t >= 0")
    if f.grid != plan.grid:
        raise ValueError("field and plan differ in grid")
    return Field(f.spec, f.grid, _spectral_flow(plan, t, f.values))


# ---------------------------------------------------------------------------
# the reference linear flow Psi(t) = e^{t D_Omega} psi0 in closed form

@lru_cache(maxsize=8)
def _kummer_params(spec: SectorSpec) -> tuple[float, float, float]:
    """(a, b, k) with E(x) = k x_1...x_m 1F1(a; b; -|x|^2/4)."""
    N, m, g = spec.N, spec.m, spec.gamma
    A = gamma_fn((N - g) / 2.0) / (gamma_fn(N / 2.0) * 2.0 ** g)
    k = A * 2.0 ** -m * poch(g / 2.0, m) / poch(N / 2.0, m)
    return g / 2.0 + m, N / 2.0 + m, float(k)


def E(spec: SectorSpec, pts) -> np.ndarray:
    """The reference field E = e^{D} psi0 at arbitrary points (..., N).

    The flow of |x|^{-gamma} is A 1F1(gamma/2; N/2; -|x|^2/4), and
    psi0 = (-1)^m d_1...d_m |x|^{-gamma}; with 1F1' = (a/b) 1F1(a+1; b+1)
    (DLMF 13.3) that gives
        E(x) = A 2^{-m} (gamma/2)_m / (N/2)_m x_1...x_m
               1F1(gamma/2 + m; N/2 + m; -|x|^2/4),
        A = Gamma((N - gamma)/2) / (Gamma(N/2) 2^gamma).
    E is odd in x_1..x_m, so the whole-space flow is also the sector flow.
    """
    pts, r = _split_points(spec, pts)
    a, b, k = _kummer_params(spec)
    return k * np.prod(pts[..., :spec.m], axis=-1) * hyp1f1(a, b, -r * r / 4)


def _check_psi_grid(grid: GridSpec, m: int) -> None:
    """Psi is the whole-space flow sampled on the sector; a periodised
    kernel would break its dilation identity."""
    for i, kind in enumerate(grid.axes):
        if kind != AXIS_ANTISYM if i < m else kind == AXIS_PERIODIC:
            raise ValueError(
                f"Psi grid: axis {i} is {kind!r}, but Psi lives on the sector "
                f"of the whole space: the first {m} axes must be "
                f"{AXIS_ANTISYM!r} and none {AXIS_PERIODIC!r}")


def check_profile_spec(profile, plan: KernelPlan) -> None:
    """Refuse data built for another spec than the plan's: the plan is
    the run, and a profile (or Field) carries the spec it was made for.
    A bare callable carries none, so it has nothing to disagree with."""
    spec = getattr(profile, "spec", plan.spec)
    if spec != plan.spec:
        raise ValueError(f"profile spec {spec} differs from plan spec "
                         f"{plan.spec}")


def linear_sup(plan: KernelPlan, profile, t: float) -> float:
    """sup-norm of e^{t D_Omega} applied to an analytic profile made for
    the plan's spec.

    Starts from the grid argmax (plus the origin when no axis is
    anti-symmetric, since offset grids exclude it) and refines off-grid with
    a simplex search over pointwise quadrature evaluations.
    """
    check_profile_spec(profile, plan)
    spec, grid = plan.spec, plan.grid
    sampled = apply_kernel(plan, t, field_from_profile(spec, grid, profile))
    idx = np.unravel_index(np.argmax(np.abs(sampled.values)),
                           sampled.values.shape)
    x0 = np.array([grid.axis_nodes(i)[idx[i]] for i in range(grid.ndim)])
    candidates = [x0]
    if spec.m == 0:
        candidates.append(np.zeros(grid.ndim))

    F = profile(_quad_mesh(plan, t))

    def neg(x):
        xc = np.clip(x, -0.95 * grid.L, 0.95 * grid.L)
        xc[:spec.m] = np.abs(xc[:spec.m])
        return -abs(heat_at_points(plan, t, profile, xc[None, :], F=F)[0])

    best = 0.0
    for c in candidates:
        res = minimize(neg, c, method="Nelder-Mead",
                       options={"xatol": 1e-7, "fatol": 1e-12,
                                "maxiter": 400})
        best = max(best, -res.fun, -neg(c))
    return float(best)


@lru_cache(maxsize=8)
def _sup_E(spec: SectorSpec) -> float:
    """C_inf = sup |E|.  1F1(a; b; -z) is positive and decreasing in z for
    0 < a < b, so with m = 0 the sup is E(0) = A; otherwise it lies on the
    diagonal x_i = r/sqrt(m) of the first m axes, a 1-D maximisation over r
    of (r^2/m)^{m/2} 1F1(a; b; -r^2/4), which is 0 at r = 0 and decays."""
    a, b, k = _kummer_params(spec)
    if spec.m == 0:
        return k

    def neg(r):
        return -(r * r / spec.m) ** (spec.m / 2.0) * hyp1f1(a, b, -r * r / 4)

    # the maximiser is O(sqrt(b)): bracket it on a sample, then refine
    r = np.linspace(0.0, 10.0 * np.sqrt(b), 513)
    i = int(np.argmin(neg(r)))
    res = minimize_scalar(neg, bounds=(r[i - 1], r[i + 1]), method="bounded",
                          options={"xatol": 1e-12})
    return -k * float(min(res.fun, neg(r[i])))


def psi_values(spec: SectorSpec, t: float, pts: np.ndarray) -> np.ndarray:
    """Psi(t, x) = t^{-(gamma+m)/2} E(x / sqrt t), exact at every point."""
    if t <= 0.0:
        raise ValueError("psi requires t > 0")
    y = np.asarray(pts, dtype=float) / np.sqrt(t)
    return t ** (-spec.decay / 2.0) * E(spec, y)


def psi_fast(spec: SectorSpec, t: float, grid: GridSpec) -> Field:
    """Sample Psi(t) on a grid through the dilation identity.

    Psi is the whole-space flow on the sector, so the first m axes of the
    grid must be anti-symmetric and none may be periodic.
    """
    _check_psi_grid(grid, spec.m)
    return Field(spec, grid, psi_values(spec, t, grid.points()))


def psi_sup(spec: SectorSpec, t: float) -> float:
    """sup-norm law: ||Psi(t)|| = C_inf * t^{-(gamma+m)/2}, exact."""
    return _sup_E(spec) * t ** (-spec.decay / 2.0)


def alpha_time_integral(spec: SectorSpec, T: float) -> float:
    """I(T) = int_0^T ||Psi||^alpha dt, closed form from the sup-norm law.

    Finite only in the subcritical range alpha < 2/(gamma+m).
    """
    expo = 1.0 - spec.alpha * spec.decay / 2.0
    if expo <= 0.0:
        raise ValueError(
            f"int_0^T ||Psi||^alpha diverges at t=0: alpha={spec.alpha} >= "
            f"2/(gamma+m)={spec.alpha_critical}")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    return _sup_E(spec) ** spec.alpha * T ** expo / expo


# ---------------------------------------------------------------------------
# the exported Psi cache: E on a grid and C_inf, in the SHC1 container

@dataclass
class PsiCache:
    """Reference field E = e^{D_Omega} psi0 on a grid plus its sup-norm."""

    spec: SectorSpec
    grid: GridSpec
    values: np.ndarray
    C_inf: float


def build_psi_cache(spec: SectorSpec, grid: GridSpec) -> PsiCache:
    """E = e^{D_Omega} psi0 on the grid, and its sup-norm, in closed form."""
    _check_psi_grid(grid, spec.m)
    return PsiCache(spec=spec, grid=grid, values=E(spec, grid.points()),
                    C_inf=_sup_E(spec))


def save_cache(cache: PsiCache, path: str) -> None:
    _write_container(path, cache.spec, cache.grid, cache.values,
                     C_inf=cache.C_inf)


def load_cache(path: str) -> PsiCache:
    spec, grid, values, (C_inf,) = _read_container(path, ("C_inf",))
    return PsiCache(spec=spec, grid=grid, values=values, C_inf=C_inf)
