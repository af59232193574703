"""The heat semigroup on the sector, three ways.

* apply_kernel: quadrature against the reflected product kernel
      K_t(x,y) = (4 pi t)^{-N/2} prod_sym exp(-(x_j-y_j)^2/4t)
                 * prod_anti [exp(-(x_i-y_i)^2/4t) - exp(-(x_i+y_i)^2/4t)],
  with geometric (dyadic-shell) radial refinement toward the origin so
  singular data integrate accurately, and analytic continuation of the
  quadrature beyond the box for profile-backed fields.
* apply_spectral: the sine/Fourier basis (Dirichlet outer boundary) on
  the box, exact in time for the discrete modes; for bounded
  post-smoothing data.  Per-axis propagator matrices from that basis,
  built once per grid and once per repeated step size, so a time step
  runs no transform.
* psi_fast: the dilation identity for the reference profile,
      e^{t D} psi0 = t^{-(gamma+m)/2} E(x / sqrt t),  E = e^{D} psi0,
  which collapses every t to a single cached reference field E.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import dst, idst, fft, ifft
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import minimize
from scipy.special import erfc

from .geometry import (AXIS_ANTISYM, AXIS_FULL, AXIS_PERIODIC, AXIS_SYM,
                       Field, GridSpec, SectorSpec, _read_container,
                       _write_container)
from .profiles import Psi0Profile, _psi0_signed


@dataclass
class KernelPlan:
    """Quadrature/transform plan bound to one sector spec and grid.

    refine_target   relative mass tolerance for the dropped origin core
    gl_smooth       Gauss-Legendre order on regular cells
    gl_singular     Gauss-Legendre order on dyadic shells near the origin
    pad_sigma       analytic quadrature extends to L + pad_sigma*sqrt(t)
    tail_tol        truncation-mass warning threshold for grid-only fields
    """

    spec: SectorSpec
    grid: GridSpec
    refine_target: float = 1e-10
    gl_smooth: int = 3
    gl_singular: int = 6
    pad_sigma: float = 8.0
    tail_tol: float = 1e-8
    _rules: dict = field(default_factory=dict, repr=False)
    _mats: dict = field(default_factory=dict, repr=False)
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
    levels = int(np.ceil(np.log2(w) - np.log(plan.refine_target) / margin
                         / np.log(2.0)))
    levels = min(max(levels, 10), 400)
    shells = w * 2.0 ** (-np.arange(levels, -1, -1, dtype=float))
    n_cells = int(np.ceil((grid.L - w) / w))
    body = np.linspace(w, grid.L, n_cells + 1)[1:]
    L_out = grid.L + plan.pad_sigma * np.sqrt(t)
    w_ext = max(w, np.sqrt(t))
    n_ext = int(np.ceil((L_out - grid.L) / w_ext))
    ext = grid.L + w_ext * np.arange(1, n_ext + 1)
    return np.concatenate([shells, body, ext])


def _axis_rule(plan: KernelPlan, axis: int, t: float, analytic: bool):
    """Per-axis quadrature nodes/weights.

    Grid-only fields use the midpoint rule on the grid itself; analytic
    (profile-backed) fields get the refined composite rule.
    """
    kind = plan.grid.axes[axis]
    key = (axis, float(t), analytic)
    rule = plan._rules.get(key)
    if rule is not None:
        return rule
    if not analytic:
        nodes = plan.grid.axis_nodes(axis)
        weights = np.full(nodes.size, plan.grid.axis_spacing(axis))
        rule = (nodes, weights)
    else:
        edges = _positive_partition(plan, t)
        h = min(plan.grid.axis_spacing(i) for i in range(plan.grid.ndim))
        w = min(h, np.sqrt(t), 0.5)
        n_shells = int(np.searchsorted(edges, w * (1.0 + 1e-12)))
        sing_nodes, sing_w = _gl_on_cells(edges[:n_shells + 1],
                                          plan.gl_singular)
        smooth_nodes, smooth_w = _gl_on_cells(edges[n_shells:], plan.gl_smooth)
        # innermost dropped core [0, edges[0]] is below refine_target by
        # construction
        pos = np.concatenate([sing_nodes, smooth_nodes])
        wts = np.concatenate([sing_w, smooth_w])
        if kind in (AXIS_SYM, AXIS_FULL, AXIS_PERIODIC):
            pos = np.concatenate([-pos[::-1], pos])
            wts = np.concatenate([wts[::-1], wts])
        rule = (pos, wts)
    plan._rules[key] = rule
    return rule


def _k1d(kind: str, x: np.ndarray, y: np.ndarray, t: float,
         L: float) -> np.ndarray:
    """One-axis kernel factor matrix, shape (len(x), len(y))."""
    c = (4.0 * np.pi * t) ** -0.5
    dx = x[:, None] - y[None, :]
    if kind == AXIS_ANTISYM:
        sx = x[:, None] + y[None, :]
        return c * (np.exp(-dx * dx / (4.0 * t))
                    - np.exp(-sx * sx / (4.0 * t)))
    if kind == AXIS_PERIODIC:
        images = int(np.ceil(4.0 * np.sqrt(t) / (2.0 * L))) + 1
        out = np.zeros_like(dx)
        for k in range(-images, images + 1):
            d = dx + 2.0 * L * k
            out += np.exp(-d * d / (4.0 * t))
        return c * out
    return c * np.exp(-dx * dx / (4.0 * t))


def _axis_matrix(plan: KernelPlan, axis: int, t: float, analytic: bool,
                 out_nodes: np.ndarray) -> np.ndarray:
    key = (axis, float(t), analytic, out_nodes.size,
           float(out_nodes[0]), float(out_nodes[-1]))
    mat = plan._mats.get(key)
    if mat is not None:
        return mat
    y, w = _axis_rule(plan, axis, t, analytic)
    mat = _k1d(plan.grid.axes[axis], out_nodes, y, t, plan.grid.L) * w[None, :]
    plan._mats[key] = mat
    return mat


def _quad_mesh(plan: KernelPlan, t: float) -> np.ndarray:
    axes = [_axis_rule(plan, i, t, True)[0] for i in range(plan.grid.ndim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def _contract(mats: list[np.ndarray], F: np.ndarray) -> np.ndarray:
    """Apply mats[i] along axis i of F.  Each contraction consumes the
    leading axis and appends the new one, so the order comes back intact."""
    out = F
    for A in mats:
        out = np.tensordot(out, A, axes=([0], [1]))
    return out


def apply_kernel(plan: KernelPlan, t: float, f: Field,
                 out_grid: GridSpec | None = None) -> Field:
    """e^{t D_Omega} f by product-kernel quadrature.

    Profile-backed fields are re-sampled on the refined rule (resolving the
    origin singularity and the tail beyond the box); plain grid fields use
    the grid itself as the rule.
    """
    if t <= 0.0:
        raise ValueError("apply_kernel requires t > 0")
    out_grid = out_grid or f.grid
    analytic = f.profile is not None
    if analytic:
        F = f.profile(_quad_mesh(plan, t))
    else:
        F = f.values
        h = max(f.grid.axis_spacing(i) for i in range(f.grid.ndim))
        if np.sqrt(4.0 * t) < 1.5 * h:
            warnings.warn(
                f"apply_kernel: kernel width sqrt(4t)={np.sqrt(4 * t):.3g} "
                f"under-resolved by grid spacing {h:.3g}", RuntimeWarning)
        _warn_tail_mass(plan, t, f)
    mats = [_axis_matrix(plan, i, t, analytic, out_grid.axis_nodes(i))
            for i in range(out_grid.ndim)]
    values = _contract(mats, F)
    prev = f.time_tag or 0.0
    return Field(f.spec, out_grid, values, time_tag=prev + t)


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
    if est > plan.tail_tol * max(f.sup_norm(), 1e-300):
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
    rules = [_axis_rule(plan, i, t, True) for i in range(plan.grid.ndim)]
    out = np.empty(pts.shape[0])
    for k, x in enumerate(pts):
        rows = [_k1d(plan.grid.axes[i], x[i:i + 1], y, t, plan.grid.L) * w
                for i, (y, w) in enumerate(rules)]
        out[k] = _contract(rows, F).item()
    return out


# ---------------------------------------------------------------------------
# spectral path (Dirichlet at the outer box, sine bases make anti-symmetry
# exact; periodic axes use the discrete Fourier basis).  The transforms run
# only to build each axis's basis matrices; stepping contracts matrices.

def _axis_freqs(grid: GridSpec, i: int) -> np.ndarray:
    kind = grid.axes[i]
    n = len(grid.axis_nodes(i))
    if kind == AXIS_ANTISYM:
        return np.arange(1, n + 1) * np.pi / grid.L
    if kind in (AXIS_SYM, AXIS_FULL):
        return np.arange(1, n + 1) * np.pi / (2.0 * grid.L)
    # periodic
    return 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * grid.L / n)


def _forward(kind: str, v: np.ndarray) -> np.ndarray:
    """Forward transform of each column of v."""
    if kind == AXIS_ANTISYM:
        return dst(v, type=1, axis=0)
    if kind in (AXIS_SYM, AXIS_FULL):
        return dst(v, type=2, axis=0)
    return fft(v, axis=0)


def _inverse(kind: str, v: np.ndarray) -> np.ndarray:
    """Inverse transform of each column of v."""
    if kind == AXIS_ANTISYM:
        return idst(v, type=1, axis=0)
    if kind in (AXIS_SYM, AXIS_FULL):
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
    prev = f.time_tag or 0.0
    return Field(f.spec, f.grid, _spectral_flow(plan, t, f.values),
                 time_tag=prev + t)


# ---------------------------------------------------------------------------
# the reference linear flow Psi(t) = e^{t D_Omega} psi0 and its cache

def _tail_series(spec: SectorSpec, kmax: int = 6) -> np.ndarray:
    """Far-field expansion e^D psi0 = psi0 sum_k c_k r^{-2k} (asymptotic),
    from iterating Lap (psi0 r^{-2k}) = (gamma+2m+2k)(gamma+2k+2-N)
    psi0 r^{-2k-2}: c_0 = 1, c_{k+1} = c_k (gamma+2m+2k)(gamma+2k+2-N)/(k+1).
    """
    b = spec.gamma + 2 * spec.m
    c = np.empty(kmax + 1)
    c[0] = 1.0
    for k in range(kmax):
        c[k + 1] = c[k] * (b + 2 * k) * (spec.gamma + 2 * k + 2.0 - spec.N) \
            / (k + 1)
    return c


@dataclass
class PsiCache:
    """Reference field E = e^{D_Omega} psi0 on a fine grid plus its sup-norm."""

    spec: SectorSpec
    grid: GridSpec
    values: np.ndarray
    C_inf: float
    _interp: object = field(default=None, repr=False)

    def interp(self):
        if self._interp is None:
            ref = Field(self.spec, self.grid, self.values)
            from .geometry import _augmented_axes_values
            axes, vals = _augmented_axes_values(ref)
            self._interp = RegularGridInterpolator(
                axes, vals, method="cubic", bounds_error=False,
                fill_value=None)
        return self._interp

    @property
    def tail_radius(self) -> float:
        # stay a cell inside the cached box so cubic interpolation never
        # touches the zero-padded boundary stencil
        edge = min(float(np.max(np.abs(self.grid.axis_nodes(i))))
                   for i in range(self.grid.ndim))
        return 0.95 * edge


def linear_sup(plan: KernelPlan, profile, t: float,
               sampled: Field | None = None) -> float:
    """sup-norm of e^{t D_Omega} applied to an analytic profile.

    Starts from the grid argmax (plus the origin when no axis is
    anti-symmetric, since offset grids exclude it) and refines off-grid with
    a simplex search over pointwise quadrature evaluations.
    """
    spec, grid = plan.spec, plan.grid
    if sampled is None:
        from .geometry import field_from_profile
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


def build_psi_cache(spec: SectorSpec, grid: GridSpec,
                    plan: KernelPlan | None = None) -> PsiCache:
    """Compute E = e^{D_Omega} psi0 once at t = 1 and locate its sup-norm."""
    plan = plan or KernelPlan(spec, grid)
    psi0 = Psi0Profile(spec)
    from .geometry import field_from_profile
    E = apply_kernel(plan, 1.0, field_from_profile(spec, grid, psi0))
    C_inf = linear_sup(plan, psi0, 1.0, sampled=E)
    return PsiCache(spec=spec, grid=grid, values=E.values, C_inf=C_inf)


def psi_values(cache: PsiCache, t: float, pts: np.ndarray) -> np.ndarray:
    """Psi(t, x) = t^{-(gamma+m)/2} E(x / sqrt t), with the asymptotic tail
    once the dilated argument leaves the cached grid."""
    if t <= 0.0:
        raise ValueError("psi requires t > 0")
    spec = cache.spec
    pts = np.asarray(pts, dtype=float)
    y = pts / np.sqrt(t)
    r = np.sqrt(np.sum(y * y, axis=-1))
    flat_y = y.reshape(-1, cache.grid.ndim)
    flat_r = r.ravel()
    out = np.empty(flat_r.shape)
    inside = flat_r < cache.tail_radius
    if np.any(inside):
        out[inside] = cache.interp()(flat_y[inside])
    if np.any(~inside):
        ck = _tail_series(spec)
        series = np.polyval(ck[::-1], flat_r[~inside] ** -2.0)
        out[~inside] = _psi0_signed(spec, flat_y[~inside]) * series
    out = out * t ** (-spec.decay / 2.0)
    return np.maximum(out, 1e-280).reshape(r.shape)


def psi_fast(cache: PsiCache, t: float,
             grid: GridSpec | None = None) -> Field:
    """Sample Psi(t) on a grid through the dilation identity.

    Psi is evaluated on the sector only, so the first m axes of the grid
    must be anti-symmetric.
    """
    grid = grid or cache.grid
    for i, kind in enumerate(grid.axes[:cache.spec.m]):
        if kind != AXIS_ANTISYM:
            raise ValueError(
                f"psi_fast: axis {i} is {kind!r}, but Psi is sampled on the "
                f"sector only, so the first {cache.spec.m} axes must be "
                f"{AXIS_ANTISYM!r}")
    return Field(cache.spec, grid, psi_values(cache, t, grid.points()),
                 time_tag=t)


def psi_sup(cache: PsiCache, t: float) -> float:
    """sup-norm law: ||Psi(t)|| = C_inf * t^{-(gamma+m)/2}, exact."""
    return cache.C_inf * t ** (-cache.spec.decay / 2.0)


def alpha_time_integral(cache: PsiCache, T: float,
                        alpha: float | None = None) -> float:
    """I(T) = int_0^T ||Psi||^alpha dt, closed form from the sup-norm law.

    Finite only in the subcritical range alpha < 2/(gamma+m).
    """
    spec = cache.spec
    alpha = spec.alpha if alpha is None else alpha
    expo = 1.0 - alpha * spec.decay / 2.0
    if expo <= 0.0:
        raise ValueError(
            f"int_0^T ||Psi||^alpha diverges at t=0: alpha={alpha} >= "
            f"2/(gamma+m)={spec.alpha_critical}")
    if T < 0.0:
        raise ValueError("T must be nonnegative")
    return cache.C_inf ** alpha * T ** expo / expo


# ---------------------------------------------------------------------------
# cache persistence: the SHC1 container with C_inf in its header

def save_cache(cache: PsiCache, path: str) -> None:
    _write_container(path, cache.spec, cache.grid, cache.values,
                     C_inf=cache.C_inf)


def load_cache(path: str) -> PsiCache:
    spec, grid, values, (C_inf,) = _read_container(path, ("C_inf",))
    return PsiCache(spec=spec, grid=grid, values=values, C_inf=C_inf)
