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
  Each call builds its matrices and keeps none.
  Profile-backed fields of psi0-class data x_1...x_m f(|x|) (psi0, its
  log-modulations, the Gaussian derivative) take their whole-space flow
  x_1...x_m F(t, |x|) from radial_flow, one integral per radius, and so
  refuse a periodic axis.  Other profiles take the grid rule.
* apply_spectral: the per-axis sine/Fourier basis (DST-I on antisym axes,
  DST-II on sym axes, both with a Dirichlet outer boundary; the DFT on
  periodic axes), exact in time for the discrete modes; for bounded
  post-smoothing data.  The basis's per-axis transform matrices are built
  once per grid, in closed form; a step size that repeats the previous
  one takes per-axis propagators P(t), which depend on node offsets only
  (Toeplitz minus Hankel on sine axes, circulant on periodic ones) and
  are filled in O(n^2) from one cosine transform of the mode factors
  e^{-t k^2}: a matvec with a cosine table cached beside the basis on
  sine axes, an inverse FFT on periodic ones.  A time step runs no
  transform.  The same propagators carry a Picard solve's Duhamel history
  from each mesh node to the next.
* psi_values / psi_fast / psi_sup: the reference flow through the
  dilation identity
      e^{t D} psi0 = t^{-(gamma+m)/2} E(x / sqrt t),  E = e^{D} psi0,
  with E in closed form, a Kummer function (DLMF 13.3), so Psi is exact
  at every t and point.  Psi and C_inf = sup |E| are functions of the spec
  (N, m, gamma) alone; C_inf is computed once per spec.  radial_flow of
  psi0 remains an independent check of E.  build_psi_cache / save_cache
  export E on a grid with C_inf as an SHC1 file; no computation reads
  that file back.
* kummer: the one special function of both E and radial_flow's kernel,
  1F1(a; a + c; -z) for z >= 0, from per-(a, c) tables of local
  polynomials built at first use.  With it, numpy is the package's only
  dependency at run time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import (AXIS_ANTISYM, AXIS_PERIODIC, AXIS_SYM, Field,
                       GridSpec, SectorSpec, _read_container,
                       _write_container, field_from_profile)
from .profiles import _squared_radius


# radial_flow's rule, radii in units of sqrt(4t): a Gauss-Legendre window
# of half-width WINDOW and order WINDOW_ORDER, and below 1 log-radius
# panels of width PANEL_WIDTH and order PANEL_ORDER down to log-radius
# -CORE_DEPTH, in blocks of that depth further down; the grid rule's
# truncation-mass warning threshold
WINDOW = 8.0
WINDOW_ORDER = 48
CORE_DEPTH = 20.0
PANEL_WIDTH = 2.0
PANEL_ORDER = 16
TAIL_TOL = 1e-8


@dataclass
class KernelPlan:
    """Quadrature/transform plan bound to one sector spec and grid, with
    its slot of spectral propagators.  Kernel matrices are built per call
    and not kept."""

    spec: SectorSpec
    grid: GridSpec
    _last_dt: float | None = field(default=None, repr=False)
    _propagator: tuple | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# grid quadrature

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
        return _offset_matrix(c * sum(np.exp(-(d + 2.0 * grid.L * k) ** 2
                                             / (4.0 * t))
                                      for k in range(-images, images + 1)), n)
    g = c * np.exp(-d * d / (4.0 * t))
    return _offset_matrix(g, n, 2 if kind == AXIS_ANTISYM else 0)


def _offset_matrix(c: np.ndarray, n: int, shift: int = 0) -> np.ndarray:
    """The n x n matrix c(|i - j|) - c(i + j + shift) from the offset
    sequence c(0), c(1), ...: Toeplitz minus Hankel, or Toeplitz alone
    (shift 0).  c must be contiguous and reach index n - 1, or
    2n + shift - 2 with a shift.  The matrix is exactly symmetric.

    Both parts are strided views, so the fill is one n x n write: row i of
    the Toeplitz part reads c(n-1), ..., c(1), c(0), c(1), ..., c(n-1) from
    place n - 1 - i on, and row i of the Hankel part reads c from i + shift
    on.  scipy's toeplitz and hankel copies cost more: the fresh pages at
    n = 256, the Python calls at n = 64."""
    step = c.itemsize
    mirror = np.concatenate((c[n - 1:0:-1], c[:n]))
    out = np.ndarray((n, n), c.dtype, mirror, (n - 1) * step, (-step, step))
    if not shift:
        return out.copy()
    return out - np.ndarray((n, n), c.dtype, c, shift * step, (step, step))


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
    """e^{t D_Omega} f by quadrature.

    Profile-backed fields whose profile has a radial form take the exact
    whole-space flow x_1...x_m F(t, |x|) at the grid nodes (radial_flow);
    plain grid fields and other profiles use the grid itself as the rule.
    """
    if t <= 0.0:
        raise ValueError("apply_kernel requires t > 0")
    if f.grid != plan.grid:
        raise ValueError("field and plan differ in grid")
    if getattr(f.profile, "radial", None) is None:
        h = max(f.grid.axis_spacing(i) for i in range(f.grid.ndim))
        if np.sqrt(4.0 * t) < 1.5 * h:
            warnings.warn(
                f"apply_kernel: kernel width sqrt(4t)={np.sqrt(4 * t):.3g} "
                f"under-resolved by grid spacing {h:.3g}", RuntimeWarning)
        _warn_tail_mass(plan, t, f)
        mats = [_grid_matrix(f.grid, i, t) for i in range(f.grid.ndim)]
        return Field(f.spec, f.grid, _contract(mats, f.values))
    m = f.profile.spec.m
    _check_psi_grid(f.grid, m)
    pts = f.grid.points()
    radii, where = np.unique(np.sqrt(np.sum(pts * pts, axis=-1)),
                             return_inverse=True)
    F = radial_flow(f.profile, t, radii)[where].reshape(pts.shape[:-1])
    return Field(f.spec, f.grid, np.prod(pts[..., :m], axis=-1) * F)


def _warn_tail_mass(plan: KernelPlan, t: float, f: Field) -> None:
    # crude truncation estimate per axis: largest magnitude on the outer
    # faces times the Gaussian mass the kernel pulls in from beyond the
    # box.  Index 0 of an anti-symmetric axis is the sector wall, not an
    # edge, and periodic axes have no edge at all.
    est = 0.0
    for i, kind in enumerate(f.grid.axes):
        if kind == AXIS_PERIODIC:
            continue
        mass = 0.5 * math.erfc(0.5 * f.grid.axis_spacing(i)
                               / math.sqrt(4.0 * t))
        sl = [slice(None)] * f.grid.ndim
        for j in ((-1,) if kind == AXIS_ANTISYM else (0, -1)):
            sl[i] = j
            est = max(est, mass * float(np.max(np.abs(f.values[tuple(sl)]))))
    if est > TAIL_TOL * max(f.sup_norm(), 1e-300):
        warnings.warn(
            f"apply_kernel: boundary truncation mass ~{est:.2e} "
            "exceeds tolerance; enlarge the box", RuntimeWarning)


# ---------------------------------------------------------------------------
# the Kummer function of E and of the radial kernel

# kummer's polynomials have this degree; the parts it drops, and the part
# of the asymptotic series it does not take, stay below KUMMER_TOL relative
KUMMER_DEGREE = 14
KUMMER_TOL = 1e-17


@lru_cache(maxsize=16)
def _kummer_table(a: float, c: float) -> tuple[int, np.ndarray]:
    """(K, coef): the pieces of kummer(a, c, .), coef[j, i] the coefficient
    of degree j of piece i, read-only.

    With f(z) = 1F1(a; b; -z), b = a + c, piece i < K is f's Taylor
    polynomial about z = i, for z in [i - 1/2, i + 1/2), so f(0) = 1
    exactly.  By DLMF 13.3(ii) and Kummer's transformation (13.2(vii))
    its coefficients are
        f^(j)(i)/j! = (-1)^j (a)_j/((b)_j j!) e^{-i} 1F1(c; b + j; i),
    and the last series has positive terms, summed until they no longer
    count.  f is the Laplace transform of a positive weight on [0, 1]
    (DLMF 13.4(i)), so |f^(j)| <= f, and what degree 14 drops within 1/2
    of i is below 2^-15/15! e^{1/2} f, 4e-17 f.
    Piece K serves z >= K - 1/2 by the asymptotic series (DLMF 13.7(i))
        f(z) ~ Gamma(b)/Gamma(c) z^{-a} sum_s (a)_s (1 - c)_s/s! z^{-s},
    a polynomial in 1/z cut after degree 14; K is the first integer where,
    at z = K - 1/2, the next term, and the exponentially small part the
    series omits, Gamma(c)/Gamma(a) z^{a-c} e^{-z} relative, are below
    KUMMER_TOL."""
    p, b = KUMMER_DEGREE, a + c
    j = np.arange(p + 1.0)
    ratio = np.cumprod(np.r_[1.0, (a + j) * (1.0 - c + j) / (j + 1.0)])
    K = 1
    while (abs(ratio[-1]) > KUMMER_TOL * (K - 0.5) ** (p + 1.0)
           or math.lgamma(c) - math.lgamma(a) + (a - c) * math.log(K - 0.5)
           - (K - 0.5) > math.log(KUMMER_TOL)):
        K += 1
    z = np.arange(K, dtype=float)
    term = np.ones((p + 1, K))
    total = term.copy()
    n = 0
    while n < K or np.any(term > KUMMER_TOL * total):
        term *= (c + n) / (b + j[:, None] + n) * (z / (n + 1.0))
        total += term
        n += 1
    taylor = np.cumprod(np.r_[1.0, -(a + j[:-1])
                              / ((b + j[:-1]) * (j[:-1] + 1.0))])
    coef = np.column_stack((taylor[:, None] * np.exp(-z) * total,
                            math.gamma(b) / math.gamma(c) * ratio[:-1]))
    coef.flags.writeable = False    # shared by every caller of the cache
    return K, coef


def kummer(a: float, c: float, z) -> np.ndarray:
    """1F1(a; a + c; -z) at each z >= 0, for a, c > 0.

    c enters as itself, not as the difference of a + c and a, so the far
    field, which goes as 1/Gamma(c), keeps its relative accuracy as c -> 0.
    Each point takes one piece of _kummer_table, built once per (a, c):
    a Taylor polynomial in z - i about the nearest integer i < K, or
    beyond the table's end the asymptotic series in 1/z times z^{-a}, 14
    Horner steps either way."""
    K, coef = _kummer_table(a, c)
    z = np.asarray(z, dtype=float)
    far = z >= K - 0.5
    i = (np.minimum(z, K) + 0.5).astype(np.intp)
    u = np.subtract(z, i, out=np.empty_like(z))     # an array if z is 0-d
    np.divide(1.0, z, out=u, where=far)
    out = coef[-1][i]
    for row in coef[-2::-1]:
        out *= u
        out += row[i]
    return out * np.power(z, -a, out=np.ones_like(z), where=far)


# ---------------------------------------------------------------------------
# the exact flow of psi0-class data x_1...x_m f(|x|), one integral per radius

@lru_cache(maxsize=8)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(order)      # built at first use, shared read-only
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_legendre(a, b, order: int):
    """Gauss-Legendre nodes and weights on each [a, b], along a new axis."""
    x, w = _legendre_rule(order)
    a = np.asarray(a, dtype=float)[..., None]
    half = 0.5 * (np.asarray(b, dtype=float)[..., None] - a)
    return a + half * (1.0 + x), half * w


def _radial_kernel(nu: float, q, s) -> np.ndarray:
    """exp(-(q - s)^2) z^{-nu} e^{-z} I_nu(z), z = 2qs: the heat kernel of
    radial functions in dimension 2nu + 2, radii in units of sqrt(4t),
    over 2^{nu+1}.  By DLMF 10.39.5 the Bessel part is a Kummer function,
        z^{-nu} e^{-z} I_nu(z) = 2^{-nu}/Gamma(nu + 1)
                                 1F1(nu + 1/2; 2nu + 1; -2z),
    which is kummer(nu + 1/2, nu + 1/2, 2z): entire, and exact at z = 0,
    so q = 0 and s = 0 need no special case.  In d = 1 (nu = -1/2) the
    1F1 is the elementary (1 + e^{-2z})/2."""
    z2 = 4.0 * np.asarray(q) * np.asarray(s)
    if nu == -0.5:
        bessel = 0.5 * (1.0 + np.exp(-z2))
    else:
        bessel = kummer(nu + 0.5, nu + 0.5, z2)
    return (2.0 ** -nu / math.gamma(nu + 1.0)) * np.exp(-(q - s) ** 2) \
        * bessel


def _deep_mass(profile, sigma: float, s, mass) -> float:
    """int_0^{e^{-W}} s^{d-1} f(sigma s) ds, W = CORE_DEPTH, from the core's
    log-radius nodes s on (e^{-W}, 1] and weights mass = w s^d.

    f overflows further down, so block k, the core moved down by (k+1) W,
    is taken through the log shift by -kW (lam^{gamma+m} D_lam) at the
    factor e^{-(N-gamma) kW}, until that is e^{-40} (at most 1000 blocks).
    Below, f continues as rho^{-(gamma+2m)} in closed form: exact for psi0
    and for data with no log shift (the Gaussian derivative, bounded at 0),
    which take one block; an oscillating g is off by its swing times the
    last factor, which matters only for N - gamma < 0.002."""
    spec = profile.spec
    a, d, W = spec.N - spec.gamma, spec.N + 2 * spec.m, CORE_DEPTH
    shift = getattr(profile, "log_shifted", None)
    blocks = 1 if shift is None else int(min(np.ceil(40.0 / (a * W)), 1000))
    total = 0.0
    for k in range(blocks):
        f = (shift(-k * W) if k else profile).radial
        total += np.exp(-a * k * W - d * W) * np.sum(
            mass * f(sigma * np.exp(-W) * s))
    return total + (np.exp(-a * (blocks - 1) * W - 2 * d * W)
                    * f(sigma * np.exp(-2 * W)) / a)


def radial_flow(profile, t: float, r) -> np.ndarray:
    """F(t, r) at radii r >= 0, where e^{tD}[x_1...x_m f(|x|)] =
    x_1...x_m F(t, |x|) and f = profile.radial.

    x_1...x_m is harmonic, so F is the flow of f in dimension d = N + 2m
    (Bochner's relation; Stein & Weiss, Fourier Analysis on Euclidean
    Spaces, 1971, ch. IV 3):
        F(t, r) = (2t)^{-1} r^{-nu} int_0^inf e^{-(r - rho)^2/4t}
                  ive(nu, r rho/2t) rho^{nu+1} f(rho) d rho,  nu = d/2 - 1.
    In units s = rho/sqrt(4t), radius q takes a Gauss-Legendre window
    [q - WINDOW, q + WINDOW] cut at s = 1; where it is cut, it adds the
    core: log-radius panels on (e^{-CORE_DEPTH}, 1], and below that the
    kernel at s = 0 (off by O(s^2)) times the mass there (_deep_mass).
    """
    spec = profile.spec
    d = spec.N + 2 * spec.m
    nu = 0.5 * d - 1.0
    sigma = np.sqrt(4.0 * t)
    q = np.atleast_1d(np.asarray(r, dtype=float)) / sigma
    s, w = _gauss_legendre(np.maximum(q - WINDOW, 1.0), q + WINDOW,
                           WINDOW_ORDER)
    out = np.sum(w * _radial_kernel(nu, q[:, None], s) * s ** (d - 1)
                 * profile.radial(sigma * s), axis=-1)
    near = q < WINDOW + 1.0
    if np.any(near):
        edges = np.linspace(-CORE_DEPTH, 0.0,
                            int(np.ceil(CORE_DEPTH / PANEL_WIDTH)) + 1)
        y, w = (v.ravel() for v in _gauss_legendre(edges[:-1], edges[1:],
                                                    PANEL_ORDER))
        s = np.exp(y)
        mass = w * s ** d
        out[near] += (_radial_kernel(nu, q[near, None], s)
                      @ (mass * profile.radial(sigma * s))
                      + _radial_kernel(nu, q[near], 0.0)
                      * _deep_mass(profile, sigma, s, mass))
    return 2.0 ** (0.5 * d) * out


# ---------------------------------------------------------------------------
# spectral path (Dirichlet at the outer box, sine bases make anti-symmetry
# exact; periodic axes use the discrete Fourier basis).  The basis matrices
# are built in closed form, and an inverse FFT gives a periodic
# propagator's offset sequence; stepping contracts matrices.

def _axis_freqs(grid: GridSpec, i: int) -> np.ndarray:
    kind = grid.axes[i]
    n = len(grid.axis_nodes(i))
    if kind == AXIS_ANTISYM:
        return np.arange(1, n + 1) * np.pi / grid.L
    if kind == AXIS_SYM:
        return np.arange(1, n + 1) * np.pi / (2.0 * grid.L)
    # periodic
    return 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * grid.L / n)


def _basis_pair(kind: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The forward and inverse transform matrices of one axis, in the
    unnormalised convention of FFTPACK:
        antisym, DST-I:  F[k, j] = 2 sin(pi (k+1)(j+1) / (n+1)),
                         inverse F / 2(n+1);
        sym, DST-II:     F[k, j] = 2 sin(pi (k+1)(2j+1) / 2n),
                         inverse F^T diag(w) / 2n (the DST-III),
                         w_{n-1} = 1/2, else 1;
        periodic, DFT:   F[k, j] = exp(-2 pi i k j / n), inverse conj(F) / n.
    Each integer argument is reduced mod its period first, as in
    _cosine_table, so every angle lies in [0, 2 pi) and is exact to
    rounding."""
    k = np.arange(n)
    if kind == AXIS_PERIODIC:
        F = np.exp(np.outer(k, k) % n * (-2j * np.pi / n))
        return F, F.conj() / n
    if kind == AXIS_ANTISYM:
        F = 2.0 * np.sin(np.outer(k + 1, k + 1) % (2 * n + 2)
                         * (np.pi / (n + 1)))
        return F, F / (2 * n + 2)
    F = 2.0 * np.sin(np.outer(k + 1, 2 * k + 1) % (4 * n) * (np.pi / (2 * n)))
    inverse = F.T / (2 * n)
    inverse[:, -1] *= 0.5
    return F, inverse


@dataclass(frozen=True)
class _SpectralBasis:
    """Per-axis transform matrices of one grid (complex on periodic axes),
    the squared frequencies, each shaped to broadcast along its axis, and
    the cosine tables of _axis_propagator (None on periodic axes)."""

    forward: tuple
    inverse: tuple
    ksq: tuple
    cosine: tuple


def _cosine_table(kind: str, n: int) -> np.ndarray | None:
    """The (M+1) x n table cos(pi q d / M) w_q / M, rows d = 0..M and
    columns q = 1..n, that maps a sine axis's mode factors to its offset
    sequence: M = n + 1 on antisym axes, M = n with w_n = 1/2 on sym axes
    (else w_q = 1).  q d is reduced mod 2M first, so each cosine's
    argument lies in [0, 2 pi) and is exact to rounding."""
    if kind == AXIS_PERIODIC:
        return None
    M = n + 1 if kind == AXIS_ANTISYM else n
    qd = np.outer(np.arange(M + 1), np.arange(1, n + 1)) % (2 * M)
    table = np.cos(qd * (np.pi / M)) / M
    if kind == AXIS_SYM:
        table[:, -1] *= 0.5
    return table


@lru_cache(maxsize=8)
def _spectral_basis(grid: GridSpec) -> _SpectralBasis:
    """Each axis's transform pair (_basis_pair), squared frequencies and
    cosine table, shared read-only."""
    forward, inverse, ksq, cosine = [], [], [], []
    for i, kind in enumerate(grid.axes):
        n = len(grid.axis_nodes(i))
        shape = [1] * grid.ndim
        shape[i] = n
        F, inv = _basis_pair(kind, n)
        forward.append(F)
        inverse.append(inv)
        ksq.append((_axis_freqs(grid, i) ** 2).reshape(shape))
        cosine.append(_cosine_table(kind, n))
    for a in forward + inverse + ksq + cosine:
        if a is not None:
            a.flags.writeable = False   # shared by every caller of the cache
    return _SpectralBasis(tuple(forward), tuple(inverse), tuple(ksq),
                          tuple(cosine))


def _axis_propagator(kind: str, e: np.ndarray,
                     cosine: np.ndarray | None) -> np.ndarray:
    """inverse diag(e) forward on one axis, for the mode factors e (in the
    order of _axis_freqs), from the offset sequence c of the axis.

    antisym (DST-I): c(|i - j|) - c(i + j + 2) with
        c(d) = (1/(n+1)) sum_q e_q cos(pi q d / (n+1)),
    even about n + 1;
    sym (DST-II, whose inverse weighs the last mode by 1/2):
    c(|i - j|) - c(i + j + 1) with
        c(d) = (1/n) sum_q w_q e_q cos(pi q d / n),  w_n = 1/2, else 1,
    even about n.  Both are one matvec, c(0..M) = cosine @ e with the
    axis's table from _cosine_table (a DCT-I of [0, e, 0] or [0, e]
    computes the same, but pocketfft pays per call, and 2(n+1) is 2 x 257
    at n = 256);
    periodic (DFT): circulant in c = ifft(e), which is even modulo n
    since e is, so c(|i - j|) fills it."""
    n = e.size
    if kind == AXIS_PERIODIC:
        return _offset_matrix(np.fft.ifft(e).real, n)
    c = cosine @ e
    # c(d) for d past the centre is its mirror image
    return _offset_matrix(np.concatenate((c, c[-2:0:-1])), n,
                          2 if kind == AXIS_ANTISYM else 1)


def _propagators(grid: GridSpec, t: float) -> list[np.ndarray]:
    """The grid's per-axis P(t) = inverse diag(e^{-t k^2}) forward."""
    basis = _spectral_basis(grid)
    return [_axis_propagator(kind, np.exp(-t * k2.ravel()), cos)
            for kind, k2, cos in zip(grid.axes, basis.ksq, basis.cosine)]


def _spectral_flow(plan: KernelPlan, t: float,
                   values: np.ndarray) -> np.ndarray:
    """Array kernel of apply_spectral: e^{t D} on raw values over the plan's
    grid.

    A step size equal to the previous call's goes through the per-axis
    propagators P(t) = inverse diag(e^{-t k^2}) forward, each filled in
    O(n^2) from one cosine transform of its e^{-t k^2} (_axis_propagator),
    and kept in the plan's single slot; any other step size goes through
    the three cached factors.  Every call, a slot hit too, records its step
    size, so an odd step between two repeats of the slot's size (a
    step-doubling probe's 2 dt leg) leaves the slot alone."""
    last, plan._last_dt = plan._last_dt, t
    if plan._propagator is not None and plan._propagator[0] == t:
        return _contract(plan._propagator[1], values)
    if t == last:
        mats = _propagators(plan.grid, t)
        plan._propagator = (t, mats)
        return _contract(mats, values)
    basis = _spectral_basis(plan.grid)
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
    """(a, c, k) with E(x) = k x_1...x_m 1F1(a; a + c; -|x|^2/4):
    a = gamma/2 + m and c = (N - gamma)/2, each rounded once."""
    N, m, g = spec.N, spec.m, spec.gamma
    c = (N - g) / 2.0
    A = math.gamma(c) / (math.gamma(N / 2.0) * 2.0 ** g)
    k = A * 2.0 ** -m * math.prod(g / 2.0 + i for i in range(m)) \
        / math.prod(N / 2.0 + i for i in range(m))
    return g / 2.0 + m, c, k


def E(spec: SectorSpec, pts) -> np.ndarray:
    """The reference field E = e^{D} psi0 at arbitrary points (..., N).

    The flow of |x|^{-gamma} is A 1F1(gamma/2; N/2; -|x|^2/4), and
    psi0 = (-1)^m d_1...d_m |x|^{-gamma}; with 1F1' = (a/b) 1F1(a+1; b+1)
    (DLMF 13.3) that gives
        E(x) = A 2^{-m} (gamma/2)_m / (N/2)_m x_1...x_m
               1F1(gamma/2 + m; N/2 + m; -|x|^2/4),
        A = Gamma((N - gamma)/2) / (Gamma(N/2) 2^gamma),
    evaluated by kummer, which takes the difference (N - gamma)/2 of the
    1F1's parameters as it is, not from N/2 + m and gamma/2 + m rounded.
    E is odd in x_1..x_m, so the whole-space flow is also the sector flow.
    """
    pts, r2 = _squared_radius(spec, pts)
    a, c, k = _kummer_params(spec)
    return k * np.prod(pts[..., :spec.m], axis=-1) * kummer(a, c, r2 / 4)


def _check_psi_grid(grid: GridSpec, m: int) -> None:
    """Psi, and the flow of any psi0-class datum, is the whole-space flow
    sampled on the sector; a periodised kernel would break its dilation
    identity."""
    for i, kind in enumerate(grid.axes):
        if kind != AXIS_ANTISYM if i < m else kind == AXIS_PERIODIC:
            raise ValueError(
                f"Psi grid: axis {i} is {kind!r}, but Psi and the flow of "
                f"psi0-class data live on the sector of the whole space: the "
                f"first {m} axes must be {AXIS_ANTISYM!r} and none "
                f"{AXIS_PERIODIC!r}")


def check_profile_spec(profile, plan: KernelPlan) -> None:
    """Refuse data built for another spec than the plan's: the plan is
    the run, and a profile (or Field) carries the spec it was made for.
    A bare callable carries none, so it has nothing to disagree with."""
    spec = getattr(profile, "spec", plan.spec)
    if spec != plan.spec:
        raise ValueError(f"profile spec {spec} differs from plan spec "
                         f"{plan.spec}")


def _radial_max(fun, r: np.ndarray) -> float:
    """max of fun over the sorted radii r and between them: the neighbours
    of the largest sample bracket the maximiser, and each round resamples
    the bracket at 33 points and keeps the neighbours of the largest, at
    least a 16-fold cut, until it is 1e-12 wide (rounds are counted, so a
    bracket below float resolution ends).  fun maps radii to values."""
    vals = fun(r)
    i = int(np.argmax(vals))
    best = vals[i]
    lo, hi = r[max(i - 1, 0)], r[min(i + 1, r.size - 1)]
    for _ in range(int(np.ceil(np.log2(max(hi - lo, 1e-12) * 1e12) / 4))):
        x = np.linspace(lo, hi, 33)
        v = fun(x)
        i = int(np.argmax(v))
        best = max(best, v[i])
        lo, hi = x[max(i - 1, 0)], x[min(i + 1, 32)]
    return float(best)


def linear_sup(plan: KernelPlan, profile, t: float) -> float:
    """sup-norm of e^{t D_Omega} applied to an analytic profile made for
    the plan's spec.

    Data x_1...x_m f(|x|) flow to x_1...x_m F(t, |x|), and on the sphere
    of radius r |x_1...x_m| peaks on the diagonal at (r/sqrt m)^m: the sup
    is the 1-D max of (r/sqrt m)^m |F(t, r)| over the grid's reach and
    over 10 sqrt(b t), b = N/2 + m, where the flow of psi0 peaks.  Other
    profiles take the sup of the grid rule's apply.
    """
    check_profile_spec(profile, plan)
    spec, grid = plan.spec, plan.grid
    if getattr(profile, "radial", None) is None:
        return apply_kernel(plan, t, field_from_profile(spec, grid,
                                                        profile)).sup_norm()
    _check_psi_grid(grid, spec.m)
    m = spec.m
    reach = np.linalg.norm([np.max(np.abs(grid.axis_nodes(i)))
                            for i in range(grid.ndim)])
    r = np.union1d(np.linspace(0.0, 10.0 * np.sqrt((0.5 * spec.N + m) * t),
                               513),
                   np.linspace(0.0, reach, 513))
    return _radial_max(lambda r: (r / np.sqrt(max(m, 1))) ** m
                       * np.abs(radial_flow(profile, t, r)), r)


@lru_cache(maxsize=8)
def _sup_E(spec: SectorSpec) -> float:
    """C_inf = sup |E|.  1F1(a; b; -z) is positive and decreasing in z for
    0 < a < b, so with m = 0 the sup is E(0) = A; otherwise it lies on the
    diagonal x_i = r/sqrt(m) of the first m axes, a 1-D maximisation over r
    of (r^2/m)^{m/2} 1F1(a; b; -r^2/4), which is 0 at r = 0, decays, and
    peaks at r = O(sqrt(b)): 513 samples to 10 sqrt(b) bracket the peak,
    and _radial_max resamples the bracket down to a width of 1e-12."""
    a, c, k = _kummer_params(spec)
    if spec.m == 0:
        return k
    b = spec.N / 2.0 + spec.m
    return k * _radial_max(lambda r: (r * r / spec.m) ** (spec.m / 2.0)
                           * kummer(a, c, r * r / 4),
                           np.linspace(0.0, 10.0 * np.sqrt(b), 513))


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
