"""Initial-data families with exact pointwise evaluation.

The reference singular profile is

    psi0(x) = c * x_1 ... x_m * |x|^(-gamma-2m),
    c = gamma (gamma+2) ... (gamma+2m-2),  c = 1 when m = 0,

positive on the sector and homogeneous of degree -(gamma+m).  Built-in
families: psi0 itself, log-radially modulated psi0, the m-fold Gaussian
derivative (smoothed derivative-of-delta data), constants, and custom
callables with a declared tail homogeneity.  The first three have the
form x_1 ... x_m f(|x|), and their radial(rho) method returns that f.
"""

from __future__ import annotations

import numpy as np

from .geometry import SectorSpec


def leading_constant(spec: SectorSpec) -> float:
    """c = gamma (gamma+2) ... (gamma+2m-2); equals 1 when m = 0."""
    c = 1.0
    for k in range(spec.m):
        c *= spec.gamma + 2 * k
    return c


def _squared_radius(spec: SectorSpec, pts):
    """pts as a float array of last dimension N, and |x|^2 summed over
    its components: numpy's reduction over a short last axis costs
    several times more."""
    pts = np.asarray(pts, dtype=float)
    if pts.shape[-1] != spec.N:
        raise ValueError(f"points must have last dimension {spec.N}")
    r2 = pts[..., 0] * pts[..., 0]
    for i in range(1, spec.N):
        r2 += pts[..., i] * pts[..., i]
    return pts, r2


def _split_points(spec: SectorSpec, pts):
    pts, r2 = _squared_radius(spec, pts)
    return pts, np.sqrt(r2)


def eval_psi0(spec: SectorSpec, pts) -> np.ndarray:
    """Exact pointwise psi0.  Rejects the origin and sector walls."""
    pts, r = _split_points(spec, pts)
    if np.any(r == 0.0):
        raise ValueError("psi0 is singular at the origin")
    if np.any(pts[..., :spec.m] == 0.0):
        raise ValueError("psi0 evaluation point lies on a sector wall")
    return _psi0_signed(spec, pts)[()]   # a scalar for a single point


def _psi0_signed(spec: SectorSpec, pts) -> np.ndarray:
    """psi0 extended anti-symmetrically: sign flips with the first m
    coordinates, zero on walls and at the origin.  The one psi0 formula;
    eval_psi0 adds the origin/wall check."""
    pts, r = _split_points(spec, pts)
    out = np.zeros(r.shape)
    ok = r > 0.0
    coord_prod = np.prod(pts[..., :spec.m], axis=-1) if spec.m else np.ones(r.shape)
    out[ok] = (leading_constant(spec) * np.asarray(coord_prod)[ok]
               * r[ok] ** (-spec.gamma - 2 * spec.m))
    return out


def eval_gaussian_derivative(spec: SectorSpec, t: float, pts) -> np.ndarray:
    """(-1)^m d_1...d_m G_t(x) = G_t(x) * prod_i x_i/(2t); equals G_t if m=0."""
    if t <= 0.0:
        raise ValueError("Gaussian-derivative profile requires t > 0")
    pts, r = _split_points(spec, pts)
    g = (4.0 * np.pi * t) ** (-spec.N / 2.0) * np.exp(-r * r / (4.0 * t))
    for i in range(spec.m):
        g = g * pts[..., i] / (2.0 * t)
    return g


# ---------------------------------------------------------------------------
# profile objects (callables with metadata), usable as Field profile handles

class Psi0Profile:
    def __init__(self, spec: SectorSpec, amplitude: float = 1.0):
        self.spec = spec
        self.amplitude = amplitude
        self.tail_degree = -(spec.gamma + spec.m)

    def __call__(self, pts):
        return self.amplitude * _psi0_signed(self.spec, pts)

    def radial(self, rho):
        """f with self(x) = x_1...x_m f(|x|)."""
        spec = self.spec
        return (self.amplitude * leading_constant(spec)
                * np.asarray(rho) ** (-spec.gamma - 2 * spec.m))

    def x_norm(self) -> float:
        # psi0 has X-norm exactly 1
        return abs(self.amplitude)

    def scaled(self, lam: float) -> "Psi0Profile":
        return Psi0Profile(self.spec, self.amplitude * lam)


class SinSquaredLog:
    """g(s) = sin^2(s + shift) + eps; eps > 0 keeps the liminf positive."""

    def __init__(self, eps: float = 0.05, shift: float = 0.0):
        self.eps = eps
        self.shift = shift

    def __call__(self, s):
        return np.sin(np.asarray(s) + self.shift) ** 2 + self.eps

    @property
    def sup(self) -> float:
        return 1.0 + self.eps


class ConstantModulation:
    def __init__(self, value: float = 1.0):
        self.value = value

    def __call__(self, s):
        return np.full_like(np.asarray(s, dtype=float), self.value)

    @property
    def sup(self) -> float:
        return abs(self.value)


# LogBlockModulation's block edges a_k = BLOCK_BASE * BLOCK_GROWTH^k
BLOCK_BASE = 1.0
BLOCK_GROWTH = 2.0


class LogBlockModulation:
    """Piecewise-constant g alternating between c1 and c2 on log-radius
    blocks [a_k, a_{k+1}) with geometrically growing lengths, so dilation
    along matched sequences sees a single constant over any fixed annulus."""

    def __init__(self, c1: float, c2: float):
        self.c1 = c1
        self.c2 = c2

    def block_edge(self, k: int) -> float:
        return BLOCK_BASE * BLOCK_GROWTH ** k

    def block_center(self, k: int) -> float:
        return 0.5 * (self.block_edge(k) + self.block_edge(k + 1))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        # block index: k such that a_k <= s < a_{k+1}; everything below
        # the first edge belongs to block 0
        k = np.floor(np.log(np.maximum(s, BLOCK_BASE) / BLOCK_BASE)
                     / np.log(BLOCK_GROWTH)).astype(int)
        return np.where(k % 2 == 0, self.c1, self.c2)

    @property
    def sup(self) -> float:
        return max(abs(self.c1), abs(self.c2))


class ModulatedProfile:
    def __init__(self, spec: SectorSpec, g, amplitude: float = 1.0):
        self.spec = spec
        self.g = g
        self.amplitude = amplitude
        self.tail_degree = -(spec.gamma + spec.m)

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        out = self.amplitude * _psi0_signed(self.spec, pts)
        ok = r > 0.0
        out[ok] = out[ok] * self.g(np.log(r[ok]))
        return out

    def radial(self, rho):
        """f with self(x) = x_1...x_m f(|x|)."""
        return (Psi0Profile(self.spec, self.amplitude).radial(rho)
                * self.g(np.log(rho)))

    def x_norm(self) -> float:
        sup_g = getattr(self.g, "sup", None)
        if sup_g is None:
            s = np.linspace(-40.0, 40.0, 200001)
            sup_g = float(np.max(np.abs(self.g(s))))
        return abs(self.amplitude) * sup_g

    def scaled(self, lam: float) -> "ModulatedProfile":
        return ModulatedProfile(self.spec, self.g, self.amplitude * lam)

    def log_shifted(self, shift: float) -> "ModulatedProfile":
        """Profile with g replaced by s -> g(s + shift); this is the exact
        form of lam^(gamma+m) D_lam applied to the profile, shift = log lam."""
        g = self.g
        shifted = lambda s, _g=g, _d=shift: _g(np.asarray(s) + _d)
        shifted.sup = getattr(g, "sup", None)
        if shifted.sup is None:
            del shifted.sup
        return ModulatedProfile(self.spec, shifted, self.amplitude)


class GaussianDerivativeProfile:
    def __init__(self, spec: SectorSpec, t0: float, amplitude: float = 1.0):
        if t0 <= 0.0:
            raise ValueError("t0 must be positive")
        self.spec = spec
        self.t0 = t0
        self.amplitude = amplitude
        self.tail_degree = None  # Gaussian tail, faster than any power

    def __call__(self, pts):
        return self.amplitude * eval_gaussian_derivative(self.spec, self.t0, pts)

    def radial(self, rho):
        """f with self(x) = x_1...x_m f(|x|)."""
        spec, t0 = self.spec, self.t0
        return (self.amplitude * (4.0 * np.pi * t0) ** (-spec.N / 2.0)
                * (2.0 * t0) ** -spec.m
                * np.exp(-np.asarray(rho) ** 2 / (4.0 * t0)))

    def x_norm(self) -> float:
        # the ratio against psi0 is that of the radial forms, which
        # vanishes at 0 and infinity; scan its max
        r = np.geomspace(1e-3, 30.0 * np.sqrt(self.t0), 4000)
        return float(np.max(np.abs(self.radial(r))
                            / Psi0Profile(self.spec).radial(r)))

    def scaled(self, lam: float) -> "GaussianDerivativeProfile":
        return GaussianDerivativeProfile(self.spec, self.t0,
                                         self.amplitude * lam)


class ConstantProfile:
    def __init__(self, spec: SectorSpec, value: float = 1.0):
        self.spec = spec
        self.value = value
        self.tail_degree = None

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        return np.full(pts.shape[:-1], self.value)

    def scaled(self, lam: float) -> "ConstantProfile":
        return ConstantProfile(self.spec, self.value * lam)


class CustomProfile:
    def __init__(self, spec: SectorSpec, fn, tail_degree: float | None = None,
                 amplitude: float = 1.0):
        self.spec = spec
        self.fn = fn
        self.amplitude = amplitude
        self.tail_degree = tail_degree

    def __call__(self, pts):
        return self.amplitude * self.fn(np.asarray(pts, dtype=float))

    def scaled(self, lam: float) -> "CustomProfile":
        return CustomProfile(self.spec, self.fn, self.tail_degree,
                             self.amplitude * lam)
