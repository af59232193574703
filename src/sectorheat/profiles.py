"""Initial-data families with exact pointwise evaluation.

The reference singular profile is

    psi0(x) = c * x_1 ... x_m * |x|^(-gamma-2m),
    c = gamma (gamma+2) ... (gamma+2m-2),  c = 1 when m = 0,

positive on the sector and homogeneous of degree -(gamma+m).  Built-in
families: psi0 itself, log-radially modulated psi0, the m-fold Gaussian
derivative (smoothed derivative-of-delta data), constants, and custom
callables.

The first three are psi0-class, data x_1 ... x_m f(|x|).  Such a family
is its radial form f, as ``radial(rho)``, the homogeneity of its tail, as
``tail_degree`` (None for a tail faster than any power), and its X-norm
sup |f| / psi0, as ``x_norm()``; _RadialProfile evaluates the data
pointwise from ``radial`` and scales their amplitude.  At the origin,
data with a power tail are singular and take the value 0; bounded data
take their value there, G_t(0) for the Gaussian with m = 0.
"""

from __future__ import annotations

import copy

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
    return Psi0Profile(spec)(pts)[()]   # a scalar for a single point


def eval_gaussian_derivative(spec: SectorSpec, t: float, pts) -> np.ndarray:
    """(-1)^m d_1...d_m G_t(x) = G_t(x) * prod_i x_i/(2t); equals G_t if m=0."""
    return GaussianDerivativeProfile(spec, t)(pts)


# ---------------------------------------------------------------------------
# profile objects (callables with metadata), usable as Field profile handles

class _RadialProfile:
    """Data x_1...x_m radial(|x|): the pointwise values and the scaling of
    a psi0-class family, which sets spec, amplitude and tail_degree and
    defines radial and x_norm."""

    def __call__(self, pts):
        pts, r = _split_points(self.spec, pts)
        coords = np.prod(pts[..., :self.spec.m], axis=-1)
        if self.tail_degree is None:
            return coords * self.radial(r)
        # a power tail: singular at the origin, where the data are 0
        out = np.zeros(np.shape(r))
        ok = r > 0.0
        out[ok] = coords[ok] * self.radial(r[ok])
        return out

    def scaled(self, lam: float):
        new = copy.copy(self)
        new.amplitude = self.amplitude * lam
        return new


class Psi0Profile(_RadialProfile):
    def __init__(self, spec: SectorSpec, amplitude: float = 1.0):
        self.spec = spec
        self.amplitude = amplitude
        self.tail_degree = -(spec.gamma + spec.m)

    def radial(self, rho):
        """f with self(x) = x_1...x_m f(|x|)."""
        spec = self.spec
        return (self.amplitude * leading_constant(spec)
                * np.asarray(rho) ** (-spec.gamma - 2 * spec.m))

    def x_norm(self) -> float:
        # psi0 has X-norm exactly 1
        return abs(self.amplitude)


class SinSquaredLog:
    """g(s) = sin^2(s + shift) + eps; eps > 0 keeps the liminf positive."""

    def __init__(self, eps: float = 0.05, shift: float = 0.0):
        self.eps = eps
        self.shift = shift

    def __call__(self, s):
        return np.sin(np.asarray(s) + self.shift) ** 2 + self.eps

    @property
    def sup(self) -> float:
        # g ranges over [eps, 1 + eps]
        return max(abs(1.0 + self.eps), abs(self.eps))


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


class ModulatedProfile(_RadialProfile):
    """psi0 times g(log|x| + shift)."""

    def __init__(self, spec: SectorSpec, g, amplitude: float = 1.0,
                 shift: float = 0.0):
        self.spec = spec
        self.g = g
        self.amplitude = amplitude
        self.shift = shift
        self.tail_degree = -(spec.gamma + spec.m)

    def radial(self, rho):
        """f with self(x) = x_1...x_m f(|x|)."""
        return (Psi0Profile(self.spec, self.amplitude).radial(rho)
                * self.g(np.log(rho) + self.shift))

    def x_norm(self) -> float:
        sup_g = getattr(self.g, "sup", None)
        if sup_g is None:
            s = np.linspace(-40.0, 40.0, 200001)
            sup_g = float(np.max(np.abs(self.g(s))))
        return abs(self.amplitude) * sup_g

    def log_shifted(self, shift: float) -> "ModulatedProfile":
        """Profile with g replaced by s -> g(s + shift); this is the exact
        form of lam^(gamma+m) D_lam applied to the profile, shift = log lam."""
        new = copy.copy(self)
        new.shift = self.shift + shift
        return new


class GaussianDerivativeProfile(_RadialProfile):
    def __init__(self, spec: SectorSpec, t0: float, amplitude: float = 1.0):
        if t0 <= 0.0:
            raise ValueError("t0 must be positive")
        self.spec = spec
        self.t0 = t0
        self.amplitude = amplitude
        self.tail_degree = None  # Gaussian tail, faster than any power

    def radial(self, rho):
        """f with self(x) = x_1...x_m f(|x|)."""
        spec, t0 = self.spec, self.t0
        return (self.amplitude * (4.0 * np.pi * t0) ** (-spec.N / 2.0)
                * (2.0 * t0) ** -spec.m
                * np.exp(-np.asarray(rho) ** 2 / (4.0 * t0)))

    def x_norm(self) -> float:
        # the ratio against psi0 is that of the radial forms, a constant
        # times r^k e^{-r^2/4t0} with k = gamma + 2m: its peak is at
        # r^2 = 2 t0 k
        spec = self.spec
        r = np.sqrt(2.0 * self.t0 * (spec.gamma + 2 * spec.m))
        return float(abs(self.radial(r)) / Psi0Profile(spec).radial(r))


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
    def __init__(self, spec: SectorSpec, fn, amplitude: float = 1.0):
        self.spec = spec
        self.fn = fn
        self.amplitude = amplitude

    def __call__(self, pts):
        return self.amplitude * self.fn(np.asarray(pts, dtype=float))

    def scaled(self, lam: float) -> "CustomProfile":
        return CustomProfile(self.spec, self.fn, self.amplitude * lam)
