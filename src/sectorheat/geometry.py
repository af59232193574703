"""Sector geometry: parameter specs, tensor grids, fields on them, and the
checksummed on-disk container of exported Psi caches.

The working domain is the sector {x_1 > 0, ..., x_m > 0} of R^N, truncated
to a box of half-width L.  Each grid axis is one of three kinds: antisym
(the half-line x_i > 0 of a coordinate the data are odd in), sym (the
whole line) or periodic.  Grids never place a node at the origin or on a
sector wall, so singular reference profiles are evaluable everywhere.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

AXIS_ANTISYM = "antisym"   # nodes in (0, L), implied zero at the wall
AXIS_SYM = "sym"           # half-cell offset nodes in (-L, L)
AXIS_PERIODIC = "periodic" # uniform nodes on [-L, L) with wraparound

_AXIS_KINDS = (AXIS_ANTISYM, AXIS_SYM, AXIS_PERIODIC)

# Field.is_nonnegative tolerates values down to -NONNEG_REL_TOL * max(sup, 1)
NONNEG_REL_TOL = 1e-10


@dataclass(frozen=True)
class SectorSpec:
    """Problem parameters: dimension, anti-symmetry count, and exponents.

    N       spatial dimension (1..3)
    m       number of anti-symmetric coordinates (0 <= m <= N)
    gamma   decay exponent of the reference singular profile, in (0, N)
    alpha   nonlinearity power, > 0
    sign_a  sign of the nonlinear term, +1 (focusing) or -1 (absorbing)
    """

    N: int
    m: int
    gamma: float
    alpha: float
    sign_a: int = 1

    def __post_init__(self):
        if not (1 <= self.N <= 3):
            raise ValueError(f"N must be in 1..3, got {self.N}")
        if not (0 <= self.m <= self.N):
            raise ValueError(f"m must satisfy 0 <= m <= N, got m={self.m}")
        if not (0.0 < self.gamma < self.N):
            raise ValueError(f"gamma must lie in (0, N), got {self.gamma}")
        if not self.alpha > 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.sign_a not in (+1, -1):
            raise ValueError(f"sign_a must be +1 or -1, got {self.sign_a}")

    @property
    def decay(self) -> float:
        """Homogeneity degree gamma + m of the reference profile (with sign)."""
        return self.gamma + self.m

    @property
    def alpha_critical(self) -> float:
        """Largest admissible nonlinearity power, 2/(gamma+m)."""
        return 2.0 / self.decay

    @property
    def subcritical(self) -> bool:
        return self.alpha < self.alpha_critical

    @property
    def sigma(self) -> float:
        """Life-span scaling exponent (1/alpha - (gamma+m)/2)^(-1)."""
        denom = 1.0 / self.alpha - self.decay / 2.0
        if denom <= 0.0:
            raise ValueError("sigma undefined: alpha is not subcritical")
        return 1.0 / denom


@dataclass(frozen=True)
class GridSpec:
    """Tensor grid over the truncated sector.

    L     box half-width
    n     points per axis
    axes  per-axis kind; antisym axes carry n nodes in (0, L), the others
          n nodes spanning (-L, L).  Data odd in x_i belong on an antisym
          axis i, all other data on a sym or periodic one
    """

    L: float
    n: int
    axes: tuple[str, ...]

    def __post_init__(self):
        if not 0.0 < self.L < np.inf or self.n < 4:
            raise ValueError(f"grid needs a finite L > 0 and n >= 4, got "
                             f"L={self.L}, n={self.n}")
        # a tuple keeps the grid hashable: spectral bases are cached by grid
        object.__setattr__(self, "axes", tuple(self.axes))
        for kind in self.axes:
            if kind not in _AXIS_KINDS:
                raise ValueError(f"unknown axis kind {kind!r}")

    @classmethod
    def for_spec(cls, spec: SectorSpec, L: float, n: int) -> "GridSpec":
        axes = (AXIS_ANTISYM,) * spec.m + (AXIS_SYM,) * (spec.N - spec.m)
        return cls(L=L, n=n, axes=axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def axis_nodes(self, i: int) -> np.ndarray:
        kind = self.axes[i]
        if kind == AXIS_ANTISYM:
            h = self.L / (self.n + 1)
            return h * np.arange(1, self.n + 1)
        if kind == AXIS_SYM:
            h = 2.0 * self.L / self.n
            return -self.L + h * (np.arange(self.n) + 0.5)
        # periodic
        h = 2.0 * self.L / self.n
        return -self.L + h * np.arange(self.n)

    def axis_spacing(self, i: int) -> float:
        kind = self.axes[i]
        if kind == AXIS_ANTISYM:
            return self.L / (self.n + 1)
        return 2.0 * self.L / self.n

    def shape(self) -> tuple[int, ...]:
        return tuple(len(self.axis_nodes(i)) for i in range(self.ndim))

    def meshgrid(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.axis_nodes(i) for i in range(self.ndim)],
                           indexing="ij")

    def points(self) -> np.ndarray:
        """All grid nodes as an array of shape grid.shape() + (ndim,)."""
        return np.stack(self.meshgrid(), axis=-1)

    def radii(self) -> np.ndarray:
        mesh = self.meshgrid()
        return np.sqrt(sum(x * x for x in mesh))


@dataclass
class Field:
    """Real values sampled on a tensor grid, with optional analytic backing.

    ``profile``, when present, is a callable evaluating the underlying
    function at arbitrary points (shape (..., N)); it may expose a
    ``tail_degree`` attribute giving the homogeneity of its far-field tail.
    Fields are treated as immutable: operations return new instances.
    """

    spec: SectorSpec
    grid: GridSpec
    values: np.ndarray
    profile: object | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape():
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"{self.grid.shape()}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def is_nonnegative(self) -> bool:
        vmax = float(np.max(self.values, initial=0.0))
        return float(np.min(self.values)) >= -NONNEG_REL_TOL * max(vmax, 1.0)


def field_from_profile(spec: SectorSpec, grid: GridSpec, profile) -> Field:
    return Field(spec, grid, profile(grid.points()), profile=profile)


# ---------------------------------------------------------------------------
# on-disk container "SHC1": magic, int32 header length, sorted-key JSON
# header (spec, grid, extra scalars), SHA-256 hex digest of header+payload,
# then the little-endian float64 values in C order

_PREAMBLE = 4 + 4 + 64   # magic, header length, hex digest


def _write_container(path: str, spec: SectorSpec, grid: GridSpec, values,
                     **extra: float) -> None:
    header = json.dumps({
        "N": spec.N, "m": spec.m, "gamma": spec.gamma, "alpha": spec.alpha,
        "sign_a": spec.sign_a, "L": grid.L, "n": grid.n,
        "axes": list(grid.axes), **extra,
    }, sort_keys=True).encode()
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    digest = hashlib.sha256(header + payload).hexdigest().encode()
    with open(path, "wb") as fh:
        fh.write(b"SHC1")
        fh.write(struct.pack("<i", len(header)))
        fh.write(header)
        fh.write(digest)
        fh.write(payload)


def _read_container(path: str, extra: tuple[str, ...] = ()):
    """Read and validate a container; returns (spec, grid, values, extras),
    extras being the header scalars named in ``extra``, in order.  Every
    defect raises ValueError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"SHC1":
        raise ValueError(f"{path}: not a sectorheat container (bad magic)")
    hlen = struct.unpack("<i", raw[4:8])[0] if len(raw) >= 8 else 0
    if not 1 <= hlen <= len(raw) - _PREAMBLE:
        raise ValueError(f"{path}: truncated, or header length {hlen} out of "
                         f"range for a {len(raw)}-byte file")
    header = raw[8:8 + hlen]
    digest = raw[8 + hlen:_PREAMBLE + hlen]
    payload = raw[_PREAMBLE + hlen:]
    if hashlib.sha256(header + payload).hexdigest().encode() != digest:
        raise ValueError(f"{path}: checksum mismatch, file corrupted")
    try:
        meta = json.loads(header)
        if not isinstance(meta, dict):
            raise ValueError("header is not a JSON object")
        spec = SectorSpec(meta["N"], meta["m"], meta["gamma"], meta["alpha"],
                          meta["sign_a"])
        grid = GridSpec(meta["L"], meta["n"], tuple(meta["axes"]))
        extras = tuple(float(meta[k]) for k in extra)
    except KeyError as e:
        raise ValueError(f"{path}: header lacks key {e}") from e
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad header: {e}") from e
    if grid.ndim != spec.N:
        raise ValueError(f"{path}: header axes {list(grid.axes)} has "
                         f"{grid.ndim} entries, but N={spec.N}")
    # every axis has at least n nodes, so the first test rules out an
    # absurd n before grid.shape() builds the node arrays
    if 8 * grid.n > len(payload) \
            or len(payload) != 8 * int(np.prod(grid.shape())):
        raise ValueError(f"{path}: payload of {len(payload)} bytes does not "
                         f"hold 8 per node of the grid n={grid.n}, "
                         f"axes={list(grid.axes)}")
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape())
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: payload holds non-finite values")
    return spec, grid, values.copy(), extras

