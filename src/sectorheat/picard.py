"""Weighted-ball Picard construction for the Duhamel equation

    u(t) = e^{t D_Omega} psi + a int_0^t e^{(t-s) D_Omega} |u|^alpha u ds

on a graded time mesh over (0, T].  The trajectory norm is

    |||u||| = sup_t || u(t) / Psi(t) ||_inf,   Psi(t) = e^{t D_Omega} psi0,

and the contraction certificate is the pair of smallness conditions

    (A)  K + 2(alpha+1) M^(alpha+1) I(T) <= M,
    (B)  2(alpha+1) M^alpha I(T) < 1,

with I(T) = int_0^T ||Psi||^alpha, which hold for M = 2K and T small.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Field, GridSpec, SectorSpec, field_from_profile
from .profiles import Psi0Profile
from .semigroup import (KernelPlan, _check_psi_grid, _contract,
                        _propagators, alpha_time_integral, apply_kernel,
                        check_profile_spec, psi_sup, psi_values)

# the Duhamel part of condition (A) uses MARGIN of the gap M - K; the
# iteration stops once an increment falls below TOL, or after MAX_ITER sweeps
MARGIN = 0.9
TOL = 1e-9
MAX_ITER = 30


@dataclass
class PicardConfig:
    K: float
    M: float
    T: float              # the certificate's horizon
    mesh: np.ndarray      # the solved nodes: all of (0, T] or a prefix


@dataclass
class PicardRun:
    """A solve's result; the slices cover the solved nodes config.mesh."""

    config: PicardConfig
    slices: list          # converged u(s_j) Fields, s_j = config.mesh[j]
    increments: list      # |||u^(k+1) - u^(k)||| per sweep
    ratios: list          # successive increment ratios
    xt_norm: float
    converged: bool
    psi_slices: list = field(default_factory=list, repr=False)

    @property
    def contraction_ratio(self) -> float:
        return max(self.ratios) if self.ratios else 0.0


def admissible_constants(spec: SectorSpec, K: float) -> tuple[float, float]:
    """M = 2K and the largest admissible horizon T.

    T is chosen so the Duhamel part of condition (A) uses a fraction
    MARGIN of the available gap M - K = K; condition (B) then holds
    automatically with value MARGIN/2 < 1.
    """
    if not spec.subcritical:
        raise ValueError(
            f"no admissible horizon: alpha={spec.alpha} >= "
            f"2/(gamma+m)={spec.alpha_critical}")
    if K <= 0.0:
        raise ValueError("K must be positive")
    M = 2.0 * K
    target_I = MARGIN * K / (2.0 * (spec.alpha + 1.0) * M ** (spec.alpha + 1.0))
    expo = 1.0 - spec.alpha * spec.decay / 2.0
    T = (target_I * expo / psi_sup(spec, 1.0) ** spec.alpha) ** (1.0 / expo)
    # direct recheck of both conditions
    I = alpha_time_integral(spec, T)
    condA = K + 2.0 * (spec.alpha + 1.0) * M ** (spec.alpha + 1.0) * I
    condB = 2.0 * (spec.alpha + 1.0) * M ** spec.alpha * I
    if not condA <= M * (1.0 + 1e-12):
        raise ValueError(f"contraction condition (A) fails: K + Duhamel "
                         f"term = {condA:.6g} > M = {M:.6g}")
    if not condB < 1.0:
        raise ValueError(f"contraction condition (B) fails: contraction "
                         f"factor {condB:.6g} >= 1")
    return M, T


def contraction_bound(spec: SectorSpec, M: float, T: float) -> float:
    """Theoretical contraction factor 2(alpha+1) M^alpha I(T)."""
    return 2.0 * (spec.alpha + 1.0) * M ** spec.alpha \
        * alpha_time_integral(spec, T)


def lipschitz_bound(spec: SectorSpec, M: float, T: float) -> float:
    """Data-to-solution Lipschitz constant 1/(1 - contraction factor)."""
    q = contraction_bound(spec, M, T)
    if q >= 1.0:
        raise ValueError("constants not admissible: contraction factor >= 1")
    return 1.0 / (1.0 - q)


def graded_mesh(spec: SectorSpec, T: float, J: int) -> np.ndarray:
    """Nodes s_j = T (j/J)^p clustering at 0, graded so the sigma^{-beta}
    Duhamel singularity (beta = alpha(gamma+m)/2) contributes uniform error
    per cell."""
    p = 2.0 / (2.0 - spec.alpha * spec.decay)
    j = np.arange(1, J + 1, dtype=float)
    return T * (j / J) ** p


def duhamel_weights(spec: SectorSpec, mesh: np.ndarray, i: int) -> np.ndarray:
    """Product-integration weights for int_0^{s_i} g(sigma) dsigma with
    g ~ sigma^{-beta} * smooth, sampled at s_1..s_i: on each cell the
    integrand is modeled as its node value times (sigma/s_j)^{-beta}."""
    beta = spec.alpha * spec.decay / 2.0
    s = mesh[:i + 1]
    edges = np.empty(i + 2)
    edges[0] = 0.0
    edges[1:i + 1] = 0.5 * (s[:-1] + s[1:])
    edges[i + 1] = s[i]
    lo, hi = edges[:-1], edges[1:]
    return s ** beta * (hi ** (1.0 - beta) - lo ** (1.0 - beta)) / (1.0 - beta)


def _nonlinear_values(spec: SectorSpec, values: np.ndarray) -> np.ndarray:
    return np.abs(values) ** spec.alpha * values


def solve_picard(profile, plan: KernelPlan, K: float | None = None,
                 J: int = 12, until: float | None = None) -> PicardRun:
    """Iterate the Duhamel map to its fixed point inside the ball |||u||| <= M.

    The plan is the run: its spec sets the equation (alpha, the sign a,
    Psi) and its grid the slices.  Non-contraction (an increment ratio
    >= 1) aborts: the constants guarantee contraction, so that can only
    mean the discrete Duhamel sum has failed.

    Node i's Duhamel term is a sum_{j<=i} w_j P(s_i - s_j) |u_j|^alpha u_j,
    P the grid's spectral propagator (Dirichlet at the outer box).  The
    weight w_j of j < i is the same at every node i and P is a semigroup,
    so the history over j < i moves from node to node by one propagator
    per consecutive gap, built once per solve.

    With ``until`` set, only the prefix of the J-node mesh up to the first
    node >= until (or the whole mesh, if none is) is solved.  The map is
    causal (slice i reads slices j <= i), so each sweep computes on the
    prefix exactly what the full sweep computes there; the increments, and
    so when the iteration stops, are taken over the solved slices.  K, M
    and T stay the full certificate's.
    """
    check_profile_spec(profile, plan)
    spec, grid = plan.spec, plan.grid
    if K is None:
        K = profile.x_norm()
    M, T = admissible_constants(spec, K)
    mesh = graded_mesh(spec, T, J)
    if until is not None:
        mesh = mesh[:min(int(np.searchsorted(mesh, until)), J - 1) + 1]
    config = PicardConfig(K=K, M=M, T=T, mesh=mesh)

    _check_psi_grid(grid, spec.m)
    pts = grid.points()
    psi_slices = [psi_values(spec, s, pts) for s in mesh]
    if isinstance(profile, Psi0Profile):
        # data A*psi0: e^{sD}(A psi0) = A Psi(s), so the linear part
        # is the closed form with no quadrature
        lin = [profile.amplitude * p for p in psi_slices]
    else:
        data = field_from_profile(spec, grid, profile)
        lin = [apply_kernel(plan, s, data).values for s in mesh]
    weights = [duhamel_weights(spec, mesh, i) for i in range(len(mesh))]
    steps = [_propagators(grid, g) for g in np.diff(mesh)]

    def xnorm(deltas):
        return max(float(np.max(np.abs(d) / p))
                   for d, p in zip(deltas, psi_slices))

    u = [v.copy() for v in lin]
    increments: list[float] = []
    ratios: list[float] = []
    converged = False
    for sweep in range(MAX_ITER):
        nl = [_nonlinear_values(spec, v) for v in u]
        new = []
        history = np.zeros_like(nl[0])
        for i in range(len(mesh)):
            w = weights[i]
            if i:
                history = _contract(steps[i - 1],
                                    history + w[i - 1] * nl[i - 1])
            new.append(lin[i] + spec.sign_a * (w[i] * nl[i] + history))
        inc = xnorm([a - b for a, b in zip(new, u)])
        if not np.isfinite(inc):
            raise ValueError(f"Picard sweep {sweep + 1}: increment {inc} is "
                             "not finite")
        if increments and increments[-1] > 0.0:
            r = inc / increments[-1]
            ratios.append(r)
            if r >= 1.0:
                raise RuntimeError(
                    f"Picard iteration not contracting (ratio {r:.3f}); "
                    "the graded mesh is too coarse for its Duhamel sum")
        increments.append(inc)
        u = new
        if inc < TOL:
            converged = True
            break

    slices = [Field(spec, grid, v) for v in u]
    return PicardRun(config=config, slices=slices, increments=increments,
                     ratios=ratios, xt_norm=xnorm(u), converged=converged,
                     psi_slices=psi_slices)


def lipschitz_check(run1: PicardRun, run2: PicardRun,
                    x_distance: float) -> float:
    """Ratio |||u1 - u2||| / ||psi1 - psi2||_X; the caller supplies the data
    distance (see data_x_distance).  Coinciding data are rejected."""
    c1, c2 = run1.config, run2.config
    if c1.mesh.shape != c2.mesh.shape or not np.allclose(c1.mesh, c2.mesh):
        raise ValueError("runs must share a time mesh")
    if not x_distance > 0.0:
        raise ValueError("data coincide: Lipschitz ratio undefined")
    num = max(float(np.max(np.abs(a.values - b.values) / p))
              for a, b, p in zip(run1.slices, run2.slices, run1.psi_slices))
    return num / x_distance


def data_x_distance(spec: SectorSpec, grid: GridSpec, p1, p2) -> float:
    """Grid X-norm of the data difference, sup |p1 - p2| / psi0."""
    from .profiles import eval_psi0
    pts = grid.points()
    return float(np.max(np.abs(p1(pts) - p2(pts)) / eval_psi0(spec, pts)))
