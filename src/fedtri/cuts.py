"""Generation, storage, validity checking and pruning of the two cut layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import Array, FedtriError, NonFiniteError
from .inner import FlatH, UnrollTrace, eval_h1, eval_h2, grad_h, rerun_estimate

LAYER_I = "I"
LAYER_II = "II"


@dataclass(frozen=True)
class Cut:
    """One linear inequality ``a . z + b . x <= c``.

    Layer-I cuts carry coefficients for (z1, z2', z3) and the per-worker x3
    blocks; layer-II cuts additionally carry per-worker x2 blocks.  The
    generators return the raw linearization of h; ``run`` stores each cut
    rescaled by ``normalize_cut`` to ``||(a, b)|| = 1``.  That is a
    reformulation of the raw cut: the half-space is the same,
    a stored cut's residual is a signed distance along its unit normal, and
    its dual is measured per unit of that distance.
    """

    layer: str
    a1: Array
    a2: Array
    a3: Array
    b3: tuple[Array, ...]
    c: float
    id: int
    born_at: int
    b2: Optional[tuple[Array, ...]] = None

    def __post_init__(self):
        if self.layer not in (LAYER_I, LAYER_II):
            raise ValueError(f"unknown layer {self.layer!r}")
        if self.layer == LAYER_II and self.b2 is None:
            raise ValueError("layer-II cuts need x2 coefficients")
        arrays = [self.a1, self.a2, self.a3, *self.b3, *(self.b2 or ())]
        if not all(np.all(np.isfinite(a)) for a in arrays) or not np.isfinite(self.c):
            raise NonFiniteError("cut coefficients must be finite")

    def lhs(self, x3: Sequence[Array], z1: Array, z2: Array, z3: Array,
            x2: Optional[Sequence[Array]] = None) -> float:
        val = float(self.a1 @ z1) + float(self.a2 @ z2) + float(self.a3 @ z3)
        val += sum(float(bj @ xj) for bj, xj in zip(self.b3, x3))
        if self.layer == LAYER_II:
            if x2 is None:
                raise ValueError("layer-II cuts need the x2 blocks")
            val += sum(float(bj @ xj) for bj, xj in zip(self.b2, x2))
        return val


def cut_violation(cut: Cut, x3: Sequence[Array], z1: Array, z2: Array, z3: Array,
                  x2: Optional[Sequence[Array]] = None) -> float:
    """Constraint residual ``(a . z + b . x) - c``; nonpositive means satisfied."""
    return cut.lhs(x3, z1, z2, z3, x2=x2) - cut.c


@dataclass(frozen=True)
class Polytope:
    layer: str
    cuts: tuple[Cut, ...] = ()

    def __post_init__(self):
        ids = [c.id for c in self.cuts]
        if len(set(ids)) != len(ids):
            raise ValueError("cut ids must be unique")
        if any(c.layer != self.layer for c in self.cuts):
            raise ValueError("all cuts must share the polytope's layer")

    def __len__(self) -> int:
        return len(self.cuts)

    @property
    def size(self) -> int:
        return len(self.cuts)

    def ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.cuts)

    def contains(self, x3, z1, z2, z3, x2=None, tol: float = 0.0) -> bool:
        return all(cut_violation(c, x3, z1, z2, z3, x2=x2) <= tol for c in self.cuts)


def _ball_norms_sq(arrays) -> float:
    return sum(float(np.asarray(a) @ np.asarray(a)) for a in arrays)


def normalize_cut(cut: Cut) -> Cut:
    """The same half-space written with ``||(a, b)|| = 1``.

    Dividing both sides by the coefficient norm leaves the feasible set as it
    is and only rescales the cut's dual: a residual becomes a distance along
    the unit normal.  A cut with all-zero coefficients is returned unchanged.
    """
    arrays = [cut.a1, cut.a2, cut.a3, *cut.b3, *(cut.b2 or ())]
    nrm = np.sqrt(_ball_norms_sq(arrays))
    if nrm == 0.0:
        return cut
    return Cut(
        layer=cut.layer, a1=cut.a1 / nrm, a2=cut.a2 / nrm, a3=cut.a3 / nrm,
        b3=tuple(b / nrm for b in cut.b3),
        b2=None if cut.b2 is None else tuple(b / nrm for b in cut.b2),
        c=cut.c / nrm, id=cut.id, born_at=cut.born_at,
    )


def add_cut(poly: Polytope, cut: Cut) -> Polytope:
    if cut.layer != poly.layer:
        raise FedtriError(f"cannot add a layer-{cut.layer} cut to a layer-{poly.layer} polytope")
    return Polytope(layer=poly.layer, cuts=poly.cuts + (cut,))


def drop_inactive(
    poly1: Polytope,
    gamma_K: Array,
    poly2: Polytope,
    lambdas: Array,
    tol: float = 1e-10,
    protect2: Sequence[int] = (),
) -> tuple[Polytope, Polytope]:
    """Remove cuts whose associated duals are (numerically) zero.

    Layer-I cuts are judged by the final inner duals of the latest level-2
    unroll, layer-II cuts by the current outer duals.  ``protect2`` lists
    layer-II cut ids exempt from pruning (a cut added in the current
    refinement has no outer dual yet).  Retained cuts keep their order.
    ``tol`` is in the duals' own units: for the unit-normalized cuts ``run``
    stores, a dual is the objective's rate of change per unit distance along
    the cut normal.
    """
    gamma_K = np.asarray(gamma_K, float)
    lambdas = np.asarray(lambdas, float)
    if gamma_K.shape != (poly1.size,):
        raise ValueError("gamma_K length must match the layer-I polytope")
    if lambdas.shape != (poly2.size,):
        raise ValueError("lambdas length must match the layer-II polytope")
    keep1 = tuple(c for c, g in zip(poly1.cuts, gamma_K) if abs(g) > tol)
    protected = set(protect2)
    keep2 = tuple(
        c for c, l in zip(poly2.cuts, lambdas) if abs(l) > tol or c.id in protected
    )
    return Polytope(layer=LAYER_I, cuts=keep1), Polytope(layer=LAYER_II, cuts=keep2)


def _linearization_cut(trace: UnrollTrace, layer: str, point, mu: float, eps: float,
                       ball: float, grad_mode: str, cut_id: int, born_at: int) -> Cut:
    """First-order expansion of h at ``point``, relaxed by eps plus mu times the inflation.

    ``ball`` is the alpha part of the inflation; the squared norms of the
    point's blocks are added to it.  The point's per-worker block lists come
    first and z1, z2, z3 last, in the order of ``trace.point_blocks``.
    """
    h0 = (eval_h1 if layer == LAYER_I else eval_h2)(trace, point[0], point[3])
    grads = [grad_h(trace, w, point, mode=grad_mode) for w in trace.point_blocks]
    N = trace.problem.dims.N
    lists = point[:-3]
    g_lists = [grads[i * N:(i + 1) * N] for i in range(len(lists))]
    g_z1, g_z2, g_z3 = grads[-3:]
    z1, z2, z3 = point[-3:]
    inflation = ball
    for xs in lists:
        inflation += _ball_norms_sq(xs)
    inflation += _ball_norms_sq([z1, z2, z3])
    anchor_dot = (
        sum(sum(float(g @ np.asarray(v, float)) for g, v in zip(gs, xs))
            for gs, xs in zip(g_lists, lists))
        + float(g_z1 @ z1) + float(g_z2 @ z2) + float(g_z3 @ z3)
    )
    c = eps + mu * inflation - h0 + anchor_dot
    return Cut(
        layer=layer, a1=g_z1, a2=g_z2, a3=g_z3, b3=tuple(g_lists[-1]),
        b2=tuple(g_lists[0]) if layer == LAYER_II else None,
        c=float(c), id=cut_id, born_at=born_at,
    )


def generate_cut_I(
    trace: UnrollTrace,
    point,
    mu: float,
    eps1: float,
    alphas: tuple[float, float, float],
    grad_mode: str = "finite-diff",
    cut_id: int = 0,
    born_at: int = 0,
) -> Cut:
    """Linearization cut of h_I at ``point = ({x3_j}, z1, z2', z3)``.

    The left side is the first-order expansion of h_I around the point; the
    right side relaxes by eps1 plus the weak-convexity inflation
    ``mu ((N+1) a1 + a2 + a3 + sum_j ||x3_j||^2 + ||z1||^2 + ||z2'||^2 + ||z3||^2)``.
    Rearranged into ``a . z + b . x <= c`` form.
    """
    a1, a2, a3 = alphas
    ball = (trace.problem.dims.N + 1) * a1 + a2 + a3
    return _linearization_cut(trace, LAYER_I, point, mu, eps1, ball, grad_mode, cut_id, born_at)


def generate_cut_II(
    trace: UnrollTrace,
    point,
    mu: float,
    eps2: float,
    alphas: tuple[float, float, float],
    grad_mode: str = "finite-diff",
    cut_id: int = 0,
    born_at: int = 0,
) -> Cut:
    """Linearization cut of h_II at ``point = ({x2_j}, {x3_j}, z1, z2, z3)``.

    Same construction as the layer-I cut with inflation
    ``mu (a1 + (N+1)(a2 + a3) + sum_{i=2,3} sum_j ||x_ij||^2 + sum_i ||z_i||^2)``.
    """
    a1, a2, a3 = alphas
    ball = a1 + (trace.problem.dims.N + 1) * (a2 + a3)
    return _linearization_cut(trace, LAYER_II, point, mu, eps2, ball, grad_mode, cut_id, born_at)


@dataclass(frozen=True)
class CutValidationReport:
    violations: int
    max_violation: float
    samples_checked: int
    draws: int
    inconclusive: bool


def _sample_ball(rng: np.random.Generator, dim: int, radius_sq: float) -> Array:
    if dim == 0:
        return np.zeros(0)
    v = rng.standard_normal(dim)
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        return np.zeros(dim)
    r = np.sqrt(radius_sq) * rng.random() ** (1.0 / dim)
    return v * (r / nrm)


def validate_cut(
    cut: Cut,
    h: FlatH,
    eps: float,
    n_samples: int,
    seed: int,
    alphas: tuple[float, float, float],
    tol: float = 1e-9,
    max_draws: int = 10**6,
) -> CutValidationReport:
    """Sample points with ``h <= eps`` inside the bound balls and count cut violations.

    Proposals put the free blocks uniformly in their balls and the dependent
    blocks inside the sqrt(eps)-tube around the re-run estimate; every
    proposal is still rejected unless it actually satisfies ``h <= eps`` and
    the per-block bounds.  A valid cut admits zero violations.
    """
    rng = np.random.default_rng(seed)
    d = h.trace.problem.dims
    N = d.N
    a1, a2, a3 = alphas
    layer1 = h.trace.layer == "I"

    accepted = 0
    draws = 0
    violations = 0
    max_violation = -np.inf
    while accepted < n_samples and draws < max_draws:
        draws += 1
        if layer1:
            z1 = _sample_ball(rng, d.d1, a1)
            z2p = _sample_ball(rng, d.d2, a2)
            x_hat, z_hat = rerun_estimate(h.trace, z1=z1, z2p=z2p)
            dev = _sample_ball(rng, N * d.d3 + d.d3, eps)
            x3 = [x_hat[j] + dev[j * d.d3:(j + 1) * d.d3] for j in range(N)]
            z3 = z_hat + dev[N * d.d3:]
            if any(float(x @ x) > a3 for x in x3) or float(z3 @ z3) > a3:
                continue
            v = h.pack(x3, z1, z2p, z3)
        else:
            z1 = _sample_ball(rng, d.d1, a1)
            z3 = _sample_ball(rng, d.d3, a3)
            x3 = [_sample_ball(rng, d.d3, a3) for _ in range(N)]
            x_hat, z_hat = rerun_estimate(h.trace, z1=z1, z3=z3, x3=tuple(x3))
            dev = _sample_ball(rng, N * d.d2 + d.d2, eps)
            x2 = [x_hat[j] + dev[j * d.d2:(j + 1) * d.d2] for j in range(N)]
            z2 = z_hat + dev[N * d.d2:]
            if any(float(x @ x) > a2 for x in x2) or float(z2 @ z2) > a2:
                continue
            v = h.pack(x2, x3, z1, z2, z3)
        if h.fn(v) > eps:
            continue
        accepted += 1
        if layer1:
            resid = cut_violation(cut, x3, z1, z2p, z3)
        else:
            resid = cut_violation(cut, x3, z1, z2, z3, x2=x2)
        max_violation = max(max_violation, resid)
        if resid > tol:
            violations += 1

    return CutValidationReport(
        violations=violations,
        max_violation=float(max_violation) if accepted else float("nan"),
        samples_checked=accepted,
        draws=draws,
        inconclusive=accepted < n_samples,
    )
