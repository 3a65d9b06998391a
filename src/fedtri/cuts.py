"""Generation, normalization, validity checking and pruning of the two cut layers.

A cut linearizes h at an anchor point, so it is one row ``w . p <= c`` over the
flat point p, in the block order of ``core.point_shapes``.  ``Cut`` and
``Polytope`` are defined in ``core``, where the unrolls can read them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import LAYER_I, LAYER_II, Array, Cut, FedtriError, Polytope, flat_point
from .core import point_alphas, point_names, point_shapes
from .inner import UnrollTrace, eval_h, grad_h, rerun


def normalize_cut(cut: Cut) -> Cut:
    """The same half-space written with ``||w|| = 1``.

    Dividing both sides by the row's norm leaves the feasible set as it is and
    only rescales the cut's dual: a residual becomes a distance along the unit
    normal.  A cut with an all-zero row is returned unchanged.
    """
    nrm = np.sqrt(cut.w @ cut.w)
    if nrm == 0.0:
        return cut
    return replace(cut, w=cut.w / nrm, c=cut.c / nrm)


def add_cut(poly: Polytope, cut: Cut) -> Polytope:
    if cut.layer != poly.layer:
        raise FedtriError(f"cannot add a layer-{cut.layer} cut to a layer-{poly.layer} polytope")
    return Polytope(poly.layer, poly.dims, poly.cuts + (cut,))


def drop_inactive(
    poly1: Polytope,
    gamma_K: Array,
    poly2: Polytope,
    lambdas: Array,
    tol: float = 1e-10,
    protect2: Sequence[int] = (),
) -> tuple[Polytope, Polytope]:
    """Keep the cuts whose associated duals are not (numerically) zero.

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
    keep1 = np.abs(gamma_K) > tol
    keep2 = (np.abs(lambdas) > tol) | np.isin(poly2.ids(), protect2)
    return tuple(
        Polytope(poly.layer, poly.dims, tuple(c for c, kept in zip(poly.cuts, keep) if kept))
        for poly, keep in ((poly1, keep1), (poly2, keep2))
    )


def _linearization_cut(trace: UnrollTrace, layer: str, point, mu: float, eps: float,
                       alphas: tuple[float, float, float], cut_id: int) -> Cut:
    """First-order expansion of h at ``point``, relaxed by eps plus mu times the inflation.

    The inflation is the point's squared norm plus its alpha ball: every row
    of every block brings that block's alpha (``point_alphas``).  The row is
    ``grad_h`` at the point, in the point's order.
    """
    ball = sum(a * int(np.prod(shape[:-1])) for a, shape in
               zip(point_alphas(layer, alphas), point_shapes(layer, trace.problem.dims)))
    p = flat_point(*point)
    w = flat_point(*grad_h(trace, point))
    c = eps + mu * (ball + p @ p) - eval_h(trace, point) + w @ p
    return Cut(layer=layer, w=w, c=float(c), id=cut_id)


def generate_cut_I(
    trace: UnrollTrace,
    point,
    mu: float,
    eps1: float,
    alphas: tuple[float, float, float],
    cut_id: int = 0,
) -> Cut:
    """Linearization cut of h_I at ``point = (z1, z2', z3, x3)``, x3 one row per worker.

    The left side is the first-order expansion of h_I around the point; the
    right side relaxes by eps1 plus the weak-convexity inflation
    ``mu (a1 + a2 + (N+1) a3 + ||z1||^2 + ||z2'||^2 + ||z3||^2 + sum_j ||x3_j||^2)``,
    one alpha for each row of each block (see ``_linearization_cut``).
    Rearranged into ``w . p <= c`` form, w being ``grad_h`` at the point.
    """
    return _linearization_cut(trace, LAYER_I, point, mu, eps1, alphas, cut_id)


def generate_cut_II(
    trace: UnrollTrace,
    point,
    mu: float,
    eps2: float,
    alphas: tuple[float, float, float],
    cut_id: int = 0,
) -> Cut:
    """Linearization cut of h_II at ``point = (z1, z2, z3, x3, x2)``, x3 and x2 one row per worker.

    Same construction as the layer-I cut, whose alpha rule gives the inflation
    ``mu (a1 + (N+1)(a2 + a3) + sum_i ||z_i||^2 + sum_{i=2,3} sum_j ||x_ij||^2)``.
    """
    return _linearization_cut(trace, LAYER_II, point, mu, eps2, alphas, cut_id)


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
    trace: UnrollTrace,
    eps: float,
    n_samples: int,
    seed: int,
    alphas: tuple[float, float, float],
    tol: float = 1e-9,
    max_draws: int = 10**6,
) -> CutValidationReport:
    """Sample points with the trace's ``h <= eps`` inside the bound balls and count cut violations.

    The same sampler serves both layers.  Each proposal first puts the
    trace's frozen inputs uniformly in their balls, row by row, then its own
    (x, z) blocks inside the sqrt(eps)-tube around the re-run estimate; every
    proposal is still rejected unless it actually satisfies ``h <= eps`` and
    the own blocks' bounds.  A valid cut admits zero violations.
    """
    rng = np.random.default_rng(seed)
    poly = Polytope(cut.layer, trace.problem.dims, (cut,))
    keys = point_names(trace.layer)
    balls = dict(zip(keys, zip(point_shapes(trace.layer, trace.problem.dims),
                               point_alphas(trace.layer, alphas))))
    (x_shape, own_alpha), (z_shape, _) = balls["x"], balls["z"]
    nx = int(np.prod(x_shape))

    accepted = 0
    draws = 0
    violations = 0
    max_violation = -np.inf
    while accepted < n_samples and draws < max_draws:
        draws += 1
        point = {}
        for key in trace.inputs:
            shape, a = balls[key]
            rows = [_sample_ball(rng, shape[-1], a) for _ in range(int(np.prod(shape[:-1])))]
            point[key] = np.reshape(rows, shape)
        sub = rerun(trace, **point)
        x_hat, z_hat = sub.estimate
        dev = _sample_ball(rng, nx + z_shape[0], eps)
        point["x"] = x_hat + dev[:nx].reshape(x_shape)
        point["z"] = z_hat + dev[nx:]
        if any(float(r @ r) > own_alpha for r in (*point["x"], point["z"])):
            continue
        blocks = tuple(point[key] for key in keys)
        if eval_h(sub, blocks) > eps:
            continue
        accepted += 1
        resid = float(poly.residuals(*blocks)[0])
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
