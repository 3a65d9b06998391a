"""Generation, normalization and pruning of the two cut layers.

A cut linearizes h at an anchor point, so it is one row ``w . p <= c`` over the
flat point p, in the block order of ``core.point_shapes``.  ``Cut`` and
``Polytope`` are defined in ``core``, where the unrolls can read them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import LAYER_I, LAYER_II, Array, Cut, FedtriError, Polytope, flat_point
from .core import point_alphas, point_shapes
from .inner import UnrollTrace, eval_h, grad_h


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

