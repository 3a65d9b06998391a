"""Generation, normalization and pruning of the two cut layers.

A cut linearizes h at an anchor state, so it is one row ``w . [Z | X.ravel()] <= c``
over the outer state, ``PrimalState.row``, on both layers: the generators
return ``(w, c)`` and a ``Polytope`` (defined in ``core``, where the unrolls
read it) stacks the rows.  A layer reads Z and X's columns from its unrolled
block on (x3 for layer I, x2 and x3 for layer II); the others are zero in w.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Array, Polytope, PrimalState
from .inner import UnrollTrace, eval_h, grad_h


def normalize_cut(w: Array, c: float) -> tuple[Array, float]:
    """The same half-space ``w . row <= c`` written with ``||w|| = 1``.

    Dividing both sides by the row's norm leaves the feasible set as it is and
    only rescales the cut's dual: a residual becomes a distance along the unit
    normal.  An all-zero row is returned unchanged.
    """
    nrm = np.sqrt(w @ w)
    return (w, c) if nrm == 0.0 else (w / nrm, c / nrm)


def drop_inactive(
    poly1: Polytope,
    gamma_K: Array,
    poly2: Polytope,
    lambdas: Array,
    tol: float = 1e-10,
    protect2: Sequence[int] = (),
) -> tuple[Array, Array]:
    """The (L,) keep masks of both polytopes: the cuts whose duals are not (numerically) zero.

    Layer-I cuts are judged by the final inner duals of the latest level-2
    unroll, layer-II cuts by the current outer duals.  ``protect2`` lists
    layer-II cut ids exempt from pruning (a cut added in the current
    refinement has no outer dual yet).  ``Polytope.keep`` applies a mask.
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
    protected = np.array([i in protect2 for i in poly2.ids], bool)
    return np.abs(gamma_K) > tol, (np.abs(lambdas) > tol) | protected


def _linearization_cut(trace: UnrollTrace, state: PrimalState, eps: float) -> tuple[Array, float]:
    """First-order expansion of h at ``state``, relaxed by eps plus mu times the inflation.

    The inflation is the squared norm of the layer's point, Z and X's columns
    from the unrolled block l on, plus its alpha ball: every row of every
    block brings that block's alpha, so Z brings a1 + a2 + a3 and each worker
    the alphas of blocks l..3.  mu and the alphas are the trace's problem's.
    The row is ``grad_h`` at the state, laid out like ``PrimalState.row``.
    """
    p, lv = trace.problem, trace.level
    d, mu, alphas = p.dims, p.weak_convexity_mu, p.alphas
    X = state.X[:, d.columns(lv).start:]
    ball = sum(alphas) + d.N * sum(alphas[lv - 1:])
    gZ, gX = grad_h(trace, state)
    w = np.concatenate((gZ, gX.ravel()))
    c = (eps + mu * (ball + state.Z @ state.Z + np.vdot(X, X)) - eval_h(trace, state)
         + w @ state.row())
    return w, float(c)


def generate_cut_I(trace: UnrollTrace, state: PrimalState) -> tuple[Array, float]:
    """Linearization cut of h_I at the layer-I point of ``state``: Z = (z1, z2', z3) and x3.

    The left side is the first-order expansion of h_I around the state; the
    right side relaxes by the trace's ``cfg.eps1`` plus the weak-convexity inflation
    ``mu (a1 + a2 + (N+1) a3 + ||z1||^2 + ||z2'||^2 + ||z3||^2 + sum_j ||x3_j||^2)``,
    one alpha for each row of each block, mu and the alphas being the trace's
    problem's (see ``_linearization_cut``).
    Rearranged into ``w . [Z | X.ravel()] <= c`` form, w being ``grad_h`` at
    the state, zero on the x1 and x2 columns.
    """
    return _linearization_cut(trace, state, trace.cfg.eps1)


def generate_cut_II(trace: UnrollTrace, state: PrimalState) -> tuple[Array, float]:
    """Linearization cut of h_II at the layer-II point of ``state``: Z = (z1, z2, z3), x2 and x3.

    Same construction at the trace's ``cfg.eps2``; the layer-I alpha rule gives the inflation
    ``mu (a1 + (N+1)(a2 + a3) + sum_i ||z_i||^2 + sum_{i=2,3} sum_j ||x_ij||^2)``.
    The row is zero on the x1 columns.
    """
    return _linearization_cut(trace, state, trace.cfg.eps2)
