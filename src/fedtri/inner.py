"""K-round distributed augmented-Lagrangian unrolls for the two lower levels.

Each solver runs K master/worker exchange rounds in process, in one loop for
both levels, and records the full update path.  The final round is the argmin
estimate; the constraint functions measure squared deviation from it and are
differentiated by one backward (adjoint) sweep over the recorded rounds when
the problem has second derivatives, and otherwise by re-running the unroll at
perturbed frozen inputs (finite differences).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Array, FedtriError, Polytope, PrimalState, TrilevelProblem
from .core import check_real, finite_diff_grad, store_ints


class InnerSolverError(FedtriError):
    pass


@dataclass(frozen=True)
class InnerConfig:
    """Rounds, step sizes, consensus penalty ``kappa`` and relaxation tolerances of both unrolls."""

    K: int = 20
    eta_x: float = 0.05
    eta_z: float = 0.05
    eta_phi: float = 0.05
    kappa: float = 1.0
    eps1: float = 1e-2
    eps2: float = 1e-2
    warm_start: bool = False

    def __post_init__(self):
        store_ints(self, "K")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        # Step sizes may be zero (degenerate fixed-point mode); the penalty and
        # relaxation tolerances must be strictly positive.
        for name in ("eta_x", "eta_z", "eta_phi"):
            check_real(name, getattr(self, name))
        for name in ("kappa", "eps1", "eps2"):
            check_real(name, getattr(self, name), strict=True)


@dataclass(frozen=True, eq=False)
class UnrollTrace:
    """Recorded K-round update path and the constants it ran with; immutable once returned.

    ``level`` is the unrolled level: 3 for a layer-I trace (from
    solve_level3), 2 for a layer-II one (from solve_level2).  ``anchor`` is a
    read-only copy of the outer state the unroll froze its inputs from: Z's
    z1 and z2 at level 3; Z's z1 and z3 and X's x3 at level 2.  The path is
    stored round-major: ``x`` and ``phi`` are (K+1, N, d), ``z`` is (K+1, d),
    and the slacks ``s`` and inner duals ``gamma`` of the layer-I cuts frozen
    into the unroll are (K+1, L).  ``poly1`` holds those cuts, ``r0`` (L,)
    their residuals at the anchor with a zero z2, and ``steps`` the unroll's
    ``(kappa, eta_z, eta_gamma)``.  A layer-I trace freezes no cuts: L = 0.
    """

    level: int
    problem: TrilevelProblem
    cfg: InnerConfig
    anchor: PrimalState
    poly1: Polytope
    r0: Array
    steps: tuple[float, float, float]
    x: Array
    z: Array
    phi: Array
    s: Array
    gamma: Array

    def __post_init__(self):
        if any(len(a) != self.cfg.K + 1 for a in (self.x, self.z, self.phi, self.s, self.gamma)):
            raise ValueError("trace must hold exactly K+1 rounds")

    @property
    def estimate(self) -> tuple[Array, Array]:
        return self.x[-1], self.z[-1]

    @property
    def gamma_K(self) -> Array:
        """The final inner duals, one per frozen layer-I cut."""
        return self.gamma[-1]


def _path_buffer(K: int, N: int, d: int, L: int):
    """A zeroed (K+1, 2Nd + d + 2L) buffer and its x, z, phi, s, gamma views.

    Each round's iterates share one contiguous row, so one ``isfinite`` call
    checks them all.
    """
    nd = N * d
    buf = np.zeros((K + 1, 2 * nd + d + 2 * L))
    x = buf[:, :nd].reshape(K + 1, N, d)
    phi = buf[:, nd:2 * nd].reshape(K + 1, N, d)
    z = buf[:, 2 * nd:2 * nd + d]
    s = buf[:, 2 * nd + d:2 * nd + d + L]
    gamma = buf[:, 2 * nd + d + L:]
    return buf, x, z, phi, s, gamma


def _level_rows(oracle, level: int, anchor: PrimalState):
    """The unrolled level's rows of ``oracle(level, V)`` as a function of the iterate alone.

    The frozen inputs fill one (N, D) array once: the anchor's X with the
    columns before block ``level`` taken from its Z (z3 reaches the level-2
    unroll only through the cuts); each call writes the iterate into a copy of it.
    """
    own = anchor.dims.columns(level)
    base = anchor.X.copy()
    base[:, :own.start] = anchor.Z[:own.start]

    def rows(x):
        V = base.copy()
        V[:, own] = x
        return oracle(level, V)[:, own]
    return rows


def _unroll(problem, level, anchor, poly1, r0, steps, init, cfg) -> UnrollTrace:
    """Run K primal/slack/dual rounds from ``init`` and record the path with its constants.

    ``init`` is ``(x, z, phi, s, gamma)`` or a prefix of it; a missing or
    None block starts at zero.  The L layer-I cuts of a level-2 unroll are
    slack-equipped unit penalties on z2 with residual ``r0 + A2 z2`` (L = 0 at level
    3); each round hands that residual and its deviation ``x - z`` to the next.
    """
    d = problem.dims
    buf, x, z, phi, s, gamma = _path_buffer(cfg.K, d.N, d.block(level), len(r0))
    if init is not None and len(init) > 5:
        raise ValueError(f"init has {len(init)} blocks, expected at most 5 (x, z, phi, s, gamma)")
    for path, value, what in zip((x, z, phi, s, gamma), init or (),
                                 ("x", "z", "phi", "slack", "gamma")):
        if value is None:
            continue
        if np.shape(value) != path.shape[1:]:
            raise ValueError(f"initial {what} has shape {np.shape(value)}, "
                             f"expected {path.shape[1:]}")
        path[0] = value
    grad, a2s, a2t = _level_rows(problem.grad_all, level, anchor), poly1.A2, poly1.A2.T
    (kappa, eta_z, eta_gamma), L = steps, len(r0)
    eta_x, eta_phi = cfg.eta_x, cfg.eta_phi  # the constants every round reads, bound once
    rows = zip(x, z, phi, s, gamma, buf)  # every round's row views, in order
    xk, zk, pk, sk, gk, _ = next(rows)
    dev = xk - zk
    if L:  # the shifted residual r0 + A2 z2 + s, which the dual step forms for the next round
        shifted = (r0 + a2s @ zk) + sk
    for k, (x1, z1, p1, s1, g1, b1) in zip(range(cfg.K), rows):
        pull = kappa * dev
        gx = (grad(xk) + pk) + pull
        gz = -np.add.reduce(pk + pull, axis=0)
        if L:
            gz += a2t @ (gk + shifted)
        np.subtract(xk, eta_x * gx, out=x1)
        np.subtract(zk, eta_z * gz, out=z1)
        if L:
            resid = r0 + a2s @ z1
            np.maximum(0.0, -resid - gk, out=s1)
            shifted = resid + s1
            np.maximum(0.0, gk + eta_gamma * shifted, out=g1)
        dev = x1 - z1
        np.add(pk, eta_phi * dev, out=p1)
        if not np.logical_and.reduce(np.isfinite(b1)):
            raise InnerSolverError(f"non-finite level-{level} iterate at round {k}")
        xk, zk, pk, gk = x1, z1, p1, g1
    return UnrollTrace(level, problem, cfg, anchor, poly1, r0, steps, x, z, phi, s, gamma)


# The empty layer-I polytope a level-3 unroll freezes, built once per ``Dims``.
_no_cuts = lru_cache(Polytope)


def _checked(problem: TrilevelProblem, state: PrimalState) -> PrimalState:
    """``state``, or ``ValueError`` if its X and Z are not (N, D) and (D,) for ``problem``."""
    d = problem.dims
    if np.shape(state.X) != (d.N, d.width) or np.shape(state.Z) != (d.width,):
        raise ValueError("state dimensions do not match problem dims")
    return state


def _anchor(problem: TrilevelProblem, state: PrimalState) -> PrimalState:
    """A read-only float copy of ``state``, the frozen inputs of an unroll."""
    _checked(problem, state)
    X, Z = np.array(state.X, float), np.array(state.Z, float)
    X.flags.writeable = Z.flags.writeable = False
    return PrimalState(problem.dims, X, Z)


def solve_level3(problem: TrilevelProblem, state: PrimalState, init=None,
                 cfg: InnerConfig = InnerConfig()) -> UnrollTrace:
    """Unroll K rounds of the third-level consensus solve at the z1 and z2 of ``state.Z``."""
    return _unroll(problem, 3, _anchor(problem, state), _no_cuts(problem.dims),
                   np.zeros(0), (cfg.kappa, cfg.eta_z, 0.0), init, cfg)


def level2_steps(cfg: InnerConfig, poly1: Polytope, N: int) -> tuple[float, float]:
    """Effective (eta_z, gamma step) for the level-2 unroll.

    The cuts enter at unit penalty, so the z2-curvature of the penalized
    Lagrangian is ``N * kappa`` plus the cut steepness ``sum_l ||a2_l||^2``;
    the configured steps are damped so the unroll stays stable for any
    polytope.  The gamma step is at most 1, the method-of-multipliers step, so
    a dual cannot overshoot below zero.  Both are a pure function of (cfg, poly1).
    """
    steep = float((poly1.A2 * poly1.A2).sum())
    eta_z = min(cfg.eta_z, 1.5 / (N * cfg.kappa + steep))
    eta_gamma = min(cfg.eta_phi, 1.0, 1.5 / (1.0 + steep))
    return eta_z, eta_gamma


def solve_level2(problem: TrilevelProblem, state: PrimalState, poly1: Polytope, init=None,
                 cfg: InnerConfig = InnerConfig()) -> UnrollTrace:
    """Unroll K rounds of the second-level solve at z1, z3 of ``state.Z`` and x3 of ``state.X``.

    The layer-I cuts enter through slack-equipped inequality penalty terms;
    their inner duals ``gamma`` are clamped nonnegative every round and the
    final values are reported for cut pruning.  Re-runs reuse the trace's polytope.
    """
    d, anchor = problem.dims, _anchor(problem, state)
    at_zero = PrimalState(d, anchor.X, anchor.Z.copy())  # the cuts read the unrolled z2 as z2'
    at_zero.Z[d.columns(2)] = 0.0
    return _unroll(problem, 2, anchor, poly1, poly1.residuals(at_zero),
                   (cfg.kappa, *level2_steps(cfg, poly1, d.N)), init, cfg)


def _sq_deviation(x, z, x_hat, z_hat) -> float:
    """``sum_j ||x_j - x_hat_j||^2 + ||z - z_hat||^2``, without shape checks."""
    dx, dz = np.asarray(x, float) - x_hat, np.asarray(z, float) - z_hat
    return float(np.vdot(dx, dx) + np.vdot(dz, dz))


def _own(trace: UnrollTrace, state: PrimalState) -> tuple[Array, Array]:
    """The unrolled level's own blocks of ``state``: block ``trace.level`` of X and of Z."""
    c = trace.problem.dims.columns(trace.level)
    return state.X[:, c], state.Z[c]


def eval_h(trace: UnrollTrace, state: PrimalState) -> float:
    """Squared deviation of the state's own blocks from the trace's final estimate.

    A layer-I trace owns the x3 and z3 columns of ``state``, a layer-II trace
    the x2 and z2 columns.
    """
    return _sq_deviation(*_own(trace, _checked(trace.problem, state)), *trace.estimate)


def rerun(trace: UnrollTrace, state: PrimalState) -> UnrollTrace:
    """Re-run the trace's unroll with its frozen inputs read from ``state``.

    The initialization, rounds and (for layer II) layer-I cuts are taken from
    the trace, so the new trace's estimate is the trace's own estimate map
    evaluated at the new inputs.
    """
    init = [a[0] for a in (trace.x, trace.z, trace.phi, trace.s, trace.gamma)]
    if trace.level == 3:
        return solve_level3(trace.problem, state, init=init, cfg=trace.cfg)
    return solve_level2(trace.problem, state, trace.poly1, init=init, cfg=trace.cfg)


# ---------------------------------------------------------------------------
# Gradients of h through the unroll

def _fd_through_unroll(trace, x, z) -> tuple[Array, Array]:
    """Central differences of h in every frozen input, re-running the unroll twice per coordinate.

    ``x`` and ``z`` are the state's own blocks.  The frozen inputs are Z's
    blocks other than the unrolled level's and, at level 2, X's x3: a block of
    Z steps as one row, a block of X row by row, in one working copy of the
    anchor that gets each block back after its differences.  Returns (gZ, gX)
    in the state's shapes, zero outside the frozen inputs.
    """
    d, lv, anchor = trace.problem.dims, trace.level, trace.anchor
    blocks = [("Z", d.columns(i)) for i in (1, 2, 3) if i != lv]
    blocks += [("X", (j, d.columns(i))) for i in range(lv + 1, 4) for j in range(d.N)]
    g, pert = PrimalState(d, np.zeros_like(anchor.X), np.zeros_like(anchor.Z)), anchor.copy()

    def h_at(v):  # h with the current block of the working copy at v
        live[at] = v
        return _sq_deviation(x, z, *rerun(trace, pert).estimate)
    for name, at in blocks:
        live, frozen = getattr(pert, name), getattr(anchor, name)[at]
        getattr(g, name)[at] = finite_diff_grad(h_at, frozen)
        live[at] = frozen
    return g.Z, g.X


def _adjoint(trace, xbar: Array, zbar: Array) -> tuple[Array, Array]:
    """Gradients in every frozen input from one backward sweep over the recorded rounds.

    ``xbar`` and ``zbar`` are the gradients of h in the final iterates.  Each
    round is run backwards through one stacked ``cross_hess`` call: worker j's
    row ``g_j`` times ``R_j``, the unrolled level's rows of its Hessian, gives
    ``g_j^T R_j`` over its whole flat point.  Its unrolled block feeds the
    next round back; the sweep sums all of it over the rounds in one (N, D)
    array.  The columns before the unrolled block were read from Z, so their
    sum over the workers goes to Z; the columns after it are X's own.  The
    layer-I cuts' constant residual adds ``rbar @ W``.  At the slack/dual
    clamp kinks the sweep follows the branch the forward pass took.  Returns
    (gZ, gX) in the state's shapes; ``grad_h`` sets the unrolled block.
    """
    p, cfg, lv, poly1 = trace.problem, trace.cfg, trace.level, trace.poly1
    N, D, L, A2, own = p.dims.N, p.dims.width, poly1.size, poly1.A2, p.dims.columns(lv)
    kappa, eta_z, eta_gamma = trace.steps
    hess = _level_rows(p.cross_hess, lv, trace.anchor)
    acc = np.zeros((N, D))  # the sum over rounds of every worker's g^T R
    phibar = np.zeros_like(xbar)
    sbar = gbar = rbar = np.zeros(L)  # rbar: the cuts' constant residual r0
    for k in reversed(range(cfg.K)):  # a round backwards, its last update first
        xbar = xbar + cfg.eta_phi * phibar
        zbar = zbar - cfg.eta_phi * phibar.sum(axis=0)
        if L:  # the clamped dual, then the clamped slack
            u = (trace.gamma[k + 1] > 0.0) * gbar
            v = (trace.s[k + 1] > 0.0) * (sbar + eta_gamma * u)
            rnew = eta_gamma * u - v
            gbar = u - v
            rbar = rbar + rnew
            zbar = zbar + A2.T @ rnew
        gxbar = -cfg.eta_x * xbar  # through x[k+1] = x[k] - eta_x gx
        gzbar = -eta_z * zbar
        zbar = zbar + N * kappa * gzbar - kappa * gxbar.sum(axis=0)
        if L:
            sbar = A2 @ gzbar
            gbar = gbar + sbar
            rbar = rbar + sbar
            zbar = zbar + A2.T @ sbar
        phibar = phibar + gxbar - gzbar
        xbar = xbar + kappa * (gxbar - gzbar)
        w = (gxbar[:, None, :] @ hess(trace.x[k]))[:, 0]
        xbar = xbar + w[:, own]
        acc += w
    gZ, gX = np.zeros(D), np.zeros((N, D))
    gZ[:own.start] = acc[:, :own.start].sum(axis=0)
    gX[:, own.stop:] = acc[:, own.stop:]
    if L:
        rw = rbar @ poly1.W
        gZ += rw[:D]
        gX += rw[D:].reshape(N, D)
    return gZ, gX


def grad_h(trace: UnrollTrace, state: PrimalState) -> tuple[Array, Array]:
    """Gradient of h at ``state`` as (gZ (D,), gX (N, D)), in the state's shapes.

    ``np.concatenate((gZ, gX.ravel()))`` is a cut row over ``PrimalState.row``.
    The unrolled level's own blocks differentiate directly to twice the
    deviation; the frozen inputs go through the unroll by the path
    ``trace.problem`` picks: one backward sweep over the recorded rounds when
    it has ``cross_hess_fn``, otherwise central differences that re-run the
    unroll twice per coordinate.  The X columns h does not read are exact
    zeros: x1 on both layers and x2 on layer I.
    """
    own = trace.problem.dims.columns(trace.level)
    x, z = _own(trace, state)
    x_hat, z_hat = trace.estimate
    gx, gz = 2.0 * (x - x_hat), 2.0 * (z - z_hat)
    if trace.problem.cross_hess_fn is not None:
        gZ, gX = _adjoint(trace, -gx, -gz)
    else:
        gZ, gX = _fd_through_unroll(trace, x, z)
    gZ[own], gX[:, own] = gz, gx
    return gZ, gX
