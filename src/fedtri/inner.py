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
from functools import lru_cache, partial
from typing import Sequence, Union

import numpy as np

from .core import LAYER_I, Array, Cut, FedtriError, Polytope, TrilevelProblem
from .core import finite_diff_grad, point_names, point_shapes


class InnerSolverError(FedtriError):
    pass


@dataclass(frozen=True)
class InnerConfig:
    """Rounds, step sizes, penalties and relaxation tolerances of the unrolls."""

    K: int = 20
    eta_x: float = 0.05
    eta_z: float = 0.05
    eta_phi: float = 0.05
    kappa2: float = 1.0
    kappa3: float = 1.0
    rho2: float = 1.0
    eps1: float = 1e-2
    eps2: float = 1e-2
    warm_start: bool = False

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be at least 1")
        # Step sizes may be zero (degenerate fixed-point mode); penalties and
        # relaxation tolerances must be strictly positive.
        for name in ("eta_x", "eta_z", "eta_phi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("kappa2", "kappa3", "rho2", "eps1", "eps2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


@dataclass(frozen=True, eq=False)
class UnrollTrace:
    """Recorded K-round update path and the constants it ran with; immutable once returned.

    ``layer`` "I" traces estimate the third-level argmin (from solve_level3);
    ``layer`` "II" traces estimate the second-level argmin.  The path is
    stored round-major: ``x`` and ``phi`` are (K+1, N, d), ``z`` is (K+1, d),
    and the slacks ``s`` and inner duals ``gamma`` of the layer-I cuts frozen
    into the unroll are (K+1, L).  ``poly1`` holds those cuts, ``r0`` (L,)
    their residuals at a zero unrolled z, and ``steps`` the unroll's
    ``(kappa, eta_z, eta_gamma)``.  A layer-I trace freezes no cuts: L = 0.
    """

    layer: str
    problem: TrilevelProblem
    cfg: InnerConfig
    inputs: dict
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
    def level(self) -> int:
        """The unrolled level: 3 for layer I, 2 for layer II."""
        return 3 if self.layer == "I" else 2

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


# What fills oracle blocks 1-3 at each unrolled level: the unrolled iterate
# "x" or a frozen input.  z3 reaches the level-2 unroll only through the cuts.
_ORACLE_ARGS = {3: ("z1", "z2p", "x"), 2: ("z1", "x", "x3")}


def _level_rows(oracle, level: int, inputs: dict, dims):
    """The unrolled level's rows of ``oracle(level, V)`` as a function of the iterate alone.

    The frozen inputs fill their columns of one (N, D) array once, as
    ``_ORACLE_ARGS`` says; each call writes the iterate into a copy of it.
    """
    base, own = np.zeros((dims.N, dims.width)), dims.columns(level)
    for i, key in enumerate(_ORACLE_ARGS[level], 1):
        if key != "x":
            base[:, dims.columns(i)] = inputs[key]

    def rows(x):
        V = base.copy()
        V[:, own] = x
        return oracle(level, V)[:, own]
    return rows


def _unroll(problem, level, inputs, poly1, r0, steps, init, cfg) -> UnrollTrace:
    """Run K primal/slack/dual rounds from ``init`` and record the path with its constants.

    ``init`` is ``(x, z, phi, s, gamma)`` or a prefix of it; a missing or
    None block starts at zero.  The L layer-I cuts of a level-2 unroll are
    slack-equipped penalties on z2 with residual ``r0 + A2 z2`` (L = 0 at level
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
    grad, a2s = _level_rows(problem.grad_all, level, inputs, d), poly1.A2
    (kappa, eta_z, eta_gamma), L, rho2 = steps, len(r0), cfg.rho2
    dev, resid = x[0] - z[0], r0 + a2s @ z[0] if L else r0
    for k in range(cfg.K):
        xk, phik, gk = x[k], phi[k], gamma[k]
        pull = kappa * dev
        gx = (grad(xk) + phik) + pull
        gz = -(phik + pull).sum(axis=0)
        if L:
            gz += a2s.T @ (gk + rho2 * (resid + s[k]))
        np.subtract(xk, cfg.eta_x * gx, out=x[k + 1])
        np.subtract(z[k], eta_z * gz, out=z[k + 1])
        if L:
            resid = r0 + a2s @ z[k + 1]
            np.maximum(0.0, -resid - gk / rho2, out=s[k + 1])
            np.maximum(0.0, gk + eta_gamma * (resid + s[k + 1]), out=gamma[k + 1])
        dev = x[k + 1] - z[k + 1]
        np.add(phik, cfg.eta_phi * dev, out=phi[k + 1])
        if not np.isfinite(buf[k + 1]).all():
            raise InnerSolverError(f"non-finite level-{level} iterate at round {k}")
    return UnrollTrace("I" if level == 3 else "II", problem, cfg, inputs, poly1, r0, steps,
                       x, z, phi, s, gamma)


# The empty layer-I polytope a level-3 unroll freezes, built once per ``Dims``.
_no_cuts = lru_cache(maxsize=None)(partial(Polytope, LAYER_I))


def solve_level3(
    problem: TrilevelProblem,
    z1: Array,
    z2p: Array,
    init=None,
    cfg: InnerConfig = InnerConfig(),
) -> UnrollTrace:
    """Unroll K rounds of the third-level consensus solve at frozen (z1, z2')."""
    d = problem.dims
    z1 = np.asarray(z1, float)
    z2p = np.asarray(z2p, float)
    if z1.shape != (d.d1,) or z2p.shape != (d.d2,):
        raise ValueError("frozen input dimensions do not match problem dims")
    return _unroll(problem, 3, {"z1": z1.copy(), "z2p": z2p.copy()}, _no_cuts(d),
                   np.zeros(0), (cfg.kappa3, cfg.eta_z, 0.0), init, cfg)


def level2_steps(cfg: InnerConfig, poly1: Polytope, N: int) -> tuple[float, float]:
    """Effective (eta_z, gamma step) for the level-2 unroll.

    The z2-curvature of the penalized Lagrangian grows with the cut
    steepness ``rho2 * sum_l ||a2_l||^2``; the configured steps are damped
    so the unroll stays stable for any polytope.  The gamma step is at most
    rho2, the method-of-multipliers step, so a dual cannot overshoot below
    zero.  Both values are a pure function of (cfg, poly1).
    """
    steep = float((poly1.A2 * poly1.A2).sum())
    curv_z = N * cfg.kappa2 + cfg.rho2 * steep
    eta_z = min(cfg.eta_z, 1.5 / curv_z) if curv_z > 0 else cfg.eta_z
    eta_gamma = min(cfg.eta_phi, cfg.rho2, 1.5 / (1.0 + cfg.rho2 * steep))
    return eta_z, eta_gamma


def solve_level2(
    problem: TrilevelProblem,
    z1: Array,
    z3: Array,
    x3: Sequence[Array],
    poly1: Union[Polytope, Sequence[Cut]],
    init=None,
    cfg: InnerConfig = InnerConfig(),
) -> UnrollTrace:
    """Unroll K rounds of the second-level solve at frozen (z1, z3, {x3_j}).

    The layer-I cuts enter through slack-equipped inequality penalty terms;
    their inner duals ``gamma`` are clamped nonnegative every round and the
    final values are reported for cut pruning.  A plain sequence of cuts is
    wrapped in a ``Polytope`` once; re-runs reuse the trace's polytope.
    """
    d = problem.dims
    z1 = np.asarray(z1, float)
    z3 = np.asarray(z3, float)
    x3 = np.array(x3, dtype=float)
    if z1.shape != (d.d1,) or z3.shape != (d.d3,) or x3.shape != (d.N, d.d3):
        raise ValueError("frozen input dimensions do not match problem dims")
    if not isinstance(poly1, Polytope):
        poly1 = Polytope(LAYER_I, d, tuple(poly1))
    return _unroll(problem, 2, {"z1": z1.copy(), "z3": z3.copy(), "x3": x3}, poly1,
                   poly1.residuals(z1, np.zeros(d.d2), z3, x3),
                   (cfg.kappa2, *level2_steps(cfg, poly1, d.N)), init, cfg)


def _sq_deviation(x, z, x_hat, z_hat) -> float:
    """``sum_j ||x_j - x_hat_j||^2 + ||z - z_hat||^2``, without shape checks."""
    dx, dz = np.asarray(x, float) - x_hat, np.asarray(z, float) - z_hat
    return float(np.vdot(dx, dx) + np.vdot(dz, dz))


def _own_blocks(trace: UnrollTrace, point) -> tuple:
    """The unrolled level's own blocks (x, z) of a point in its layer's block order."""
    keys = point_names(trace.layer)
    return point[keys.index("x")], point[keys.index("z")]


def eval_h(trace: UnrollTrace, point) -> float:
    """Squared deviation of the point's own blocks from the trace's final estimate.

    ``point`` is ``(z1, z2', z3, x3)`` for a layer-I trace, whose own blocks are
    (x3, z3), and ``(z1, z2, z3, x3, x2)`` for a layer-II trace, owning (x2, z2).
    """
    shapes = point_shapes(trace.layer, trace.problem.dims)
    if len(point) != len(shapes):
        raise FedtriError(f"a layer-{trace.layer} point has {len(shapes)} blocks")
    if any(np.shape(b) != shape for b, shape in zip(point, shapes)):
        raise ValueError(f"point blocks must have the shapes {shapes}")
    return _sq_deviation(*_own_blocks(trace, point), *trace.estimate)


def rerun(trace: UnrollTrace, **overrides) -> UnrollTrace:
    """Re-run the trace's unroll with some frozen inputs replaced.

    The initialization, rounds and (for layer II) layer-I cuts are taken from
    the trace, so the new trace's estimate is the trace's own estimate map
    evaluated at the new inputs.
    """
    inputs = {**trace.inputs, **overrides}
    init = [a[0] for a in (trace.x, trace.z, trace.phi, trace.s, trace.gamma)]
    if trace.layer == "I":
        return solve_level3(trace.problem, inputs["z1"], inputs["z2p"], init=init, cfg=trace.cfg)
    return solve_level2(trace.problem, inputs["z1"], inputs["z3"], inputs["x3"],
                        trace.poly1, init=init, cfg=trace.cfg)


# ---------------------------------------------------------------------------
# Gradients of h through the unroll

def _fd_through_unroll(trace, x, z, key: str) -> Array:
    """Central differences of h in one frozen input, re-running the unroll twice per coordinate.

    ``x`` and ``z`` are the point's own blocks; a per-worker input (N, d) steps row by row.
    """
    base = trace.inputs[key]
    rows = base.reshape(-1, base.shape[-1])

    def h_at(j: int, value) -> float:
        pert = rows.copy()
        pert[j] = value
        return _sq_deviation(x, z, *rerun(trace, **{key: pert.reshape(base.shape)}).estimate)

    g = [finite_diff_grad(lambda v: h_at(j, v), row) for j, row in enumerate(rows)]
    return np.array(g).reshape(base.shape)


def _adjoint(trace, xbar: Array, zbar: Array) -> dict:
    """Gradients in every frozen input from one backward sweep over the recorded rounds.

    ``xbar`` and ``zbar`` are the gradients of h in the final iterates.  Each
    round is run backwards through one stacked ``cross_hess`` call: worker j's
    row ``g_j`` times ``R_j``, the unrolled level's rows of its Hessian, gives
    ``g_j^T R_j`` over its whole flat point, sliced by ``dims.columns`` into
    the unrolled block and each frozen input.  At the slack/dual clamp kinks
    the sweep follows the branch the forward pass took.  Returns one gradient
    per key of ``trace.inputs``.
    """
    p, cfg, lv, poly1 = trace.problem, trace.cfg, trace.level, trace.poly1
    N, L, A2, cols = p.dims.N, poly1.size, poly1.A2, p.dims.columns
    kappa, eta_z, eta_gamma = trace.steps
    hess = _level_rows(p.cross_hess, lv, trace.inputs, p.dims)
    frozen = [(key, cols(i)) for i, key in enumerate(_ORACLE_ARGS[lv], 1) if key != "x"]
    wbar = {key: np.zeros_like(v) for key, v in trace.inputs.items()}
    phibar = np.zeros_like(xbar)
    sbar = gbar = rbar = np.zeros(L)  # rbar: the cuts' constant residual r0
    for k in reversed(range(cfg.K)):  # a round backwards, its last update first
        xbar = xbar + cfg.eta_phi * phibar
        zbar = zbar - cfg.eta_phi * phibar.sum(axis=0)
        if L:  # the clamped dual, then the clamped slack
            u = (trace.gamma[k + 1] > 0.0) * gbar
            v = (trace.s[k + 1] > 0.0) * (sbar + eta_gamma * u)
            rnew = eta_gamma * u - v
            gbar = u - v / cfg.rho2
            rbar = rbar + rnew
            zbar = zbar + A2.T @ rnew
        gxbar = -cfg.eta_x * xbar  # through x[k+1] = x[k] - eta_x gx
        gzbar = -eta_z * zbar
        zbar = zbar + N * kappa * gzbar - kappa * gxbar.sum(axis=0)
        if L:
            q = A2 @ gzbar
            gbar = gbar + q
            sbar = cfg.rho2 * q
            rbar = rbar + sbar
            zbar = zbar + A2.T @ sbar
        phibar = phibar + gxbar - gzbar
        xbar = xbar + kappa * (gxbar - gzbar)
        w = (gxbar[:, None, :] @ hess(trace.x[k]))[:, 0]
        xbar = xbar + w[:, cols(lv)]
        for key, c in frozen:  # a per-worker input keeps its rows; a shared input sums them
            wbar[key] += w[:, c] if wbar[key].ndim == 2 else w[:, c].sum(axis=0)
    if L:
        wbar["z1"] += poly1.A1.T @ rbar
        wbar["z3"] += poly1.A3.T @ rbar
        wbar["x3"] += np.einsum("l,lnd->nd", rbar, poly1.B3)
    return wbar


def grad_h(trace: UnrollTrace, point) -> tuple[Array, ...]:
    """Gradient of h at ``point``: one array per block, in the order and shapes of the point.

    Layer-I points are ``(z1, z2', z3, x3)``; layer-II points are
    ``(z1, z2, z3, x3, x2)``.  Per-worker blocks come back as (N, d) arrays,
    so ``flat_point(*grad_h(...))`` is a cut row.  The unrolled level's own
    blocks differentiate directly to twice the deviation; the frozen inputs
    go through the unroll by the path ``trace.problem`` picks: one backward
    sweep over the recorded rounds when it has ``cross_hess_fn``, otherwise
    central differences that re-run the unroll twice per coordinate.
    """
    x, z = _own_blocks(trace, point)
    x_hat, z_hat = trace.estimate
    grads = {"x": 2.0 * (np.asarray(x, float) - x_hat), "z": 2.0 * (np.asarray(z, float) - z_hat)}
    if trace.problem.cross_hess_fn is not None:
        grads.update(_adjoint(trace, -grads["x"], -grads["z"]))
    else:
        grads.update((key, _fd_through_unroll(trace, x, z, key)) for key in trace.inputs)
    return tuple(grads[key] for key in point_names(trace.layer))

