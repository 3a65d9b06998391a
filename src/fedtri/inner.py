"""K-round distributed augmented-Lagrangian unrolls for the two lower levels.

Each solver runs K master/worker exchange rounds in process and records the
full update path.  The final round is the argmin estimate; the constraint
functions measure squared deviation from it and are differentiated either by
re-running the unroll at perturbed frozen inputs (finite differences) or by
one backward (adjoint) sweep over the recorded rounds (analytic, needs second
derivatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import LAYER_I, Array, Cut, FedtriError, Polytope, TrilevelProblem, finite_diff_grad
from .core import flat_point, point_shapes, split_point


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
    """Recorded K-round update path; immutable once returned.

    ``layer`` "I" traces estimate the third-level argmin (from solve_level3);
    ``layer`` "II" traces estimate the second-level argmin and carry the final
    inner duals ``gamma`` used for layer-I cut pruning.  The path is stored
    round-major: ``x`` and ``phi`` are (K+1, N, d), ``z`` is (K+1, d), and
    ``s`` and ``gamma`` are (K+1, L) for layer II and None for layer I.
    ``poly1`` holds the layer-I cuts frozen into the unroll (none for layer I).
    """

    layer: str
    problem: TrilevelProblem
    cfg: InnerConfig
    inputs: dict
    x: Array
    z: Array
    phi: Array
    poly1: Polytope
    s: Optional[Array] = None
    gamma: Optional[Array] = None

    def __post_init__(self):
        if any(len(a) != self.cfg.K + 1 for a in (self.x, self.z, self.phi)):
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
        if self.layer != "II":
            raise FedtriError("gamma_K is defined for layer-II traces only")
        return self.gamma[-1]

    def init_arrays(self):
        return self.x[0].copy(), self.z[0].copy(), self.phi[0].copy(), (
            None if self.s is None else self.s[0].copy()
        ), (None if self.gamma is None else self.gamma[0].copy())


def _path_buffer(K: int, N: int, d: int, L: int = 0):
    """A (K+1, 2Nd + d + 2L) buffer and its x, z, phi, s, gamma views.

    Each round's iterates share one contiguous row, so one ``isfinite`` call
    checks them all.
    """
    nd = N * d
    buf = np.empty((K + 1, 2 * nd + d + 2 * L))
    x = buf[:, :nd].reshape(K + 1, N, d)
    phi = buf[:, nd:2 * nd].reshape(K + 1, N, d)
    z = buf[:, 2 * nd:2 * nd + d]
    s = buf[:, 2 * nd + d:2 * nd + d + L]
    gamma = buf[:, 2 * nd + d + L:]
    return buf, x, z, phi, s, gamma


def _init_block(value, shape, what: str) -> Array:
    a = np.asarray(value, float)
    if a.shape != shape:
        raise ValueError(f"initial {what} has shape {a.shape}, expected {shape}")
    return a


def _check_round(buf: Array, k: int, what: str) -> None:
    if not np.isfinite(buf[k + 1]).all():
        raise InnerSolverError(f"non-finite {what} at round {k}")


_NO_CUTS = (np.zeros(0), np.zeros((0, 0)), 0.0)


def _round(grad, x, z, phi, s, gamma, k, kappa, eta_z, cuts, cfg):
    """One primal/slack/dual round of a lower level's consensus Lagrangian.

    Reads row k of the recorded path arrays and writes row k + 1.  ``grad``
    maps the stacked iterate to the stacked oracle gradient at the frozen
    inputs.  ``cuts = (r0, A2, eta_gamma)`` carries the layer-I cuts frozen
    into a level-2 unroll as slack-equipped penalty terms: their residual at
    z2 is ``r0 + A2 @ z2``.  Level 3 runs the same round with none.
    """
    r0, a2s, eta_gamma = cuts
    L = len(r0)
    xk, zk, phik = x[k], z[k], phi[k]
    pull = kappa * (xk - zk)
    gx = (grad(xk) + phik) + pull
    gz = -(phik + pull).sum(axis=0)
    if L:
        sk, gk = s[k], gamma[k]
        resid = (r0 + a2s @ zk) + sk
        gz = gz + a2s.T @ (gk + cfg.rho2 * resid)
    x[k + 1] = x_new = xk - cfg.eta_x * gx
    z[k + 1] = z_new = zk - eta_z * gz
    if L:
        r_new = r0 + a2s @ z_new
        s[k + 1] = s_new = np.maximum(0.0, -r_new - gk / cfg.rho2)
        gamma[k + 1] = np.maximum(0.0, gk + eta_gamma * (r_new + s_new))
    phi[k + 1] = phik + cfg.eta_phi * (x_new - z_new)


def _unroll(problem, level, grad, init, cfg, kappa, eta_z, cuts, inputs, poly1):
    """Run K rounds of ``_round`` from ``init`` (or zeros) and record the path.

    ``init`` is ``(x, z, phi)`` with optional ``(s, gamma)`` after it; a
    missing or None slack or dual starts at zero.
    """
    d = problem.dims
    dl = d.block(level)
    L = poly1.size
    buf, x, z, phi, s, gamma = _path_buffer(cfg.K, d.N, dl, L)
    if init is None:
        buf[0] = 0.0
    else:
        x[0] = _init_block(init[0], (d.N, dl), "x")
        z[0] = _init_block(init[1], (dl,), "z")
        phi[0] = _init_block(init[2], (d.N, dl), "phi")
        s0, g0 = init[3:] or (None, None)
        s[0] = 0.0 if s0 is None else _init_block(s0, (L,), "slack")
        gamma[0] = 0.0 if g0 is None else _init_block(g0, (L,), "gamma")
    what = f"level-{level} iterate"
    for k in range(cfg.K):
        _round(grad, x, z, phi, s, gamma, k, kappa, eta_z, cuts, cfg)
        _check_round(buf, k, what)
    layer2 = level == 2
    return UnrollTrace(
        layer="II" if layer2 else "I", problem=problem, cfg=cfg, inputs=inputs,
        x=x, z=z, phi=phi, s=s if layer2 else None, gamma=gamma if layer2 else None,
        poly1=poly1,
    )


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
    Z1, Z2, own = np.broadcast_to(z1, (d.N, d.d1)), np.broadcast_to(z2p, (d.N, d.d2)), d.columns(3)
    return _unroll(problem, 3, lambda x: problem.grad_all(3, Z1, Z2, x)[:, own], init, cfg,
                   cfg.kappa3, cfg.eta_z, _NO_CUTS, {"z1": z1.copy(), "z2p": z2p.copy()},
                   Polytope(LAYER_I, d))


def level2_steps(cfg: InnerConfig, poly1: Polytope, N: int) -> tuple[float, float]:
    """Effective (eta_z, gamma step) for the level-2 unroll.

    The z2-curvature of the penalized Lagrangian grows with the cut
    steepness ``rho2 * sum_l ||a2_l||^2``; the configured steps are damped
    so the unroll stays stable for any polytope.  Both values are a pure
    function of (cfg, poly1), so re-runs of a trace reproduce them.
    """
    steep = float((poly1.A2 * poly1.A2).sum())
    curv_z = N * cfg.kappa2 + cfg.rho2 * steep
    eta_z = min(cfg.eta_z, 1.5 / curv_z) if curv_z > 0 else cfg.eta_z
    eta_gamma = min(cfg.eta_phi, 1.5 / (1.0 + cfg.rho2 * steep))
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
    r0 = poly1.residuals(z1, np.zeros(d.d2), z3, x3)
    eta_z, eta_gamma = level2_steps(cfg, poly1, d.N)
    Z1, own = np.broadcast_to(z1, (d.N, d.d1)), d.columns(2)
    return _unroll(problem, 2, lambda x: problem.grad_all(2, Z1, x, x3)[:, own], init, cfg,
                   cfg.kappa2, eta_z, (r0, poly1.A2, eta_gamma),
                   {"z1": z1.copy(), "z3": z3.copy(), "x3": x3}, poly1)


# Where each block of a layer's point comes from: "x" and "z" are the
# unrolled level's own blocks, the rest name the trace's frozen inputs.
_POINT_BLOCKS = {"I": ("z1", "z2p", "z", "x"), "II": ("z1", "z", "z3", "x3", "x")}


def _sq_deviation(x, z, x_hat, z_hat) -> float:
    """``sum_j ||x_j - x_hat_j||^2 + ||z - z_hat||^2``, without shape checks."""
    dx, dz = np.asarray(x, float) - x_hat, np.asarray(z, float) - z_hat
    return float(np.vdot(dx, dx) + np.vdot(dz, dz))


def _own_blocks(trace: UnrollTrace, point) -> tuple:
    """The unrolled level's own blocks (x, z) of a point in its layer's block order."""
    keys = _POINT_BLOCKS[trace.layer]
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
    inputs = dict(trace.inputs)
    inputs.update(overrides)
    init = trace.init_arrays()
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
    z1, z2p, x3 = (trace.inputs.get(key) for key in ("z1", "z2p", "x3"))
    if lv == 3:
        kappa, eta_z, eta_gamma = cfg.kappa3, cfg.eta_z, 0.0
        blocks = {"z1": 1, "z2p": 2}  # the oracle block of each frozen input
    else:
        kappa = cfg.kappa2
        eta_z, eta_gamma = level2_steps(cfg, poly1, N)
        blocks = {"z1": 1, "x3": 3}  # z3 reaches the unroll only through the cuts
    wbar = {key: np.zeros_like(v) for key, v in trace.inputs.items()}
    phibar = np.zeros_like(xbar)
    sbar = gbar = rbar = np.zeros(L)  # rbar: the cuts' constant residual r0
    for k in reversed(range(cfg.K)):  # ``_round`` backwards, its last update first
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
        args = (z1, z2p, trace.x[k]) if lv == 3 else (z1, trace.x[k], x3)
        w = (gxbar[:, None, :] @ p.cross_hess(lv, *args)[:, cols(lv)])[:, 0]
        xbar = xbar + w[:, cols(lv)]
        for key, b in blocks.items():  # x3 keeps its rows; a shared input sums them
            wb = w[:, cols(b)]
            wbar[key] += wb if key == "x3" else wb.sum(axis=0)
    if L:
        wbar["z1"] += poly1.A1.T @ rbar
        wbar["z3"] += poly1.A3.T @ rbar
        wbar["x3"] += np.einsum("l,lnd->nd", rbar, poly1.B3)
    return wbar


def grad_h(trace: UnrollTrace, point, mode: str = "finite-diff") -> tuple[Array, ...]:
    """Gradient of h at ``point``: one array per block, in the order and shapes of the point.

    Layer-I points are ``(z1, z2', z3, x3)``; layer-II points are
    ``(z1, z2, z3, x3, x2)``.  Per-worker blocks come back as (N, d) arrays,
    so ``flat_point(*grad_h(...))`` is a cut row.  The unrolled level's own
    blocks differentiate directly to twice the deviation; the frozen inputs
    go through the unroll in the requested ``mode``: "finite-diff" re-runs it
    twice per coordinate, "analytic" makes one backward sweep over the
    recorded rounds and needs second derivatives.
    """
    if mode not in ("finite-diff", "analytic"):
        raise ValueError(f"unknown mode {mode!r}")
    x, z = _own_blocks(trace, point)
    x_hat, z_hat = trace.estimate
    grads = {"x": 2.0 * (np.asarray(x, float) - x_hat), "z": 2.0 * (np.asarray(z, float) - z_hat)}
    if mode == "analytic":
        grads.update(_adjoint(trace, -grads["x"], -grads["z"]))
    else:
        grads.update((key, _fd_through_unroll(trace, x, z, key)) for key in trace.inputs)
    return tuple(grads[key] for key in _POINT_BLOCKS[trace.layer])


# ---------------------------------------------------------------------------
# Flat-vector adapter (sampling, mu estimation, cut validation)


@dataclass(frozen=True)
class FlatH:
    """A constraint function h over ``flat_point`` of its layer's point."""

    trace: UnrollTrace
    fn: Callable[[Array], float]
    grad: Callable[[Array], Array]


def flat_h(trace: UnrollTrace, grad_mode: str = "finite-diff") -> FlatH:
    """h of the trace's layer over ``flat_point`` of its point, re-running the unroll per call."""
    layer = trace.layer

    def point_and_trace(v: Array) -> tuple[tuple, UnrollTrace]:
        point = split_point(layer, trace.problem.dims, np.asarray(v, float))
        return point, rerun(trace, **{k: b for k, b in zip(_POINT_BLOCKS[layer], point)
                                      if k in trace.inputs})

    def fn(v: Array) -> float:
        point, sub = point_and_trace(v)
        return eval_h(sub, point)

    def grad(v: Array) -> Array:
        point, sub = point_and_trace(v)
        return flat_point(*grad_h(sub, point, mode=grad_mode))

    return FlatH(trace=trace, fn=fn, grad=grad)
