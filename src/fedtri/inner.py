"""K-round distributed augmented-Lagrangian unrolls for the two lower levels.

Each solver runs K master/worker exchange rounds in process and records the
full update path.  The final snapshot is the argmin estimate; the constraint
functions measure squared deviation from it and are differentiated either by
re-running the unroll at perturbed frozen inputs (finite differences) or by
propagating Jacobians through the recorded rounds (analytic, needs second
derivatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from .core import Array, FedtriError, TrilevelProblem, default_fd_step

if TYPE_CHECKING:  # pragma: no cover
    from .cuts import Cut


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


@dataclass(frozen=True)
class InnerSnapshot:
    x: Array  # (N, d) per-worker local blocks
    z: Array
    phi: Array  # (N, d)
    s: Optional[Array] = None  # layer II only
    gamma: Optional[Array] = None  # layer II only


@dataclass(frozen=True)
class UnrollTrace:
    """Recorded K-round update path; immutable once returned.

    ``layer`` "I" traces estimate the third-level argmin (from solve_level3);
    ``layer`` "II" traces estimate the second-level argmin and carry the final
    inner duals ``gamma`` used for layer-I cut pruning.  The path is stored
    round-major: ``x`` and ``phi`` are (K+1, N, d), ``z`` is (K+1, d), and
    ``s`` and ``gamma`` are (K+1, L) for layer II and None for layer I.
    """

    layer: str
    problem: TrilevelProblem
    cfg: InnerConfig
    inputs: dict
    x: Array
    z: Array
    phi: Array
    s: Optional[Array] = None
    gamma: Optional[Array] = None
    poly1: tuple = ()  # layer-I cuts frozen into a layer-II trace

    def __post_init__(self):
        if any(len(a) != self.cfg.K + 1 for a in (self.x, self.z, self.phi)):
            raise ValueError("trace must hold exactly K+1 rounds")

    @property
    def level(self) -> int:
        """The unrolled level: 3 for layer I, 2 for layer II."""
        return 3 if self.layer == "I" else 2

    @property
    def point_blocks(self) -> tuple[str, ...]:
        """``grad_h`` block names in the order of this layer's point.

        The per-worker blocks come first, the unrolled level's own before the
        frozen x3 of layer II, then z1, z2, z3.
        """
        levels = (3,) if self.layer == "I" else (2, 3)
        N = self.problem.dims.N
        return tuple(f"x{b}:{j}" for b in levels for j in range(N)) + ("z1", "z2", "z3")

    @cached_property
    def snapshots(self) -> tuple[InnerSnapshot, ...]:
        """Per-round views into the recorded arrays."""
        return tuple(
            InnerSnapshot(
                x=self.x[k], z=self.z[k], phi=self.phi[k],
                s=None if self.s is None else self.s[k],
                gamma=None if self.gamma is None else self.gamma[k],
            )
            for k in range(self.cfg.K + 1)
        )

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


_NO_CUTS = (np.zeros(0), np.zeros((0, 0)), np.zeros(0), 0.0)


def _round(grad, x, z, phi, s, gamma, k, kappa, eta_z, cuts, cfg):
    """One primal/slack/dual round of a lower level's consensus Lagrangian.

    Reads row k of the recorded path arrays and writes row k + 1.  ``grad``
    maps the stacked iterate to the stacked oracle gradient at the frozen
    inputs.  ``cuts = (consts, a2s, cs, eta_gamma)`` carries the layer-I cuts
    frozen into a level-2 unroll as slack-equipped penalty terms; level 3
    runs the same round with none.
    """
    consts, a2s, cs, eta_gamma = cuts
    L = len(cs)
    xk, zk, phik = x[k], z[k], phi[k]
    pull = kappa * (xk - zk)
    gx = (grad(xk) + phik) + pull
    gz = -(phik + pull).sum(axis=0)
    if L:
        sk, gk = s[k], gamma[k]
        hhat = consts + a2s @ zk
        resid = hhat - cs + sk
        gz = gz + a2s.T @ (gk + cfg.rho2 * resid)
    x[k + 1] = x_new = xk - cfg.eta_x * gx
    z[k + 1] = z_new = zk - eta_z * gz
    if L:
        hhat_new = consts + a2s @ z_new
        s[k + 1] = s_new = np.maximum(0.0, cs - hhat_new - gk / cfg.rho2)
        gamma[k + 1] = np.maximum(0.0, gk + eta_gamma * (hhat_new - cs + s_new))
    phi[k + 1] = phik + cfg.eta_phi * (x_new - z_new)


def _unroll(problem, level, grad, init, cfg, kappa, eta_z, cuts, inputs, poly1=()):
    """Run K rounds of ``_round`` from ``init`` (or zeros) and record the path.

    ``init`` is ``(x, z, phi)`` with optional ``(s, gamma)`` after it; a
    missing or None slack or dual starts at zero.
    """
    d = problem.dims
    dl = d.block(level)
    L = len(poly1)
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
    return _unroll(problem, 3, lambda x: problem.grad_all(3, 3, z1, z2p, x), init, cfg,
                   cfg.kappa3, cfg.eta_z, _NO_CUTS, {"z1": z1.copy(), "z2p": z2p.copy()})


def _cut_const_parts(poly1: Sequence["Cut"], x3, z1, z3):
    """Per-cut linear value with the z2' contribution left out."""
    return np.array(
        [
            float(c.a1 @ z1) + float(c.a3 @ z3) + sum(float(c.b3[j] @ x3[j]) for j in range(len(x3)))
            for c in poly1
        ]
    )


def level2_steps(cfg: InnerConfig, poly1: Sequence["Cut"], N: int) -> tuple[float, float]:
    """Effective (eta_z, gamma step) for the level-2 unroll.

    The z2-curvature of the penalized Lagrangian grows with the cut
    steepness ``rho2 * sum_l ||a2_l||^2``; the configured steps are damped
    so the unroll stays stable for any polytope.  Both values are a pure
    function of (cfg, poly1), so re-runs of a trace reproduce them.
    """
    steep = sum(float(c.a2 @ c.a2) for c in poly1)
    curv_z = N * cfg.kappa2 + cfg.rho2 * steep
    eta_z = min(cfg.eta_z, 1.5 / curv_z) if curv_z > 0 else cfg.eta_z
    eta_gamma = min(cfg.eta_phi, 1.5 / (1.0 + cfg.rho2 * steep))
    return eta_z, eta_gamma


def solve_level2(
    problem: TrilevelProblem,
    z1: Array,
    z3: Array,
    x3: Sequence[Array],
    poly1: Sequence["Cut"],
    init=None,
    cfg: InnerConfig = InnerConfig(),
) -> UnrollTrace:
    """Unroll K rounds of the second-level solve at frozen (z1, z3, {x3_j}).

    The layer-I cuts enter through slack-equipped inequality penalty terms;
    their inner duals ``gamma`` are clamped nonnegative every round and the
    final values are reported for cut pruning.
    """
    d = problem.dims
    z1 = np.asarray(z1, float)
    z3 = np.asarray(z3, float)
    x3 = np.array(x3, dtype=float)
    if z1.shape != (d.d1,) or z3.shape != (d.d3,) or x3.shape != (d.N, d.d3):
        raise ValueError("frozen input dimensions do not match problem dims")
    poly1 = tuple(poly1)
    L = len(poly1)
    consts = _cut_const_parts(poly1, x3, z1, z3) if L else np.zeros(0)
    a2s = np.stack([c.a2 for c in poly1]) if L else np.zeros((0, d.d2))
    cs = np.array([c.c for c in poly1]) if L else np.zeros(0)
    eta_z, eta_gamma = level2_steps(cfg, poly1, d.N)
    return _unroll(problem, 2, lambda x: problem.grad_all(2, 2, z1, x, x3), init, cfg,
                   cfg.kappa2, eta_z, (consts, a2s, cs, eta_gamma),
                   {"z1": z1.copy(), "z3": z3.copy(), "x3": x3}, poly1)


def _sq_deviation(x, z, x_hat, z_hat) -> float:
    """``sum_j ||x_j - x_hat_j||^2 + ||z - z_hat||^2``, without shape checks."""
    total = 0.0
    for a, b in zip(x, x_hat):
        v = np.asarray(a, float) - b
        total += float(v @ v)
    dz = np.asarray(z, float) - z_hat
    return total + float(dz @ dz)


def _eval_h(trace: UnrollTrace, layer: str, x, z) -> float:
    if trace.layer != layer:
        raise FedtriError(f"eval_h{1 if layer == 'I' else 2} needs a layer-{layer} trace")
    x_hat, z_hat = trace.estimate
    if len(x) != len(x_hat):
        raise ValueError("worker count mismatch")
    lv = trace.level
    if any(np.shape(xj) != xh.shape for xj, xh in zip(x, x_hat)):
        raise ValueError(f"x{lv} block dimension mismatch")
    if np.shape(z) != z_hat.shape:
        raise ValueError(f"z{lv} dimension mismatch")
    return _sq_deviation(x, z, x_hat, z_hat)


def eval_h1(trace: UnrollTrace, x3: Sequence[Array], z3: Array) -> float:
    """Squared deviation of ({x3_j}, z3) from the trace's final level-3 estimate."""
    return _eval_h(trace, "I", x3, z3)


def eval_h2(trace: UnrollTrace, x2: Sequence[Array], z2: Array) -> float:
    """Squared deviation of ({x2_j}, z2) from the trace's final level-2 estimate."""
    return _eval_h(trace, "II", x2, z2)


def _rerun(trace: UnrollTrace, **overrides) -> UnrollTrace:
    inputs = dict(trace.inputs)
    inputs.update(overrides)
    init = trace.init_arrays()
    if trace.layer == "I":
        return solve_level3(trace.problem, inputs["z1"], inputs["z2p"], init=init, cfg=trace.cfg)
    return solve_level2(trace.problem, inputs["z1"], inputs["z3"], inputs["x3"],
                        trace.poly1, init=init, cfg=trace.cfg)


def rerun_estimate(trace: UnrollTrace, **overrides) -> tuple[tuple[Array, ...], Array]:
    """Re-run the trace's unroll with some frozen inputs replaced.

    The initialization, rounds and (for layer II) layer-I cuts are taken from
    the trace, so the result is the trace's own estimate map evaluated at the
    new inputs.
    """
    return _rerun(trace, **overrides).estimate


# ---------------------------------------------------------------------------
# Gradients of h through the unroll

# The oracle block each frozen input occupies; z3 reaches the level-2 unroll
# only through the layer-I cuts.
_ORACLE_BLOCK = {"z1": 1, "z2p": 2, "x3": 3, "z3": None}
# grad_h block names of each layer's frozen inputs.
_FROZEN = {"I": {"z1": "z1", "z2": "z2p"}, "II": {"z1": "z1", "z3": "z3", "x3": "x3"}}


def _fd_through_unroll(trace, point, key, base: Array, worker: Optional[int] = None) -> Array:
    base = np.asarray(base, float)
    h = default_fd_step(base)
    g = np.zeros_like(base)

    def h_at(value) -> float:
        if worker is None:
            x_hat, z_hat = rerun_estimate(trace, **{key: value})
        else:
            x3 = list(trace.inputs["x3"])
            x3[worker] = value
            x_hat, z_hat = rerun_estimate(trace, x3=tuple(x3))
        return _sq_deviation(point[0], point[3], x_hat, z_hat)

    for k in range(base.size):
        e = np.zeros_like(base)
        e[k] = h
        g[k] = (h_at(base + e) - h_at(base - e)) / (2.0 * h)
    return g


def _analytic_jacobians(trace, key: str, worker: Optional[int] = None):
    """Jacobians of the estimate w.r.t. one frozen input, forward through the rounds.

    ``key`` is "z1" or "z2p" for a layer-I trace and "z1", "z3" or "x3" (the
    block of ``worker``) for a layer-II trace.  At the slack/dual clamp kinks
    the subgradient follows the branch the recorded forward pass took.
    """
    p = trace.problem
    cfg = trace.cfg
    d = p.dims
    N = d.N
    level = trace.level
    dl = d.block(level)
    z1 = trace.inputs["z1"]
    z2p = trace.inputs.get("z2p")
    x3 = trace.inputs.get("x3")
    wblock = _ORACLE_BLOCK[key]
    dw = d.block(int(key[1]))
    poly1 = trace.poly1
    L = len(poly1)
    if level == 3:
        kappa, eta_z, eta_gamma = cfg.kappa3, cfg.eta_z, 0.0
    else:
        kappa = cfg.kappa2
        eta_z, eta_gamma = level2_steps(cfg, poly1, N)
    if L:
        dconst = np.stack([c.b3[worker] if key == "x3" else getattr(c, "a" + key[1])
                           for c in poly1])
        a2s = np.stack([c.a2 for c in poly1])

    Dx = [np.zeros((dl, dw)) for _ in range(N)]
    Dz = np.zeros((dl, dw))
    Dphi = [np.zeros((dl, dw)) for _ in range(N)]
    Ds = np.zeros((L, dw))
    Dgam = np.zeros((L, dw))
    for k in range(cfg.K):
        xk = trace.x[k]
        Dgx = []
        for j in range(N):
            args = (z1, z2p, xk[j]) if level == 3 else (z1, xk[j], x3[j])
            Hxx = p.cross_hess(level, j, level, level, *args)
            if wblock is None or (worker is not None and j != worker):
                Hxw = np.zeros((dl, dw))
            else:
                Hxw = p.cross_hess(level, j, level, wblock, *args)
            Dgx.append(Hxw + Hxx @ Dx[j] + Dphi[j] + kappa * (Dx[j] - Dz))
        Dgz = -sum(Dphi[j] + kappa * (Dx[j] - Dz) for j in range(N))
        if L:
            Dr = dconst + a2s @ Dz + Ds
            Dgz = Dgz + a2s.T @ (Dgam + cfg.rho2 * Dr)
        Dx = [Dx[j] - cfg.eta_x * Dgx[j] for j in range(N)]
        Dz = Dz - eta_z * Dgz
        if L:
            s_active = (trace.s[k + 1] > 0.0).astype(float)[:, None]
            Ds = s_active * (-(dconst + a2s @ Dz) - Dgam / cfg.rho2)
            g_active = (trace.gamma[k + 1] > 0.0).astype(float)[:, None]
            Dgam = g_active * (Dgam + eta_gamma * (dconst + a2s @ Dz + Ds))
        Dphi = [Dphi[j] + cfg.eta_phi * (Dx[j] - Dz) for j in range(N)]
    return Dx, Dz


def grad_h(trace: UnrollTrace, wrt: str, point, mode: str = "finite-diff") -> Array:
    """Gradient of h at ``point`` with respect to one argument block.

    ``wrt`` selects the block: for layer I one of "x3:<j>", "z1", "z2", "z3";
    for layer II one of "x2:<j>", "x3:<j>", "z1", "z2", "z3".  Blocks the
    estimate does not depend on differentiate directly to twice the deviation;
    the remaining blocks go through the unroll in the requested ``mode``
    ("finite-diff" re-runs it, "analytic" propagates the chain rule and needs
    second-derivative support).

    Layer-I points are ``({x3_j}, z1, z2p, z3)``; layer-II points are
    ``({x2_j}, {x3_j}, z1, z2, z3)``.
    """
    if mode not in ("finite-diff", "analytic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "analytic" and not trace.problem.has_second_derivatives:
        raise FedtriError(
            "analytic unroll gradients requested but the problem has no second derivatives"
        )
    name, _, idx = wrt.partition(":")
    j = int(idx) if idx else None
    x_hat, z_hat = trace.estimate
    if name == f"x{trace.level}":
        return 2.0 * (np.asarray(point[0][j], float) - x_hat[j])
    if name == f"z{trace.level}":
        return 2.0 * (np.asarray(point[3], float) - z_hat)
    key = _FROZEN[trace.layer].get(name)
    if key is None:
        raise ValueError(f"unknown block {wrt!r} for a layer-{trace.layer} trace")
    if mode == "finite-diff":
        base = trace.inputs[key] if j is None else trace.inputs[key][j]
        return _fd_through_unroll(trace, point, key, base, worker=j)
    Dx, Dz = _analytic_jacobians(trace, key, worker=j)
    g = -2.0 * Dz.T @ (np.asarray(point[3], float) - z_hat)
    for xj, xh, Dj in zip(point[0], x_hat, Dx):
        g = g - 2.0 * Dj.T @ (np.asarray(xj, float) - xh)
    return g


# ---------------------------------------------------------------------------
# Flat-vector adapters (sampling, mu estimation, cut validation)


@dataclass(frozen=True)
class FlatH:
    """A constraint function h with flat-vector packing of its arguments."""

    trace: UnrollTrace
    dim: int
    fn: Callable[[Array], float]
    grad: Callable[[Array], Array]
    pack: Callable[..., Array]
    unpack: Callable[[Array], tuple]


def _flat(trace: UnrollTrace, grad_mode: str) -> FlatH:
    """h of the trace's layer over the flat concatenation of its point's blocks."""
    d = trace.problem.dims
    N = d.N
    sizes = (d.d3,) if trace.layer == "I" else (d.d2, d.d3)  # per-worker blocks
    dim = N * sum(sizes) + d.d1 + d.d2 + d.d3

    def unpack(v: Array):
        v = np.asarray(v, float)
        point, off = [], 0
        for db in sizes:
            point.append([v[off + j * db: off + (j + 1) * db] for j in range(N)])
            off += N * db
        return (*point, v[off: off + d.d1], v[off + d.d1: off + d.d1 + d.d2],
                v[off + d.d1 + d.d2:])

    def pack(*point) -> Array:
        return np.concatenate([*(a for blocks in point[:-3] for a in blocks), *point[-3:]])

    def frozen(point) -> dict:
        if trace.layer == "I":
            return {"z1": point[1], "z2p": point[2]}
        return {"z1": point[2], "z3": point[4], "x3": tuple(point[1])}

    def fn(v: Array) -> float:
        point = unpack(v)
        return _sq_deviation(point[0], point[3], *rerun_estimate(trace, **frozen(point)))

    def grad(v: Array) -> Array:
        point = unpack(v)
        sub = _rerun(trace, **frozen(point))
        return np.concatenate([grad_h(sub, w, point, mode=grad_mode) for w in sub.point_blocks])

    return FlatH(trace=trace, dim=dim, fn=fn, grad=grad, pack=pack, unpack=unpack)


def h1_flat(trace: UnrollTrace, grad_mode: str = "finite-diff") -> FlatH:
    """h_I over the flat vector [x3_1 .. x3_N, z1, z2', z3]."""
    return _flat(trace, grad_mode)


def h2_flat(trace: UnrollTrace, grad_mode: str = "finite-diff") -> FlatH:
    """h_II over the flat vector [x2_1 .. x2_N, x3_1 .. x3_N, z1, z2, z3]."""
    return _flat(trace, grad_mode)
