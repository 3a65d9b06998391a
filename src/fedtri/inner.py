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

from .core import Array, FedtriError, NonFiniteError, TrilevelProblem, finite_diff_grad, default_fd_step

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
    poly1_ids: tuple[int, ...] = ()

    def __post_init__(self):
        if any(len(a) != self.cfg.K + 1 for a in (self.x, self.z, self.phi)):
            raise ValueError("trace must hold exactly K+1 rounds")

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


def _level3_round(problem, z1, z2p, x, z, phi, cfg):
    """One Jacobi primal step plus dual ascent on the level-3 Lagrangian."""
    pull = cfg.kappa3 * (x - z)
    gx = (problem.grad_all(3, 3, z1, z2p, x) + phi) + pull
    gz = -(phi + pull).sum(axis=0)
    x_new = x - cfg.eta_x * gx
    z_new = z - cfg.eta_z * gz
    phi_new = phi + cfg.eta_phi * (x_new - z_new)
    return x_new, z_new, phi_new


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
    buf, x, z, phi, _, _ = _path_buffer(cfg.K, d.N, d.d3)
    if init is None:
        buf[0] = 0.0
    else:
        x[0] = _init_block(init[0], (d.N, d.d3), "x")
        z[0] = _init_block(init[1], (d.d3,), "z")
        phi[0] = _init_block(init[2], (d.N, d.d3), "phi")
    for k in range(cfg.K):
        x[k + 1], z[k + 1], phi[k + 1] = _level3_round(problem, z1, z2p, x[k], z[k], phi[k], cfg)
        _check_round(buf, k, "level-3 iterate")
    return UnrollTrace(
        layer="I",
        problem=problem,
        cfg=cfg,
        inputs={"z1": z1.copy(), "z2p": z2p.copy()},
        x=x, z=z, phi=phi,
    )


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


def _level2_round(problem, z1, x3, x, z2, s, gamma, phi, consts, a2s, cs, cfg,
                  eta_z, eta_gamma):
    """One primal/slack/dual round of the level-2 Lagrangian with layer-I cuts."""
    L = len(cs)
    pull = cfg.kappa2 * (x - z2)
    gx = (problem.grad_all(2, 2, z1, x, x3) + phi) + pull
    gz2 = -(phi + pull).sum(axis=0)
    if L:
        hhat = consts + a2s @ z2
        resid = hhat - cs + s
        gz2 = gz2 + a2s.T @ (gamma + cfg.rho2 * resid)
    x_new = x - cfg.eta_x * gx
    z2_new = z2 - eta_z * gz2
    if L:
        hhat_new = consts + a2s @ z2_new
        s_new = np.maximum(0.0, cs - hhat_new - gamma / cfg.rho2)
        gamma_new = np.maximum(0.0, gamma + eta_gamma * (hhat_new - cs + s_new))
    else:
        s_new = s
        gamma_new = gamma
    phi_new = phi + cfg.eta_phi * (x_new - z2_new)
    return x_new, z2_new, s_new, gamma_new, phi_new


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
    buf, x, z2, phi, s, gamma = _path_buffer(cfg.K, d.N, d.d2, L)
    if init is None:
        buf[0] = 0.0
    else:
        x[0] = _init_block(init[0], (d.N, d.d2), "x")
        z2[0] = _init_block(init[1], (d.d2,), "z")
        phi[0] = _init_block(init[2], (d.N, d.d2), "phi")
        s[0] = 0.0 if init[3] is None else _init_block(init[3], (L,), "slack")
        gamma[0] = 0.0 if init[4] is None else _init_block(init[4], (L,), "gamma")

    consts = _cut_const_parts(poly1, x3, z1, z3) if L else np.zeros(0)
    a2s = np.stack([c.a2 for c in poly1]) if L else np.zeros((0, d.d2))
    cs = np.array([c.c for c in poly1]) if L else np.zeros(0)
    eta_z, eta_gamma = level2_steps(cfg, poly1, d.N)

    for k in range(cfg.K):
        x[k + 1], z2[k + 1], s[k + 1], gamma[k + 1], phi[k + 1] = _level2_round(
            problem, z1, x3, x[k], z2[k], s[k], gamma[k], phi[k], consts, a2s, cs, cfg,
            eta_z, eta_gamma,
        )
        _check_round(buf, k, "level-2 iterate")
    return UnrollTrace(
        layer="II",
        problem=problem,
        cfg=cfg,
        inputs={"z1": z1.copy(), "z3": z3.copy(), "x3": x3},
        x=x, z=z2, phi=phi, s=s, gamma=gamma,
        poly1=poly1,
        poly1_ids=tuple(c.id for c in poly1),
    )


def eval_h1(trace: UnrollTrace, x3: Sequence[Array], z3: Array) -> float:
    """Squared deviation of ({x3_j}, z3) from the trace's final level-3 estimate."""
    if trace.layer != "I":
        raise FedtriError("eval_h1 needs a layer-I trace")
    x_hat, z_hat = trace.estimate
    if len(x3) != len(x_hat):
        raise ValueError("worker count mismatch")
    total = 0.0
    for xj, xh in zip(x3, x_hat):
        xj = np.asarray(xj, float)
        if xj.shape != xh.shape:
            raise ValueError("x3 block dimension mismatch")
        dv = xj - xh
        total += float(dv @ dv)
    z3 = np.asarray(z3, float)
    if z3.shape != z_hat.shape:
        raise ValueError("z3 dimension mismatch")
    dz = z3 - z_hat
    return total + float(dz @ dz)


def eval_h2(trace: UnrollTrace, x2: Sequence[Array], z2: Array) -> float:
    """Squared deviation of ({x2_j}, z2) from the trace's final level-2 estimate."""
    if trace.layer != "II":
        raise FedtriError("eval_h2 needs a layer-II trace")
    x_hat, z_hat = trace.estimate
    if len(x2) != len(x_hat):
        raise ValueError("worker count mismatch")
    total = 0.0
    for xj, xh in zip(x2, x_hat):
        xj = np.asarray(xj, float)
        if xj.shape != xh.shape:
            raise ValueError("x2 block dimension mismatch")
        dv = xj - xh
        total += float(dv @ dv)
    z2 = np.asarray(z2, float)
    if z2.shape != z_hat.shape:
        raise ValueError("z2 dimension mismatch")
    dz = z2 - z_hat
    return total + float(dz @ dz)


def rerun_estimate(trace: UnrollTrace, **overrides) -> tuple[tuple[Array, ...], Array]:
    """Re-run the trace's unroll with some frozen inputs replaced.

    The initialization, rounds and (for layer II) layer-I cuts are taken from
    the trace, so the result is the trace's own estimate map evaluated at the
    new inputs.
    """
    inputs = dict(trace.inputs)
    inputs.update(overrides)
    init = trace.init_arrays()
    if trace.layer == "I":
        t = solve_level3(trace.problem, inputs["z1"], inputs["z2p"],
                         init=(init[0], init[1], init[2]), cfg=trace.cfg)
    else:
        t = solve_level2(trace.problem, inputs["z1"], inputs["z3"], inputs["x3"],
                         trace.poly1, init=init, cfg=trace.cfg)
    return t.estimate


# ---------------------------------------------------------------------------
# Gradients of h through the unroll


def _deviation(trace, point):
    if trace.layer == "I":
        x3, _, _, z3 = point
        x_hat, z_hat = trace.estimate
        return [np.asarray(a, float) - b for a, b in zip(x3, x_hat)], np.asarray(z3, float) - z_hat
    x2 = point[0]
    z2 = point[3]
    x_hat, z_hat = trace.estimate
    return [np.asarray(a, float) - b for a, b in zip(x2, x_hat)], np.asarray(z2, float) - z_hat


def _h_at_inputs(trace, point, **overrides):
    x_hat, z_hat = rerun_estimate(trace, **overrides)
    if trace.layer == "I":
        x3, _, _, z3 = point
        dev = sum(float((np.asarray(a) - b) @ (np.asarray(a) - b)) for a, b in zip(x3, x_hat))
        dz = np.asarray(z3, float) - z_hat
        return dev + float(dz @ dz)
    x2, _, _, z2, _ = point
    dev = sum(float((np.asarray(a) - b) @ (np.asarray(a) - b)) for a, b in zip(x2, x_hat))
    dz = np.asarray(z2, float) - z_hat
    return dev + float(dz @ dz)


def _fd_through_unroll(trace, point, key, base: Array, worker: Optional[int] = None) -> Array:
    base = np.asarray(base, float)
    h = default_fd_step(base)
    g = np.zeros_like(base)
    for k in range(base.size):
        e = np.zeros_like(base)
        e[k] = h
        if worker is None:
            hp = _h_at_inputs(trace, point, **{key: base + e})
            hm = _h_at_inputs(trace, point, **{key: base - e})
        else:
            x3 = list(trace.inputs["x3"])
            x3[worker] = base + e
            hp = _h_at_inputs(trace, point, x3=tuple(x3))
            x3[worker] = base - e
            hm = _h_at_inputs(trace, point, x3=tuple(x3))
        g[k] = (hp - hm) / (2.0 * h)
    return g


def _analytic_level3_jacobians(trace, wblock: int) -> tuple[list[Array], Array]:
    """Jacobians of the level-3 estimate w.r.t. frozen block 1 (z1) or 2 (z2')."""
    p = trace.problem
    cfg = trace.cfg
    d = p.dims
    z1, z2p = trace.inputs["z1"], trace.inputs["z2p"]
    dw = d.block(wblock)
    N = d.N
    Dx = [np.zeros((d.d3, dw)) for _ in range(N)]
    Dz = np.zeros((d.d3, dw))
    Dphi = [np.zeros((d.d3, dw)) for _ in range(N)]
    for k in range(cfg.K):
        snap = trace.snapshots[k]
        Dgx = []
        for j in range(N):
            Hxx = p.cross_hess(3, j, 3, 3, z1, z2p, snap.x[j])
            Hxw = p.cross_hess(3, j, 3, wblock, z1, z2p, snap.x[j])
            Dgx.append(Hxw + Hxx @ Dx[j] + Dphi[j] + cfg.kappa3 * (Dx[j] - Dz))
        Dgz = -sum(Dphi[j] + cfg.kappa3 * (Dx[j] - Dz) for j in range(N))
        Dx = [Dx[j] - cfg.eta_x * Dgx[j] for j in range(N)]
        Dz = Dz - cfg.eta_z * Dgz
        Dphi = [Dphi[j] + cfg.eta_phi * (Dx[j] - Dz) for j in range(N)]
    return Dx, Dz


def _analytic_level2_jacobians(trace, key: str, worker: Optional[int] = None):
    """Jacobians of the level-2 estimate w.r.t. z1, z3 or one frozen x3 block."""
    p = trace.problem
    cfg = trace.cfg
    d = p.dims
    z1 = trace.inputs["z1"]
    x3 = trace.inputs["x3"]
    N = d.N
    poly1 = trace.poly1
    L = len(poly1)
    if key == "z1":
        dw, wblock = d.d1, 1
        dconst = np.stack([c.a1 for c in poly1]) if L else np.zeros((0, d.d1))
    elif key == "z3":
        dw, wblock = d.d3, None
        dconst = np.stack([c.a3 for c in poly1]) if L else np.zeros((0, d.d3))
    elif key == "x3":
        dw, wblock = d.d3, 3
        dconst = np.stack([c.b3[worker] for c in poly1]) if L else np.zeros((0, d.d3))
    else:  # pragma: no cover
        raise ValueError(key)
    a2s = np.stack([c.a2 for c in poly1]) if L else np.zeros((0, d.d2))
    eta_z, eta_gamma = level2_steps(cfg, poly1, N)

    Dx = [np.zeros((d.d2, dw)) for _ in range(N)]
    Dz2 = np.zeros((d.d2, dw))
    Dphi = [np.zeros((d.d2, dw)) for _ in range(N)]
    Ds = np.zeros((L, dw))
    Dgam = np.zeros((L, dw))
    for k in range(cfg.K):
        snap = trace.snapshots[k]
        nxt = trace.snapshots[k + 1]
        Dgx = []
        for j in range(N):
            Hxx = p.cross_hess(2, j, 2, 2, z1, snap.x[j], x3[j])
            if wblock is None or (key == "x3" and j != worker):
                Hxw = np.zeros((d.d2, dw))
            else:
                Hxw = p.cross_hess(2, j, 2, wblock, z1, snap.x[j], x3[j])
            Dgx.append(Hxw + Hxx @ Dx[j] + Dphi[j] + cfg.kappa2 * (Dx[j] - Dz2))
        Dgz2 = -sum(Dphi[j] + cfg.kappa2 * (Dx[j] - Dz2) for j in range(N))
        if L:
            Dr = dconst + a2s @ Dz2 + Ds
            Dgz2 = Dgz2 + a2s.T @ (Dgam + cfg.rho2 * Dr)
        Dx = [Dx[j] - cfg.eta_x * Dgx[j] for j in range(N)]
        Dz2 = Dz2 - eta_z * Dgz2
        if L:
            # Subgradient choice at the slack/dual clamp kinks follows the
            # branch the recorded forward pass took.
            s_active = (nxt.s > 0.0).astype(float)[:, None]
            Ds = s_active * (-(dconst + a2s @ Dz2) - Dgam / cfg.rho2)
            g_active = (nxt.gamma > 0.0).astype(float)[:, None]
            Dgam = g_active * (Dgam + eta_gamma * (dconst + a2s @ Dz2 + Ds))
        Dphi = [Dphi[j] + cfg.eta_phi * (Dx[j] - Dz2) for j in range(N)]
    return Dx, Dz2


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
    dev_x, dev_z = _deviation(trace, point)

    if trace.layer == "I":
        x3, z1, z2p, z3 = point
        if name == "x3":
            return 2.0 * dev_x[j]
        if name == "z3":
            return 2.0 * dev_z
        if name not in ("z1", "z2"):
            raise ValueError(f"unknown block {wrt!r} for a layer-I trace")
        key = "z1" if name == "z1" else "z2p"
        if mode == "finite-diff":
            return _fd_through_unroll(trace, point, key, trace.inputs[key])
        Dx, Dz = _analytic_level3_jacobians(trace, 1 if name == "z1" else 2)
        g = -2.0 * Dz.T @ dev_z
        for dj, Dj in zip(dev_x, Dx):
            g = g - 2.0 * Dj.T @ dj
        return g

    x2, x3, z1, z2, z3 = point
    if name == "x2":
        return 2.0 * dev_x[j]
    if name == "z2":
        return 2.0 * dev_z
    if name == "x3":
        if mode == "finite-diff":
            return _fd_through_unroll(trace, point, "x3", trace.inputs["x3"][j], worker=j)
        Dx, Dz2 = _analytic_level2_jacobians(trace, "x3", worker=j)
    elif name in ("z1", "z3"):
        if mode == "finite-diff":
            return _fd_through_unroll(trace, point, name, trace.inputs[name])
        Dx, Dz2 = _analytic_level2_jacobians(trace, name)
    else:
        raise ValueError(f"unknown block {wrt!r} for a layer-II trace")
    g = -2.0 * Dz2.T @ dev_z
    for dj, Dj in zip(dev_x, Dx):
        g = g - 2.0 * Dj.T @ dj
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


def h1_flat(trace: UnrollTrace, grad_mode: str = "finite-diff") -> FlatH:
    """h_I over the flat vector [x3_1 .. x3_N, z1, z2', z3]."""
    d = trace.problem.dims
    N = d.N
    dim = N * d.d3 + d.d1 + d.d2 + d.d3

    def unpack(v: Array):
        v = np.asarray(v, float)
        x3 = [v[j * d.d3:(j + 1) * d.d3] for j in range(N)]
        off = N * d.d3
        z1 = v[off: off + d.d1]
        z2p = v[off + d.d1: off + d.d1 + d.d2]
        z3 = v[off + d.d1 + d.d2:]
        return x3, z1, z2p, z3

    def pack(x3, z1, z2p, z3) -> Array:
        return np.concatenate([*x3, z1, z2p, z3])

    def fn(v: Array) -> float:
        x3, z1, z2p, z3 = unpack(v)
        x_hat, z_hat = rerun_estimate(trace, z1=z1, z2p=z2p)
        dev = sum(float((a - b) @ (a - b)) for a, b in zip(x3, x_hat))
        dz = z3 - z_hat
        return dev + float(dz @ dz)

    def grad(v: Array) -> Array:
        point = unpack(v)
        sub = solve_level3(trace.problem, point[1], point[2],
                           init=trace.init_arrays()[:3], cfg=trace.cfg)
        parts = [grad_h(sub, f"x3:{j}", point, mode=grad_mode) for j in range(N)]
        parts.append(grad_h(sub, "z1", point, mode=grad_mode))
        parts.append(grad_h(sub, "z2", point, mode=grad_mode))
        parts.append(grad_h(sub, "z3", point, mode=grad_mode))
        return np.concatenate(parts)

    return FlatH(trace=trace, dim=dim, fn=fn, grad=grad, pack=pack, unpack=unpack)


def h2_flat(trace: UnrollTrace, grad_mode: str = "finite-diff") -> FlatH:
    """h_II over the flat vector [x2_1 .. x2_N, x3_1 .. x3_N, z1, z2, z3]."""
    d = trace.problem.dims
    N = d.N
    dim = N * d.d2 + N * d.d3 + d.d1 + d.d2 + d.d3

    def unpack(v: Array):
        v = np.asarray(v, float)
        x2 = [v[j * d.d2:(j + 1) * d.d2] for j in range(N)]
        off = N * d.d2
        x3 = [v[off + j * d.d3: off + (j + 1) * d.d3] for j in range(N)]
        off += N * d.d3
        z1 = v[off: off + d.d1]
        z2 = v[off + d.d1: off + d.d1 + d.d2]
        z3 = v[off + d.d1 + d.d2:]
        return x2, x3, z1, z2, z3

    def pack(x2, x3, z1, z2, z3) -> Array:
        return np.concatenate([*x2, *x3, z1, z2, z3])

    def fn(v: Array) -> float:
        x2, x3, z1, z2, z3 = unpack(v)
        x_hat, z_hat = rerun_estimate(trace, z1=z1, z3=z3, x3=tuple(x3))
        dev = sum(float((a - b) @ (a - b)) for a, b in zip(x2, x_hat))
        dz = z2 - z_hat
        return dev + float(dz @ dz)

    def grad(v: Array) -> Array:
        point = unpack(v)
        sub = solve_level2(trace.problem, point[2], point[4], tuple(point[1]),
                           trace.poly1, init=trace.init_arrays(), cfg=trace.cfg)
        parts = [grad_h(sub, f"x2:{j}", point, mode=grad_mode) for j in range(N)]
        parts += [grad_h(sub, f"x3:{j}", point, mode=grad_mode) for j in range(N)]
        parts.append(grad_h(sub, "z1", point, mode=grad_mode))
        parts.append(grad_h(sub, "z2", point, mode=grad_mode))
        parts.append(grad_h(sub, "z3", point, mode=grad_mode))
        return np.concatenate(parts)

    return FlatH(trace=trace, dim=dim, fn=fn, grad=grad, pack=pack, unpack=unpack)
