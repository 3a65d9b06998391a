"""The outer Lagrangian's gradient and gap, primal/dual updates and dual projections.

The master's point and duals follow the printed update order: z = (z1, z2, z3) in one
step with the previous duals, then the cut duals (projected onto [0, sqrt(alpha4)]) using
the fresh primals, then the consensus duals (projected onto the infinity-norm box).  Dual
updates differentiate the regularized Lagrangian; the stationarity gap uses the
unregularized one.  ``master_step`` returns only the master's new point, duals and the
dual residuals there, and the gap reuses them; the gap forms its own only at t = 0 and
after a refinement.  The workers' rows X are ``run``'s, written in place as they arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import Array, Dims, DualState, PrimalState, TrilevelProblem
from .core import check_real, project_ball_sq, store_ints
from .cuts import Polytope


@dataclass(frozen=True)
class OuterConfig:
    """Step sizes, dual bounds, regularization schedule and stopping rule.

    The cut duals lambda live in [0, sqrt(alpha4)].  ``run`` stores its cuts
    at unit coefficient norm, so lambda is measured per unit distance along a
    cut's normal and the cap bounds the pull of one cut on the primal blocks,
    ``||lambda w||``, by sqrt(alpha4).
    """

    eta_x1: float = 0.05
    eta_x2: float = 0.05
    eta_x3: float = 0.05
    eta_z1: float = 0.05
    eta_z2: float = 0.05
    eta_z3: float = 0.05
    eta_lambda: float = 0.05
    eta_theta: float = 0.05
    alpha4: float = 1e4
    alpha5: float = 1e4
    c1_floor: float = 1e-3
    c2_floor: float = 1e-3
    tol: float = 1e-4  # target on the squared gap norm
    T_pre: int = 25
    T1: int = 10**9
    max_iters: int = 1000

    def __post_init__(self):
        store_ints(self, "T_pre", "T1", "max_iters")
        for name in ("eta_x1", "eta_x2", "eta_x3", "eta_z1", "eta_z2", "eta_z3"):
            check_real(name, getattr(self, name))
        for name in ("eta_lambda", "eta_theta", "alpha4", "alpha5", "c1_floor",
                     "c2_floor", "tol"):
            check_real(name, getattr(self, name), strict=True)
        if self.T_pre < 1 or self.T1 < 0 or self.max_iters < 1:
            raise ValueError("T_pre >= 1, T1 >= 0 and max_iters >= 1 required")

    def reg_coeffs(self, t: int) -> tuple[float, float]:
        """Non-increasing regularization pair (c1^t, c2^t) with configured floors."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        decay = (t + 1.0) ** 0.25
        c1 = max(self.c1_floor, 1.0 / (self.eta_lambda * decay))
        c2 = max(self.c2_floor, 1.0 / (self.eta_theta * decay))
        return c1, c2

    def check_floors(self, N: int) -> None:
        """Floor range check against the configured tolerance.

        The admissible range ties the floors to the dual bounds through
        ``(4 M alpha4 / eta_lambda^2 + 4 N alpha5 / eta_theta^2) / tol``; the
        number of layer-II cuts M is read as 1 at configuration time.
        """
        bound = np.sqrt(
            (4.0 * 1 * self.alpha4 / self.eta_lambda ** 2
             + 4.0 * N * self.alpha5 / self.eta_theta ** 2) / self.tol
        )
        if not self.c1_floor < bound / self.eta_lambda:
            raise ValueError("c1_floor outside the admissible range for the configured tol")
        if not self.c2_floor < bound / self.eta_theta:
            raise ValueError("c2_floor outside the admissible range for the configured tol")


_per_column = lru_cache(maxsize=None)(np.repeat)  # (eta, sizes): each block's step per column


def _step(P: Array, eta: tuple[float, float, float], G: Array, problem: TrilevelProblem) -> Array:
    """``P - eta G`` on flat points, block i stepping by ``eta[i-1]``, projected onto the balls."""
    sizes = problem.dims.sizes
    return project_ball_sq(P - _per_column(eta, sizes) * G, problem.alphas, sizes)


def worker_step(problem: TrilevelProblem, state: PrimalState, gap: GapVector,
                cfg: OuterConfig, workers: Sequence[int]) -> Array:
    """The dispatched workers' new rows of ``state.X``, in their order: (len(workers), D).

    ``gap`` must be ``stationarity_gap`` at ``state`` and at the duals and P_II the workers
    compute against, so that ``gap.gx`` holds the gradients of the (regularized) Lagrangian
    there.  ``workers`` is any integer sequence or index array, maybe empty.  Each row takes one
    step, block i by ``eta_xi``, and one projection; a non-finite one raises ``NonFiniteError``.
    """
    rows = np.asarray(workers, np.intp)
    return _step(state.X[rows], (cfg.eta_x1, cfg.eta_x2, cfg.eta_x3), gap.gx[rows], problem)


def _dual_step(state: PrimalState, duals: DualState, poly2: Polytope, problem: TrilevelProblem,
               cfg: OuterConfig, c1: float = 0.0, c2: float = 0.0, res=None) -> tuple:
    """One projected ascent step on the duals at ``state``, regularized by (c1, c2).

    lambda steps on the cut residuals and is projected onto [0, sqrt(alpha4)]; theta steps on
    the x1 consensus residuals and is clipped to the box ``||theta||_inf <= sqrt(alpha5) / d1``.
    Returns the new duals and that residual pair, formed here unless ``res`` passes it in.  A
    zero c adds no ``- 0 dual`` term, which on finite duals changes at most a zero's sign.
    """
    x1 = problem.dims.columns(1)
    r, s = (poly2.residuals(state), state.X[:, x1] - state.Z[x1]) if res is None else res
    lam = duals.lam + cfg.eta_lambda * (r - c1 * duals.lam if c1 else r)
    theta = duals.theta + cfg.eta_theta * (s - c2 * duals.theta if c2 else s)
    box = math.sqrt(cfg.alpha5) / problem.dims.d1
    # np.clip's values without its Python-level wrapper, which costs more than the arithmetic.
    return DualState(lam=np.minimum(np.maximum(lam, 0.0), math.sqrt(cfg.alpha4)),
                     theta=np.minimum(np.maximum(theta, -box), box)), (r, s)


def master_step(state: PrimalState, duals: DualState, poly2: Polytope,
                problem: TrilevelProblem, cfg: OuterConfig, gap: GapVector,
                t: int) -> tuple[Array, DualState, tuple[Array, Array]]:
    """Consensus and dual updates in the printed order; the inputs are not modified.

    ``state.X`` must already hold the freshly applied worker rows.  ``gap``
    must be ``stationarity_gap`` at ``duals`` and ``poly2``, taken at any
    primal point: L_p is affine in z, so ``gap.gz`` is the same everywhere.
    ``Z`` takes one step, block i by ``eta_zi``, and one projection.  Returns the
    new Z (a new array), the new duals and the dual residual pair at ``(state.X, Z)``,
    for the gap there.
    """
    Z = _step(state.Z, (cfg.eta_z1, cfg.eta_z2, cfg.eta_z3), gap.gz, problem)
    new_duals, res = _dual_step(PrimalState(state.dims, state.X, Z), duals, poly2, problem, cfg,
                                *cfg.reg_coeffs(t))
    return Z, new_duals, res


@dataclass
class GapVector:
    """The stationarity gap; its squared norm drives the stopping rule.

    Its primal rows are laid out like ``PrimalState``'s ``X`` and ``Z``:
    ``gx`` (N, D) and ``gz`` (D,).  ``glam`` is (L,) and ``gtheta`` (N, d1).
    """

    dims: Dims
    gx: Array
    gz: Array
    glam: Array
    gtheta: Array

    @property
    def sq_norm(self) -> float:
        g = [*self.dims.split(self.gx), *self.dims.split(self.gz), self.glam, self.gtheta]
        return float(sum(map(np.vdot, g, g)))


def stationarity_gap(state: PrimalState, duals: DualState, poly2: Polytope,
                     problem: TrilevelProblem, cfg: OuterConfig, res=None) -> GapVector:
    """The gradient of the unregularized L_p plus its projected dual residuals.

    This is the one place L_p's gradient is formed.  The cut duals pull on
    the state's row ``[Z | X.ravel()]`` through one sum of P_II's weighted
    rows: its Z part is ``gz`` but for theta, and its X part adds to ``gx``.
    The rows ``gx`` are also the regularized Lagrangian's, which ``worker_step`` steps on, and
    ``gz`` is the next ``master_step``'s.  The dual rows step on ``res``, ``master_step``'s residual
    pair at ``state``; at t = 0 and after a refinement (new P_II and lambda) the gap forms its own.
    """
    d, lam, D = problem.dims, duals.lam, problem.dims.width
    pull = np.add.reduce(lam[:, None] * poly2.W, axis=0)  # not lam @ W: each column's sum order
    gx = problem.grad_all(1, state.X) + pull[D:].reshape(d.N, D)  # a new array, not the oracle's
    gx[:, d.columns(1)] += duals.theta
    gz = pull[:D]
    gz[d.columns(1)] -= np.add.reduce(duals.theta, axis=0)
    proj, _ = _dual_step(state, duals, poly2, problem, cfg, res=res)
    return GapVector(d, gx, gz, glam=(lam - proj.lam) / cfg.eta_lambda,
                     gtheta=(duals.theta - proj.theta) / cfg.eta_theta)
