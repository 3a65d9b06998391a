"""The outer Lagrangian's gradient and gap, primal/dual updates and dual projections.

The master's consensus blocks and duals follow the printed update order:
z1, z2, z3 with the previous duals, then the cut duals (projected onto
[0, sqrt(alpha4)]) using the fresh primals, then the consensus duals
(projected onto the infinity-norm box).  Dual updates differentiate the
regularized Lagrangian; the stationarity gap uses the unregularized one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Array,
    DualState,
    NonFiniteError,
    PrimalState,
    TrilevelProblem,
    project_ball_sq,
    project_box_inf,
)
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
        for name in ("eta_x1", "eta_x2", "eta_x3", "eta_z1", "eta_z2", "eta_z3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("eta_lambda", "eta_theta", "alpha4", "alpha5", "c1_floor",
                     "c2_floor", "tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.T_pre < 1 or self.T1 < 0 or self.max_iters < 1:
            raise ValueError("T_pre >= 1, T1 >= 0 and max_iters >= 1 required")

    def eta_x(self, i: int) -> float:
        return (self.eta_x1, self.eta_x2, self.eta_x3)[i - 1]

    def reg_coeffs(self, t: int) -> tuple[float, float]:
        """Non-increasing regularization pair (c1^t, c2^t) with configured floors."""
        if t < 0:
            raise ValueError("t must be nonnegative")
        decay = (t + 1.0) ** 0.25
        c1 = max(self.c1_floor, 1.0 / (self.eta_lambda * decay))
        c2 = max(self.c2_floor, 1.0 / (self.eta_theta * decay))
        return c1, c2

    def check_floors(self, N: int, M: int = 1) -> None:
        """Floor range check against the configured tolerance.

        The admissible range ties the floors to the dual bounds through
        ``(4 M alpha4 / eta_lambda^2 + 4 N alpha5 / eta_theta^2) / tol``; the
        number of layer-II cuts M is read as 1 at configuration time.
        """
        bound = np.sqrt(
            (4.0 * M * self.alpha4 / self.eta_lambda ** 2
             + 4.0 * N * self.alpha5 / self.eta_theta ** 2) / self.tol
        )
        if not self.c1_floor < bound / self.eta_lambda:
            raise ValueError("c1_floor outside the admissible range for the configured tol")
        if not self.c2_floor < bound / self.eta_theta:
            raise ValueError("c2_floor outside the admissible range for the configured tol")


def worker_step(problem: TrilevelProblem, state: PrimalState, gap: GapVector,
                cfg: OuterConfig, workers: Sequence[int]) -> tuple[Array, Array, Array]:
    """The dispatched workers' projected gradient steps on their blocks.

    ``gap`` must be ``stationarity_gap`` at ``state`` and at the duals and
    P_II the workers compute against: its primal rows are then the gradients
    of the (regularized) Lagrangian there.  Returns each block's new rows for
    ``workers``, in their order, as a (len(workers), d_i) array.  A non-finite
    step raises ``NonFiniteError`` from the ball projection.
    """
    rows = list(workers)
    return tuple(
        project_ball_sq(X[rows] - cfg.eta_x(i + 1) * G[rows], alpha)
        for i, (X, G, alpha) in enumerate(zip(state.x, gap.gx, problem.alphas))
    )


def _dual_step(state: PrimalState, duals: DualState, poly2: Polytope, problem: TrilevelProblem,
               cfg: OuterConfig, c1: float = 0.0, c2: float = 0.0) -> DualState:
    """One projected ascent step on the duals at ``state``, regularized by (c1, c2).

    lambda steps on the cut residuals and is projected onto [0, sqrt(alpha4)];
    theta steps on the x1 consensus residuals and is projected onto the box
    ``||theta||_inf <= sqrt(alpha5) / d1``.
    """
    X, z = state.x, state.z
    resid = poly2.residuals(*z, X[2], X[1])
    lam = np.clip(duals.lam + cfg.eta_lambda * (resid - c1 * duals.lam), 0.0, np.sqrt(cfg.alpha4))
    theta = project_box_inf(duals.theta + cfg.eta_theta * (X[0] - z[0] - c2 * duals.theta),
                            np.sqrt(cfg.alpha5) / problem.dims.d1)
    return DualState(lam=lam, theta=theta)


def master_step(state: PrimalState, duals: DualState, poly2: Polytope,
                problem: TrilevelProblem, cfg: OuterConfig, gap: GapVector,
                t: int) -> tuple[PrimalState, DualState]:
    """Consensus and dual updates in the printed order.

    ``state.x`` must already hold the freshly applied worker blocks.  ``gap``
    must be ``stationarity_gap`` at ``duals`` and ``poly2``, taken at any
    primal point: L_p is affine in z, so its z rows ``gap.gz`` are the same
    everywhere.  Returns a new state and new duals; the inputs are not
    modified.
    """
    z = [project_ball_sq(zi - eta * g, alpha)
         for zi, eta, g, alpha in zip(state.z, (cfg.eta_z1, cfg.eta_z2, cfg.eta_z3), gap.gz,
                                      problem.alphas)]
    new_state = PrimalState(x=[X.copy() for X in state.x], z=z)
    new_duals = _dual_step(new_state, duals, poly2, problem, cfg, *cfg.reg_coeffs(t))
    if not new_state.is_finite():
        raise NonFiniteError("non-finite master update")
    return new_state, new_duals


@dataclass
class GapVector:
    """Blocks of the stationarity gap; squared norm drives the stopping rule.

    ``gx[i-1]`` is (N, d_i) and ``gtheta`` is (N, d1).
    """

    gx: list[Array]
    gz: list[Array]
    glam: Array
    gtheta: Array

    @property
    def sq_norm(self) -> float:
        return float(sum(np.vdot(g, g) for g in (*self.gx, *self.gz, self.glam, self.gtheta)))


def stationarity_gap(state: PrimalState, duals: DualState, poly2: Polytope,
                     problem: TrilevelProblem, cfg: OuterConfig) -> GapVector:
    """The gradient of the unregularized L_p plus its projected dual residuals.

    This is the one place L_p's gradient is formed.  The dual regularizer does
    not touch primal blocks, so the rows ``gx`` are also the regularized
    Lagrangian's, which ``worker_step`` steps on.  L_p is affine in z, so
    ``gz`` depends only on the duals and P_II, not on the primal point, which
    lets ``master_step`` reuse it.
    """
    X, lam, cols = state.x, duals.lam, problem.dims.columns
    G = problem.grad_all(1, *X)
    gx = [G[:, cols(1)] + duals.theta,
          G[:, cols(2)] + (lam[:, None, None] * poly2.B2).sum(axis=0),
          G[:, cols(3)] + (lam[:, None, None] * poly2.B3).sum(axis=0)]
    gz = [-duals.theta.sum(axis=0) + (lam[:, None] * poly2.A1).sum(axis=0),
          (lam[:, None] * poly2.A2).sum(axis=0),
          (lam[:, None] * poly2.A3).sum(axis=0)]
    proj = _dual_step(state, duals, poly2, problem, cfg)
    return GapVector(
        gx=gx,
        gz=gz,
        glam=(lam - proj.lam) / cfg.eta_lambda,
        gtheta=(duals.theta - proj.theta) / cfg.eta_theta,
    )
