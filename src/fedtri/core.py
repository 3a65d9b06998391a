"""Domain types for distributed trilevel problems and shared numeric utilities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray

BLOCKS = (1, 2, 3)


class FedtriError(Exception):
    """Base class for library errors."""


class NonFiniteError(FedtriError):
    """A function or gradient evaluation produced a non-finite value."""


@dataclass(frozen=True)
class Dims:
    """Block dimensions of the three variable levels plus the worker count."""

    d1: int
    d2: int
    d3: int
    N: int

    def __post_init__(self):
        for name in ("d1", "d2", "d3", "N"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")

    def block(self, i: int) -> int:
        return (self.d1, self.d2, self.d3)[i - 1]


GradFn = Callable[[int, int, int, Array, Array, Array], Array]
EvalFn = Callable[[int, int, Array, Array, Array], float]
CrossHessFn = Callable[[int, int, int, int, Array, Array, Array], Array]


@dataclass
class TrilevelProblem:
    """Three per-worker objective families with gradient access.

    ``eval_fn(level, worker, x1, x2, x3)`` returns the scalar objective of
    worker ``worker`` (0-based) at level ``level`` in {1, 2, 3}.  ``grad_fn``
    returns the gradient with respect to one of the three argument blocks;
    when it is None, central finite differences are used.  ``cross_hess_fn``
    optionally exposes second derivatives ``d^2 f / d(block_out) d(block_in)``
    and enables the analytic unrolled-gradient path.
    """

    dims: Dims
    eval_fn: EvalFn
    grad_fn: Optional[GradFn] = None
    cross_hess_fn: Optional[CrossHessFn] = None
    alphas: tuple[float, float, float] = (1e6, 1e6, 1e6)
    weak_convexity_mu: float = 0.0
    name: str = "problem"
    initial_point_fn: Optional[Callable[[np.random.Generator], tuple[Array, Array, Array]]] = None

    def __post_init__(self):
        if any(a <= 0 for a in self.alphas):
            raise ValueError("alphas must be strictly positive")
        if self.weak_convexity_mu < 0:
            raise ValueError("weak_convexity_mu must be nonnegative")

    def eval(self, level: int, worker: int, x1: Array, x2: Array, x3: Array) -> float:
        val = float(self.eval_fn(level, worker, x1, x2, x3))
        if not np.isfinite(val):
            raise NonFiniteError(f"f_{level},{worker} is non-finite")
        return val

    def grad(self, level: int, worker: int, block: int, x1: Array, x2: Array, x3: Array) -> Array:
        if self.grad_fn is not None:
            g = np.asarray(self.grad_fn(level, worker, block, x1, x2, x3), dtype=float)
        else:
            args = [np.asarray(x1, float), np.asarray(x2, float), np.asarray(x3, float)]

            def restricted(v: Array) -> float:
                pert = list(args)
                pert[block - 1] = v
                return self.eval(level, worker, *pert)

            g = finite_diff_grad(restricted, args[block - 1])
        if g.shape != (self.dims.block(block),):
            raise self._grad_shape_error(g, block)
        if not np.all(np.isfinite(g)):
            raise NonFiniteError(f"grad f_{level},{worker} block {block} is non-finite")
        return g

    def grad_all(self, level: int, block: int, X1: Array, X2: Array, X3: Array) -> Array:
        """Every worker's ``grad(level, j, block, ...)`` stacked into an (N, d) array.

        Each argument is either one block of shape (d_i,), shared by all
        workers, or per-worker rows of shape (N, d_i).  The stacked result is
        checked for finiteness once; a non-finite row names its worker.
        """
        d = self.dims
        cols = []
        for i, (X, di) in enumerate(zip((X1, X2, X3), (d.d1, d.d2, d.d3))):
            X = np.asarray(X, float)
            if X.shape == (di,):
                cols.append((X,) * d.N)
            elif X.shape == (d.N, di):
                cols.append(X)
            else:
                raise ValueError(f"block {i + 1} argument has shape {X.shape}")
        if self.grad_fn is None:
            return np.stack([self.grad(level, j, block, *args) for j, args in enumerate(zip(*cols))])
        expected = (d.block(block),)
        G = np.empty((d.N,) + expected)
        for j, args in enumerate(zip(*cols)):
            g = np.asarray(self.grad_fn(level, j, block, *args), dtype=float)
            if g.shape != expected:
                raise self._grad_shape_error(g, block)
            G[j] = g
        if not np.isfinite(G).all():
            j = int(np.argmin(np.isfinite(G).all(axis=1)))
            raise NonFiniteError(f"grad f_{level},{j} block {block} is non-finite")
        return G

    def _grad_shape_error(self, g: Array, block: int) -> ValueError:
        return ValueError(
            f"gradient block {block} has length {g.shape}, expected {self.dims.block(block)}"
        )

    def cross_hess(self, level: int, worker: int, block_out: int, block_in: int,
                   x1: Array, x2: Array, x3: Array) -> Array:
        if self.cross_hess_fn is None:
            raise FedtriError(
                "analytic unrolled gradients need second derivatives, "
                f"but problem {self.name!r} does not expose them"
            )
        return np.asarray(self.cross_hess_fn(level, worker, block_out, block_in, x1, x2, x3), float)

    @property
    def has_second_derivatives(self) -> bool:
        return self.cross_hess_fn is not None

    def initial_point(self, rng: np.random.Generator) -> tuple[Array, Array, Array]:
        if self.initial_point_fn is not None:
            x1, x2, x3 = self.initial_point_fn(rng)
            return np.asarray(x1, float), np.asarray(x2, float), np.asarray(x3, float)
        d = self.dims
        return np.zeros(d.d1), np.zeros(d.d2), np.zeros(d.d3)


@dataclass
class PrimalState:
    """Per-worker local blocks plus master-held consensus blocks."""

    x: list[list[Array]]  # x[i-1][j], block i in {1,2,3}, worker j in 0..N-1
    z: list[Array]  # z[i-1]

    @staticmethod
    def from_point(dims: Dims, x1: Array, x2: Array, x3: Array) -> "PrimalState":
        blocks = (np.asarray(x1, float), np.asarray(x2, float), np.asarray(x3, float))
        for i, b in enumerate(blocks):
            if b.shape != (dims.block(i + 1),):
                raise ValueError(f"block {i + 1} has shape {b.shape}")
        x = [[blocks[i].copy() for _ in range(dims.N)] for i in range(3)]
        z = [blocks[i].copy() for i in range(3)]
        return PrimalState(x=x, z=z)

    def copy(self) -> "PrimalState":
        return PrimalState(
            x=[[xj.copy() for xj in row] for row in self.x],
            z=[zi.copy() for zi in self.z],
        )

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(xj)) for row in self.x for xj in row) and all(
            np.all(np.isfinite(zi)) for zi in self.z
        )


@dataclass
class DualState:
    """Outer duals plus the latest inner duals and slacks.

    ``lam`` is aligned with the layer-II polytope's cut order, ``gamma`` and
    ``slack`` with the layer-I polytope's.  ``theta`` holds one vector of
    length d1 per worker.
    """

    lam: Array = field(default_factory=lambda: np.zeros(0))
    theta: list[Array] = field(default_factory=list)
    phi2: list[Array] = field(default_factory=list)
    phi3: list[Array] = field(default_factory=list)
    gamma: Array = field(default_factory=lambda: np.zeros(0))
    slack: Array = field(default_factory=lambda: np.zeros(0))

    @staticmethod
    def zeros(dims: Dims, n_cuts2: int = 0, n_cuts1: int = 0) -> "DualState":
        return DualState(
            lam=np.zeros(n_cuts2),
            theta=[np.zeros(dims.d1) for _ in range(dims.N)],
            phi2=[np.zeros(dims.d2) for _ in range(dims.N)],
            phi3=[np.zeros(dims.d3) for _ in range(dims.N)],
            gamma=np.zeros(n_cuts1),
            slack=np.zeros(n_cuts1),
        )

    def copy(self) -> "DualState":
        return DualState(
            lam=self.lam.copy(),
            theta=[t.copy() for t in self.theta],
            phi2=[p.copy() for p in self.phi2],
            phi3=[p.copy() for p in self.phi3],
            gamma=self.gamma.copy(),
            slack=self.slack.copy(),
        )

    def check_bounds(self, alpha4: float, alpha5: float, d1: int, atol: float = 1e-12) -> None:
        cap = np.sqrt(alpha4)
        if self.lam.size and (self.lam.min() < -atol or self.lam.max() > cap + atol):
            raise ValueError("lambda outside [0, sqrt(alpha4)]")
        box = np.sqrt(alpha5) / d1
        for th in self.theta:
            if np.abs(th).max(initial=0.0) > box + atol:
                raise ValueError("theta outside infinity-norm box")
        if self.slack.size and self.slack.min() < -atol:
            raise ValueError("negative slack")
        if self.gamma.size and self.gamma.min() < -atol:
            raise ValueError("negative gamma")


@dataclass(frozen=True)
class ConsensusView:
    """Per-worker local copies tied to consensus blocks by equality descriptors.

    Purely structural: descriptor ``(i, j)`` states ``x[i][j] == z[i]``.  No
    numerical work happens here; objective evaluation passes straight through.
    """

    problem: TrilevelProblem
    descriptors: tuple[tuple[int, int], ...]

    def eval_local(self, level: int, worker: int, x1: Array, x2: Array, x3: Array) -> float:
        return self.problem.eval(level, worker, x1, x2, x3)

    def descriptors_for_level(self, level: int) -> tuple[tuple[int, int], ...]:
        return tuple(d for d in self.descriptors if d[0] == level)


def reformulate_consensus(problem: TrilevelProblem) -> ConsensusView:
    """Attach the consensus structure: one local copy per worker and level."""
    descriptors = tuple((i, j) for i in BLOCKS for j in range(problem.dims.N))
    return ConsensusView(problem=problem, descriptors=descriptors)


def default_fd_step(v: Array) -> float:
    return 1e-5 * (1.0 + float(np.abs(v).max(initial=0.0)))


def finite_diff_grad(f: Callable[[Array], float], v: Array, h: Optional[float] = None) -> Array:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    v = np.asarray(v, dtype=float)
    if h is None:
        h = default_fd_step(v)
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    g = np.zeros_like(v)
    for k in range(v.size):
        e = np.zeros_like(v)
        e[k] = h
        fp = float(f(v + e))
        fm = float(f(v - e))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError(f"non-finite function value at coordinate {k}")
        g[k] = (fp - fm) / (2.0 * h)
    return g


def project_ball_sq(v: Array, alpha: float) -> Array:
    """Project onto the ball ``||v||^2 <= alpha`` (radial scaling)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    v = np.asarray(v, dtype=float)
    nrm_sq = float(v @ v)
    if not np.isfinite(nrm_sq):
        raise NonFiniteError("cannot project a non-finite vector")
    if nrm_sq <= alpha or nrm_sq == 0.0:
        return v.copy() if nrm_sq <= alpha else np.zeros_like(v)
    return v * np.sqrt(alpha / nrm_sq)


def project_interval(v: Array, lo: float, hi: float) -> Array:
    return np.clip(v, lo, hi)


def project_box_inf(v: Array, bound: float) -> Array:
    """Project onto the infinity-norm box ``||v||_inf <= bound``."""
    return np.clip(v, -bound, bound)


def estimate_mu(
    h: Callable[[Array], float],
    sample_points: Sequence[Array],
    pair_samples: int,
    grad: Optional[Callable[[Array], Array]] = None,
    seed: int = 0,
) -> float:
    """Empirical weak-convexity modulus from the first-order condition.

    Over sampled ordered pairs (x, x'), returns the smallest mu >= 0 with
    ``h(x) >= h(x') + grad h(x')^T (x - x') - (mu/2) ||x - x'||^2``, i.e. the
    max of ``2 (h(x') + grad h(x')^T (x - x') - h(x)) / ||x - x'||^2`` clamped
    at zero.  Coincident pairs are skipped; if every pair is coincident an
    error is raised.  ``grad`` defaults to central finite differences.  With
    ``pair_samples`` at least n*(n-1) all ordered pairs are enumerated, which
    makes the estimate monotone in the sample set.
    """
    points = [np.asarray(p, dtype=float) for p in sample_points]
    n = len(points)
    if n < 2:
        raise ValueError("estimate_mu needs at least 2 sample points")
    if pair_samples < 1:
        raise ValueError("pair_samples must be positive")

    if grad is None:
        grad = lambda v: finite_diff_grad(h, v)

    values = [float(h(p)) for p in points]
    grads: dict[int, Array] = {}

    if pair_samples >= n * (n - 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    else:
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=(pair_samples, 2))
        pairs = [(int(i), int(j)) for i, j in idx]

    best = -np.inf
    used = 0
    for i, j in pairs:  # x = points[i], anchor x' = points[j]
        diff = points[i] - points[j]
        dist_sq = float(diff @ diff)
        if dist_sq == 0.0:
            continue
        if j not in grads:
            grads[j] = np.asarray(grad(points[j]), dtype=float)
        gap = values[j] + float(grads[j] @ diff) - values[i]
        best = max(best, 2.0 * gap / dist_sq)
        used += 1
    if used == 0:
        raise FedtriError("all sampled pairs are coincident")
    return max(0.0, best)
