"""Domain types for distributed trilevel problems and shared numeric utilities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


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
        a, b = self.d1, self.d1 + self.d2  # block i's columns in a flat point, for ``columns``
        object.__setattr__(self, "_columns", (slice(0, a), slice(a, b), slice(b, b + self.d3)))

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)

    def block(self, i: int) -> int:
        return self.sizes[i - 1]

    @property
    def width(self) -> int:
        """D = d1 + d2 + d3, the width of a worker's flat point ``[x1 | x2 | x3]``."""
        return self.d1 + self.d2 + self.d3

    def columns(self, i: int) -> slice:
        """Block i's columns in a worker's flat point."""
        return self._columns[i - 1]

    def split(self, A: Array) -> tuple[Array, Array, Array]:
        """The three blocks of flat points ``A`` (..., D), as views at ``columns``."""
        c1, c2, c3 = self._columns
        return A[..., c1], A[..., c2], A[..., c3]


# A stacked oracle, one call for all N workers (see ``TrilevelProblem``): (level, V), V the
# (N, D) flat points, D = d1 + d2 + d3 -> eval_fn (N,), grad_fn (N, D), cross_hess_fn
# (N, D, D).  It reads V, which may be the live ``PrimalState.X``, and must not write to it.
Oracle = Callable[[int, Array], Array]


@dataclass
class TrilevelProblem:
    """Three per-worker objective families with gradient access, evaluated for all workers at once.

    Every oracle is stacked and takes ``(level, V)``, ``level`` in {1, 2, 3}.
    ``V`` is (N, D), D = d1 + d2 + d3, and row j is worker j's (0-based) flat
    point ``[x1 | x2 | x3]``, block i at ``dims.columns(i)``.  ``eval_fn``
    returns the (N,) objective values, ``grad_fn`` the (N, D) gradients over
    the flat point, and the optional ``cross_hess_fn`` the (N, D, D) Jacobian
    of ``grad_fn``.  ``grad_fn`` is required; ``cross_hess_fn``, when set,
    makes ``inner.grad_h`` take the backward sweep through an unroll instead
    of finite differences.  ``V`` may be the live ``PrimalState.X``: an
    oracle reads it and must not write to it.  Row j of a result may depend
    only on row j of ``V``.  Every result is checked for its shape and finiteness.
    """

    dims: Dims
    eval_fn: Oracle
    grad_fn: Oracle
    cross_hess_fn: Optional[Oracle] = None
    alphas: tuple[float, float, float] = (1e6, 1e6, 1e6)
    weak_convexity_mu: float = 0.0
    name: str = "problem"
    initial_point_fn: Optional[Callable[[np.random.Generator], tuple[Array, Array, Array]]] = None

    def __post_init__(self):
        if any(a <= 0 for a in self.alphas):
            raise ValueError("alphas must be strictly positive")
        if self.weak_convexity_mu < 0:
            raise ValueError("weak_convexity_mu must be nonnegative")

    def _rows(self, V) -> Array:
        """The (N, D) flat points an oracle takes; any other shape raises ``ValueError``."""
        V = np.asarray(V, float)
        if V.shape != (self.dims.N, self.dims.width):
            raise ValueError(f"oracle argument has shape {V.shape}, "
                             f"expected {(self.dims.N, self.dims.width)}")
        return V

    def _checked(self, level: int, what: str, prefix: str, value, shape) -> Array:
        """An oracle result as a float array of ``shape``, or the error naming the bad worker.

        A wrong shape raises ``ValueError``; a non-finite entry raises
        ``NonFiniteError`` naming the first worker whose row holds one.
        """
        A = np.asarray(value, dtype=float)
        if A.shape != shape:
            raise ValueError(f"f_{level} {what} shape {A.shape}, expected {shape}")
        if not np.isfinite(A).all():
            j = int(np.argmin(np.isfinite(A.reshape(len(A), -1)).all(axis=1)))
            raise NonFiniteError(f"{prefix}f_{level},{j} is non-finite")
        return A

    def eval_all(self, level: int, V: Array) -> Array:
        """Every worker's level-``level`` objective as an (N,) array: one ``eval_fn`` call.

        ``V`` is (N, D), row j worker j's flat point.  A non-finite value names its worker.
        """
        F = self.eval_fn(level, self._rows(V))
        return self._checked(level, "values have", "", F, (self.dims.N,))

    def grad_all(self, level: int, V: Array) -> Array:
        """Every worker's gradient over its flat point as an (N, D) array: one ``grad_fn`` call.

        ``V`` is as for ``eval_all``.  The result's shape is checked, and its
        finiteness once; a non-finite row names its worker.
        """
        G = self.grad_fn(level, self._rows(V))
        return self._checked(level, "gradient has", "grad ", G, (self.dims.N, self.dims.width))

    def cross_hess(self, level: int, V: Array) -> Array:
        """The Jacobian of ``grad_all(level, ...)``, checked like it: (N, D, D)."""
        if self.cross_hess_fn is None:
            raise FedtriError(
                "analytic unrolled gradients need second derivatives, "
                f"but problem {self.name!r} does not expose them"
            )
        H = self.cross_hess_fn(level, self._rows(V))
        D = self.dims.width
        return self._checked(level, "cross Hessian has", "cross Hessian of ", H,
                             (self.dims.N, D, D))

    def initial_point(self, rng: np.random.Generator) -> tuple[Array, Array, Array]:
        if self.initial_point_fn is None:
            return tuple(np.zeros(di) for di in self.dims.sizes)
        return tuple(np.asarray(b, float) for b in self.initial_point_fn(rng))


@dataclass
class PrimalState:
    """Worker j's flat point ``[x1 | x2 | x3]`` as row j of ``X`` (N, D), the master's as ``Z``.

    ``x[i-1]`` (N, d_i) and ``z[i-1]`` (d_i,) are views of block i's columns,
    ``dims.columns(i)``: writing through them writes ``X`` and ``Z`` (D,).
    """

    dims: Dims
    X: Array
    Z: Array
    x = property(lambda self: self.dims.split(self.X))
    z = property(lambda self: self.dims.split(self.Z))

    @staticmethod
    def from_point(dims: Dims, x1: Array, x2: Array, x3: Array) -> "PrimalState":
        """Every worker and the master at the one point ``(x1, x2, x3)``."""
        if tuple(map(np.shape, (x1, x2, x3))) != tuple((di,) for di in dims.sizes):
            raise ValueError(f"blocks must have the shapes {[(di,) for di in dims.sizes]}")
        Z = np.concatenate((x1, x2, x3)).astype(float)
        return PrimalState(dims, np.tile(Z, (dims.N, 1)), Z)

    def copy(self) -> "PrimalState":
        return PrimalState(self.dims, self.X.copy(), self.Z.copy())


@dataclass
class DualState:
    """Outer duals: ``lam`` (L,) in the layer-II polytope's cut order, ``theta`` (N, d1)."""

    lam: Array
    theta: Array

    @staticmethod
    def zeros(dims: Dims, n_cuts2: int = 0) -> "DualState":
        return DualState(lam=np.zeros(n_cuts2), theta=np.zeros((dims.N, dims.d1)))

    def copy(self) -> "DualState":
        return DualState(lam=self.lam.copy(), theta=self.theta.copy())


LAYER_I = "I"
LAYER_II = "II"


# Each layer's point, block by block: (name, level, one row per worker).  "z"
# and "x" are the unrolled level's own blocks; the other names are the frozen
# inputs of its unroll.  Layer I is (z1, z2', z3, x3), layer II (z1, z2, z3, x3, x2).
POINT_BLOCKS = {
    LAYER_I: (("z1", 1, False), ("z2p", 2, False), ("z", 3, False), ("x", 3, True)),
    LAYER_II: (("z1", 1, False), ("z", 2, False), ("z3", 3, False), ("x3", 3, True),
               ("x", 2, True)),
}


def point_names(layer: str) -> tuple[str, ...]:
    """The block names of a layer's points, in ``point_shapes`` order."""
    return tuple(name for name, _, _ in POINT_BLOCKS[layer])


def point_shapes(layer: str, dims: Dims) -> tuple[tuple[int, ...], ...]:
    """Block shapes of a layer's points, h-gradients and cut rows, in their one order."""
    return tuple((dims.N, dims.block(i)) if rows else (dims.block(i),)
                 for _, i, rows in POINT_BLOCKS[layer])


def point_alphas(layer: str, alphas: tuple[float, float, float]) -> tuple[float, ...]:
    """Each block's ball ``||row||^2 <= alpha`` in ``point_shapes`` order.

    z_i and every worker's row of x_i share alpha_i.
    """
    return tuple(alphas[i - 1] for _, i, _ in POINT_BLOCKS[layer])


def flat_point(*blocks) -> Array:
    """A point or gradient, given block by block, as one flat vector."""
    return np.concatenate(blocks, axis=None)


def split_point(layer: str, dims: Dims, v: Array) -> tuple[Array, ...]:
    """The blocks of the flat vectors ``v`` (..., width) in point order; undoes ``flat_point``."""
    shapes = point_shapes(layer, dims)
    ends = np.cumsum([prod(s) for s in shapes])[:-1]
    return tuple(b.reshape(v.shape[:-1] + s) for b, s in zip(np.split(v, ends, axis=-1), shapes))


@dataclass(frozen=True, eq=False)
class Cut:
    """One linear inequality ``w . p <= c`` over its layer's flat point p.

    ``w`` is one row in the block order of ``point_shapes``; for a cut of h it
    is ``flat_point`` of h's gradient at the anchor point.  ``run`` stores each
    generated cut rescaled by ``normalize_cut`` to ``||w|| = 1``: the half-space
    is the same, a residual is a signed distance along the unit normal, and the
    cut's dual is measured per unit of that distance.
    """

    layer: str
    w: Array
    c: float
    id: int

    def __post_init__(self):
        if self.layer not in (LAYER_I, LAYER_II):
            raise ValueError(f"unknown layer {self.layer!r}")
        object.__setattr__(self, "w", np.asarray(self.w, float))
        if not np.isfinite(self.w).all() or not np.isfinite(self.c):
            raise NonFiniteError("cut coefficients must be finite")


@dataclass(frozen=True, eq=False)
class Polytope:
    """An immutable, ordered set of same-layer cuts and their stacked rows.

    ``W`` (L, width) stacks the cuts' rows in the order of ``point_shapes``;
    ``A1``, ``A2``, ``A3`` (L, d_i) and ``B3``, ``B2`` (L, N, d_i) are views
    into it (``B2`` is None for layer I), and ``c`` is (L,).  They are built
    once; a refinement builds a new polytope.
    """

    layer: str
    dims: Dims
    cuts: tuple[Cut, ...] = ()

    def __post_init__(self):
        ids = [c.id for c in self.cuts]
        if len(set(ids)) != len(ids):
            raise ValueError("cut ids must be unique")
        if any(c.layer != self.layer for c in self.cuts):
            raise ValueError("all cuts must share the polytope's layer")
        width = sum(prod(s) for s in point_shapes(self.layer, self.dims))
        if any(c.w.shape != (width,) for c in self.cuts):
            raise ValueError(f"a layer-{self.layer} cut row must have width {width}")
        W = np.array([c.w for c in self.cuts]).reshape(len(self.cuts), width)
        A1, A2, A3, B3, *B2 = split_point(self.layer, self.dims, W)
        for name, value in (("W", W), ("A1", A1), ("A2", A2), ("A3", A3), ("B3", B3),
                            ("B2", B2[0] if B2 else None),
                            ("c", np.array([c.c for c in self.cuts], float))):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.cuts)

    def ids(self) -> tuple[int, ...]:
        return tuple(c.id for c in self.cuts)

    def residuals(self, *point) -> Array:
        """Every cut's ``w . p - c`` (L,) at a point in its layer's block order; <= 0 if satisfied."""
        n = len(POINT_BLOCKS[self.layer])
        if len(point) != n:
            raise ValueError(f"a layer-{self.layer} point has {n} blocks")
        return self.W @ flat_point(*point) - self.c


def finite_diff_grad(f: Callable[[Array], Array], v: Array, h: Optional[float] = None) -> Array:
    """Central differences in every row of ``v`` (..., d): one pair of ``f`` calls per column.

    ``f`` maps an array shaped like ``v`` to its rows' values (...); a (d,)
    array is one row and ``f`` a scalar function.  Each row steps by ``h`` or
    by its own ``1e-5 (1 + max |row|)``.
    """
    v = np.asarray(v, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + np.abs(v).max(axis=-1, initial=0.0))
    if np.any(h <= 0):
        raise ValueError("finite-difference step must be positive")
    g = np.empty_like(v)
    for k in range(v.shape[-1]):
        f_pm = []
        for step in (h, -h):
            p = v.copy()
            p[..., k] += step
            f_pm.append(np.asarray(f(p), dtype=float))
        if not (np.isfinite(f_pm[0]).all() and np.isfinite(f_pm[1]).all()):
            raise NonFiniteError(f"non-finite function value at coordinate {k}")
        g[..., k] = (f_pm[0] - f_pm[1]) / (2.0 * h)
    return g


@lru_cache(maxsize=None)
def _ball_layout(sizes: tuple[int, ...], alphas: tuple[float, ...]):
    """A row's columns once a zero precedes each block, those zeros' columns, and the alphas."""
    if any(a < 0 for a in alphas):
        raise ValueError("alpha must be nonnegative")
    pos = np.arange(sum(sizes)) + np.repeat(np.arange(1, len(sizes) + 1), sizes)
    heads = np.cumsum((0, *sizes[:-1])) + np.arange(len(sizes))
    return pos, heads, np.array(alphas, float)


def project_ball_sq(v: Array, alpha, sizes: Optional[tuple[int, ...]] = None) -> Array:
    """Project each block of each row of ``v`` (..., D) onto its ball ``||block||^2 <= alpha_b``.

    The blocks are consecutive columns of widths ``sizes`` (default: one of
    width D), with one ``alpha`` each (a number for one block).  A block
    outside its ball is scaled radially onto it; the others come back as
    they are.  Each block's sum of squares starts at a zero, as ``sum``'s does.
    """
    v = np.asarray(v, dtype=float)
    sizes = (v.shape[-1],) if sizes is None else tuple(sizes)
    pos, heads, alpha = _ball_layout(sizes, tuple(alpha) if np.ndim(alpha) else (alpha,))
    padded = np.zeros(v.shape[:-1] + (v.shape[-1] + len(sizes),))
    padded[..., pos] = v * v
    nrm_sq = np.add.reduceat(padded, heads, axis=-1)
    if (nrm_sq <= alpha).all():
        return v.copy()
    if not np.isfinite(nrm_sq).all():
        raise NonFiniteError("cannot project a non-finite vector")
    scale = np.sqrt(np.divide(alpha, nrm_sq, out=np.ones_like(nrm_sq), where=nrm_sq > alpha))
    return v * np.repeat(scale, sizes, axis=-1)

