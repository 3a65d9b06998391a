"""Domain types for distributed trilevel problems and shared numeric utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class FedtriError(Exception):
    """Base class for library errors."""


class NonFiniteError(FedtriError):
    """A function or gradient evaluation produced a non-finite value."""


def store_ints(obj, *names: str) -> None:
    """Store fields ``names`` of the frozen dataclass ``obj`` as plain ints, so a RunLog writes as
    JSON; ``ValueError`` names a field that is no ``int`` or NumPy integer (a float, a bool)."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {v!r}")
        object.__setattr__(obj, name, int(v))


def check_real(name: str, value, low: float = 0.0, strict: bool = False) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is a finite real ``>= low`` (``> low`` if
    ``strict``), no bool.  A bare ``value < low`` lets NaN pass, and the run then aborts."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value) or value < low or (strict and value == low)):
        bound = f" {'>' if strict else '>='} {low}" if low > -np.inf else ""
        raise ValueError(f"{name} must be a finite real{bound}, got {value!r}")


@dataclass(frozen=True)
class Dims:
    """Block dimensions of the three variable levels plus the worker count.

    ``sizes`` = (d1, d2, d3) and ``width`` = D = d1 + d2 + d3, the width of a worker's flat
    point ``[x1 | x2 | x3]``, are stored once and take no part in equality or hashing.
    """

    d1: int
    d2: int
    d3: int
    N: int

    def __post_init__(self):
        store_ints(self, "d1", "d2", "d3", "N")
        sizes = (self.d1, self.d2, self.d3)
        if min(sizes + (self.N,)) < 1:
            raise ValueError(f"dims must be positive integers, got {self}")
        a, b = self.d1, self.d1 + self.d2  # block i's columns in a flat point, for ``columns``
        for name, value in (("sizes", sizes), ("width", b + self.d3),
                            ("_columns", (slice(0, a), slice(a, b), slice(b, b + self.d3)))):
            object.__setattr__(self, name, value)

    def block(self, i: int) -> int:
        return self.sizes[i - 1]

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
        for a in self.alphas:
            check_real("alphas", a, strict=True)
        check_real("weak_convexity_mu", self.weak_convexity_mu)

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
        if not np.logical_and.reduce(np.isfinite(A), axis=None):
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
            raise FedtriError("analytic unrolled gradients need second derivatives, "
                              f"but problem {self.name!r} does not expose them")
        D = self.dims.width
        return self._checked(level, "cross Hessian has", "cross Hessian of ",
                             self.cross_hess_fn(level, self._rows(V)), (self.dims.N, D, D))

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

    def oracle_point(self, level: int) -> Array:
        """Level ``level``'s oracle rows (N, D), a new array: X with the columns before block
        ``level`` taken from Z, so level 2 reads ``(z1, x2, x3)`` and level 3 ``(z1, z2, x3)``."""
        V, head = self.X.copy(), self.dims.columns(level).start
        V[:, :head] = self.Z[:head]
        return V

    def row(self) -> Array:
        """``[Z | X.ravel()]`` (D + N D,): the vector a cut row multiplies."""
        return np.concatenate((self.Z, self.X.ravel()))


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


@dataclass(frozen=True, eq=False)
class Polytope:
    """An immutable, ordered set of cuts ``w . [Z | X.ravel()] <= c``, each stored once, as a row.

    ``W`` (L, D + N D) stacks the rows over ``PrimalState.row``, ``c`` (L,) the
    offsets and ``ids`` the cuts' unique ids; ``Polytope(dims)`` has no cuts.
    A layer-I cut reads Z and the x3 columns of X, a layer-II cut Z and the
    x2 and x3 columns: the X columns a layer does not read hold exact zeros.
    ``A2`` (L, d2) is a contiguous copy of W's z2 columns, which the level-2
    unroll steps on.  ``add`` and ``keep`` return new polytopes.
    """

    dims: Dims
    W: Optional[Array] = None
    c: Optional[Array] = None
    ids: tuple[int, ...] = ()

    def __post_init__(self):
        L, width = len(self.ids), self.dims.width * (self.dims.N + 1)
        W = np.zeros((0, width)) if self.W is None else np.array(self.W, float)
        c = np.zeros(0) if self.c is None else np.array(self.c, float)
        if W.shape != (L, width) or c.shape != (L,):
            raise ValueError(f"{L} cuts need ({L}, {width}) rows and ({L},) offsets, "
                             f"got {W.shape} and {c.shape}")
        if len(set(self.ids)) != L:
            raise ValueError("cut ids must be unique")
        if not (np.isfinite(W).all() and np.isfinite(c).all()):
            raise NonFiniteError("cut coefficients must be finite")
        for name, value in (("W", W), ("c", c), ("ids", tuple(self.ids)),
                            ("A2", np.ascontiguousarray(W[:, self.dims.columns(2)]))):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return len(self.ids)

    def add(self, w: Array, c: float, cut_id: int) -> "Polytope":
        """These cuts and then ``w . [Z | X.ravel()] <= c`` under the id ``cut_id``."""
        return Polytope(self.dims, np.vstack((self.W, w)), np.append(self.c, c),
                        self.ids + (cut_id,))

    def keep(self, mask) -> "Polytope":
        """The cuts where the (L,) bool ``mask`` is true, in their order."""
        mask = np.asarray(mask, bool)
        return Polytope(self.dims, self.W[mask], self.c[mask],
                        tuple(i for i, kept in zip(self.ids, mask) if kept))

    def residuals(self, state: PrimalState) -> Array:
        """Every cut's ``w . [Z | X.ravel()] - c`` (L,) at ``state``; <= 0 if satisfied."""
        return self.W @ state.row() - self.c


def finite_diff_grad(f: Callable[[Array], Array], v: Array, h: Optional[float] = None) -> Array:
    """Central differences in every row of ``v`` (..., d): one pair of ``f`` calls per column.

    ``f`` maps an array shaped like ``v`` to its rows' values (...); a (d,)
    array is one row and ``f`` a scalar function.  Each row steps by ``h`` or
    by its own ``1e-5 (1 + max |row|)``.
    """
    v = np.asarray(v, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + np.abs(v).max(axis=-1, initial=0.0))
    if not np.all(h > 0):  # NaN fails it too
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
    """Padded columns (a zero before each block), the zeros' columns, alphas, max(sizes), limit."""
    if not all(0 <= a < math.inf for a in alphas):
        raise ValueError("alpha must be nonnegative and finite")
    pos = np.arange(sum(sizes)) + np.repeat(np.arange(1, len(sizes) + 1), sizes)
    heads = np.cumsum((0, *sizes[:-1])) + np.arange(len(sizes))
    limit = min(alphas) * (1.0 - 1e-12 - 2 * max(sizes) * np.finfo(float).eps)
    return pos, heads, np.array(alphas, float), max(sizes), limit


def project_ball_sq(v: Array, alpha, sizes: Optional[tuple[int, ...]] = None) -> Array:
    """Project each block of each row of ``v`` (..., D) onto its ball ``||block||^2 <= alpha_b``.

    The blocks are consecutive columns of widths ``sizes`` (default: one of
    width D), with one finite ``alpha >= 0`` each (a number for one block).  A block
    outside its ball is scaled radially onto it; the others come back as
    they are.  Each block's sum of squares starts at a zero, as ``sum``'s does.  First, one pass
    tries ``max |v|^2 max(sizes) <= min(alpha) (1 - 1e-12 - 2 max(sizes) eps)``, whose margin
    exceeds any block sum's rounding: if it holds, the same copy comes back without the sums.
    """
    v = np.asarray(v, dtype=float)
    sizes = (v.shape[-1],) if sizes is None else tuple(sizes)
    alpha = alpha if isinstance(alpha, tuple) else tuple(np.atleast_1d(alpha))
    pos, heads, alpha, n, limit = _ball_layout(sizes, alpha)
    if np.maximum.reduce(v * v, axis=None, initial=0.0) * n <= limit:  # NaN fails it
        return v.copy()
    padded = np.zeros(v.shape[:-1] + (v.shape[-1] + len(sizes),))
    padded[..., pos] = v * v
    nrm_sq = np.add.reduceat(padded, heads, axis=-1)
    if not np.isfinite(nrm_sq).all():
        raise NonFiniteError("cannot project a non-finite vector")
    scale = np.sqrt(np.divide(alpha, nrm_sq, out=np.ones_like(nrm_sq), where=nrm_sq > alpha))
    return v * np.repeat(scale, sizes, axis=-1)
