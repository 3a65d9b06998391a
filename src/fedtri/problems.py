"""Problem builders: the quadratic verification oracle and robust HPO."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, Dims, FedtriError, TrilevelProblem, check_real
from .data import RegressionDataset, shard_indices

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Synthetic quadratic trilevel problem with nested closed-form solution


@dataclass
class QuadraticOracle:
    """Nested argmins of the generated quadratic problem, by direct solves."""

    y1: Array
    y2: Array
    y3: Array


def _random_spd(rng: np.random.Generator, n: int, d: int, conditioning: float) -> Array:
    """n SPD matrices (n, d, d) from one draw, eigenvalues log-spaced in [1/conditioning, 1]."""
    if d == 1:
        return np.ones((n, 1, 1))
    q, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    eigs = np.logspace(-np.log10(conditioning), 0.0, d)
    return (q * eigs) @ q.swapaxes(-1, -2)


def _build_quadratic_data(rng, dims: Dims, conditioning: float, coupling: float,
                          center_scale: float):
    """Every worker's matrices and centres: (N, a, b) and (N, a) arrays, one draw per family."""
    d1, d2, d3, N = dims.d1, dims.d2, dims.d3, dims.N
    cscale = coupling / np.sqrt(max(d1, d2, d3))

    def spd(d):
        return _random_spd(rng, N, d, conditioning)

    def normal(scale, *shape):
        return scale * rng.standard_normal((N, *shape))

    return {  # one draw per family, in this order: it fixes the random stream
        "A": spd(d3), "B": normal(cscale, d3, d1), "C": normal(cscale, d3, d2),
        "g": normal(center_scale, d3),
        "D": spd(d2), "E": normal(cscale, d2, d1), "F": normal(cscale, d2, d3),
        "h": normal(center_scale, d2),
        "Q1": spd(d1 + d2 + d3),
        "y1": center_scale * rng.standard_normal(d1),
    }


def _mv(M: Array, x: Array) -> Array:
    """Row-wise mat-vecs: (N, a, b) matrices times (N, b) rows give (N, a)."""
    return (M @ x[..., None])[..., 0]


def _dot(a: Array, b: Array) -> Array:
    """Row-wise dot products of two (..., d) arrays, shape (...)."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _solve_oracle(data) -> QuadraticOracle:
    A_bar = sum(data["A"])
    B_bar = sum(data["B"])
    C_bar = sum(data["C"])
    g_bar = sum(data["g"])
    P3 = -np.linalg.solve(A_bar, B_bar)  # y3(z1, z2) = P3 z1 + R3 z2 + s3
    R3 = -np.linalg.solve(A_bar, C_bar)
    s3 = -np.linalg.solve(A_bar, g_bar)

    D_bar = sum(data["D"])
    E_bar = sum(data["E"])
    F_bar = sum(data["F"])
    h_bar = sum(data["h"])
    H2 = D_bar + F_bar @ R3 + R3.T @ F_bar.T
    eigs = np.linalg.eigvalsh(0.5 * (H2 + H2.T))
    if eigs.min() < 1e-6:
        raise np.linalg.LinAlgError("level-2 reduced Hessian not positive definite")
    P2 = -np.linalg.solve(H2, E_bar + F_bar @ P3)  # y2(z1) = P2 z1 + s2
    s2 = -np.linalg.solve(H2, F_bar @ s3 + h_bar)

    y1 = data["y1"]
    y2 = P2 @ y1 + s2
    return QuadraticOracle(y1=y1, y2=y2, y3=P3 @ y1 + R3 @ y2 + s3)


def build_quadratic_problem(
    seed: int,
    dims: tuple[int, int, int],
    N: int,
    conditioning: float = 10.0,
    coupling: float = 0.2,
    center_scale: float = 0.5,
    alphas: tuple[float, float, float] = (1e6, 1e6, 1e6),
    init_scale: float = 1.0,
) -> tuple[TrilevelProblem, QuadraticOracle]:
    """Per-worker strictly convex quadratics with a closed-form nested oracle.

    Levels 2 and 3 are random SPD quadratics with cross-level couplings; the
    level-1 objective is an SPD quadratic centered at the nested argmin, so
    the oracle is also the trilevel optimum.  Each family (A, B, C, g, D, E,
    F, h, Q1, y1) is one stacked draw for all N workers, in that fixed order.
    A singular level-2 reduction triggers regeneration under a derived seed.

    Every level is one quadratic form over a worker's flat point
    v = [x1 | x2 | x3], ``f_l(v) = 1/2 (v - m_l)^T H_l (v - m_l) + b_l^T (v - m_l)``,
    stacked once for all N workers.  Level 1 is Q1 centred at the oracle point;
    levels 2 and 3 have m = 0, their own block's matrix and couplings (with
    transposes) in H, and h or g in b.  ``grad_fn`` is ``H_l (v - m_l) + b_l``
    and ``cross_hess_fn`` is H_l itself.
    """
    if any(d > 20 for d in dims) or any(d < 1 for d in dims):
        raise ValueError("quadratic builder is desk-scale: dims must be in 1..20")
    for name, value, low in (("conditioning", conditioning, 1.0), ("coupling", coupling, -np.inf),
                             ("center_scale", center_scale, 0.0), ("init_scale", init_scale, 0.0)):
        check_real(name, value, low)
    dd = Dims(d1=dims[0], d2=dims[1], d3=dims[2], N=N)

    oracle: Optional[QuadraticOracle] = None
    for attempt in range(20):
        rng = np.random.default_rng(seed + 1000 * attempt)
        data = _build_quadratic_data(rng, dd, conditioning, coupling, center_scale)
        try:
            oracle = _solve_oracle(data)
            break
        except np.linalg.LinAlgError:
            logger.warning("quadratic generation %d was singular, regenerating", attempt)
    if oracle is None:
        raise FedtriError("could not generate a well-posed quadratic problem")
    # Stored as G_l = [[H_l, b_l], [b_l^T, 0]] over u = [v - m_l, 1]: f_l = u^T G_l u / 2,
    # and the gradient is one mat-vec, G_l's first D rows times u.
    D, cols = dd.width, (None, *(dd.columns(i) for i in (1, 2, 3)))
    G, m = np.zeros((3, N, D + 1, D + 1)), np.zeros((3, D))
    G[0, :, :D, :D], m[0] = data["Q1"], np.concatenate([oracle.y1, oracle.y2, oracle.y3])
    for level, blocks, lin in ((2, "EDF", "h"), (3, "BCA", "g")):
        for i, key in enumerate(blocks, start=1):  # transpose first: the own block stays as given
            G[level - 1][:, cols[i], cols[level]] = data[key].transpose(0, 2, 1)
            G[level - 1][:, cols[level], cols[i]] = data[key]
        G[level - 1][:, cols[level], D] = G[level - 1][:, D, cols[level]] = data[lin]
    full, rows, shift = tuple(G), tuple(G[:, :, :D]), tuple(m)  # per-level views, built once
    u = np.ones((N, D + 1))  # every call's u, its last column always one: no result is a view of it
    head = u[:, :D]

    def deviation(level, V):
        np.subtract(V, shift[level - 1], out=head)
        return u

    def eval_fn(level, V):
        u = deviation(level, V)
        return 0.5 * _dot(u, _mv(full[level - 1], u))

    def grad_fn(level, V):
        return _mv(rows[level - 1], deviation(level, V))

    def cross_hess_fn(level, V):
        return G[level - 1, :, :D, :D]

    def initial_point_fn(rng):
        return (init_scale * rng.standard_normal(dd.d1),
                init_scale * rng.standard_normal(dd.d2),
                init_scale * rng.standard_normal(dd.d3))

    problem = TrilevelProblem(
        dims=dd, eval_fn=eval_fn, grad_fn=grad_fn, cross_hess_fn=cross_hess_fn,
        alphas=alphas, weak_convexity_mu=0.0, name=f"quadratic(seed={seed})",
        initial_point_fn=initial_point_fn,
    )
    return problem, oracle


# ---------------------------------------------------------------------------
# Multi-layer perceptron with hand-rolled backprop (numpy only)


@dataclass(frozen=True)
class MlpShape:
    layer_sizes: tuple[int, ...]  # (features, hidden..., 1)

    def __post_init__(self):  # each layer's W and b columns in a weight vector, found once
        params, off = [], 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            b = off + fan_out * fan_in
            params.append((slice(off, b), slice(b, b + fan_out), (fan_out, fan_in)))
            off = b + fan_out
        object.__setattr__(self, "_params", tuple(params))

    @property
    def n_params(self) -> int:
        return self._params[-1][1].stop

    def unpack(self, w: Array) -> list[tuple[Array, Array]]:
        """Each layer's (W, b) as views of ``w`` (..., P): W is (..., fan_out, fan_in)."""
        lead = w.shape[:-1]
        return [(w[..., cw].reshape(lead + fo_fi), w[..., cb]) for cw, cb, fo_fi in self._params]

    def init(self, rng: np.random.Generator) -> Array:
        chunks = []
        for _, _, (fan_out, fan_in) in self._params:
            chunks.append(rng.standard_normal(fan_out * fan_in) / np.sqrt(fan_in))
            chunks.append(np.zeros(fan_out))
        return np.concatenate(chunks)


def _weighted_sq_error(pred: Array, y: Array, weights: Array) -> Array:
    """``sum_i weights_i (pred_i - y_i)^2`` over the last axis."""
    err = pred - y
    return (weights * err * err).sum(axis=-1)


def _forward(shape: MlpShape, w: Array, X: Array):
    """Each layer's (W, b), and ``X`` then each layer's output: tanh ones, the last (..., m, 1)."""
    params, acts = shape.unpack(w), [X]
    for W, b in params:
        a = acts[-1] @ W.swapaxes(-1, -2)
        a += b[..., None, :]
        acts.append(np.tanh(a, out=a) if len(acts) < len(params) else a)
    return params, acts


def mlp_forward(shape: MlpShape, w: Array, X: Array) -> Array:
    """tanh hidden layers, linear scalar output: weights (..., P), inputs (..., m, f) -> (..., m).

    Leading axes batch independent models, each with its own weights and rows.
    """
    return _forward(shape, w, X)[1][-1][..., 0]


def mlp_grads(shape: MlpShape, w: Array, X: Array, y: Array, two_weights: Array,
              dw: Array) -> Array:
    """Backprop of ``sum_i weights_i (pred_i - y_i)^2``: weight gradient into ``dw``, dX returned.

    Shapes as in ``mlp_forward``; ``y`` and ``two_weights``, twice the row
    weights, are (..., m).  Each layer's gradient is written straight into its
    columns of ``dw`` (..., P), which may be a view such as an oracle result's
    x3 columns; dX is (..., m, f).  No loss is formed, and ``X`` is only read.
    Each model along the leading axes gets the numbers a call on that model
    alone would give.
    """
    params, acts = _forward(shape, w, X)
    dz = acts.pop()  # the output, then its gradient: twice the weighted error
    dz -= y[..., None]
    dz *= two_weights[..., None]
    grads = shape.unpack(dw)
    for i in reversed(range(len(params))):
        a, (gW, gb) = acts[i], grads[i]
        np.matmul(dz.swapaxes(-1, -2), a, out=gW)
        dz.sum(axis=-2, out=gb)
        dz = dz @ params[i][0]  # the gradient in a
        if i:  # through a = tanh(.), whose derivative is 1 - a^2: a is this pass's own
            np.square(a, out=a)
            np.subtract(1.0, a, out=a)
            dz *= a
    return dz


# ---------------------------------------------------------------------------
# Distributed robust hyperparameter optimization


@dataclass(frozen=True)
class RobustHpoSpec:
    """Adversarial-noise penalty, smoothed-l1 sharpness and MLP widths."""

    mlp_layers: tuple[int, ...] = (16,)
    c: float = 1.0
    smoothing: float = 1e-3
    adversary: bool = True  # False pins the optimal noise at zero (baseline)

    def __post_init__(self):
        check_real("c", self.c, strict=True)
        check_real("smoothing", self.smoothing, strict=True)
        if any(width < 1 for width in self.mlp_layers):
            raise ValueError("hidden widths must be positive")


def smoothed_l1(w: Array, delta: float) -> tuple[Array, Array]:
    """``sum_k sqrt(w_k^2 + delta^2) - delta`` over the last axis, and its gradient in ``w``."""
    root = np.sqrt(w * w + delta * delta)
    return np.sum(root - delta, axis=-1), w / root


def _stack_shards(data: RegressionDataset, shards: list[Array]) -> tuple[Array, Array, Array]:
    """Shards as (N, m, f) rows, (N, m) targets and (N, m) row weights, m the largest shard.

    Shorter shards are padded with zero rows.  A real row of shard j weighs
    1/m_j and a padding row 0, so a weighted sum over rows is shard j's mean.
    """
    m = max(len(s) for s in shards)
    X = np.zeros((len(shards), m, data.n_features))
    y = np.zeros((len(shards), m))
    weights = np.zeros((len(shards), m))
    for j, s in enumerate(shards):
        X[j, :len(s)] = data.X[s]
        y[j, :len(s)] = data.y[s]
        weights[j, :len(s)] = 1.0 / len(s)
    return X, y, weights


@dataclass
class RobustHpo:
    """A robust-HPO instance: the trilevel problem plus evaluation access."""

    problem: TrilevelProblem
    spec: RobustHpoSpec
    data: RegressionDataset
    shape: MlpShape
    train_shards: list[Array]
    val_shards: list[Array]


def build_robust_hpo_problem(
    data: RegressionDataset,
    spec: RobustHpoSpec,
    N: int,
    alphas: tuple[float, float, float] = (25.0, 100.0, 400.0),
    weak_convexity_mu: float = 0.0,
    phi_init: float = -2.0,
) -> RobustHpo:
    """Three-level adversarial regression over sharded train/val data.

    Level 1 is validation MSE of the model; level 2 maximizes per-worker
    training loss gain of an input perturbation minus ``c`` times its squared
    norm (implemented as minimizing the negation); level 3 minimizes training
    loss under that perturbation plus ``exp(phi)`` times the smoothed l1 norm
    of the weights.  Blocks: x1 = phi (scalar), x2 = per-worker noise (one
    vector added to every local training row), x3 = MLP weights.

    The shards are stacked once (``_stack_shards``), so each oracle call runs
    one batched forward pass of all N workers' models, and ``grad_fn`` one
    backward pass (``mlp_grads``) that writes its result's x3 columns in
    place; ragged shards take the same path through their zero-weighted
    padding rows.
    """
    check_real("phi_init", phi_init, low=-np.inf)
    shape = MlpShape(layer_sizes=(data.n_features, *spec.mlp_layers, 1))
    train_shards = shard_indices(data.train_idx, N)
    val_shards = shard_indices(data.val_idx, N)
    dims = Dims(d1=1, d2=data.n_features, d3=shape.n_params, N=N)
    Xtr, ytr, wtr = _stack_shards(data, train_shards)
    Xval, yval, wval = _stack_shards(data, val_shards)
    delta = spec.smoothing
    c_pen = spec.c

    def noisy(X2):  # worker j's one noise row added to each of its training rows
        return Xtr + X2[:, None, :]

    def eval_fn(level, V):
        X1, X2, X3 = dims.split(V)
        if level == 1:
            return _weighted_sq_error(mlp_forward(shape, X3, Xval), yval, wval)
        if level == 2 and not spec.adversary:
            return c_pen * _dot(X2, X2)
        train = _weighted_sq_error(mlp_forward(shape, X3, noisy(X2)), ytr, wtr)
        if level == 2:
            return -(train - c_pen * _dot(X2, X2))
        return train + np.exp(X1[:, 0]) * smoothed_l1(X3, delta)[0]

    c1, c2, c3 = (dims.columns(i) for i in (1, 2, 3))
    two_wtr, two_wval = 2.0 * wtr, 2.0 * wval

    def grad_fn(level, V):  # one backward pass, into G's x3 columns; ignored columns stay 0
        X1, X2, X3 = dims.split(V)
        G = np.zeros((N, dims.width))
        g3 = G[:, c3]
        if level == 1:
            mlp_grads(shape, X3, Xval, yval, two_wval, g3)
        elif level == 2 and not spec.adversary:
            G[:, c2] = 2.0 * c_pen * X2
        else:
            dp = mlp_grads(shape, X3, noisy(X2), ytr, two_wtr, g3).sum(axis=-2)
            if level == 2:
                G[:, c2] = -(dp - 2.0 * c_pen * X2)
                np.negative(g3, out=g3)
            else:
                (l1, l1_grad), pen = smoothed_l1(X3, delta), np.exp(X1)
                G[:, c1], G[:, c2] = pen * l1[:, None], dp
                g3 += pen * l1_grad
        return G

    def initial_point_fn(rng):
        return (np.array([phi_init]), np.zeros(dims.d2), shape.init(rng))

    problem = TrilevelProblem(
        dims=dims, eval_fn=eval_fn, grad_fn=grad_fn, cross_hess_fn=None,
        alphas=alphas, weak_convexity_mu=weak_convexity_mu,
        name="robust_hpo", initial_point_fn=initial_point_fn,
    )
    return RobustHpo(problem=problem, spec=spec, data=data, shape=shape,
                     train_shards=train_shards, val_shards=val_shards)


def evaluate_model(hpo: RobustHpo, w: Array, noise_seed: int = 0) -> dict[str, float]:
    """Test MSE on the clean test split and on a seeded Gaussian-noised copy."""
    X, y = hpo.data.split("test")
    if w.shape != (hpo.shape.n_params,):
        raise ValueError("weight vector does not match the MLP shape")
    pred = mlp_forward(hpo.shape, w, X)
    mse_clean = float(np.mean((pred - y) ** 2))
    sigma = hpo.data.noise_sigma
    if sigma == 0.0:
        return {"mse_clean": mse_clean, "mse_noisy": mse_clean}
    rng = np.random.default_rng(noise_seed)
    Xn = X + sigma * rng.standard_normal(X.shape)
    mse_noisy = float(np.mean((mlp_forward(hpo.shape, w, Xn) - y) ** 2))
    return {"mse_clean": mse_clean, "mse_noisy": mse_noisy}
