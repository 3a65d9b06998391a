"""Problem builders: the quadratic verification oracle and robust HPO."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Array, Dims, FedtriError, TrilevelProblem
from .data import DatasetError, RegressionDataset, shard_indices

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Synthetic quadratic trilevel problem with nested closed-form solution


@dataclass
class QuadraticOracle:
    """Nested argmins of the generated quadratic problem, by direct solves."""

    y1: Array
    y2: Array
    y3: Array


def _random_spd(rng: np.random.Generator, d: int, conditioning: float) -> Array:
    """SPD matrix with eigenvalues log-spaced in [1/conditioning, 1]."""
    if d == 1:
        return np.array([[1.0]])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = np.logspace(-np.log10(conditioning), 0.0, d)
    return (q * eigs) @ q.T


def _build_quadratic_data(rng, dims: Dims, conditioning: float, coupling: float,
                          center_scale: float):
    d1, d2, d3, N = dims.d1, dims.d2, dims.d3, dims.N
    cscale = coupling / np.sqrt(max(d1, d2, d3))
    data = {
        "A": [_random_spd(rng, d3, conditioning) for _ in range(N)],
        "B": [cscale * rng.standard_normal((d3, d1)) for _ in range(N)],
        "C": [cscale * rng.standard_normal((d3, d2)) for _ in range(N)],
        "g": [center_scale * rng.standard_normal(d3) for _ in range(N)],
        "D": [_random_spd(rng, d2, conditioning) for _ in range(N)],
        "E": [cscale * rng.standard_normal((d2, d1)) for _ in range(N)],
        "F": [cscale * rng.standard_normal((d2, d3)) for _ in range(N)],
        "h": [center_scale * rng.standard_normal(d2) for _ in range(N)],
        "Q1": [_random_spd(rng, d1 + d2 + d3, conditioning) for _ in range(N)],
    }
    data["y1"] = center_scale * rng.standard_normal(d1)
    return data


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
    the oracle is also the trilevel optimum.  A singular level-2 reduction
    triggers regeneration under a derived seed.
    """
    if any(d > 20 for d in dims) or any(d < 1 for d in dims):
        raise ValueError("quadratic builder is desk-scale: dims must be in 1..20")
    if conditioning < 1:
        raise ValueError("conditioning must be >= 1")
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
    v_star = np.concatenate([oracle.y1, oracle.y2, oracle.y3])
    slices = {
        1: slice(0, dd.d1),
        2: slice(dd.d1, dd.d1 + dd.d2),
        3: slice(dd.d1 + dd.d2, dd.d1 + dd.d2 + dd.d3),
    }

    def eval_fn(level, j, x1, x2, x3):
        if level == 1:
            v = np.concatenate([x1, x2, x3]) - v_star
            return 0.5 * float(v @ (data["Q1"][j] @ v))
        if level == 2:
            lin = data["E"][j] @ x1 + data["F"][j] @ x3 + data["h"][j]
            return 0.5 * float(x2 @ (data["D"][j] @ x2)) + float(x2 @ lin)
        lin = data["B"][j] @ x1 + data["C"][j] @ x2 + data["g"][j]
        return 0.5 * float(x3 @ (data["A"][j] @ x3)) + float(x3 @ lin)

    def grad_fn(level, j, block, x1, x2, x3):
        if level == 1:
            v = np.concatenate([x1, x2, x3]) - v_star
            return (data["Q1"][j] @ v)[slices[block]]
        if level == 2:
            if block == 2:
                return data["D"][j] @ x2 + data["E"][j] @ x1 + data["F"][j] @ x3 + data["h"][j]
            if block == 1:
                return data["E"][j].T @ x2
            return data["F"][j].T @ x2
        if block == 3:
            return data["A"][j] @ x3 + data["B"][j] @ x1 + data["C"][j] @ x2 + data["g"][j]
        if block == 1:
            return data["B"][j].T @ x3
        return data["C"][j].T @ x3

    def cross_hess_fn(level, j, out, inn, x1, x2, x3):
        if level == 1:
            return data["Q1"][j][slices[out], slices[inn]]
        if level == 2:
            mats = {(2, 2): data["D"][j], (2, 1): data["E"][j], (2, 3): data["F"][j],
                    (1, 2): data["E"][j].T, (3, 2): data["F"][j].T}
        else:
            mats = {(3, 3): data["A"][j], (3, 1): data["B"][j], (3, 2): data["C"][j],
                    (1, 3): data["B"][j].T, (2, 3): data["C"][j].T}
        dd_out, dd_inn = (dd.d1, dd.d2, dd.d3)[out - 1], (dd.d1, dd.d2, dd.d3)[inn - 1]
        return mats.get((out, inn), np.zeros((dd_out, dd_inn)))

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

    @property
    def n_params(self) -> int:
        total = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            total += fan_out * fan_in + fan_out
        return total

    def unpack(self, w: Array) -> list[tuple[Array, Array]]:
        params = []
        off = 0
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            W = w[off:off + fan_out * fan_in].reshape(fan_out, fan_in)
            off += fan_out * fan_in
            b = w[off:off + fan_out]
            off += fan_out
            params.append((W, b))
        return params

    def init(self, rng: np.random.Generator) -> Array:
        chunks = []
        for fan_in, fan_out in zip(self.layer_sizes, self.layer_sizes[1:]):
            chunks.append(rng.standard_normal(fan_out * fan_in) / np.sqrt(fan_in))
            chunks.append(np.zeros(fan_out))
        return np.concatenate(chunks)


def mlp_forward(shape: MlpShape, w: Array, X: Array) -> Array:
    """tanh hidden layers, linear scalar output."""
    h = X
    params = shape.unpack(w)
    for W, b in params[:-1]:
        h = np.tanh(h @ W.T + b)
    W, b = params[-1]
    return (h @ W.T + b).ravel()


def mlp_loss_grads(shape: MlpShape, w: Array, X: Array, y: Array):
    """Mean squared error with gradients w.r.t. the weights and the inputs."""
    params = shape.unpack(w)
    acts = [X]
    pre: list[Array] = []
    h = X
    for W, b in params[:-1]:
        z = h @ W.T + b
        pre.append(z)
        h = np.tanh(z)
        acts.append(h)
    W_out, b_out = params[-1]
    pred = (h @ W_out.T + b_out).ravel()
    m = X.shape[0]
    err = pred - y
    loss = float(err @ err) / m

    dpred = (2.0 / m) * err
    grads = [None] * len(params)
    grads[-1] = ((dpred @ h).reshape(W_out.shape), np.array([dpred.sum()]))
    dh = dpred[:, None] @ W_out  # (m, last_hidden)
    for li in range(len(params) - 2, -1, -1):
        dz = dh * (1.0 - np.tanh(pre[li]) ** 2)
        W, _ = params[li]
        grads[li] = (dz.T @ acts[li], dz.sum(axis=0))
        dh = dz @ W
    dX = dh  # (m, features)
    dw = np.concatenate([np.concatenate([gW.ravel(), gb]) for gW, gb in grads])
    return loss, dw, dX


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
        if self.c <= 0:
            raise ValueError("adversarial penalty c must be positive")
        if self.smoothing <= 0:
            raise ValueError("smoothing must be positive")
        if any(width < 1 for width in self.mlp_layers):
            raise ValueError("hidden widths must be positive")


def smoothed_l1(w: Array, delta: float) -> float:
    return float(np.sum(np.sqrt(w * w + delta * delta) - delta))


def smoothed_l1_grad(w: Array, delta: float) -> Array:
    return w / np.sqrt(w * w + delta * delta)


@dataclass
class RobustHpo:
    """A robust-HPO instance: the trilevel problem plus evaluation access."""

    problem: TrilevelProblem
    spec: RobustHpoSpec
    data: RegressionDataset
    shape: MlpShape
    train_shards: list[Array]
    val_shards: list[Array]

    def predict(self, w: Array, X: Array) -> Array:
        return mlp_forward(self.shape, w, X)


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
    """
    shape = MlpShape(layer_sizes=(data.n_features, *spec.mlp_layers, 1))
    train_shards = shard_indices(data.train_idx, N)
    val_shards = shard_indices(data.val_idx, N)
    if any(len(s) == 0 for s in train_shards + val_shards):
        raise DatasetError("empty worker partition")
    dims = Dims(d1=1, d2=data.n_features, d3=shape.n_params, N=N)
    Xtr = [data.X[s] for s in train_shards]
    ytr = [data.y[s] for s in train_shards]
    Xval = [data.X[s] for s in val_shards]
    yval = [data.y[s] for s in val_shards]
    delta = spec.smoothing
    c_pen = spec.c

    def _train_loss(j, p, w, want_grads=False):
        Xp = Xtr[j] + p  # one shared noise row added to every sample
        if want_grads:
            loss, dw, dX = mlp_loss_grads(shape, w, Xp, ytr[j])
            return loss, dw, dX.sum(axis=0)
        return float(np.mean((mlp_forward(shape, w, Xp) - ytr[j]) ** 2))

    def eval_fn(level, j, x1, x2, x3):
        if level == 1:
            pred = mlp_forward(shape, x3, Xval[j])
            return float(np.mean((pred - yval[j]) ** 2))
        if level == 2:
            pen = c_pen * float(x2 @ x2)
            if not spec.adversary:
                return pen
            return -(_train_loss(j, x2, x3) - pen)
        reg = float(np.exp(x1[0])) * smoothed_l1(x3, delta)
        return _train_loss(j, x2, x3) + reg

    def grad_fn(level, j, block, x1, x2, x3):
        if level == 1:
            if block == 1:
                return np.zeros(1)
            if block == 2:
                return np.zeros(dims.d2)
            _, dw, _ = mlp_loss_grads(shape, x3, Xval[j], yval[j])
            return dw
        if level == 2:
            if block == 1:
                return np.zeros(1)
            if not spec.adversary:
                if block == 2:
                    return 2.0 * c_pen * x2
                return np.zeros(dims.d3)
            _, dw, dp = _train_loss(j, x2, x3, want_grads=True)
            if block == 2:
                return -(dp - 2.0 * c_pen * x2)
            return -dw
        # level 3
        e_phi = float(np.exp(x1[0]))
        if block == 1:
            return np.array([e_phi * smoothed_l1(x3, delta)])
        _, dw, dp = _train_loss(j, x2, x3, want_grads=True)
        if block == 2:
            return dp
        return dw + e_phi * smoothed_l1_grad(x3, delta)

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
    pred = hpo.predict(w, X)
    mse_clean = float(np.mean((pred - y) ** 2))
    sigma = hpo.data.noise_sigma
    if sigma == 0.0:
        return {"mse_clean": mse_clean, "mse_noisy": mse_clean}
    rng = np.random.default_rng(noise_seed)
    Xn = X + sigma * rng.standard_normal(X.shape)
    mse_noisy = float(np.mean((hpo.predict(w, Xn) - y) ** 2))
    return {"mse_clean": mse_clean, "mse_noisy": mse_noisy}
