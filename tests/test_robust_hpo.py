"""The robust-HPO workload: MLP backprop, the trilevel oracle and a short run."""

from dataclasses import replace

import numpy as np
import pytest

import fedtri.harness
from fedtri.core import finite_diff_grad
from fedtri.data import make_synthetic_dataset
from fedtri.harness import ScheduleConfig, run, validate_runlog
from fedtri.inner import InnerConfig
from fedtri.outer import OuterConfig
from fedtri.cuts import generate_cut_I
from fedtri.problems import (
    MlpShape,
    RobustHpoSpec,
    build_robust_hpo_problem,
    _weighted_sq_error,
    evaluate_model,
    mlp_forward,
    mlp_grads,
    smoothed_l1,
)
from oracle_rows import stack_rows


def rel_err(g, g_ref):
    return np.linalg.norm(g - g_ref) / max(np.linalg.norm(g_ref), 1e-300)


def mse(shape, w, X, y):
    """The mean squared error ``mlp_grads`` differentiates at row weights 1/m."""
    return _weighted_sq_error(mlp_forward(shape, w, X), y, np.full(y.shape, 1.0 / y.shape[-1]))


def grads(shape, w, X, y):
    """``mlp_grads`` of the mean squared error: (dw, dX); dw starts as NaN, so the pass fills it."""
    dw = np.full(w.shape, np.nan)
    dX = mlp_grads(shape, w, X, y, 2.0 * np.full(y.shape, 1.0 / y.shape[-1]), dw)
    return dw, dX


def test_smoothed_l1_value_and_gradient_are_the_written_out_formulas_bit_for_bit():
    # One square root serves both; each must keep the bits of its own formula.
    w, delta = np.random.default_rng(0).standard_normal((4, 57)), 1e-3
    value, grad = smoothed_l1(w, delta)
    assert np.array_equal(value, np.sum(np.sqrt(w * w + delta * delta) - delta, axis=-1))
    assert np.array_equal(grad, w / np.sqrt(w * w + delta * delta))


class TestMlpLossGrads:
    @pytest.fixture
    def setup(self):
        rng = np.random.default_rng(0)
        shape = MlpShape(layer_sizes=(3, 4, 1))
        w = shape.init(rng)
        X = rng.standard_normal((6, 3))
        y = rng.standard_normal(6)
        return shape, w, X, y

    def test_weight_gradient_matches_finite_differences(self, setup):
        shape, w, X, y = setup
        dw, _ = grads(shape, w, X, y)
        g_fd = finite_diff_grad(lambda v: mse(shape, v, X, y), w)
        assert dw.shape == (shape.n_params,)
        assert np.abs(dw - g_fd).max() <= 1e-8

    def test_input_gradient_matches_finite_differences(self, setup):
        shape, w, X, y = setup
        _, dX = grads(shape, w, X, y)
        g_fd = finite_diff_grad(lambda v: mse(shape, w, v.reshape(X.shape), y), X.ravel())
        assert dX.shape == X.shape
        assert np.abs(dX.ravel() - g_fd).max() <= 1e-8

    @pytest.mark.parametrize("mlp_layers", [(), (4,), (4, 3)], ids=["linear", "4", "4-3"])
    def test_stacked_models_equal_single_model_calls(self, mlp_layers):
        shape = MlpShape(layer_sizes=(3, *mlp_layers, 1))
        rng = np.random.default_rng(1)
        N = 3
        W = np.array([shape.init(rng) for _ in range(N)])
        X = rng.standard_normal((N, 6, 3))
        y = rng.standard_normal((N, 6))
        loss, (dw, dX) = mse(shape, W, X, y), grads(shape, W, X, y)
        assert loss.shape == (N,) and dw.shape == (N, shape.n_params) and dX.shape == X.shape
        for j in range(N):
            loss_j, (dw_j, dX_j) = mse(shape, W[j], X[j], y[j]), grads(shape, W[j], X[j], y[j])
            assert loss[j] == loss_j
            assert np.array_equal(dw[j], dw_j) and np.array_equal(dX[j], dX_j)
            assert np.array_equal(mlp_forward(shape, W, X)[j], mlp_forward(shape, W[j], X[j]))


def check_oracle_gradients(adversary, mlp_layers, rows, N):
    data = make_synthetic_dataset(seed=1, rows=rows, features=3)
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=mlp_layers,
                                                       adversary=adversary), N=N)
    problem = hpo.problem
    rng = np.random.default_rng(2)
    point = [np.array([-1.0]), 0.3 * rng.standard_normal(3), hpo.shape.init(rng)]
    for level in (1, 2, 3):
        G = problem.grad_all(level, stack_rows(problem.dims, *point))
        assert G.shape == (problem.dims.N, problem.dims.width)
        for j in range(problem.dims.N):
            for block in (1, 2, 3):  # every column, f_1's zero x1 and x2 columns too
                def f(v):  # every worker at the shared point; row j is worker j's value
                    args = list(point)
                    args[block - 1] = v
                    return problem.eval_all(level, stack_rows(problem.dims, *args))[j]

                g = G[j, problem.dims.columns(block)]
                g_fd = finite_diff_grad(f, point[block - 1])
                assert g.shape == g_fd.shape
                assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g_fd), (
                    level, j, block)


# Every (adversary, hidden widths) pair; an id names the widths unless they are (4,).
DEPTHS = [pytest.param(adversary, layers, id=f"{adversary}{tag}")
          for tag, layers in (("", (4,)), ("-linear", ()), ("-4-3", (4, 3)))
          for adversary in (True, False)]


@pytest.mark.parametrize("adversary, mlp_layers", DEPTHS)
def test_oracle_gradients_match_finite_differences(adversary, mlp_layers):
    check_oracle_gradients(adversary, mlp_layers, rows=40, N=2)  # train shards 12+12, val 4+4


@pytest.mark.parametrize("adversary, mlp_layers", DEPTHS)
def test_oracle_gradients_match_finite_differences_on_ragged_shards(adversary, mlp_layers):
    # Train shards 10, 10, 10, 9, 9 and val shards 4, 3, 3, 3, 3: the oracle
    # pads the shorter ones with zero-weighted rows.
    check_oracle_gradients(adversary, mlp_layers, rows=80, N=5)


def test_padded_shards_give_each_workers_mean_loss():
    data = make_synthetic_dataset(seed=1, rows=80, features=3)
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(4,)), N=5)
    rng = np.random.default_rng(3)
    w, noise = hpo.shape.init(rng), 0.3 * rng.standard_normal(3)
    f1 = hpo.problem.eval_all(1, stack_rows(hpo.problem.dims, np.zeros(1), noise, w))
    # exp(-50): no weight penalty
    f3 = hpo.problem.eval_all(3, stack_rows(hpo.problem.dims, np.array([-50.0]), noise, w))
    for j, (val, train) in enumerate(zip(hpo.val_shards, hpo.train_shards)):
        mse_val = np.mean((mlp_forward(hpo.shape, w, data.X[val]) - data.y[val]) ** 2)
        mse_train = np.mean((mlp_forward(hpo.shape, w, data.X[train] + noise)
                             - data.y[train]) ** 2)
        assert f1[j] == pytest.approx(mse_val, rel=1e-12)
        assert f3[j] == pytest.approx(mse_train, rel=1e-12)


def test_short_run_refines_and_logs_cleanly():
    data = make_synthetic_dataset(seed=0, rows=80, features=3)
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(4,)), N=2)
    inner = InnerConfig(K=3, warm_start=True)
    outer = OuterConfig(T_pre=2, max_iters=4)
    res = run(hpo.problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0))
    assert res.log.status != "aborted"
    assert validate_runlog(res.log, hpo.problem.dims, inner.K) == []
    assert res.log.refinement_iters() == [0, 2, 4]
    mse = evaluate_model(hpo, res.state.z[2])
    assert np.isfinite(mse["mse_clean"]) and np.isfinite(mse["mse_noisy"])
    with pytest.raises(ValueError, match="^weight vector does not match the MLP shape$"):
        evaluate_model(hpo, res.state.z[2][:-1])


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_noise_free_data_give_equal_clean_and_noisy_mse_bit_for_bit(seed):
    # Adding 0 times a normal draw changes at most the sign of a zero.
    data = make_synthetic_dataset(seed=seed, rows=80, features=3, noise_sigma=0.0)
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(4,)), N=2)
    mse = evaluate_model(hpo, hpo.shape.init(np.random.default_rng(seed)), noise_seed=seed)
    assert mse["mse_noisy"] == mse["mse_clean"] > 0.0


def test_a_hidden_layer_needs_a_positive_width():
    with pytest.raises(ValueError, match="^hidden widths must be positive$"):
        RobustHpoSpec(mlp_layers=(0,))


@pytest.mark.parametrize("T1, reason, logged", [
    (0, "cannot project a non-finite vector", [0]),
    (None, "grad f_3,0 is non-finite", []),
], ids=["no_refinement", "default_T1"])
def test_non_finite_initial_point_aborts_at_iteration_0(T1, reason, logged):
    # f1 does not read x2, so NaN there leaves the t = 0 gap finite.  Without a refinement
    # the first worker step's projection catches it; with one, the level-3 unroll's gradient.
    data = make_synthetic_dataset(seed=0, rows=80, features=3)
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(4,)), N=2)
    start = hpo.problem.initial_point_fn

    def nan_in_x2(rng):
        x1, x2, x3 = start(rng)
        x2 = x2.copy()
        x2[0] = np.nan
        return x1, x2, x3

    problem = replace(hpo.problem, initial_point_fn=nan_in_x2)
    outer = OuterConfig(T_pre=2, max_iters=4, **({} if T1 is None else {"T1": T1}))
    res = run(problem, InnerConfig(K=3), outer, ScheduleConfig(N=2, S=2, seed=0))
    assert res.log.status == "aborted"
    assert res.log.abort == {"reason": reason, "t": 0}
    assert [r.t for r in res.log.records] == logged
    assert validate_runlog(res.log, problem.dims, 3) == []


def test_layer_I_cuts_depend_on_the_level_2_block(monkeypatch):
    # An unroll started at zeros sits on the MLP's saddle (tanh(0) = 0), where
    # the level-3 estimate ignores z2' and every layer-I cut has a2 = 0.
    data = make_synthetic_dataset(seed=0, rows=80, features=3)
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(4,)), N=2)
    cuts = []

    def recorded(*args, **kwargs):
        cuts.append(generate_cut_I(*args, **kwargs))
        return cuts[-1]

    monkeypatch.setattr(fedtri.harness, "generate_cut_I", recorded)
    inner = InnerConfig(K=3, warm_start=True)
    run(hpo.problem, inner, OuterConfig(T_pre=2, max_iters=2), ScheduleConfig(N=2, S=2, seed=0))
    d = hpo.problem.dims
    assert len(cuts) == 2
    for cut in cuts:
        a2 = cut[0][d.columns(2)]  # z2's columns of the row w
        assert np.abs(a2).max() > 1e-8
