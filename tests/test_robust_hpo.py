"""The robust-HPO workload: MLP backprop, the trilevel oracle and a short run."""

import numpy as np
import pytest

from fedtri.core import finite_diff_grad
from fedtri.data import make_synthetic_dataset
from fedtri.harness import ScheduleConfig, run, validate_runlog
from fedtri.inner import InnerConfig
from fedtri.outer import OuterConfig
from fedtri.problems import (
    MlpShape,
    RobustHpoSpec,
    build_robust_hpo_problem,
    evaluate_model,
    mlp_loss_grads,
)


def rel_err(g, g_ref):
    return np.linalg.norm(g - g_ref) / max(np.linalg.norm(g_ref), 1e-300)


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
        _, dw, _ = mlp_loss_grads(shape, w, X, y)
        g_fd = finite_diff_grad(lambda v: mlp_loss_grads(shape, v, X, y)[0], w)
        assert dw.shape == (shape.n_params,)
        assert np.abs(dw - g_fd).max() <= 1e-8

    def test_input_gradient_matches_finite_differences(self, setup):
        shape, w, X, y = setup
        _, _, dX = mlp_loss_grads(shape, w, X, y)
        g_fd = finite_diff_grad(
            lambda v: mlp_loss_grads(shape, w, v.reshape(X.shape), y)[0], X.ravel()
        )
        assert dX.shape == X.shape
        assert np.abs(dX.ravel() - g_fd).max() <= 1e-8


@pytest.mark.parametrize("adversary", [True, False])
def test_oracle_gradients_match_finite_differences(adversary):
    data = make_synthetic_dataset(seed=1, rows=40, features=3)
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(4,), adversary=adversary),
                                   N=2)
    problem = hpo.problem
    rng = np.random.default_rng(2)
    point = [np.array([-1.0]), 0.3 * rng.standard_normal(3), hpo.shape.init(rng)]
    for level in (1, 2, 3):
        for j in range(problem.dims.N):
            for block in (1, 2, 3):
                def f(v):
                    args = list(point)
                    args[block - 1] = v
                    return problem.eval(level, j, *args)

                g = problem.grad(level, j, block, *point)
                g_fd = finite_diff_grad(f, point[block - 1])
                assert g.shape == g_fd.shape
                assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g_fd), (
                    level, j, block)


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
