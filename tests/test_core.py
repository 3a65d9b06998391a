import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtri.core import (
    Dims,
    FedtriError,
    NonFiniteError,
    TrilevelProblem,
    estimate_mu,
    finite_diff_grad,
    project_ball_sq,
)
from fedtri.problems import build_quadratic_problem


def make_problem(d=(1, 1, 1), N=1):
    dims = Dims(d1=d[0], d2=d[1], d3=d[2], N=N)

    def ev(level, j, x1, x2, x3):
        return float(x1 @ x1 + x2 @ x2 + x3 @ x3)

    return TrilevelProblem(dims=dims, eval_fn=ev)


class TestDims:
    def test_valid(self):
        d = Dims(d1=2, d2=3, d3=5, N=4)
        assert d.block(1) == 2 and d.block(2) == 3 and d.block(3) == 5

    @pytest.mark.parametrize("bad", [dict(d1=0), dict(d2=-1), dict(N=0), dict(d3=0)])
    def test_invalid(self, bad):
        kwargs = dict(d1=1, d2=1, d3=1, N=1)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            Dims(**kwargs)


class TestFiniteDiffGrad:
    def test_quadratic_exact(self):
        g = finite_diff_grad(lambda v: float(v @ v), np.array([1.0, 2.0]), h=1e-5)
        assert np.allclose(g, [2.0, 4.0], atol=1e-8)

    def test_constant_zero(self):
        g = finite_diff_grad(lambda v: 3.5, np.array([1.0, -2.0, 0.3]))
        assert np.all(g == 0.0)

    def test_matches_analytic_on_generated_quadratic(self):
        problem, _ = build_quadratic_problem(seed=11, dims=(3, 2, 4), N=2)
        rng = np.random.default_rng(1)
        x1, x2, x3 = (rng.standard_normal(d) for d in (3, 2, 4))

        def f3(v):
            return problem.eval(3, 1, x1, x2, v)

        numeric = finite_diff_grad(f3, x3)
        analytic = problem.grad(3, 1, 3, x1, x2, x3)
        rel = np.linalg.norm(numeric - analytic) / np.linalg.norm(analytic)
        assert rel <= 1e-6

    def test_nonfinite_names_coordinate(self):
        def f(v):
            return float("inf") if v[1] > 1.0 else float(v @ v)

        with pytest.raises(NonFiniteError, match="coordinate 1"):
            finite_diff_grad(f, np.array([0.0, 1.0]), h=0.5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda v: 0.0, np.zeros(2), h=0.0)


class TestProjectBallSq:
    def test_inside_unchanged(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(project_ball_sq(v, 25.0), v)

    def test_radial_scaling(self):
        assert np.allclose(project_ball_sq(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_degenerate_zero(self):
        assert np.array_equal(project_ball_sq(np.zeros(3), 0.0), np.zeros(3))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = 3.0 * rng.standard_normal(4)
            p = project_ball_sq(v, 2.0)
            assert np.allclose(project_ball_sq(p, 2.0), p)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3),
           st.lists(st.floats(-50, 50), min_size=3, max_size=3),
           st.floats(0.01, 100.0))
    def test_nonexpansive(self, a, b, alpha):
        va, vb = np.array(a), np.array(b)
        pa, pb = project_ball_sq(va, alpha), project_ball_sq(vb, alpha)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(va - vb) + 1e-12


class TestEstimateMu:
    def sample(self, n=30, d=3, seed=0, scale=2.0):
        rng = np.random.default_rng(seed)
        return [scale * rng.standard_normal(d) for _ in range(n)]

    def test_convex_quadratic_zero(self):
        pts = self.sample()
        mu = estimate_mu(lambda v: float(v @ v), pts, pair_samples=10**6,
                         grad=lambda v: 2.0 * v)
        assert mu == 0.0

    def test_concave_quadratic_two(self):
        pts = self.sample(seed=3)
        mu = estimate_mu(lambda v: -float(v @ v), pts, pair_samples=10**6,
                         grad=lambda v: -2.0 * v)
        assert abs(mu - 2.0) <= 1e-9

    def test_affine_zero(self):
        w = np.array([1.0, -2.0, 0.5])
        pts = self.sample(seed=4)
        mu = estimate_mu(lambda v: float(w @ v) + 1.0, pts, pair_samples=10**6)
        assert mu <= 1e-9

    def test_monotone_in_sample_set(self):
        # All-pairs enumeration: a superset of points never lowers the estimate.
        def h(v):
            return float(np.cos(v[0]) + 0.5 * v[1] ** 2)

        pts = self.sample(n=20, d=2, seed=5)
        mu_small = estimate_mu(h, pts[:10], pair_samples=10**6)
        mu_big = estimate_mu(h, pts, pair_samples=10**6)
        assert mu_big >= mu_small - 1e-12

    def test_coincident_pairs(self):
        p = np.ones(2)
        with pytest.raises(FedtriError):
            estimate_mu(lambda v: float(v @ v), [p, p.copy()], pair_samples=10)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            estimate_mu(lambda v: 0.0, [np.zeros(2)], pair_samples=10)


class TestProblemGradFallback:
    def test_fd_fallback_used_when_no_grad(self):
        problem = make_problem((2, 2, 2), N=1)
        g = problem.grad(1, 0, 2, np.zeros(2), np.array([1.0, -1.0]), np.zeros(2))
        assert np.allclose(g, [2.0, -2.0], atol=1e-7)

    def test_grad_shape_enforced(self):
        dims = Dims(d1=2, d2=1, d3=1, N=1)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, j, x1, x2, x3: 0.0,
            grad_fn=lambda level, j, block, x1, x2, x3: np.zeros(5),
        )
        with pytest.raises(ValueError):
            problem.grad(1, 0, 1, np.zeros(2), np.zeros(1), np.zeros(1))


class TestGradAll:
    def test_wrong_shaped_block_raises_like_grad(self):
        dims = Dims(d1=2, d2=1, d3=3, N=3)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, j, x1, x2, x3: 0.0,
            grad_fn=lambda level, j, block, x1, x2, x3: np.zeros(3 if j < 2 else 4),
        )
        with pytest.raises(ValueError, match="gradient block 3 has length"):
            problem.grad_all(3, 3, np.zeros(2), np.zeros(1), np.zeros((3, 3)))

    def test_wrong_shaped_argument_raises(self):
        problem, _ = build_quadratic_problem(seed=0, dims=(2, 2, 2), N=3)
        with pytest.raises(ValueError, match="block 3 argument"):
            problem.grad_all(3, 3, np.zeros(2), np.zeros(2), np.zeros((2, 2)))

    def test_nonfinite_row_names_its_worker(self):
        dims = Dims(d1=1, d2=1, d3=2, N=3)

        def gr(level, j, block, x1, x2, x3):
            return np.array([0.0, np.nan]) if j == 1 else np.zeros(2)

        problem = TrilevelProblem(dims=dims, eval_fn=lambda *a: 0.0, grad_fn=gr)
        with pytest.raises(NonFiniteError, match=r"grad f_3,1 block 3"):
            problem.grad_all(3, 3, np.zeros(1), np.zeros(1), np.zeros((3, 2)))

    def test_shared_and_stacked_inputs_match_per_worker_grad(self):
        problem, _ = build_quadratic_problem(seed=2, dims=(2, 3, 4), N=3)
        rng = np.random.default_rng(0)
        z1, X2, X3 = rng.standard_normal(2), rng.standard_normal((3, 3)), rng.standard_normal((3, 4))
        G = problem.grad_all(2, 2, z1, X2, X3)
        assert G.shape == (3, 3)
        for j in range(3):
            assert np.array_equal(G[j], problem.grad(2, j, 2, z1, X2[j], X3[j]))

    def test_without_grad_fn_equals_per_worker_grad(self):
        quad, _ = build_quadratic_problem(seed=1, dims=(2, 2, 3), N=2)
        problem = TrilevelProblem(dims=quad.dims, eval_fn=quad.eval_fn)
        rng = np.random.default_rng(1)
        z1, z2, X3 = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal((2, 3))
        G = problem.grad_all(3, 3, z1, z2, X3)
        for j in range(2):
            assert np.array_equal(G[j], problem.grad(3, j, 3, z1, z2, X3[j]))
