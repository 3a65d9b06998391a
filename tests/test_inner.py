from dataclasses import replace

import numpy as np
import pytest

from fedtri import inner
from fedtri.core import Dims, FedtriError, Polytope, TrilevelProblem, finite_diff_grad
from fedtri.cuts import generate_cut_I
from fedtri.inner import (
    InnerConfig,
    InnerSolverError,
    eval_h,
    grad_h,
    solve_level2,
    solve_level3,
)
from fedtri.problems import build_quadratic_problem
from cut_checks import flat_h
from oracle_rows import stack_rows, state_of


def separable_problem(targets, d=(1, 1, None)):
    """f3j = 0.5 ||x3 - t_j||^2, f2j = 0.5 ||x2 - t_j[:d2]||^2, f1 = 0."""
    d3 = len(targets[0])
    dims = Dims(d1=1, d2=d3, d3=d3, N=len(targets))

    T = np.array(targets, float)

    def ev(level, V):
        X1, X2, X3 = dims.split(V)
        if level == 3:
            dv = X3 - T
            return 0.5 * (dv * dv).sum(axis=1)
        if level == 2:
            dv = X2 - T
            return 0.5 * (dv * dv).sum(axis=1)
        return np.zeros(dims.N)

    def gr(level, V):
        X1, X2, X3 = dims.split(V)
        G = np.zeros((dims.N, dims.width))
        if level in (2, 3):
            G[:, dims.columns(level)] = (X3 if level == 3 else X2) - T
        return G

    def ch(level, V):
        H = np.zeros((dims.N, dims.width, dims.width))
        if level in (2, 3):
            H[:, dims.columns(level), dims.columns(level)] = np.eye(dims.block(level))
        return H

    return TrilevelProblem(dims=dims, eval_fn=ev, grad_fn=gr, cross_hess_fn=ch)


def finite_diff_trace(trace):
    """The trace on a copy of its problem without second derivatives: grad_h takes differences."""
    return replace(trace, problem=replace(trace.problem, cross_hess_fn=None))


def fresh_copy_fd_grad_h(trace, state):
    """Finite-difference ``grad_h`` re-running the unroll at a new copy of the anchor each time."""
    d, lv, anchor = trace.problem.dims, trace.level, trace.anchor
    own = d.columns(lv)
    x, z = state.X[:, own], state.Z[own]
    g = {"Z": np.zeros(d.width), "X": np.zeros((d.N, d.width))}
    blocks = [("Z", d.columns(i)) for i in (1, 2, 3) if i != lv]
    blocks += [("X", (j, d.columns(i))) for i in range(lv + 1, 4) for j in range(d.N)]
    for name, at in blocks:
        def h_at(v, name=name, at=at):
            pert = anchor.copy()
            getattr(pert, name)[at] = v
            x_hat, z_hat = inner.rerun(trace, pert).estimate
            dx, dz = x - x_hat, z - z_hat
            return float(np.vdot(dx, dx) + np.vdot(dz, dz))
        g[name][at] = finite_diff_grad(h_at, getattr(anchor, name)[at])
    x_hat, z_hat = trace.estimate
    g["Z"][own], g["X"][:, own] = 2.0 * (z - z_hat), 2.0 * (x - x_hat)
    return g["Z"], g["X"]


@pytest.fixture(scope="module")
def quad():
    problem, oracle = build_quadratic_problem(seed=3, dims=(2, 2, 2), N=2, coupling=0.3)
    return problem, oracle


class TestInnerConfig:
    def test_k_zero_disallowed(self):
        with pytest.raises(ValueError):
            InnerConfig(K=0)

    def test_negative_penalty(self):
        with pytest.raises(ValueError):
            InnerConfig(kappa=0.0)


class TestSolveLevel3:
    def test_consensus_argmin_separable(self):
        # Closed-form oracle: the consensus optimum of sum_j 0.5||v - t_j||^2
        # is the mean of the targets.
        rng = np.random.default_rng(0)
        targets = [rng.standard_normal(3) for _ in range(2)]
        problem = separable_problem(targets)
        cfg = InnerConfig(K=4000, eta_x=0.1, eta_z=0.1, eta_phi=0.1, kappa=1.0)
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(1), np.zeros(3)), cfg=cfg)
        x_hat, z_hat = trace.estimate
        mean_t = np.mean(targets, axis=0)
        for v in list(x_hat) + [z_hat]:
            assert np.linalg.norm(v - mean_t) <= 1e-3

    def test_every_unroll_freezes_the_one_empty_polytope_of_its_dims(self):
        problem = separable_problem([np.array([1.0, 2.0])])
        cfg = InnerConfig(K=2)
        a = solve_level3(problem, state_of(problem.dims, np.zeros(1), np.zeros(2)), cfg=cfg)
        b = solve_level3(problem, state_of(problem.dims, np.ones(1), np.ones(2)), cfg=cfg)
        assert a.poly1 is b.poly1 and a.poly1.size == 0 and a.poly1.dims == problem.dims

    def test_zero_step_returns_initialization(self):
        targets = [np.array([1.0, 2.0])]
        problem = separable_problem(targets)
        cfg = InnerConfig(K=1, eta_x=0.0, eta_z=0.0, eta_phi=0.0)
        init = ([np.array([0.3, -0.5])], np.array([0.1, 0.2]), [np.zeros(2)])
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(1), np.zeros(2)),
                             init=init, cfg=cfg)
        x_hat, z_hat = trace.estimate
        assert np.array_equal(x_hat[0], init[0][0])
        assert np.array_equal(z_hat, init[1])

    def test_fixed_point_snapshots_identical(self):
        # Start exactly at the constrained optimum with zero duals: every
        # recorded round reproduces the initialization bit for bit.
        t = np.array([0.7, -0.2])
        problem = separable_problem([t, t])
        cfg = InnerConfig(K=5, eta_x=0.2, eta_z=0.2, eta_phi=0.2)
        init = ([t.copy(), t.copy()], t.copy(), [np.zeros(2), np.zeros(2)])
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(1), np.zeros(2)),
                             init=init, cfg=cfg)
        for k in range(cfg.K + 1):
            assert np.array_equal(trace.z[k], t)
            for xj in trace.x[k]:
                assert np.array_equal(xj, t)

    def test_snapshot_count(self, quad):
        problem, _ = quad
        cfg = InnerConfig(K=7)
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(2), np.zeros(2)), cfg=cfg)
        assert len(trace.x) == len(trace.z) == len(trace.phi) == 8

    def test_a_layer_I_trace_records_empty_slack_and_dual_paths(self, quad):
        problem, _ = quad
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(2), np.zeros(2)),
                             cfg=InnerConfig(K=3))
        assert trace.s.shape == trace.gamma.shape == (4, 0)
        assert trace.gamma_K.shape == (0,) and trace.r0.shape == (0,)

    def test_nonfinite_reports_round(self):
        dims = Dims(d1=1, d2=1, d3=1, N=1)
        problem = TrilevelProblem(
            dims=dims,
            eval_fn=lambda level, V: np.zeros(1),
            grad_fn=lambda level, V: np.full((1, 3), 1e200),
        )
        cfg = InnerConfig(K=3, eta_x=1e200, eta_z=1.0, eta_phi=1.0)
        with pytest.raises((InnerSolverError, FedtriError), match="round"):
            solve_level3(problem, state_of(dims, np.zeros(1), np.zeros(1)), cfg=cfg)


def h1_point(trace, x3, z3):
    """``trace``'s anchor, with its frozen z1 and z2', and own blocks (x3, z3)."""
    point = trace.anchor.copy()
    point.x[2][:], point.z[2][:] = x3, z3
    return point


def h2_point(trace, x2, z2):
    """``trace``'s anchor, with its frozen z1, z3 and x3, and own blocks (x2, z2)."""
    point = trace.anchor.copy()
    point.x[1][:], point.z[1][:] = x2, z2
    return point


class TestEvalH1:
    def test_zero_at_own_estimate(self, quad):
        problem, _ = quad
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(2), np.zeros(2)),
                             cfg=InnerConfig(K=3))
        x_hat, z_hat = trace.estimate
        assert eval_h(trace, h1_point(trace, list(x_hat), z_hat)) == 0.0

    def test_unit_perturbation_adds_one(self, quad):
        problem, _ = quad
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(2), np.zeros(2)),
                             cfg=InnerConfig(K=3))
        x_hat, z_hat = trace.estimate
        z3 = z_hat.copy()
        z3[0] += 1.0
        assert eval_h(trace, h1_point(trace, list(x_hat), z3)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce_stack_norm(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(5)
        trace = solve_level3(problem, state_of(problem.dims, rng.standard_normal(2),
                                               rng.standard_normal(2)), cfg=InnerConfig(K=4))
        x_hat, z_hat = trace.estimate
        offs = [rng.standard_normal(2) for _ in range(3)]
        val = eval_h(trace, h1_point(trace, [x_hat[0] + offs[0], x_hat[1] + offs[1]],
                                     z_hat + offs[2]))
        brute = sum(float(o @ o) for o in offs)
        assert val == pytest.approx(brute, rel=1e-12)

    def test_layer_check(self, quad):
        problem, _ = quad
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(2), np.zeros(2)),
                             cfg=InnerConfig(K=2))
        with pytest.raises(ValueError):  # a state of other dims
            eval_h(trace, state_of(Dims(d1=2, d2=2, d3=2, N=3)))


def make_cut_for(problem, c_value):
    """The layer-I cut ``1 . z2 <= c_value`` as ``(w, c)``."""
    d = problem.dims
    w = np.zeros(d.width * (d.N + 1))
    w[d.columns(2)] = 1.0
    return w, c_value


class TestSolveLevel2:
    def test_empty_polytope_reduces_to_consensus(self):
        rng = np.random.default_rng(1)
        targets = [rng.standard_normal(2) for _ in range(3)]
        problem = separable_problem(targets)
        cfg = InnerConfig(K=4000, eta_x=0.1, eta_z=0.1, eta_phi=0.1, kappa=1.0)
        x3 = [np.zeros(2)] * 3
        trace = solve_level2(problem, state_of(problem.dims, np.zeros(1), z3=np.zeros(2), x3=x3),
                             Polytope(problem.dims), cfg=cfg)
        mean_t = np.mean(targets, axis=0)
        x_hat, z_hat = trace.estimate
        for v in list(x_hat) + [z_hat]:
            assert np.linalg.norm(v - mean_t) <= 1e-3

    def test_slack_cut_keeps_unconstrained_solution(self):
        rng = np.random.default_rng(2)
        targets = [rng.standard_normal(2) for _ in range(2)]
        problem = separable_problem(targets)
        cfg = InnerConfig(K=4000, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        x3 = [np.zeros(2)] * 2
        anchor = state_of(problem.dims, np.zeros(1), z3=np.zeros(2), x3=x3)
        free = solve_level2(problem, anchor, Polytope(problem.dims), cfg=cfg)
        # Cut far above any value the iterates reach: slack the whole way.
        cut = make_cut_for(problem, c_value=1e3)
        constrained = solve_level2(problem, anchor, Polytope(problem.dims).add(*cut, 0), cfg=cfg)
        assert constrained.gamma_K[0] == 0.0
        assert np.linalg.norm(constrained.estimate[1] - free.estimate[1]) <= 1e-3

    def test_violated_cut_reduces_violation(self):
        rng = np.random.default_rng(3)
        targets = [rng.standard_normal(2) + 2.0 for _ in range(2)]
        problem = separable_problem(targets)
        cfg = InnerConfig(K=300, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        x3 = [np.zeros(2)] * 2
        anchor = state_of(problem.dims, np.zeros(1), z3=np.zeros(2), x3=x3)
        free = solve_level2(problem, anchor, Polytope(problem.dims), cfg=cfg)
        # Constrain a2 . z2 <= c below the unconstrained optimum value and
        # start the unroll at that optimum, where the cut is violated.
        x_free, z_free = free.estimate
        opt_val = float(np.ones(2) @ z_free)
        cut = make_cut_for(problem, c_value=opt_val - 1.0)
        init = ([x.copy() for x in x_free], z_free.copy(),
                [np.zeros(2)] * 2, np.zeros(1), np.zeros(1))
        trace = solve_level2(problem, anchor, Polytope(problem.dims).add(*cut, 0), init=init,
                             cfg=cfg)
        viol0 = float(np.ones(2) @ trace.z[0]) - cut[1]
        violK = float(np.ones(2) @ trace.z[-1]) - cut[1]
        assert viol0 > 0.0
        assert violK < viol0
        assert trace.gamma_K[0] > 0.0

    def test_steepness_damping_settles_many_parallel_cuts(self, quad, monkeypatch):
        # 20 identical unit-norm layer-I cuts along z2's first axis, violated
        # by 1 at the start: the z2-curvature is N kappa + 20 = 22, so
        # the configured step 0.15 overshoots, and the damped steps
        # (1.5 / 22 for z2, 1.5 / 21 for the cut duals) do not.
        problem, _ = quad
        d = problem.dims
        w = np.zeros(d.width * (d.N + 1))
        w[d.d1] = 1.0
        poly = Polytope(d, [w] * 20, [-1.0] * 20, tuple(range(20)))
        cfg = InnerConfig(K=200, eta_x=0.15, eta_z=0.15, eta_phi=0.15)
        z1, z3, x3 = np.zeros(2), np.zeros(2), np.zeros((2, 2))
        assert np.all(poly.residuals(state_of(d, z1, np.zeros(2), z3, x3=x3)) == 1.0)

        def final_residual_and_peak():
            trace = solve_level2(problem, state_of(d, z1, z3=z3, x3=x3), poly, cfg=cfg)
            return (poly.residuals(state_of(d, z1, trace.z[-1], z3, x3=x3))[0],
                    np.abs(trace.z).max())

        resid, peak = final_residual_and_peak()
        assert abs(resid) <= 6e-9 and peak < 1.5
        monkeypatch.setattr(inner, "level2_steps", lambda cfg, poly1, N: (cfg.eta_z, cfg.eta_phi))
        resid, peak = final_residual_and_peak()
        assert resid > 0.09 and peak > 2.9

    def test_the_cut_dual_step_is_at_most_the_unit_penalty(self, quad):
        # gamma + r is the method-of-multipliers step at the unit cut penalty;
        # a larger one overshoots a decaying dual below zero before the clamp.
        problem, _ = quad
        cfg = InnerConfig(eta_phi=2.0)
        _, eta_gamma = inner.level2_steps(cfg, Polytope(problem.dims), problem.dims.N)
        assert eta_gamma == 1.0

    @pytest.mark.parametrize("kappa, n_cuts, want", [
        (1.0, 0, (0.5, 0.5)),             # curvature N kappa = 2: the configured steps stand
        (4.0, 0, (1.5 / 8, 0.5)),         # curvature 8 damps the z2 step only
        (1.0, 20, (1.5 / 22, 1.5 / 21)),  # 20 unit cuts: curvature 22, dual curvature 21
    ])
    def test_level2_steps_damp_by_n_kappa_plus_the_cut_steepness(self, quad, kappa, n_cuts,
                                                                 want):
        problem, _ = quad
        d = problem.dims
        w = np.zeros(d.width * (d.N + 1))
        w[d.d1] = 1.0
        poly = (Polytope(d, [w] * n_cuts, [-1.0] * n_cuts, tuple(range(n_cuts))) if n_cuts
                else Polytope(d))
        cfg = InnerConfig(eta_z=0.5, eta_phi=0.5, kappa=kappa)
        assert inner.level2_steps(cfg, poly, d.N) == want

    def test_consensus_residual_nonincreasing_late(self):
        rng = np.random.default_rng(4)
        targets = [rng.standard_normal(2) for _ in range(2)]
        problem = separable_problem(targets)
        cfg = InnerConfig(K=200, eta_x=0.02, eta_z=0.02, eta_phi=0.02)
        trace = solve_level2(problem, state_of(problem.dims, np.zeros(1), z3=np.zeros(2),
                                               x3=[np.zeros(2)] * 2),
                             Polytope(problem.dims), cfg=cfg)
        resid = [
            sum(float((x[j] - z) @ (x[j] - z)) for j in range(2))
            for x, z in zip(trace.x, trace.z)
        ]
        tail = resid[len(resid) // 2:]
        assert all(b <= a + 1e-12 for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("level", [2, 3])
def test_the_one_kappa_scales_the_first_consensus_step_of_each_unroll(level):
    # From z = 0 with zero duals, the first z step is eta_z kappa sum_j (x_j - z),
    # so doubling kappa doubles it exactly, at either level.
    problem = separable_problem([np.array([1.0, -2.0]), np.array([0.5, 3.0])])
    anchor = state_of(problem.dims, np.zeros(1), z3=np.zeros(2), x3=[np.zeros(2)] * 2)
    init = ([np.array([0.3, -0.5]), np.array([-0.1, 0.7])], np.zeros(2))

    def first_z_step(kappa):
        cfg = InnerConfig(K=1, kappa=kappa)
        if level == 3:
            trace = solve_level3(problem, anchor, init=init, cfg=cfg)
        else:
            trace = solve_level2(problem, anchor, Polytope(problem.dims), init=init, cfg=cfg)
        assert trace.steps[0] == kappa
        return trace.z[1]

    step = first_z_step(1.0)
    np.testing.assert_allclose(step, 0.05 * np.array([0.2, 0.2]), rtol=1e-15)
    assert np.array_equal(first_z_step(2.0), 2.0 * step)


class TestEvalH2:
    def test_zero_and_unit_perturbation(self, quad):
        problem, _ = quad
        trace = solve_level2(problem, state_of(problem.dims, np.zeros(2), z3=np.zeros(2),
                                               x3=[np.zeros(2)] * 2),
                             Polytope(problem.dims), cfg=InnerConfig(K=3))
        x_hat, z_hat = trace.estimate
        assert eval_h(trace, h2_point(trace, list(x_hat), z_hat)) == 0.0
        x2 = [x_hat[0].copy(), x_hat[1].copy()]
        x2[1][0] += 1.0
        assert eval_h(trace, h2_point(trace, x2, z_hat)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_recompute(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(6)
        trace = solve_level2(problem, state_of(problem.dims, rng.standard_normal(2),
                                               z3=rng.standard_normal(2),
                                               x3=[rng.standard_normal(2) for _ in range(2)]),
                             Polytope(problem.dims), cfg=InnerConfig(K=4))
        x2 = [rng.standard_normal(2) for _ in range(2)]
        z2 = rng.standard_normal(2)
        x_hat, z_hat = trace.estimate
        brute = sum(float((a - b) @ (a - b)) for a, b in zip(x2, x_hat))
        brute += float((z2 - z_hat) @ (z2 - z_hat))
        assert eval_h(trace, h2_point(trace, x2, z2)) == pytest.approx(brute, rel=1e-12)


class TestGradH:
    def setup_traces(self, quad, with_cut=True):
        problem, _ = quad
        rng = np.random.default_rng(7)
        cfg = InnerConfig(K=3, eta_x=0.1, eta_z=0.1, eta_phi=0.1)
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        x3 = [rng.standard_normal(2) for _ in range(2)]
        x2 = [rng.standard_normal(2) for _ in range(2)]
        d = problem.dims
        t1 = solve_level3(problem, state_of(d, z1, z2), cfg=cfg)
        poly = Polytope(d)
        if with_cut:
            p1 = state_of(d, z1, z2, z3, x3=x3)
            poly = poly.add(*generate_cut_I(t1, p1, 0.0, 1e-2, problem.alphas), 0)
        t2 = solve_level2(problem, state_of(d, z1, z3=z3, x3=x3), poly, cfg=cfg)
        return t1, t2, state_of(d, z1, z2, z3, x3=x3), state_of(d, z1, z2, z3, x2=x2, x3=x3)

    def test_direct_blocks_are_twice_deviation(self, quad):
        t1, _, p1, _ = self.setup_traces(quad)
        x_hat, z_hat = t1.estimate
        gZ, gX = grad_h(t1, p1)
        assert np.allclose(gX[0, 4:], 2.0 * (p1.x[2][0] - x_hat[0]), atol=1e-12)
        assert np.allclose(gZ[4:], 2.0 * (p1.z[2] - z_hat), atol=1e-12)

    def test_zero_at_minimizer(self, quad):
        t1, _, _, _ = self.setup_traces(quad)
        x_hat, z_hat = t1.estimate
        point = h1_point(t1, list(x_hat), z_hat)
        gZ, gX = grad_h(t1, point)
        for block in (gX[0, 4:], gX[1, 4:], gZ[4:]):  # x3_0, x3_1, z3
            assert np.linalg.norm(block) <= 1e-12
        # Deviation is zero, so the chain-rule terms vanish too.
        for block in (gZ[:2], gZ[2:4]):  # z1, z2
            assert np.linalg.norm(block) <= 1e-12

    def test_finite_diff_vs_analytic_cross_mode(self, quad):
        t1, t2, p1, p2 = self.setup_traces(quad)
        # Each block is (0 for gZ or 1 for gX, its index there).
        for trace, point, blocks in (
            (t1, p1, ((0, np.s_[:2]), (0, np.s_[2:4]))),  # z1, z2
            (t2, p2, ((0, np.s_[:2]), (0, np.s_[4:]), (1, np.s_[0, 4:]), (1, np.s_[1, 4:]))),
        ):  # layer II: z1, z3, x3_0, x3_1
            fd = grad_h(finite_diff_trace(trace), point)
            an = grad_h(trace, point)
            for i, at in blocks:
                g_fd = fd[i][at]
                g_an = an[i][at]
                denom = max(np.linalg.norm(g_an), 1e-9)
                assert np.linalg.norm(g_fd - g_an) / denom <= 1e-4

    def test_finite_differences_match_a_fresh_anchor_copy_per_evaluation(self, quad):
        # grad_h perturbs one working copy and restores each block after its differences;
        # the reference copies the anchor for every evaluation.  Equal bits show the
        # working copy holds the anchor wherever a block is not being perturbed.
        problem, _ = quad
        t1, t2, p1, p2 = self.setup_traces(quad)
        d, rng = problem.dims, np.random.default_rng(11)
        at = state_of(d, *rng.standard_normal((3, 2)), x3=list(rng.standard_normal((2, 2))))
        poly = t2.poly1.add(*generate_cut_I(t1, at, 0.0, 1e-2, problem.alphas), 1)
        t2 = solve_level2(problem, t2.anchor, poly, cfg=t2.cfg)
        assert t2.poly1.size == 2
        for trace, point in ((t1, p1), (t2, p2)):
            trace = finite_diff_trace(trace)
            ref = fresh_copy_fd_grad_h(trace, point)
            first, second = grad_h(trace, point), grad_h(trace, point)
            for got, again, want in zip(first, second, ref):
                assert np.array_equal(got, want) and np.array_equal(again, want), trace.level

    def test_the_analytic_gradient_reads_its_steps_from_the_trace(self, quad, monkeypatch):
        _, t2, _, p2 = self.setup_traces(quad)
        before = grad_h(t2, p2)
        monkeypatch.setattr(inner, "level2_steps", lambda cfg, poly1, N: (0.5 * cfg.eta_z, 0.0))
        for a, b in zip(before, grad_h(t2, p2)):
            assert np.array_equal(a, b)

    def test_analytic_requires_second_derivatives(self):
        # Without them grad_h takes finite differences; a direct call raises.
        problem = replace(separable_problem([np.zeros(2)]), cross_hess_fn=None)
        trace = solve_level3(problem, state_of(problem.dims, np.zeros(1), np.zeros(2)),
                             cfg=InnerConfig(K=2))
        point = state_of(problem.dims, np.zeros(1), np.zeros(2), np.zeros(2), x3=[np.zeros(2)])
        assert all(np.isfinite(g).all() for g in grad_h(trace, point))
        with pytest.raises(FedtriError, match="second derivatives"):
            problem.cross_hess(3, stack_rows(problem.dims, np.zeros(1), np.zeros(2),
                                             np.zeros((1, 2))))


class TestOracleRows:
    """Each unroll hands its oracle (N, D) rows: the frozen inputs in their
    columns and the iterate in the unrolled level's, forward and backward."""

    @staticmethod
    def recording(problem):
        calls = {"grad": [], "hess": []}

        def grad_fn(level, V):
            calls["grad"].append((level, V))
            return problem.grad_fn(level, V)

        def cross_hess_fn(level, V):
            calls["hess"].append((level, V))
            return problem.cross_hess_fn(level, V)

        return replace(problem, grad_fn=grad_fn, cross_hess_fn=cross_hess_fn), calls

    @staticmethod
    def assert_rows(calls, level, expected, dims):
        """Call k reads ``expected[k]``'s blocks; every call has its own array."""
        assert [lv for lv, _ in calls] == [level] * len(expected)
        for (_, V), blocks in zip(calls, expected):
            assert V.shape == (dims.N, dims.width)
            assert np.array_equal(V, stack_rows(dims, *blocks))

    def test_level3_rows_hold_z1_z2p_and_the_iterate(self):
        base = build_quadratic_problem(seed=1, dims=(2, 3, 4), N=3)[0]
        problem, calls = self.recording(base)
        d, rng = problem.dims, np.random.default_rng(0)
        z1, z2p, z3 = rng.standard_normal(2), rng.standard_normal(3), rng.standard_normal(4)
        trace = solve_level3(problem, state_of(d, z1, z2p), init=(rng.standard_normal((3, 4)),),
                             cfg=InnerConfig(K=3))
        self.assert_rows(calls["grad"], 3, [(z1, z2p, x) for x in trace.x[:-1]], d)
        grad_h(trace, state_of(d, z1, z2p, z3, x3=rng.standard_normal((3, 4))))
        self.assert_rows(calls["hess"], 3, [(z1, z2p, x) for x in trace.x[-2::-1]], d)

    def test_level2_rows_hold_z1_the_iterate_and_each_workers_x3(self):
        base = build_quadratic_problem(seed=1, dims=(2, 3, 4), N=3)[0]
        problem, calls = self.recording(base)
        d, rng = problem.dims, np.random.default_rng(1)
        z1, z3, x3 = rng.standard_normal(2), rng.standard_normal(4), rng.standard_normal((3, 4))
        trace = solve_level2(problem, state_of(d, z1, z3=z3, x3=x3),
                             Polytope(d), init=(rng.standard_normal((3, 3)),),
                             cfg=InnerConfig(K=3))
        self.assert_rows(calls["grad"], 2, [(z1, x, x3) for x in trace.x[:-1]], d)
        point = state_of(d, z1, rng.standard_normal(3), z3, x2=rng.standard_normal((3, 3)), x3=x3)
        grad_h(trace, point)
        self.assert_rows(calls["hess"], 2, [(z1, x, x3) for x in trace.x[-2::-1]], d)


class TestFlatAdapters:
    def test_h1_flat_consistency(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(8)
        d = problem.dims
        trace = solve_level3(problem, state_of(d, rng.standard_normal(2), rng.standard_normal(2)),
                             cfg=InnerConfig(K=3))
        fn, grad = flat_h(trace)
        x3 = [rng.standard_normal(2) for _ in range(2)]
        z1, z2, z3 = (rng.standard_normal(2) for _ in range(3))
        point = state_of(d, z1, z2, z3, x3=x3)
        v = np.concatenate((point.Z, point.X.ravel()))
        assert v.size == d.width * (d.N + 1)
        # The flat function re-runs the unroll at the packed (z1, z2').
        sub = solve_level3(problem, state_of(d, z1, z2), cfg=trace.cfg)
        assert fn(v) == pytest.approx(eval_h(sub, point), rel=1e-12)
        g_num = finite_diff_grad(fn, v)
        g = grad(v)
        assert np.linalg.norm(g_num - g) / np.linalg.norm(g) <= 1e-6

    def test_h2_flat_grad(self, quad):
        problem, _ = quad
        rng = np.random.default_rng(9)
        d = problem.dims
        anchor = state_of(d, rng.standard_normal(2), z3=rng.standard_normal(2),
                          x3=[rng.standard_normal(2) for _ in range(2)])
        trace = solve_level2(problem, anchor, Polytope(problem.dims), cfg=InnerConfig(K=3))
        fn, grad = flat_h(trace)
        v = rng.standard_normal(d.width * (d.N + 1))
        g_num = finite_diff_grad(fn, v)
        g = grad(v)
        assert np.linalg.norm(g_num - g) / np.linalg.norm(g) <= 1e-6
