from dataclasses import replace

import numpy as np
import pytest

from fedtri.core import (
    DualState,
    NonFiniteError,
    PrimalState,
    finite_diff_grad,
    project_ball_sq,
)
from fedtri.cuts import Polytope
from fedtri.outer import (
    OuterConfig,
    _dual_step,
    master_step,
    stationarity_gap,
    worker_step,
)
from fedtri.problems import build_quadratic_problem


def project_box_inf(v, bound):
    """The infinity-norm box projection, kept apart from ``outer._dual_step``'s clip."""
    return np.minimum(np.maximum(v, -bound), bound)


def residual(cut, state):
    """A cut ``(w, c)``'s ``w . [Z | X.ravel()] - c``, apart from ``Polytope.residuals``."""
    w, c = cut
    return float(w @ np.concatenate((state.Z, state.X.ravel())) - c)


def lagrangian(state, duals, poly2, problem):
    """Outer Lagrangian: objective sum, consensus duals, layer-II cut duals."""
    X1, X2, X3 = state.x
    total = sum(problem.eval_all(1, state.X))
    total += float((duals.theta * (X1 - state.z[0])).sum())
    total += float(duals.lam @ poly2.residuals(state))
    if not np.isfinite(total):
        raise NonFiniteError("non-finite Lagrangian value")
    return total


def regularized_lagrangian(state, duals, poly2, problem, t, cfg):
    c1, c2 = cfg.reg_coeffs(t)
    val = lagrangian(state, duals, poly2, problem)
    val -= 0.5 * c1 * float(duals.lam @ duals.lam)
    val -= 0.5 * c2 * float((duals.theta * duals.theta).sum())
    return val


def random_cut(rng, d, N, layer="II"):
    """A cut ``(w, c)``, its row over [Z | X.ravel()] drawn for Z, then x3's rows, then (layer
    II) x2's; x1's are 0."""
    W = np.zeros((N + 1, sum(d)))
    W[0] = rng.standard_normal(sum(d))
    W[1:, d[0] + d[1]:] = rng.standard_normal((N, d[2]))
    if layer == "II":
        W[1:, d[0]:d[0] + d[1]] = rng.standard_normal((N, d[1]))
    return W.ravel(), float(rng.standard_normal())


@pytest.fixture()
def setting():
    problem, oracle = build_quadratic_problem(seed=5, dims=(2, 3, 2), N=3, coupling=0.2)
    rng = np.random.default_rng(7)
    d = problem.dims
    x = [np.array([rng.standard_normal(d.block(i + 1)) for _ in range(d.N)]) for i in range(3)]
    z = [rng.standard_normal(d.block(i + 1)) for i in range(3)]
    state = PrimalState(d, np.hstack(x), np.concatenate(z))
    poly2 = Polytope(d)
    for i in range(2):
        poly2 = poly2.add(*random_cut(rng, (2, 3, 2), 3), i)
    duals = DualState(
        lam=np.array([0.4, 1.1]),
        theta=np.array([rng.standard_normal(2) for _ in range(3)]),
    )
    cfg = OuterConfig(eta_lambda=0.1, eta_theta=0.2, alpha4=9.0, alpha5=400.0)
    return problem, state, duals, poly2, cfg


class TestLagrangian:
    def test_zero_duals_equals_objective_sum(self, setting):
        problem, state, duals, poly2, cfg = setting
        zero = DualState.zeros(problem.dims, n_cuts2=poly2.size)
        f1 = problem.eval_all(1, state.X)
        expect = sum(f1[j] for j in range(problem.dims.N))
        assert lagrangian(state, zero, poly2, problem) == pytest.approx(expect, rel=1e-12)

    def test_consensus_feasible_kills_theta_terms(self, setting):
        problem, state, duals, poly2, cfg = setting
        feas = state.copy()
        for j in range(problem.dims.N):
            feas.x[0][j] = feas.z[0].copy()
        no_lam = DualState(lam=np.zeros(poly2.size), theta=duals.theta)
        base = DualState.zeros(problem.dims, n_cuts2=poly2.size)
        assert lagrangian(feas, no_lam, poly2, problem) == pytest.approx(
            lagrangian(feas, base, poly2, problem), rel=1e-12
        )

    def test_matches_term_by_term_sum(self, setting):
        problem, state, duals, poly2, cfg = setting
        total = 0.0
        f1 = problem.eval_all(1, state.X)
        for j in range(problem.dims.N):
            total += f1[j]
            total += float(duals.theta[j] @ (state.x[0][j] - state.z[0]))
        for lam, cut in zip(duals.lam, zip(poly2.W, poly2.c)):
            total += lam * residual(cut, state)
        assert lagrangian(state, duals, poly2, problem) == pytest.approx(total, rel=1e-12)


class TestRegularizedLagrangian:
    def test_zero_duals_equal_for_all_t(self, setting):
        problem, state, duals, poly2, cfg = setting
        zero = DualState.zeros(problem.dims, n_cuts2=poly2.size)
        for t in (0, 3, 1000):
            assert regularized_lagrangian(state, zero, poly2, problem, t, cfg) == (
                pytest.approx(lagrangian(state, zero, poly2, problem), rel=1e-12)
            )

    def test_schedule_floor(self):
        cfg = OuterConfig(eta_lambda=0.1, eta_theta=0.1, c1_floor=0.5, c2_floor=0.7)
        c1, c2 = cfg.reg_coeffs(10**12)
        assert c1 == 0.5 and c2 == 0.7

    def test_schedule_start(self):
        cfg = OuterConfig(eta_lambda=0.1, eta_theta=0.25, c1_floor=1e-6, c2_floor=1e-6)
        c1, c2 = cfg.reg_coeffs(0)
        assert c1 == pytest.approx(10.0)
        assert c2 == pytest.approx(4.0)
        with pytest.raises(ValueError, match="^t must be nonnegative$"):
            cfg.reg_coeffs(-1)

    def test_regularizer_value(self, setting):
        problem, state, duals, poly2, cfg = setting
        t = 4
        c1, c2 = cfg.reg_coeffs(t)
        expect = lagrangian(state, duals, poly2, problem)
        expect -= 0.5 * c1 * float(duals.lam @ duals.lam)
        expect -= 0.5 * c2 * sum(float(th @ th) for th in duals.theta)
        got = regularized_lagrangian(state, duals, poly2, problem, t, cfg)
        assert got == pytest.approx(expect, rel=1e-12)


def flat_lagrangian_grad_check(problem, state, duals, poly2, cfg, rel_tol=1e-5):
    """Central finite differences of L_p across every primal block."""
    N = problem.dims.N
    gap = stationarity_gap(state, duals, poly2, problem, cfg)
    G = [gap.gx[:, problem.dims.columns(i)] for i in (1, 2, 3)]
    for j in range(N):
        g = [G[i][j] for i in range(3)]
        for i in range(3):
            def f(v, i=i, j=j):
                s = state.copy()
                s.x[i][j] = v
                return lagrangian(s, duals, poly2, problem)

            num = finite_diff_grad(f, state.x[i][j])
            denom = max(np.linalg.norm(g[i]), 1.0)
            assert np.linalg.norm(num - g[i]) / denom <= rel_tol
    gz = [gap.gz[problem.dims.columns(i)] for i in (1, 2, 3)]
    for i in range(3):
        def f(v, i=i):
            s = state.copy()
            s.z[i][:] = v
            return lagrangian(s, duals, poly2, problem)

        num = finite_diff_grad(f, state.z[i])
        denom = max(np.linalg.norm(gz[i]), 1.0)
        assert np.linalg.norm(num - gz[i]) / denom <= rel_tol


class TestGradients:
    def test_analytic_blocks_match_fd(self, setting):
        problem, state, duals, poly2, cfg = setting
        flat_lagrangian_grad_check(problem, state, duals, poly2, cfg)


class TestWorkerStep:
    def test_zero_gradient_leaves_block(self, setting):
        problem, state, duals, poly2, cfg = setting
        _, oracle = build_quadratic_problem(seed=5, dims=(2, 3, 2), N=3, coupling=0.2)
        st = PrimalState.from_point(
            problem.dims, oracle.y1, oracle.y2, oracle.y3
        )
        zero = DualState.zeros(problem.dims)
        gap = stationarity_gap(st, zero, Polytope(problem.dims), problem, cfg)
        step = worker_step(problem, st, gap, cfg, [0])
        x1, x2, x3 = (step[:, problem.dims.columns(i)] for i in (1, 2, 3))
        assert np.allclose(x1[0], st.x[0][0], atol=1e-12)
        assert np.allclose(x2[0], st.x[1][0], atol=1e-12)
        assert np.allclose(x3[0], st.x[2][0], atol=1e-12)

    def test_fresh_view_equals_synchronous_step(self, setting):
        problem, state, duals, poly2, cfg = setting
        gap = stationarity_gap(state, duals, poly2, problem, cfg)
        step = worker_step(problem, state, gap, cfg, [1])
        got = [step[:, problem.dims.columns(i)] for i in (1, 2, 3)]
        G1, G2, G3 = (gap.gx[:, problem.dims.columns(i)] for i in (1, 2, 3))
        g1, g2, g3 = G1[1], G2[1], G3[1]
        assert np.allclose(got[0][0], project_ball_sq(state.x[0][1] - cfg.eta_x1 * g1,
                                                      problem.alphas[0]), atol=1e-14)
        assert np.allclose(got[1][0], project_ball_sq(state.x[1][1] - cfg.eta_x2 * g2,
                                                      problem.alphas[1]), atol=1e-14)
        assert np.allclose(got[2][0], project_ball_sq(state.x[2][1] - cfg.eta_x3 * g3,
                                                      problem.alphas[2]), atol=1e-14)

    # Each selection as a list, with the other forms it takes: a tuple, an index array, a range.
    SELECTIONS = (([0, 1, 2], range(3)), ([2, 0], None), ([1], range(1, 2)), ([], range(0)))

    @pytest.mark.parametrize("alphas", [(1e6, 1e6, 1e6), (0.5, 2.0, 0.5)])  # inside / projected
    def test_rows_as_list_tuple_range_or_index_array_give_the_same_bits(self, setting, alphas):
        problem, state, duals, poly2, cfg = setting
        problem = replace(problem, alphas=alphas)
        gap = stationarity_gap(state, duals, poly2, problem, cfg)
        for rows, as_range in self.SELECTIONS:
            want = worker_step(problem, state, gap, cfg, rows)
            assert want.shape == (len(rows), problem.dims.width)
            forms = [tuple(rows), np.array(rows, np.intp)] + [as_range] * (as_range is not None)
            for form in forms:
                got = worker_step(problem, state, gap, cfg, form)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_small_step_decreases_regularized_lagrangian(self):
        problem, _ = build_quadratic_problem(seed=9, dims=(2, 2, 2), N=1, coupling=0.1)
        rng = np.random.default_rng(3)
        state = PrimalState.from_point(problem.dims, *(rng.standard_normal(2) for _ in range(3)))
        duals = DualState.zeros(problem.dims)
        poly2 = Polytope(problem.dims)
        cfg = OuterConfig(eta_x1=0.01, eta_x2=0.01, eta_x3=0.01)
        gap = stationarity_gap(state, duals, poly2, problem, cfg)
        before = regularized_lagrangian(state, duals, poly2, problem, 0, cfg)
        step = worker_step(problem, state, gap, cfg, [0])
        x1, x2, x3 = (step[:, problem.dims.columns(i)] for i in (1, 2, 3))
        after_state = state.copy()
        after_state.x[0][0], after_state.x[1][0], after_state.x[2][0] = x1[0], x2[0], x3[0]
        after = regularized_lagrangian(after_state, duals, poly2, problem, 0, cfg)
        assert after < before


def reference_master_step(state, duals, poly2, problem, cfg, t):
    """Literal transcription of the printed update order, kept independent."""
    N = problem.dims.N
    c1, c2 = cfg.reg_coeffs(t)
    z = [zi.copy() for zi in state.z]
    th_sum = sum(duals.theta)
    a = [problem.dims.split(w[:problem.dims.width]) for w in poly2.W]  # (a1, a2, a3) per cut
    gz1 = -th_sum + sum(l * c[0] for l, c in zip(duals.lam, a)) if poly2.size else -th_sum
    z[0] = project_ball_sq(z[0] - cfg.eta_z1 * gz1, problem.alphas[0])
    gz2 = sum((l * c[1] for l, c in zip(duals.lam, a)), np.zeros_like(z[1]))
    z[1] = project_ball_sq(z[1] - cfg.eta_z2 * gz2, problem.alphas[1])
    gz3 = sum((l * c[2] for l, c in zip(duals.lam, a)), np.zeros_like(z[2]))
    z[2] = project_ball_sq(z[2] - cfg.eta_z3 * gz3, problem.alphas[2])
    lam = duals.lam.copy()
    for l, cut in enumerate(zip(poly2.W, poly2.c)):
        r = residual(cut, PrimalState(problem.dims, state.X, np.concatenate(z)))
        lam[l] = min(max(lam[l] + cfg.eta_lambda * (r - c1 * lam[l]), 0.0), np.sqrt(cfg.alpha4))
    box = np.sqrt(cfg.alpha5) / problem.dims.d1
    theta = [
        project_box_inf(duals.theta[j] + cfg.eta_theta * (state.x[0][j] - z[0] - c2 * duals.theta[j]), box)
        for j in range(N)
    ]
    return z, lam, theta


class TestMasterStep:
    def test_lambda_projection_interval(self, setting):
        problem, state, duals, poly2, cfg = setting
        big = duals.copy()
        big.lam = np.array([-0.5, 2 * np.sqrt(cfg.alpha4)])
        # One plain update from a state with huge +/- residual pressure: the
        # projection clamps into [0, sqrt(alpha4)].
        gap = stationarity_gap(state, big, poly2, problem, cfg)
        _, nd, _ = master_step(state, big, poly2, problem, cfg, gap, t=0)
        assert np.all(nd.lam >= 0.0)
        assert np.all(nd.lam <= np.sqrt(cfg.alpha4) + 1e-12)

    def test_theta_box_projection(self, setting):
        problem, state, duals, poly2, cfg = setting
        box = np.sqrt(cfg.alpha5) / problem.dims.d1
        spiked = duals.copy()
        spiked.theta = np.array([[3.0 * box, 0.1] for _ in range(3)])
        gap = stationarity_gap(state, spiked, poly2, problem, cfg)
        _, nd, _ = master_step(state, spiked, poly2, problem, cfg, gap, t=0)
        for th in nd.theta:
            assert np.abs(th).max() <= box + 1e-12

    def test_matches_handrolled_reference(self, setting):
        problem, state, duals, poly2, cfg = setting
        gap = stationarity_gap(state, duals, poly2, problem, cfg)
        Z, nd, _ = master_step(state, duals, poly2, problem, cfg, gap, t=2)
        z_ref, lam_ref, theta_ref = reference_master_step(state, duals, poly2, problem, cfg, 2)
        for i in range(3):
            assert np.allclose(problem.dims.split(Z)[i], z_ref[i], atol=1e-12)
        assert np.allclose(nd.lam, lam_ref, atol=1e-12)
        for a, b in zip(nd.theta, theta_ref):
            assert np.allclose(a, b, atol=1e-12)

    def test_leaves_its_inputs_bit_identical_and_returns_fresh_arrays(self, setting):
        # run writes the returned Z into its one state with no copy in between, so the
        # step must neither write its inputs nor return a view of them.
        problem, state, duals, poly2, cfg = setting
        gap = stationarity_gap(state, duals, poly2, problem, cfg)
        inputs = (state.X, state.Z, duals.lam, duals.theta)
        before = [a.copy() for a in inputs]
        Z, nd, _ = master_step(state, duals, poly2, problem, cfg, gap, t=2)
        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()
        assert not np.array_equal(Z, state.Z)
        for new in (Z, nd.lam, nd.theta):
            assert not any(np.shares_memory(new, held) for held in inputs)

    def test_primal_before_dual_order_matters(self, setting):
        # The cut duals must see the fresh z blocks; feeding them the stale z
        # changes the iterates.  (The z updates themselves commute because the
        # Lagrangian is affine in z, so the meaningful order pin is
        # primal-then-dual.)
        problem, state, duals, poly2, cfg = setting
        gap = stationarity_gap(state, duals, poly2, problem, cfg)
        _, nd, _ = master_step(state, duals, poly2, problem, cfg, gap, t=2)
        c1, _ = cfg.reg_coeffs(2)
        lam_stale = duals.lam.copy()
        for l, cut in enumerate(zip(poly2.W, poly2.c)):
            r = residual(cut, state)
            lam_stale[l] = min(max(lam_stale[l] + cfg.eta_lambda * (r - c1 * lam_stale[l]), 0.0),
                               np.sqrt(cfg.alpha4))
        assert not np.allclose(nd.lam, lam_stale)


class TestDualProjection:
    def test_equals_clip_element_for_element(self, setting):
        problem, state, duals, poly2, cfg = setting
        d = problem.dims
        cap, box = np.sqrt(cfg.alpha4), np.sqrt(cfg.alpha5) / d.d1
        # Zero cut rows with c = 0 and x1 = z1 leave the unregularized step at
        # the duals themselves, so they can sit exactly on each bound.
        zero_cuts = Polytope(d, np.zeros((5, poly2.W.shape[1])), np.zeros(5), tuple(range(5)))
        consensus = PrimalState(d, state.X.copy(), state.Z.copy())
        consensus.x[0][:] = consensus.z[0]
        on_bounds = DualState(lam=np.array([-1.0, 0.0, 0.5 * cap, cap, 2.0 * cap]),
                              theta=np.array([[-2 * box, -box], [0.0, box], [2 * box, 0.3]]))
        rng = np.random.default_rng(4)
        wide = DualState(lam=rng.uniform(-cap, 2 * cap, 2),
                         theta=rng.uniform(-2 * box, 2 * box, (d.N, d.d1)))
        cases = [(consensus, on_bounds, zero_cuts, 0.0, 0.0), (state, wide, poly2, 0.0, 0.0),
                 (state, duals, poly2, *cfg.reg_coeffs(3))]
        lam_steps, theta_steps = [], []
        for point, start, poly, c1, c2 in cases:
            got, (r, s) = _dual_step(point, start, poly, problem, cfg, c1, c2)
            resid = poly.residuals(point)
            # The step returns the residual pair it stepped on, and steps alike on it passed in.
            assert np.array_equal(r, resid) and np.array_equal(s, point.x[0] - point.z[0])
            again, _ = _dual_step(point, start, poly, problem, cfg, c1, c2, (r, s))
            assert np.array_equal(again.lam, got.lam) and np.array_equal(again.theta, got.theta)
            lam = start.lam + cfg.eta_lambda * (resid - c1 * start.lam)
            theta = start.theta + cfg.eta_theta * (point.x[0] - point.z[0] - c2 * start.theta)
            # array_equal counts -0.0 equal to 0.0.  Only a lambda step of -0.0 tells them
            # apart, and that needs a -0.0 lambda, which a run never holds.
            assert np.array_equal(got.lam, np.clip(lam, 0.0, cap))
            assert np.array_equal(got.theta, np.clip(theta, -box, box))
            lam_steps.append(lam)
            theta_steps.append(theta.ravel())
        lam, theta = np.concatenate(lam_steps), np.concatenate(theta_steps)
        for v, bounds in ((lam, (0.0, cap)), (theta, (-box, box))):
            for bound in bounds:
                assert (v < bound).any() and (v == bound).any() and (v > bound).any()


class TestStationarityGap:
    def test_zero_at_unconstrained_minimizer(self):
        problem, oracle = build_quadratic_problem(seed=13, dims=(2, 2, 2), N=2, coupling=0.2)
        state = PrimalState.from_point(problem.dims, oracle.y1, oracle.y2, oracle.y3)
        duals = DualState.zeros(problem.dims)
        cfg = OuterConfig()
        gap = stationarity_gap(state, duals, Polytope(problem.dims), problem, cfg)
        assert gap.sq_norm <= 1e-12

    def test_lambda_boundary_absorbs_negative_gradient(self, setting):
        problem, state, duals, poly2, cfg = setting
        at_zero = duals.copy()
        at_zero.lam = np.zeros(poly2.size)
        gap = stationarity_gap(state, at_zero, poly2, problem, cfg)
        for l, cut in enumerate(zip(poly2.W, poly2.c)):
            r = residual(cut, state)
            if r < 0:
                assert gap.glam[l] == 0.0

    def test_blocks_match_projection_formula(self, setting):
        problem, state, duals, poly2, cfg = setting
        gap = stationarity_gap(state, duals, poly2, problem, cfg)
        # lambda residuals recomputed directly from the projection form
        for l, cut in enumerate(zip(poly2.W, poly2.c)):
            r = residual(cut, state)
            proj = min(max(duals.lam[l] + cfg.eta_lambda * r, 0.0), np.sqrt(cfg.alpha4))
            assert gap.glam[l] == pytest.approx((duals.lam[l] - proj) / cfg.eta_lambda, rel=1e-12)
        box = np.sqrt(cfg.alpha5) / problem.dims.d1
        for j in range(problem.dims.N):
            step = duals.theta[j] + cfg.eta_theta * (state.x[0][j] - state.z[0])
            expect = (duals.theta[j] - project_box_inf(step, box)) / cfg.eta_theta
            assert np.allclose(gap.gtheta[j], expect, atol=1e-12)

    def test_z_rows_do_not_depend_on_the_primal_point(self, setting):
        # L_p is affine in z, so the gap's z rows are a function of the duals
        # and P_II alone; master_step steps on a gap taken at another point.
        problem, state, duals, poly2, cfg = setting
        rng = np.random.default_rng(11)
        other = PrimalState(problem.dims,
                            np.hstack([rng.standard_normal(X.shape) for X in state.x]),
                            np.concatenate([rng.standard_normal(z.shape) for z in state.z]))
        a = stationarity_gap(state, duals, poly2, problem, cfg).gz
        b = stationarity_gap(other, duals, poly2, problem, cfg).gz
        for i in (1, 2, 3):
            cols = problem.dims.columns(i)
            assert np.array_equal(a[cols], b[cols])

    def test_pure_function_of_state(self, setting):
        problem, state, duals, poly2, cfg = setting
        a = stationarity_gap(state, duals, poly2, problem, cfg).sq_norm
        b = stationarity_gap(state, duals, poly2, problem, cfg).sq_norm
        assert a == b


class TestConfigValidation:
    def test_floor_range_check(self):
        cfg = OuterConfig(eta_lambda=0.1, eta_theta=0.1, tol=1e-4)
        cfg.check_floors(N=4)
        for name in ("c1_floor", "c2_floor"):
            bad = OuterConfig(eta_lambda=0.1, eta_theta=0.1, tol=1e-4, **{name: 10**9})
            with pytest.raises(ValueError, match=f"^{name} outside the admissible range"):
                bad.check_floors(N=4)

    def test_positivity(self):
        with pytest.raises(ValueError):
            OuterConfig(eta_lambda=0.0)
        with pytest.raises(ValueError):
            OuterConfig(tol=-1.0)
        for bad in (dict(T_pre=0), dict(T1=-1), dict(max_iters=0)):
            with pytest.raises(ValueError, match="^T_pre >= 1, T1 >= 0 and max_iters >= 1"):
                OuterConfig(**bad)
