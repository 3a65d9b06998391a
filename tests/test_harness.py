import dataclasses
import json

import numpy as np
import pytest

from fedtri.core import Dims, DualState, FedtriError, NonFiniteError, PrimalState
from fedtri.cuts import Polytope, generate_cut_I, generate_cut_II
import fedtri.harness as harness
from fedtri.harness import (
    DelayModel,
    ScheduleConfig,
    comm_cost_cuts,
    comm_cost_iter,
    run,
    schedule_epoch,
    time_to_gap,
    validate_runlog,
)
from fedtri.inner import InnerConfig
from fedtri.outer import OuterConfig, master_step, stationarity_gap, worker_step
from fedtri.problems import build_quadratic_problem
from cut_checks import with_cut_params


def quad_setup(seed=7, N=2, dims=(2, 2, 2), **outer_kw):
    problem, oracle = build_quadratic_problem(seed=seed, dims=dims, N=N, coupling=0.15,
                                              conditioning=3.0)
    inner = InnerConfig(K=10, eta_x=0.15, eta_z=0.15, eta_phi=0.15,
                        eps1=1e-4, eps2=1e-4, warm_start=True)
    defaults = dict(eta_x1=0.05, eta_x2=0.05, eta_x3=0.05, eta_z1=0.05,
                    eta_z2=1.0, eta_z3=1.0, eta_lambda=0.3, eta_theta=0.3,
                    alpha4=100.0, alpha5=1e4, c1_floor=0.3, c2_floor=0.5,
                    tol=1e-10, T_pre=10, T1=100, max_iters=60)
    defaults.update(outer_kw)
    outer = OuterConfig(**defaults)
    return problem, oracle, inner, outer


def strict_json(line):
    """``json.loads`` that rejects NaN and +-Infinity, as a strict JSON parser does."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(line, parse_constant=reject)


class TestDelayModel:
    def test_constant(self):
        dm = DelayModel(kind="constant")
        rng = np.random.default_rng(0)
        assert dm.draw(rng, [0]).tolist() == [1.0]

    def test_a_constant_delay_is_one_unit_and_draws_nothing_from_the_rng(self):
        rng = np.random.default_rng(0)
        assert DelayModel().draw(rng, range(4)).tolist() == [1.0] * 4
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_straggler_factor(self):
        dm = DelayModel(kind="constant", straggler_ids=(2,), straggler_factor=5.0)
        rng = np.random.default_rng(0)
        assert dm.draw(rng, [0]).tolist() == [1.0]
        assert dm.draw(rng, [1]).tolist() == [5.0]  # worker label 2 is index 1
        assert dm.draw(rng, [1, 0]).tolist() == [5.0, 1.0]

    def test_uniform_range(self):
        dm = DelayModel(kind="uniform", lo=1.0, hi=3.0)
        rng = np.random.default_rng(0)
        draws = dm.draw(rng, list(range(100)))
        assert draws.shape == (100,)
        assert all(1.0 <= d <= 3.0 for d in draws)

    def test_one_batched_draw_equals_a_scalar_draw_per_worker(self):
        # The simulated clock, and so every log, depends on this equality.
        dm = DelayModel(kind="uniform", lo=0.5, hi=1.5, straggler_ids=(2, 5),
                        straggler_factor=5.0)
        batched, scalar = np.random.default_rng(17), np.random.default_rng(17)
        for workers in ([0, 1, 2, 3, 4], [4], [1, 3], [2, 0, 4]):
            expect = [float(scalar.uniform(0.5, 1.5)) * (5.0 if j + 1 in (2, 5) else 1.0)
                      for j in workers]
            assert dm.draw(batched, workers).tolist() == expect

    @pytest.mark.parametrize("kind", ["constant", "uniform"])
    def test_rows_as_list_tuple_range_or_index_array_give_the_same_delays(self, kind):
        dm = DelayModel(kind=kind, straggler_ids=(2, 4), straggler_factor=5.0)
        for rows, as_range in (([0, 1, 2, 3], range(4)), ([3, 1], None), ([1], range(1, 2)),
                               ([], range(0))):
            want = dm.draw(np.random.default_rng(3), rows)
            assert want.shape == (len(rows),) and want.dtype == float
            forms = [tuple(rows), np.array(rows, np.intp)] + [as_range] * (as_range is not None)
            for form in forms:
                got = dm.draw(np.random.default_rng(3), form)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            DelayModel(kind="exponential")
        with pytest.raises(ValueError):
            DelayModel(kind="uniform", lo=2.0, hi=1.0)


class TestScheduleConfig:
    def test_sync_forces_full_set(self):
        cfg = ScheduleConfig(N=4, S=2, sync_mode=True)
        assert cfg.S == 4

    def test_bounds(self):
        with pytest.raises(ValueError):
            ScheduleConfig(N=4, S=5)
        with pytest.raises(ValueError):
            ScheduleConfig(N=4, S=0)
        with pytest.raises(ValueError):
            ScheduleConfig(N=4, S=2, tau=0)
        with pytest.raises(ValueError):
            ScheduleConfig(N=4, S=2, delay=DelayModel(straggler_ids=(5,)))

    @pytest.mark.parametrize("label", [1.5, True, 2.0])
    def test_a_straggler_id_that_is_no_integer_raises(self, label):
        # 1.5 slowed no worker and True slowed worker 1; the error names the field.
        with pytest.raises(ValueError, match="^straggler_ids must be integers"):
            ScheduleConfig(N=4, S=2, delay=DelayModel(straggler_ids=(label,),
                                                      straggler_factor=5.0))

    def test_a_numpy_integer_straggler_id_slows_its_worker(self):
        cfg = ScheduleConfig(N=4, S=2, delay=DelayModel(straggler_ids=(np.int64(2),),
                                                        straggler_factor=5.0))
        assert cfg.delay.draw(np.random.default_rng(0), [0, 1]).tolist() == [1.0, 5.0]


class TestScheduleEpoch:
    def test_sync_mode_all_active(self):
        cfg = ScheduleConfig(N=3, S=3)
        active, clock = schedule_epoch([5.0, 2.0, 7.0], [0, 0, 0], cfg, clock=0.0)
        assert active == (0, 1, 2)
        assert clock == 7.0

    def test_earliest_s_selected(self):
        cfg = ScheduleConfig(N=4, S=2, tau=10)
        active, clock = schedule_epoch([5.0, 2.0, 7.0, 1.0], [0, 0, 0, 0], cfg, clock=0.0)
        assert active == (1, 3)
        assert clock == 2.0

    def test_tie_break_by_lower_id(self):
        cfg = ScheduleConfig(N=3, S=1, tau=10)
        active, _ = schedule_epoch([4.0, 4.0, 4.0], [0, 0, 0], cfg, clock=0.0)
        assert active == (0,)

    def test_tie_below_the_top_rank_goes_to_the_lower_label(self):
        cfg = ScheduleConfig(N=4, S=3, tau=10)
        active, clock = schedule_epoch([3.0, 1.0, 3.0, 1.0], [0, 0, 0, 0], cfg, clock=0.0)
        assert active == (0, 1, 3)
        assert clock == 3.0

    def test_stale_worker_forced_and_waited_for(self):
        cfg = ScheduleConfig(N=3, S=1, tau=4)
        active, clock = schedule_epoch([1.0, 2.0, 9.0], [0, 0, 3], cfg, clock=0.5)
        assert active == (0, 2)
        assert clock == 9.0

    def test_straggler_never_exceeds_tau(self):
        # Constant delays with worker 4 five times slower, tau = 10: simulate
        # 100 epochs of the bookkeeping and track staleness.
        cfg = ScheduleConfig(N=4, S=3, tau=10,
                             delay=DelayModel(kind="constant", straggler_ids=(4,),
                                              straggler_factor=5.0))
        rng = np.random.default_rng(0)
        pending = cfg.delay.draw(rng, range(4)).tolist()
        staleness = [0, 0, 0, 0]
        clock = 0.0
        worst = 0
        for _ in range(100):
            active, clock = schedule_epoch(pending, staleness, cfg, clock)
            for j in range(4):
                staleness[j] = 0 if j in active else staleness[j] + 1
            worst = max(worst, max(staleness))
            for j, delay in zip(active, cfg.delay.draw(rng, active).tolist()):
                pending[j] = clock + delay
        assert worst <= 10


class TestCommCosts:
    class Dims:
        def __init__(self, d1, d2, d3):
            self.d1, self.d2, self.d3 = d1, d2, d3

    def test_iter_formula(self):
        assert comm_cost_iter(3, self.Dims(2, 2, 2), 5) == 1824

    def test_iter_zero_s(self):
        assert comm_cost_iter(0, self.Dims(2, 2, 2), 5) == 0

    def test_cuts_empty(self):
        # No rounds and no layer-II cuts: the refinement sends nothing.
        assert comm_cost_cuts(2, 0, self.Dims(1, 1, 1), 0) == 0

    def test_cuts_single_event_golden(self):
        # Hand evaluation: 32 (2*3*(6+2) + 2*1*(4+1+1)) = 1920.
        got = comm_cost_cuts(2, 3, self.Dims(1, 1, 1), 1)
        assert got == 1920

    def test_cuts_linear_in_n(self):
        d = self.Dims(2, 3, 4)
        assert comm_cost_cuts(4, 5, d, 3) == 2 * comm_cost_cuts(2, 5, d, 3)


class TestRunBasics:
    def test_deterministic_jsonl(self):
        problem, _, inner, outer = quad_setup()
        sched = ScheduleConfig(N=2, S=1, tau=5, seed=42,
                               delay=DelayModel(kind="uniform", lo=0.5, hi=1.5))
        a = run(problem, inner, outer, sched).log.to_jsonl()
        problem2, _, inner2, outer2 = quad_setup()
        b = run(problem2, inner2, outer2, sched).log.to_jsonl()
        assert a == b

    def test_log_validates(self):
        problem, _, inner, outer = quad_setup()
        sched = ScheduleConfig(N=2, S=1, tau=5, seed=1)
        res = run(problem, inner, outer, sched)
        assert validate_runlog(res.log, problem.dims) == []

    def test_t1_zero_means_no_cuts(self):
        problem, _, inner, outer = quad_setup(T1=0, max_iters=30)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        res = run(problem, inner, outer, sched)
        assert res.poly1.size == 0 and res.poly2.size == 0
        assert not res.log.refinement_iters()
        assert res.log.c2_total == 0

    def test_bootstrap_refinement_at_zero(self):
        problem, _, inner, outer = quad_setup(max_iters=5)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        res = run(problem, inner, outer, sched)
        assert res.log.records[0].refined
        assert res.log.records[0].p2_size == 1

    def test_staleness_bound_holds(self):
        problem, _, inner, outer = quad_setup(max_iters=80)
        sched = ScheduleConfig(N=2, S=1, tau=3, seed=3,
                               delay=DelayModel(kind="constant", straggler_ids=(2,),
                                                straggler_factor=7.0))
        res = run(problem, inner, outer, sched)
        assert all(max(r.staleness) <= 3 for r in res.log.records)

    def test_counters_match_recomputation(self):
        problem, _, inner, outer = quad_setup(max_iters=40)
        sched = ScheduleConfig(N=2, S=1, tau=6, seed=9)
        res = run(problem, inner, outer, sched)
        log = res.log
        for r in log.records:
            if r.t:
                assert r.c1 == comm_cost_iter(log.S, problem.dims, r.p2_size)
        assert log.c2_total == sum(comm_cost_cuts(log.N, inner.K, problem.dims, r.p2_size)
                                   for r in log.records if r.refined)

    def test_active_set_size_at_least_s(self):
        problem, _, inner, outer = quad_setup(max_iters=50)
        sched = ScheduleConfig(N=2, S=1, tau=2, seed=5)
        res = run(problem, inner, outer, sched)
        assert all(len(r.active) >= 1 for r in res.log.records if r.t)

    def test_numeric_abort_keeps_log(self):
        problem, _, inner, outer = quad_setup(eta_x1=1e200, eta_x2=1e200, eta_x3=1e200,
                                              eta_z2=1e200, eta_z3=1e200, max_iters=50)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        res = run(problem, inner, outer, sched)
        assert res.log.status == "aborted"
        assert len(res.log.records) >= 1
        # The footer says why and when, and counts the refinements that ran.
        footer = json.loads(res.log.to_jsonl().splitlines()[-1])
        assert footer["abort"]["reason"] and footer["abort"]["t"] == res.log.records[-1].t
        assert res.log.objectives is None and footer["objectives"] is None
        assert res.log.refinement_iters() == [0]
        p2_size = res.log.records[0].p2_size
        assert footer["c2_total"] == comm_cost_cuts(2, inner.K, problem.dims, p2_size) > 0
        assert validate_runlog(res.log, problem.dims) == []

    @pytest.mark.filterwarnings("error")
    def test_numeric_abort_is_returned_not_raised(self):
        problem, _, inner, outer = quad_setup(eta_x1=1e200, eta_x2=1e200, eta_x3=1e200,
                                              eta_z2=1e200, eta_z3=1e200, max_iters=50)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        log = run(problem, inner, outer, sched).log
        assert log.status == "aborted"
        assert [r.t for r in log.records] == [0]
        assert log.abort["t"] == 0 and "non-finite" in log.abort["reason"]

    def test_non_finite_objective_is_logged_abort_at_the_last_record(self):
        problem, _, inner, outer = quad_setup(max_iters=12)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        full = run(problem, inner, outer, sched).log
        problem = dataclasses.replace(problem, eval_fn=lambda level, V: np.full(len(V), np.inf))
        res = run(problem, inner, outer, sched)
        assert res.log.status == "aborted"
        assert res.log.abort == {"reason": "f_1,0 is non-finite", "t": res.log.records[-1].t}
        # The loop never reads an objective: every record is the one the finite run wrote.
        assert res.log.records == full.records
        assert res.log.objectives is None
        assert json.loads(res.log.to_jsonl().splitlines()[-1])["objectives"] is None
        assert validate_runlog(res.log, problem.dims) == []

    def test_bootstrap_inner_failure_is_logged_abort(self):
        problem, _, inner, outer = quad_setup(max_iters=5)
        inner = dataclasses.replace(inner, eta_x=1e200, eta_z=1e200)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        res = run(problem, inner, outer, sched)
        assert res.log.status == "aborted"
        assert res.log.records == []
        assert res.log.abort["t"] == 0
        assert "non-finite level-3 iterate at round" in res.log.abort["reason"]
        assert res.log.c2_total == 0
        assert validate_runlog(res.log, problem.dims) == []
        footer = [strict_json(line) for line in res.log.to_jsonl().splitlines()][-1]
        assert footer["final_gap_sq"] is None

    def test_non_finite_gap_is_logged_abort_with_strict_json(self):
        # Every gradient entry is finite, but x1's squares overflow the gap to inf.
        problem, _, inner, outer = quad_setup(dims=(1, 1, 1), max_iters=5)
        exact = problem.grad_fn

        def grad_fn(level, V):
            G = exact(level, V).copy()
            if level == 1:
                G[:, problem.dims.columns(1)] = 5e154
            return G

        problem = dataclasses.replace(problem, grad_fn=grad_fn)
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0))
        assert res.log.status == "aborted"
        assert res.log.abort == {"reason": "non-finite stationarity gap", "t": 0}
        assert res.log.records == []
        for line in res.log.to_jsonl().splitlines():
            strict_json(line)

    def test_abort_inside_the_loop_names_its_iteration(self, monkeypatch):
        problem, _, inner, outer = quad_setup(max_iters=20)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        calls = []

        def failing_master_step(*args, **kwargs):
            calls.append(kwargs["t"])
            if len(calls) == 4:
                raise NonFiniteError("injected at the fourth master step")
            return master_step(*args, **kwargs)

        monkeypatch.setattr(harness, "master_step", failing_master_step)
        res = run(problem, inner, outer, sched)
        assert res.log.status == "aborted"
        assert res.log.abort == {"reason": "injected at the fourth master step", "t": 4}
        assert [r.t for r in res.log.records] == [0, 1, 2, 3]
        assert validate_runlog(res.log, problem.dims) == []

    @pytest.mark.parametrize("row", [0, 4], ids=["row_no_sweep_reads", "row_the_sweep_reads"])
    def test_non_finite_cross_hessian_aborts_naming_level_and_worker(self, row):
        # NaN in worker 1's Hessian row: row 0 (block 1) is read by no
        # adjoint sweep, row 4 (block 3) by the layer-I one.  Either way the
        # first layer-I sweep, at t = 0, ends the run with the oracle's name.
        problem, _, inner, outer = quad_setup(max_iters=5)
        exact = problem.cross_hess_fn

        def cross_hess_fn(level, V):
            H = exact(level, V).copy()
            H[1, row] = np.nan
            return H

        problem = dataclasses.replace(problem, cross_hess_fn=cross_hess_fn)
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0))
        assert res.log.status == "aborted"
        assert res.log.abort == {"reason": "cross Hessian of f_3,1 is non-finite", "t": 0}

    def test_staleness_violation_is_not_an_abort(self, monkeypatch):
        # A scheduler that never activates worker 2 breaks the staleness
        # invariant; that must raise, not end as a numeric abort.
        monkeypatch.setattr(harness, "schedule_epoch",
                            lambda pending, staleness, cfg, clock: ((0,), clock + 1.0))
        problem, _, inner, outer = quad_setup(max_iters=20)
        sched = ScheduleConfig(N=2, S=1, tau=3, seed=0)
        with pytest.raises(FedtriError, match="staleness"):
            run(problem, inner, outer, sched)


class TestGradMode:
    def counted_problem(self):
        """A quadratic run whose cross_hess_fn counts its calls."""
        problem, _, inner, outer = quad_setup(max_iters=5)
        calls, exact = [], problem.cross_hess_fn

        def cross_hess_fn(*args):
            calls.append(1)
            return exact(*args)

        return dataclasses.replace(problem, cross_hess_fn=cross_hess_fn), inner, outer, calls

    @pytest.mark.parametrize("mode", ["bogus", "analytic"])
    def test_unknown_value_raises_even_without_refinement(self, mode):
        problem, _, inner, outer = quad_setup(T1=0, max_iters=5)
        with pytest.raises(ValueError, match="grad_mode"):
            run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0), grad_mode=mode)

    def test_finite_diff_drops_second_derivatives_from_a_copy(self):
        problem, inner, outer, calls = self.counted_problem()
        hess = problem.cross_hess_fn
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0), grad_mode="finite-diff")
        assert res.log.refinement_iters() == [0]
        assert calls == [] and problem.cross_hess_fn is hess

    def test_default_uses_the_problem_s_second_derivatives(self):
        problem, inner, outer, calls = self.counted_problem()
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0))
        assert res.log.refinement_iters() == [0]
        assert len(calls) > 0


class TestStopping:
    def test_start_at_the_optimum_converges_at_zero(self):
        # At the quadratic oracle with no cuts every gap block is exactly
        # zero, so iteration 0 meets the target and nothing is dispatched.
        problem, oracle, inner, outer = quad_setup(T1=0, tol=1e-12)
        problem = dataclasses.replace(
            problem, initial_point_fn=lambda rng: (oracle.y1, oracle.y2, oracle.y3))
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0))
        assert res.log.status == "converged" and res.log.T_eps == 0
        assert len(res.log.records) == 1
        assert validate_runlog(res.log, problem.dims) == []

    def test_converged_run_stops_at_its_first_crossing(self):
        problem, _, inner, outer = quad_setup(max_iters=3600, tol=1e-3, T_pre=15, T1=400)
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=1, seed=4))
        log = res.log
        assert log.status == "converged"
        assert log.T_eps == log.records[-1].t == time_to_gap(log, outer.tol)[1]
        assert validate_runlog(log, problem.dims) == []


class TestSyncEquivalence:
    def test_matches_handrolled_synchronous_loop(self):
        problem, _, inner, outer = quad_setup(max_iters=25, T_pre=7, T1=0)
        sched = ScheduleConfig(N=2, S=2, sync_mode=True, seed=11)
        res = run(problem, inner, outer, sched)

        # Independent synchronous reference: every worker steps on the fresh state.
        rng = np.random.default_rng(11)
        x1, x2, x3 = problem.initial_point(rng)
        state = PrimalState.from_point(problem.dims, x1, x2, x3)
        duals = DualState.zeros(problem.dims)
        poly2 = Polytope(problem.dims)
        for t_new in range(1, 26):
            gap = stationarity_gap(state, duals, poly2, problem, outer)
            state.X = worker_step(problem, state, gap, outer, range(2))
            state.Z, duals, _ = master_step(state, duals, poly2, problem, outer, gap, t=t_new - 1)
        for i in range(3):
            assert np.array_equal(res.state.z[i], state.z[i])
            for j in range(2):
                assert np.array_equal(res.state.x[i][j], state.x[i][j])


class TestRefinement:
    def test_pruning_keeps_each_cut_dual_with_its_cut(self, monkeypatch):
        # Pruning that drops the oldest layer-II cut (once there are two)
        # must drop that cut's dual and keep the others in cut order.
        seen = []

        def drop_oldest(poly1, gamma_K, poly2, lambdas, **kwargs):
            seen.append(lambdas.copy())
            keep2 = np.ones(poly2.size, bool)
            keep2[0] = poly2.size < 2
            return np.ones(poly1.size, bool), keep2

        monkeypatch.setattr(harness, "drop_inactive", drop_oldest)
        problem, _, inner, outer = quad_setup(T_pre=5, max_iters=10)
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0))
        assert res.log.refinement_iters() == [0, 5, 10]
        lam = seen[-1]
        assert lam.size == 2 and lam[0] > 0.0
        assert np.array_equal(res.duals.lam, lam[1:])
        assert res.poly2.size == 1

    def test_a_weakly_convex_problem_inflates_its_cuts_by_mu(self, monkeypatch):
        # At t = 0 both runs unroll level 3 at the same point, so their layer-I cuts
        # differ only in the offset, by mu times the inflation.  The level-2 unroll
        # reads the layer-I cut, whose offset carries that inflation, so the layer-II
        # cut is compared with the mu = 0 cut of its own trace.
        mu = 0.5

        def runs(weak_convexity_mu, repeats):
            """The logs of ``repeats`` same-seed runs and every (trace, state, cut) they built."""
            cuts = []

            def recorded(generate):
                def build(trace, state):
                    cuts.append((trace, state.copy(), generate(trace, state)))
                    return cuts[-1][2]
                return build
            monkeypatch.setattr(harness, "generate_cut_I", recorded(generate_cut_I))
            monkeypatch.setattr(harness, "generate_cut_II", recorded(generate_cut_II))
            problem, _, inner, outer = quad_setup(T_pre=5, max_iters=12)
            problem = dataclasses.replace(problem, weak_convexity_mu=weak_convexity_mu)
            sched = ScheduleConfig(N=2, S=1, tau=5, seed=3)
            return problem, [run(problem, inner, outer, sched).log for _ in range(repeats)], cuts

        def inflation(level, state, alphas):
            """Each row of each block's alpha plus the squared norm of the layer's point."""
            (a1, a2, a3), (_, x2, x3), N = alphas, state.x, state.dims.N
            own = state.Z @ state.Z + np.vdot(x3, x3)
            if level == 3:
                return a1 + a2 + (N + 1) * a3 + own
            return a1 + (N + 1) * (a2 + a3) + own + np.vdot(x2, x2)

        problem, logs, cuts = runs(mu, 2)
        _, _, cuts0 = runs(0.0, 1)
        (_, state1, (w1, c1)), (trace2, state2, (w2, c2)) = cuts[:2]
        _, _, (w1_0, c1_0) = cuts0[0]
        assert np.array_equal(w1, w1_0)
        assert c1 - c1_0 == pytest.approx(mu * inflation(3, state1, problem.alphas), rel=1e-12)
        w2_0, c2_0 = generate_cut_II(with_cut_params(trace2, mu=0.0), state2)
        assert np.array_equal(w2, w2_0)
        assert c2 - c2_0 == pytest.approx(mu * inflation(2, state2, problem.alphas), rel=1e-12)
        assert logs[0].abort is None and validate_runlog(logs[0], problem.dims) == []
        assert logs[0].to_jsonl() == logs[1].to_jsonl()


class TestGradientSweep:
    def test_level1_gradients_once_per_iteration(self):
        # Each iteration's stationarity gap supplies the dispatched workers'
        # gradients, so without refinements the only level-1 calls are the
        # gap's at t = 0..T, each one stacked call for both workers' whole points.
        T = 20
        problem, _, inner, outer = quad_setup(T1=0, max_iters=T)
        grad_fn = problem.grad_fn
        levels = []

        def counting_grad(level, *args):
            levels.append(level)
            return grad_fn(level, *args)

        problem.grad_fn = counting_grad
        sched = ScheduleConfig(N=2, S=1, tau=5, seed=0,
                               delay=DelayModel(kind="uniform", lo=0.5, hi=1.5))
        res = run(problem, inner, outer, sched)
        assert res.log.status == "max_iters" and len(res.log.records) == T + 1
        assert levels.count(1) == T + 1

    def test_every_gap_equals_one_formed_from_scratch_at_its_state(self, monkeypatch):
        # The loop's gap steps its duals on the master step's residuals.  At t = 0 and
        # after each refinement, which replaces P_II and lambda, it must form its own.
        fresh = []

        def checked_gap(state, duals, poly2, problem, cfg, *res):
            got = stationarity_gap(state, duals, poly2, problem, cfg, *res)
            ref = stationarity_gap(state, duals, poly2, problem, cfg)
            for name in ("gx", "gz", "glam", "gtheta"):
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name
            fresh.append(res in ((), (None,)))
            return got

        monkeypatch.setattr(harness, "stationarity_gap", checked_gap)
        problem, _, inner, outer = quad_setup(N=3, T_pre=4, max_iters=24)
        log = run(problem, inner, outer, ScheduleConfig(N=3, S=2, seed=2)).log
        assert log.status == "max_iters" and len(fresh) == len(log.records) == 25
        # Refinements land mid-run; at t = 12 one keeps P_II's size but not its cuts.
        assert log.refinement_iters() == [0, 4, 8, 12, 16, 20, 24]
        assert log.records[11].p2_size == log.records[12].p2_size and log.records[12].cuts_dropped
        assert [r.t for r, own in zip(log.records, fresh) if own] == log.refinement_iters()


class TestOracleRegression:
    @pytest.mark.parametrize("seed", [4, 7])
    def test_deeper_unrolls_approach_the_nested_argmin(self, seed):
        # On the quadratic oracle the consensus blocks end near the nested
        # argmin (y1, y2, y3) with K=30 unroll rounds and far from it with
        # K=1.  The distance is not monotone in K or eps (at seed 4, K=3
        # gives 0.30 and K=10 gives 0.54), so only the two ends are pinned.
        dist = {}
        for K in (1, 30):
            problem, oracle, inner, outer = quad_setup(seed=seed, T_pre=15, T1=400,
                                                       max_iters=600)
            inner = dataclasses.replace(inner, K=K, eps1=1e-2, eps2=1e-2)
            sched = ScheduleConfig(N=2, S=2, sync_mode=True, seed=seed)
            res = run(problem, inner, outer, sched)
            assert res.log.status == "max_iters"
            y = np.concatenate([oracle.y1, oracle.y2, oracle.y3])
            dist[K] = float(np.linalg.norm(np.concatenate(res.state.z) - y))
        assert dist[30] < 0.25
        assert dist[30] * 5.0 <= dist[1]


class TestAsyncBehavior:
    def test_straggler_speeds_up_async(self):
        # One five-fold straggler: partial-activation time to target is lower
        # than synchronous wall clock for the same target.  Both modes get the
        # same simulated budget of 3000 units: a sync epoch waits 5 units for
        # the straggler, an async epoch about 5/6 of a unit.  Each run stops at
        # its first crossing of the target, which is what time_to_gap reads.
        target = 1e-3
        times = {}
        for mode, horizon in (("sync", 600), ("async", 3600)):
            problem, _, inner, outer = quad_setup(max_iters=horizon, tol=target, T_pre=15,
                                                  T1=400, dims=(2, 2, 2))
            delay = DelayModel(kind="constant", straggler_ids=(2,), straggler_factor=5.0)
            sched = ScheduleConfig(N=2, S=2 if mode == "sync" else 1, tau=10,
                                   seed=4, delay=delay,
                                   sync_mode=(mode == "sync"))
            res = run(problem, inner, outer, sched)
            t, it = time_to_gap(res.log, target)
            assert it is not None, f"{mode} run never reached {target}"
            times[mode] = t
        assert times["async"] < times["sync"]


class TestSerialization:
    def test_jsonl_schema(self, tmp_path):
        problem, _, inner, outer = quad_setup(max_iters=12)
        sched = ScheduleConfig(N=2, S=2, seed=0)
        res = run(problem, inner, outer, sched)
        path = tmp_path / "log.jsonl"
        res.log.write_jsonl(path)
        lines = path.read_text().strip().split("\n")
        *records, footer = [json.loads(line) for line in lines]
        expected = {"t", "sim_time", "active", "staleness", "gap_sq", "p1_size", "p2_size",
                    "c1", "refined", "cuts_added", "cuts_dropped"}
        for rec in records:
            assert set(rec) == expected
        for line, r in zip(lines[:-1], res.log.records, strict=True):
            assert line == json.dumps(dataclasses.asdict(r), sort_keys=True, separators=(",", ":"))
        assert footer["footer"] is True
        assert {"status", "T_eps", "c1_total", "c2_total", "final_gap_sq", "abort",
                "objectives"} <= set(footer)
        assert footer["abort"] is None
        assert footer["objectives"] == list(res.log.objectives)
        assert len(footer["objectives"]) == 3 and all(np.isfinite(footer["objectives"]))

    def test_numpy_integer_dims_write_plain_json(self, tmp_path):
        problem, _ = build_quadratic_problem(seed=1, dims=tuple(np.array([2, 2, 2])),
                                             N=np.int64(2))
        _, _, inner, outer = quad_setup(max_iters=5)
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2))
        path = tmp_path / "log.jsonl"
        res.log.write_jsonl(path)
        footer = json.loads(path.read_text().splitlines()[-1])
        assert footer["dims"] == [2, 2, 2] and footer["N"] == 2
        assert all(type(v) is int for v in (*problem.dims.sizes, problem.dims.N))

    def test_numpy_integer_configs_write_the_same_jsonl(self):
        # T_pre and T1 decide IterRecord.refined, which a NumPy integer made a np.bool_.
        problem, _, inner, outer = quad_setup()
        plain = dict(K=3, T_pre=2, T1=5, max_iters=8, N=2, S=1, tau=3, seed=4)

        def jsonl(K, T_pre, T1, max_iters, N, S, tau, seed):
            res = run(problem, dataclasses.replace(inner, K=K),
                      dataclasses.replace(outer, T_pre=T_pre, T1=T1, max_iters=max_iters),
                      ScheduleConfig(N=N, S=S, tau=tau, seed=seed))
            return res.log.to_jsonl()

        want = jsonl(**plain)
        assert '"refined":true' in want and '"S":1' in want
        for name in plain:  # one field at a time, then all at once
            assert jsonl(**{**plain, name: np.int64(plain[name])}) == want, name
        assert jsonl(**{k: np.int64(v) for k, v in plain.items()}) == want

    @pytest.mark.parametrize("value", [2.5, "3", True])
    @pytest.mark.parametrize("cls, name", [
        (InnerConfig, "K"), (OuterConfig, "T_pre"), (OuterConfig, "T1"),
        (OuterConfig, "max_iters"), (ScheduleConfig, "N"), (ScheduleConfig, "S"),
        (ScheduleConfig, "tau"), (ScheduleConfig, "seed"),
        (Dims, "d1"), (Dims, "d2"), (Dims, "d3"), (Dims, "N")])
    def test_a_count_that_is_not_an_integer_raises(self, cls, name, value):
        # 2.5 was truncated to 2, "3" parsed to 3 and True taken as 1; the error names the field.
        required = {ScheduleConfig: dict(N=2, S=2), Dims: dict(d1=1, d2=1, d3=1, N=1)}
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            cls(**{**required.get(cls, {}), name: value})
