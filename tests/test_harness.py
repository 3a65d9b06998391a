import dataclasses
import json

import numpy as np
import pytest

from fedtri.core import DualState, FedtriError, NonFiniteError, PrimalState
from fedtri.cuts import Polytope
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


class TestDelayModel:
    def test_constant(self):
        dm = DelayModel(kind="constant", value=2.0)
        rng = np.random.default_rng(0)
        assert dm.draw(rng, [0]).tolist() == [2.0]

    def test_straggler_factor(self):
        dm = DelayModel(kind="constant", value=2.0, straggler_ids=(2,), straggler_factor=5.0)
        rng = np.random.default_rng(0)
        assert dm.draw(rng, [0]).tolist() == [2.0]
        assert dm.draw(rng, [1]).tolist() == [10.0]  # worker label 2 is index 1
        assert dm.draw(rng, [1, 0]).tolist() == [10.0, 2.0]

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

    def test_stale_worker_forced_and_waited_for(self):
        cfg = ScheduleConfig(N=3, S=1, tau=4)
        active, clock = schedule_epoch([1.0, 2.0, 9.0], [0, 0, 3], cfg, clock=0.5)
        assert active == (0, 2)
        assert clock == 9.0

    def test_straggler_never_exceeds_tau(self):
        # Constant delays with worker 4 five times slower, tau = 10: simulate
        # 100 epochs of the bookkeeping and track staleness.
        cfg = ScheduleConfig(N=4, S=3, tau=10,
                             delay=DelayModel(kind="constant", value=1.0,
                                              straggler_ids=(4,), straggler_factor=5.0))
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
        assert comm_cost_cuts([], 2, 3, self.Dims(1, 1, 1), {}) == 0

    def test_cuts_single_event_golden(self):
        # Hand evaluation: 32 (2*3*(6+2) + 2*1*(4+1+1)) = 1920.
        got = comm_cost_cuts([4], 2, 3, self.Dims(1, 1, 1), {4: 1})
        assert got == 1920

    def test_cuts_linear_in_n(self):
        d = self.Dims(2, 3, 4)
        sizes = {10: 3}
        assert comm_cost_cuts([10], 4, 5, d, sizes) == 2 * comm_cost_cuts([10], 2, 5, d, sizes)


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
                               delay=DelayModel(kind="constant", value=1.0,
                                                straggler_ids=(2,), straggler_factor=7.0))
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
        sizes = {r.t: r.p2_size for r in log.records}
        assert log.c2_total == comm_cost_cuts(log.refinement_iters(), log.N,
                                              inner.K, problem.dims, sizes)

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
        assert res.log.refinement_iters() == [0]
        sizes = {r.t: r.p2_size for r in res.log.records}
        assert footer["c2_total"] == comm_cost_cuts([0], 2, inner.K, problem.dims, sizes) > 0
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

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        lines = res.log.to_jsonl().splitlines()
        footer = [json.loads(line, parse_constant=reject) for line in lines][-1]
        assert footer["final_gap_sq"] is None

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
        sched = ScheduleConfig(N=2, S=2, sync_mode=True, seed=11,
                               delay=DelayModel(kind="constant", value=0.0))
        res = run(problem, inner, outer, sched)

        # Independent synchronous reference: every worker steps on the fresh state.
        rng = np.random.default_rng(11)
        x1, x2, x3 = problem.initial_point(rng)
        state = PrimalState.from_point(problem.dims, x1, x2, x3)
        duals = DualState.zeros(problem.dims)
        poly2 = Polytope("II", problem.dims)
        for t_new in range(1, 26):
            gap = stationarity_gap(state, duals, poly2, problem, outer)
            state.X = worker_step(problem, state, gap, outer, range(2))
            state, duals = master_step(state, duals, poly2, problem, outer, gap, t=t_new - 1)
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
            if poly2.size < 2:
                return poly1, poly2
            return poly1, Polytope("II", poly2.dims, poly2.cuts[1:])

        monkeypatch.setattr(harness, "drop_inactive", drop_oldest)
        problem, _, inner, outer = quad_setup(T_pre=5, max_iters=10)
        res = run(problem, inner, outer, ScheduleConfig(N=2, S=2, seed=0))
        assert res.log.refinement_iters() == [0, 5, 10]
        lam = seen[-1]
        assert lam.size == 2 and lam[0] > 0.0
        assert np.array_equal(res.duals.lam, lam[1:])
        assert res.poly2.size == 1


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
            delay = DelayModel(kind="constant", value=1.0, straggler_ids=(2,),
                               straggler_factor=5.0)
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
        expected = {"t", "sim_time", "active", "staleness", "gap_sq", "f1", "f2",
                    "f3", "p1_size", "p2_size", "c1", "refined", "cuts_added",
                    "cuts_dropped"}
        for rec in records:
            assert set(rec) == expected
        assert footer["footer"] is True
        assert {"status", "T_eps", "c1_total", "c2_total", "final_gap_sq", "abort"} <= set(footer)
        assert footer["abort"] is None
