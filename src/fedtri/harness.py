"""Deterministic discrete-event simulation of the master/worker loop.

Workers are labeled 1..N at the configuration and log surface and indexed
0..N-1 internally.  Every worker always has exactly one in-flight update; the
master consumes the S earliest arrivals per epoch (ties by ascending label)
plus any worker forced by the staleness bound, then steps, then rebroadcasts
to the consumed workers.  Identical seed and configs reproduce the run log
byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from operator import add
from typing import Optional, Sequence

import numpy as np

from .core import DualState, FedtriError, NonFiniteError, PrimalState, TrilevelProblem
from .core import check_real, store_ints
from .cuts import Polytope, drop_inactive, generate_cut_I, generate_cut_II, normalize_cut
from .inner import InnerConfig, solve_level2, solve_level3
from .outer import OuterConfig, master_step, stationarity_gap, worker_step


@dataclass(frozen=True)
class DelayModel:
    """Per-worker round-trip delay: compute plus two link legs, in sim units.

    ``constant`` takes one unit for every dispatch; ``uniform`` draws from
    [lo, hi].  Stragglers (1-based labels) get a multiplicative factor.
    """

    kind: str = "constant"
    lo: float = 0.5
    hi: float = 1.5
    straggler_ids: tuple[int, ...] = ()
    straggler_factor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "uniform"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        for name, low in (("lo", 0.0), ("hi", self.lo)):
            check_real(name, getattr(self, name), low)
        check_real("straggler_factor", self.straggler_factor, strict=True)

    def draw(self, rng: np.random.Generator, workers: Sequence[int]) -> np.ndarray:
        """Delays of ``workers`` (0-based ints or an index array), in order; uniform in one draw."""
        rows = np.asarray(workers, np.intp).tolist()
        factor = [self.straggler_factor if j + 1 in self.straggler_ids else 1.0 for j in rows]
        if self.kind == "constant":
            return np.ones(len(rows)) * factor
        return rng.uniform(self.lo, self.hi, size=len(rows)) * factor


@dataclass(frozen=True)
class ScheduleConfig:
    N: int
    S: int
    tau: int = 10
    delay: DelayModel = field(default_factory=DelayModel)
    seed: int = 0
    sync_mode: bool = False

    def __post_init__(self):
        store_ints(self, "N", "S", "tau", "seed")
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.sync_mode:
            object.__setattr__(self, "S", self.N)
        if not 1 <= self.S <= self.N:
            raise ValueError("need 1 <= S <= N")
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 1 <= i <= self.N
               for i in self.delay.straggler_ids):  # as store_ints: no float, no bool
            raise ValueError("straggler_ids must be integers within 1..N")


def schedule_epoch(
    pending: Sequence[float],
    staleness: Sequence[int],
    cfg: ScheduleConfig,
    clock: float = 0.0,
) -> tuple[tuple[int, ...], float]:
    """Pick the next active set (0-based indices) and advance the clock.

    The S earliest arrivals win, ties broken by ascending worker label; any
    worker whose staleness would otherwise exceed tau - 1 is force-included
    and waited for.
    """
    order = sorted(range(len(pending)), key=pending.__getitem__)  # stable: ties keep label order
    forced = [j for j, s in enumerate(staleness) if s >= cfg.tau - 1]
    active = tuple(sorted({*order[:cfg.S], *forced}))
    return active, max(clock, *[pending[j] for j in active])


def comm_cost_iter(S: int, dims, poly2_size: int) -> int:
    """Per-iteration scalar traffic: 32 S (2 sum(d_i) + d1 + |P_II|)."""
    if S < 0 or poly2_size < 0:
        raise ValueError("inputs must be nonnegative")
    d_sum = dims.d1 + dims.d2 + dims.d3
    return 32 * S * (2 * d_sum + dims.d1 + poly2_size)


def comm_cost_cuts(N: int, K: int, dims, poly2_size: int) -> int:
    """One refinement's traffic: 32 N (K (3 d23 + 2 |P_II|) + |P_II| (2 d23 + d1 + 1)).

    d23 is d2 + d3, |P_II| the layer-II cuts held after it; exact integers throughout.
    """
    d23 = dims.d2 + dims.d3
    return 32 * N * (K * (3 * d23 + 2 * poly2_size) + poly2_size * (2 * d23 + dims.d1 + 1))


@dataclass
class IterRecord:
    t: int
    sim_time: float
    active: list[int]  # 1-based labels; empty for the initial record
    staleness: list[int]
    gap_sq: float
    p1_size: int
    p2_size: int
    c1: int
    refined: bool = False
    cuts_added: list[int] = field(default_factory=list)
    cuts_dropped: list[int] = field(default_factory=list)


@dataclass
class RunLog:
    dims: tuple[int, int, int]
    N: int
    S: int
    tau: int
    K: int
    T_pre: int
    T1: int
    seed: int
    records: list[IterRecord] = field(default_factory=list)
    status: str = "running"
    T_eps: Optional[int] = None
    c1_total: int = 0
    c2_total: int = 0
    final_gap_sq: float = float("nan")
    abort: Optional[dict] = None  # {"reason": str, "t": iteration in progress}
    objectives: Optional[tuple[float, float, float]] = None  # (f1, f2, f3) at the returned state

    def refinement_iters(self) -> list[int]:
        return [r.t for r in self.records if r.refined]

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(vars(r), sort_keys=True, separators=(",", ":"))
            for r in self.records
        ]
        footer = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}
        footer.update(footer=True, final_gap_sq=self.final_gap_sq if self.records else None)
        lines.append(json.dumps(footer, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())


@dataclass
class RunResult:
    log: RunLog
    state: PrimalState
    duals: DualState
    poly1: Polytope
    poly2: Polytope


def _objectives(problem: TrilevelProblem, state: PrimalState) -> tuple[float, float, float]:
    """The three levels' objectives summed over the workers, in worker order.

    f_l is taken at ``state.oracle_point(l)``: f1 at X, f2 at (z1, x2, x3), f3 at (z1, z2, x3).
    """
    f = (problem.eval_all(level, state.oracle_point(level)) for level in (1, 2, 3))
    # Plain left-to-right adds of Python floats: from Python 3.12 ``sum`` compensates them.
    return tuple(reduce(add, v.tolist(), 0.0) for v in f)


@np.errstate(all="ignore")
def run(
    problem: TrilevelProblem,
    inner_cfg: InnerConfig,
    outer_cfg: OuterConfig,
    sched_cfg: ScheduleConfig,
    grad_mode: str = "auto",
) -> RunResult:
    """Execute the asynchronous loop until the gap target or max_iters.

    Iteration 0 starts from the initial point, the one ``PrimalState`` of the
    run; every later iteration t first writes the active workers' updates into
    its X and the master step's new point into its Z.  Every
    T_pre iterations, from t = 0 and while the refinement horizon T1 is open,
    the two inner unrolls run, one cut per layer is generated at the current
    point, and inactive cuts are pruned.  Each cut is stored once, as a row of
    ``poly1`` or ``poly2`` under the next id, at unit coefficient norm
    (``normalize_cut``), so the cut duals, their cap and the pruning tolerance
    are per unit distance along a cut normal.  A cut reads mu, eps and the
    alphas from its trace (``generate_cut_I``, ``generate_cut_II``).

    ``inner.grad_h`` takes the backward sweep through the unrolls when
    ``problem.cross_hess_fn`` is set and finite differences otherwise.
    ``grad_mode="auto"`` runs the problem as given; ``"finite-diff"`` runs a
    copy without ``cross_hess_fn``.  Other values raise ``ValueError``.

    Each iteration's stationarity gap is the one gradient sweep of L_p: it
    decides the stopping rule, its primal rows are the projected steps of the
    workers dispatched after it (all N at t = 0), and its z rows are the next
    master step's.  Its dual rows reuse the master step's dual residuals, except
    at t = 0 and after a refinement.

    Non-finite numerics (``NonFiniteError``, from the outer steps or an unroll) end the run
    with ``status="aborted"``, the log up to the last good iteration and the
    reason and iteration in progress in ``log.abort``, under any warning
    filter: NumPy's floating-point warnings are off inside ``run``.  Any other
    ``FedtriError``, such as a broken staleness bound, propagates.  The objectives
    (f1, f2, f3) are evaluated once, at the returned state, into ``log.objectives``;
    an aborted run leaves it None, and a non-finite one aborts at the last record.
    """
    if problem.dims.N != sched_cfg.N:
        raise ValueError("problem and schedule disagree on the worker count")
    if grad_mode == "finite-diff":
        problem = replace(problem, cross_hess_fn=None)
    elif grad_mode != "auto":
        raise ValueError(f"unknown grad_mode {grad_mode!r}")
    outer_cfg.check_floors(N=sched_cfg.N)

    N = problem.dims.N
    rng = np.random.default_rng(sched_cfg.seed)
    state = PrimalState.from_point(problem.dims, *problem.initial_point(rng))
    duals = DualState.zeros(problem.dims)
    poly1 = poly2 = Polytope(problem.dims)
    next_cut_id = 0
    warm3 = warm2 = None  # (x, z) init prefixes, set only under warm_start

    log = RunLog(
        dims=problem.dims.sizes,
        N=N, S=sched_cfg.S, tau=sched_cfg.tau, K=inner_cfg.K,
        T_pre=outer_cfg.T_pre, T1=outer_cfg.T1, seed=sched_cfg.seed,
    )

    clock = 0.0
    staleness = [0] * N  # t - t_hat_j, the age of each worker's snapshot

    results = np.zeros_like(state.X)  # row j: worker j's in-flight flat point
    pending = [0.0] * N

    def refine() -> tuple[list[int], list[int]]:
        """Generate one unit-normalized cut per layer at the current point, then prune.

        The raw linearizations have coefficient norms far from one (about 100
        on the quadratic problems); unscaled, a fresh cut's violation drives
        its dual to the cap and the primal steps blow up.
        """
        nonlocal poly1, poly2, next_cut_id, warm3, warm2
        added = [next_cut_id, next_cut_id + 1]
        next_cut_id += 2
        (_, x2, x3), (_, z2, z3) = state.x, state.z
        # No stored warm start: begin at the outer iterate (zeros are an MLP saddle).
        trace1 = solve_level3(problem, state, init=warm3 or (x3, z3), cfg=inner_cfg)
        cut1 = generate_cut_I(trace1, state)
        poly1 = poly1.add(*normalize_cut(*cut1), added[0])

        trace2 = solve_level2(problem, state, poly1, init=warm2 or (x2, z2), cfg=inner_cfg)
        cut2 = generate_cut_II(trace2, state)
        poly2 = poly2.add(*normalize_cut(*cut2), added[1])
        lam = np.append(duals.lam, 0.0)

        keep1, keep2 = drop_inactive(poly1, trace2.gamma_K, poly2, lam, protect2=added[1:])
        duals.lam = lam[keep2]
        # Ids grow with every add and a polytope keeps its order, so these come out sorted.
        dropped = [i for p, keep in ((poly1, keep1), (poly2, keep2))
                   for i, kept in zip(p.ids, keep) if not kept]
        poly1, poly2 = poly1.keep(keep1), poly2.keep(keep2)
        if inner_cfg.warm_start:
            # Only the inner primal blocks: inner duals, slacks and cut duals restart at
            # zero (carried over, they integrate a still-violated cut's drag without bound).
            warm3, warm2 = ((t.x[-1].copy(), t.z[-1].copy()) for t in (trace1, trace2))
        return added, dropped

    def finish(status: str) -> RunResult:
        log.status = status
        log.final_gap_sq = log.records[-1].gap_sq if log.records else float("nan")
        return RunResult(log=log, state=state, duals=duals, poly1=poly1, poly2=poly2)

    active, rows, res = (), np.arange(N), None  # t = 0 delivers none and dispatches all N
    try:
        for t in range(outer_cfg.max_iters + 1):
            if t:
                active, clock = schedule_epoch(pending, staleness, sched_cfg, clock)
                # Every snapshot, delivered now or still waiting, is one iteration older.
                if max(staleness) + 1 > sched_cfg.tau:
                    raise FedtriError("staleness bound violated")
                rows = np.array(active, np.intp)
                state.X[rows] = results[rows]
                state.Z, duals, res = master_step(state, duals, poly2, problem, outer_cfg, gap,
                                                  t=t - 1)
                staleness = [0 if j in active else s + 1 for j, s in enumerate(staleness)]

            # t = 0 refines too, so while T1 is open the master never steps on empty polytopes.
            refined = t % outer_cfg.T_pre == 0 and max(t - 1, 0) < outer_cfg.T1
            added, dropped = refine() if refined else ([], [])

            gap = stationarity_gap(state, duals, poly2, problem, outer_cfg,
                                   None if refined else res)
            gap_sq = gap.sq_norm
            if not math.isfinite(gap_sq):
                raise NonFiniteError("non-finite stationarity gap")
            c1_cost = comm_cost_iter(sched_cfg.S, problem.dims, poly2.size) if t else 0
            log.c1_total += c1_cost
            if refined:
                log.c2_total += comm_cost_cuts(N, inner_cfg.K, problem.dims, poly2.size)
            log.records.append(IterRecord(
                t=t, sim_time=clock, active=[j + 1 for j in active], staleness=list(staleness),
                gap_sq=gap_sq, p1_size=poly1.size, p2_size=poly2.size, c1=c1_cost,
                refined=refined, cuts_added=added, cuts_dropped=dropped,
            ))
            if gap_sq <= outer_cfg.tol:
                log.T_eps = t
                break
            # The event's workers start their next updates from this gap.
            results[rows] = worker_step(problem, state, gap, outer_cfg, rows)
            for j, delay in zip(rows.tolist(), sched_cfg.delay.draw(rng, rows).tolist()):
                pending[j] = clock + delay
        log.objectives = _objectives(problem, state)
    except NonFiniteError as exc:
        log.abort = {"reason": str(exc), "t": t}
        return finish("aborted")
    return finish("max_iters" if log.T_eps is None else "converged")


def validate_runlog(log: RunLog, dims, inner_K: Optional[int] = None) -> list[str]:
    """Replay the bookkeeping invariants over a finished log.

    Returns a list of violation descriptions (empty when clean): staleness
    within tau, active sets at least S wide, non-decreasing simulated time,
    and both communication counters equal to their closed forms (for an
    aborted run, over the refinements it logged).
    """
    problems: list[str] = []
    prev_time = -np.inf
    c1_sum = 0
    for r in log.records:
        if r.t and len(r.active) < log.S:
            problems.append(f"t={r.t}: active set smaller than S")
        if any(s > log.tau for s in r.staleness):
            problems.append(f"t={r.t}: staleness exceeds tau")
        if r.sim_time < prev_time:
            problems.append(f"t={r.t}: simulated time went backwards")
        prev_time = r.sim_time
        expect = 0 if r.t == 0 else comm_cost_iter(log.S, dims, r.p2_size)
        if r.c1 != expect:
            problems.append(f"t={r.t}: C1 mismatch ({r.c1} != {expect})")
        c1_sum += r.c1
    if c1_sum != log.c1_total:
        problems.append("C1 total mismatch")
    K = log.K if inner_K is None else inner_K
    c2 = sum(comm_cost_cuts(log.N, K, dims, r.p2_size) for r in log.records if r.refined)
    if c2 != log.c2_total:
        problems.append("C2 total mismatch")
    return problems


def time_to_gap(log: RunLog, target: float) -> tuple[float, Optional[int]]:
    """Simulated time and iteration of the first gap crossing, (inf, None) if never."""
    for r in log.records:
        if r.gap_sq <= target:
            return r.sim_time, r.t
    return float("inf"), None
