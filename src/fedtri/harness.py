"""Deterministic discrete-event simulation of the master/worker loop.

Workers are labeled 1..N at the configuration and log surface and indexed
0..N-1 internally.  Every worker always has exactly one in-flight update; the
master consumes the S earliest arrivals per epoch (ties by ascending label)
plus any worker forced by the staleness bound, then steps, then rebroadcasts
to the consumed workers.  Identical seed and configs reproduce the run log
byte for byte.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import DualState, FedtriError, NonFiniteError, PrimalState, TrilevelProblem
from .cuts import (
    Cut,
    Polytope,
    add_cut,
    drop_inactive,
    generate_cut_I,
    generate_cut_II,
    normalize_cut,
)
from .inner import InnerConfig, InnerSolverError, solve_level2, solve_level3
from .outer import OuterConfig, WorkerView, master_step, stationarity_gap, worker_step


class NumericAbort(FedtriError):
    """The run hit non-finite state; the last good log is attached."""

    def __init__(self, message: str, result: "RunResult"):
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class DelayModel:
    """Per-worker round-trip delay: compute plus two link legs, in sim units.

    ``constant`` uses ``value`` for every dispatch; ``uniform`` draws from
    [lo, hi].  Stragglers (1-based labels) get a multiplicative factor.
    """

    kind: str = "constant"
    value: float = 1.0
    lo: float = 0.5
    hi: float = 1.5
    straggler_ids: tuple[int, ...] = ()
    straggler_factor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "uniform"):
            raise ValueError(f"unknown delay kind {self.kind!r}")
        if self.kind == "constant" and self.value < 0:
            raise ValueError("constant delay must be nonnegative")
        if self.kind == "uniform" and not (0 <= self.lo <= self.hi):
            raise ValueError("uniform delay needs 0 <= lo <= hi")
        if self.straggler_factor <= 0:
            raise ValueError("straggler factor must be positive")

    def draw(self, rng: np.random.Generator, worker_idx: int) -> float:
        if self.kind == "constant":
            base = self.value
        else:
            base = float(rng.uniform(self.lo, self.hi))
        if (worker_idx + 1) in self.straggler_ids:
            base *= self.straggler_factor
        return base


@dataclass(frozen=True)
class ScheduleConfig:
    N: int
    S: int
    tau: int = 10
    delay: DelayModel = field(default_factory=DelayModel)
    seed: int = 0
    sync_mode: bool = False
    refine_latency_per_unit: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        if self.sync_mode:
            object.__setattr__(self, "S", self.N)
        if not 1 <= self.S <= self.N:
            raise ValueError("need 1 <= S <= N")
        if self.tau < 1:
            raise ValueError("tau must be at least 1")
        if any(not 1 <= i <= self.N for i in self.delay.straggler_ids):
            raise ValueError("straggler ids must be within 1..N")


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
    n = len(pending)
    order = sorted(range(n), key=lambda j: (pending[j], j))
    active = set(order[: cfg.S])
    active.update(j for j in range(n) if staleness[j] >= cfg.tau - 1)
    new_clock = max(clock, max(pending[j] for j in active))
    return tuple(sorted(active)), new_clock


def comm_cost_iter(t: int, S: int, dims, poly2_size: int) -> int:
    """Per-iteration scalar traffic: 32 S (2 sum(d_i) + d1 + |P_II|)."""
    if S < 0 or poly2_size < 0:
        raise ValueError("inputs must be nonnegative")
    d_sum = dims.d1 + dims.d2 + dims.d3
    return 32 * S * (2 * d_sum + dims.d1 + poly2_size)


def _cut_event_cost(N: int, K: int, dims, poly2_size: int) -> int:
    d23 = dims.d2 + dims.d3
    return N * K * (3 * d23 + 2 * poly2_size) + N * poly2_size * (2 * d23 + dims.d1 + 1)


def comm_cost_cuts(refinement_iters: Sequence[int], N: int, K: int, dims,
                   poly2_sizes: dict[int, int]) -> int:
    """Refinement traffic summed over the refinement iterations."""
    return 32 * sum(
        _cut_event_cost(N, K, dims, poly2_sizes[t]) for t in refinement_iters
    )


@dataclass
class IterRecord:
    t: int
    sim_time: float
    active: list[int]  # 1-based labels; empty for the initial record
    staleness: list[int]
    gap_sq: float
    f1: float
    f2: float
    f3: float
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

    def refinement_iters(self) -> list[int]:
        return [r.t for r in self.records if r.refined]

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(asdict(r), sort_keys=True, separators=(",", ":"))
            for r in self.records
        ]
        footer = {
            "footer": True,
            "status": self.status,
            "T_eps": self.T_eps,
            "c1_total": self.c1_total,
            "c2_total": self.c2_total,
            "final_gap_sq": self.final_gap_sq,
            "abort": self.abort,
            "dims": list(self.dims),
            "N": self.N,
            "S": self.S,
            "tau": self.tau,
            "K": self.K,
            "T_pre": self.T_pre,
            "T1": self.T1,
            "seed": self.seed,
        }
        lines.append(json.dumps(footer, sort_keys=True, separators=(",", ":")))
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "gap_sq", "f1", "f2", "f3", "sim_time", "p1", "p2", "c1"])
            for r in self.records:
                w.writerow([r.t, repr(r.gap_sq), repr(r.f1), repr(r.f2), repr(r.f3),
                            repr(r.sim_time), r.p1_size, r.p2_size, r.c1])


@dataclass
class CutEvent:
    """What one refinement did: the cuts it added and dropped per layer."""

    t: int
    added_1: int
    added_2: int
    dropped_1: list[int]
    dropped_2: list[int]
    pre_ids_1: tuple[int, ...]
    pre_ids_2: tuple[int, ...]


@dataclass
class RunResult:
    log: RunLog
    state: PrimalState
    duals: DualState
    poly1: Polytope
    poly2: Polytope
    cut_registry: dict[int, Cut]
    cut_events: list[CutEvent]
    clock: float


def _objectives(problem: TrilevelProblem, state: PrimalState) -> tuple[float, float, float]:
    N = problem.dims.N
    f1 = sum(problem.eval(1, j, state.x[0][j], state.x[1][j], state.x[2][j]) for j in range(N))
    f2 = sum(problem.eval(2, j, state.z[0], state.x[1][j], state.x[2][j]) for j in range(N))
    f3 = sum(problem.eval(3, j, state.z[0], state.z[1], state.x[2][j]) for j in range(N))
    return f1, f2, f3


def run(
    problem: TrilevelProblem,
    inner_cfg: InnerConfig,
    outer_cfg: OuterConfig,
    sched_cfg: ScheduleConfig,
    mu1: Optional[float] = None,
    mu2: Optional[float] = None,
    grad_mode: str = "auto",
    raise_on_abort: bool = False,
) -> RunResult:
    """Execute the asynchronous loop until the gap target or max_iters.

    Worker updates are computed against the snapshot from each worker's last
    activation; every T_pre iterations (while the refinement horizon T1 is
    open) the two inner unrolls run, one cut per layer is generated at the
    current point, and inactive cuts are pruned.  Both layers' cuts are stored
    at unit coefficient norm (``normalize_cut``), so the cut duals, their cap
    sqrt(alpha4) and the pruning tolerance are per unit distance along a cut
    normal rather than in the raw linearization's units.

    Non-finite numerics (``NonFiniteError``, ``InnerSolverError``) end the run
    with ``status="aborted"``, the log up to the last good iteration and the
    reason and iteration in progress in ``log.abort``, or raise
    ``NumericAbort`` carrying that result under ``raise_on_abort``.  Any
    other ``FedtriError``, such as a broken staleness bound, propagates.
    """
    if problem.dims.N != sched_cfg.N:
        raise ValueError("problem and schedule disagree on the worker count")
    if grad_mode == "auto":
        grad_mode = "analytic" if problem.has_second_derivatives else "finite-diff"
    if mu1 is None:
        mu1 = problem.weak_convexity_mu
    if mu2 is None:
        mu2 = problem.weak_convexity_mu
    outer_cfg.check_floors(N=sched_cfg.N, M=1)

    N = problem.dims.N
    rng = np.random.default_rng(sched_cfg.seed)
    x1, x2, x3 = problem.initial_point(rng)
    state = PrimalState.from_point(problem.dims, x1, x2, x3)
    duals = DualState.zeros(problem.dims)
    poly1 = Polytope(layer="I")
    poly2 = Polytope(layer="II")
    next_cut_id = 0
    cut_registry: dict[int, Cut] = {}
    cut_events: list[CutEvent] = []
    warm3 = warm2 = None  # (x, z, phi, s, gamma) inits, set only under warm_start

    log = RunLog(
        dims=(problem.dims.d1, problem.dims.d2, problem.dims.d3),
        N=N, S=sched_cfg.S, tau=sched_cfg.tau, K=inner_cfg.K,
        T_pre=outer_cfg.T_pre, T1=outer_cfg.T1, seed=sched_cfg.seed,
    )

    clock = 0.0
    staleness = [0] * N  # t - t_hat_j, the age of each worker's snapshot

    def make_view(t: int) -> WorkerView:
        c1, c2 = outer_cfg.reg_coeffs(t)
        return WorkerView(t=t, state=state.copy(), duals=duals.copy(), poly2=poly2, c1=c1, c2=c2)

    def dispatch(indices, t: int):
        view = make_view(t)
        for j in indices:
            results[j] = worker_step(problem, j, view, outer_cfg)
            pending[j] = clock + sched_cfg.delay.draw(rng, j)

    results: list = [None] * N
    pending: list = [0.0] * N

    def refine(t_at: int) -> tuple[list[int], list[int]]:
        """Generate one unit-normalized cut per layer at the current point, then prune.

        The raw linearizations have coefficient norms far from one (about 100
        on the quadratic problems); unscaled, a fresh cut's violation drives
        its dual to the cap and the primal steps blow up.
        """
        nonlocal poly1, poly2, next_cut_id, warm3, warm2, clock
        pre1, pre2 = poly1.ids(), poly2.ids()
        trace1 = solve_level3(problem, state.z[0], state.z[1], init=warm3, cfg=inner_cfg)
        point1 = (tuple(state.x[2]), state.z[0], state.z[1], state.z[2])
        cut1 = normalize_cut(generate_cut_I(trace1, point1, mu1, inner_cfg.eps1,
                                            problem.alphas, grad_mode=grad_mode,
                                            cut_id=next_cut_id, born_at=t_at))
        next_cut_id += 1
        poly1 = add_cut(poly1, cut1)

        trace2 = solve_level2(problem, state.z[0], state.z[2], state.x[2],
                              poly1.cuts, init=warm2, cfg=inner_cfg)
        point2 = (tuple(state.x[1]), tuple(state.x[2]),
                  state.z[0], state.z[1], state.z[2])
        cut2 = normalize_cut(generate_cut_II(trace2, point2, mu2, inner_cfg.eps2,
                                             problem.alphas, grad_mode=grad_mode,
                                             cut_id=next_cut_id, born_at=t_at))
        next_cut_id += 1
        poly2 = add_cut(poly2, cut2)
        lam = np.concatenate([duals.lam, [0.0]])

        gamma_k = trace2.gamma_K
        new_poly1, new_poly2 = drop_inactive(
            poly1, gamma_k, poly2, lam, protect2=(cut2.id,)
        )
        kept1 = {cid: i for i, cid in enumerate(poly1.ids())}
        kept2 = {cid: i for i, cid in enumerate(poly2.ids())}
        duals.gamma = np.array([gamma_k[kept1[cid]] for cid in new_poly1.ids()])
        duals.slack = np.array(
            [trace2.snapshots[-1].s[kept1[cid]] for cid in new_poly1.ids()]
        )
        duals.lam = np.array([lam[kept2[cid]] for cid in new_poly2.ids()])
        dropped = sorted(set(pre1 + (cut1.id,)) - set(new_poly1.ids())) + sorted(
            set(pre2 + (cut2.id,)) - set(new_poly2.ids())
        )
        cut_registry[cut1.id] = cut1
        cut_registry[cut2.id] = cut2
        cut_events.append(CutEvent(
            t=t_at, added_1=cut1.id, added_2=cut2.id,
            dropped_1=[i for i in dropped if i in kept1],
            dropped_2=[i for i in dropped if i in kept2],
            pre_ids_1=pre1, pre_ids_2=pre2,
        ))
        poly1, poly2 = new_poly1, new_poly2
        duals.phi2 = [p.copy() for p in trace2.snapshots[-1].phi]
        duals.phi3 = [p.copy() for p in trace1.snapshots[-1].phi]
        if inner_cfg.warm_start:
            # Warm-start only the inner primal blocks; inner duals, slacks
            # and cut duals restart at zero every refinement (persisting them
            # integrates the drag of any still-violated cut across events
            # without bound).
            warm3, warm2 = (
                (t.x[-1].copy(), t.z[-1].copy(), np.zeros_like(t.phi[-1]), None, None)
                for t in (trace1, trace2)
            )
        clock += sched_cfg.refine_latency_per_unit * 32 * _cut_event_cost(
            N, inner_cfg.K, problem.dims, poly2.size
        )
        return [cut1.id, cut2.id], dropped

    def finish(status: str) -> RunResult:
        log.status = status
        log.final_gap_sq = log.records[-1].gap_sq if log.records else float("nan")
        sizes = {r.t: r.p2_size for r in log.records}
        log.c2_total = comm_cost_cuts(log.refinement_iters(), N, inner_cfg.K,
                                      problem.dims, sizes)
        return RunResult(log=log, state=state, duals=duals, poly1=poly1, poly2=poly2,
                         cut_registry=cut_registry, cut_events=cut_events, clock=clock)

    t_now = 0  # the iteration in progress, for the abort record
    try:
        # Bootstrap refinement before the first master step, so the outer
        # problem never runs on empty polytopes while the horizon is open.
        boot_added: list[int] = []
        boot_dropped: list[int] = []
        boot_refined = False
        if 0 < outer_cfg.T1:
            boot_added, boot_dropped = refine(0)
            boot_refined = True

        gap0 = stationarity_gap(state, duals, poly2, problem, outer_cfg).sq_norm
        f1v, f2v, f3v = _objectives(problem, state)
        log.records.append(IterRecord(
            t=0, sim_time=clock, active=[], staleness=list(staleness), gap_sq=gap0,
            f1=f1v, f2=f2v, f3=f3v, p1_size=poly1.size, p2_size=poly2.size, c1=0,
            refined=boot_refined, cuts_added=boot_added, cuts_dropped=boot_dropped,
        ))
        if gap0 <= outer_cfg.tol:
            log.T_eps = 0
            return finish("converged")
        dispatch(range(N), t=0)
        status = "max_iters"

        for t_new in range(1, outer_cfg.max_iters + 1):
            t_now = t_new
            active, clock = schedule_epoch(pending, staleness, sched_cfg, clock)
            for j in active:
                if staleness[j] + 1 > sched_cfg.tau:
                    raise FedtriError("staleness bound violated at delivery")
                x1u, x2u, x3u = results[j]
                state.x[0][j] = x1u
                state.x[1][j] = x2u
                state.x[2][j] = x3u
            state, duals = master_step(state, duals, poly2, problem, outer_cfg, t=t_new - 1)

            refined = False
            added: list[int] = []
            dropped: list[int] = []
            if t_new % outer_cfg.T_pre == 0 and (t_new - 1) < outer_cfg.T1:
                refined = True
                added, dropped = refine(t_new)

            active_set = set(active)
            for j in range(N):
                staleness[j] = 0 if j in active_set else staleness[j] + 1
                if staleness[j] > sched_cfg.tau:
                    raise FedtriError("staleness bound violated")

            gap = stationarity_gap(state, duals, poly2, problem, outer_cfg).sq_norm
            f1v, f2v, f3v = _objectives(problem, state)
            c1_cost = comm_cost_iter(t_new, sched_cfg.S, problem.dims, poly2.size)
            log.c1_total += c1_cost
            log.records.append(IterRecord(
                t=t_new, sim_time=clock, active=[j + 1 for j in active],
                staleness=list(staleness), gap_sq=gap, f1=f1v, f2=f2v, f3=f3v,
                p1_size=poly1.size, p2_size=poly2.size, c1=c1_cost,
                refined=refined, cuts_added=added, cuts_dropped=dropped,
            ))

            dispatch(active, t=t_new)

            if gap <= outer_cfg.tol:
                if log.T_eps is None:
                    log.T_eps = t_new
                status = "converged"
                break
    except (NonFiniteError, InnerSolverError) as exc:
        log.abort = {"reason": str(exc), "t": t_now}
        result = finish("aborted")
        if raise_on_abort:
            raise NumericAbort(str(exc), result) from exc
        return result
    return finish(status)


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
        expect = 0 if r.t == 0 else comm_cost_iter(r.t, log.S, dims, r.p2_size)
        if r.c1 != expect:
            problems.append(f"t={r.t}: C1 mismatch ({r.c1} != {expect})")
        c1_sum += r.c1
    if c1_sum != log.c1_total:
        problems.append("C1 total mismatch")
    K = log.K if inner_K is None else inner_K
    sizes = {r.t: r.p2_size for r in log.records}
    c2 = comm_cost_cuts([r.t for r in log.records if r.refined], log.N, K, dims, sizes)
    if c2 != log.c2_total:
        problems.append("C2 total mismatch")
    return problems


def time_to_gap(log: RunLog, target: float) -> tuple[float, Optional[int]]:
    """Simulated time and iteration of the first gap crossing, (inf, None) if never."""
    for r in log.records:
        if r.gap_sq <= target:
            return r.sim_time, r.t
    return float("inf"), None
