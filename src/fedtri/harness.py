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
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional, Sequence

import numpy as np

from .core import DualState, FedtriError, NonFiniteError, PrimalState, TrilevelProblem
from .cuts import Polytope, add_cut, drop_inactive, generate_cut_I, generate_cut_II, normalize_cut
from .inner import InnerConfig, InnerSolverError, solve_level2, solve_level3
from .outer import OuterConfig, master_step, stationarity_gap, worker_step


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

    def draw(self, rng: np.random.Generator, workers: Sequence[int]) -> np.ndarray:
        """The delays of ``workers`` (0-based), in their order; uniform ones from one draw."""
        factor = [self.straggler_factor if j + 1 in self.straggler_ids else 1.0 for j in workers]
        if self.kind == "constant":
            return np.full(len(factor), float(self.value)) * factor
        return rng.uniform(self.lo, self.hi, size=len(factor)) * factor


@dataclass(frozen=True)
class ScheduleConfig:
    N: int
    S: int
    tau: int = 10
    delay: DelayModel = field(default_factory=DelayModel)
    seed: int = 0
    sync_mode: bool = False

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


def comm_cost_iter(S: int, dims, poly2_size: int) -> int:
    """Per-iteration scalar traffic: 32 S (2 sum(d_i) + d1 + |P_II|)."""
    if S < 0 or poly2_size < 0:
        raise ValueError("inputs must be nonnegative")
    d_sum = dims.d1 + dims.d2 + dims.d3
    return 32 * S * (2 * d_sum + dims.d1 + poly2_size)


def comm_cost_cuts(refinement_iters: Sequence[int], N: int, K: int, dims,
                   poly2_sizes: dict[int, int]) -> int:
    """Refinement traffic summed over the refinement iterations."""
    d23 = dims.d2 + dims.d3
    return 32 * sum(N * K * (3 * d23 + 2 * poly2_sizes[t])
                    + N * poly2_sizes[t] * (2 * d23 + dims.d1 + 1) for t in refinement_iters)


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

    f1 is taken at the workers' points, f2 at (z1, x2, x3) and f3 at (z1, z2, x3).
    """
    c, V = problem.dims.columns, state.X.copy()
    f1 = problem.eval_all(1, state.X)
    V[:, c(1)] = state.Z[c(1)]
    f2 = problem.eval_all(2, V)
    V[:, c(2)] = state.Z[c(2)]
    return float(sum(f1)), float(sum(f2)), float(sum(problem.eval_all(3, V)))


@np.errstate(all="ignore")
def run(
    problem: TrilevelProblem,
    inner_cfg: InnerConfig,
    outer_cfg: OuterConfig,
    sched_cfg: ScheduleConfig,
    grad_mode: str = "auto",
) -> RunResult:
    """Execute the asynchronous loop until the gap target or max_iters.

    Iteration 0 starts from the initial point; every later iteration t first
    delivers the active workers' updates and takes the master step.  Every
    T_pre iterations, from t = 0 and while the refinement horizon T1 is open,
    the two inner unrolls run, one cut per layer is generated at the current
    point, and inactive cuts are pruned.  Both layers' cuts are stored at unit
    coefficient norm (``normalize_cut``), so the cut duals, their cap
    sqrt(alpha4) and the pruning tolerance are per unit distance along a cut
    normal rather than in the raw linearization's units.  The cuts' weak-
    convexity modulus is ``problem.weak_convexity_mu``.

    ``inner.grad_h`` takes the backward sweep through the unrolls when
    ``problem.cross_hess_fn`` is set and finite differences otherwise.
    ``grad_mode="auto"`` runs the problem as given; ``"finite-diff"`` runs a
    copy without ``cross_hess_fn``.  Other values raise ``ValueError``.

    Each iteration's stationarity gap is the one gradient sweep of L_p: it
    decides the stopping rule, its primal rows are the projected steps of the
    workers dispatched after it (all N at t = 0), and its z rows are the next
    master step's.

    Non-finite numerics (``NonFiniteError``, ``InnerSolverError``) end the run
    with ``status="aborted"``, the log up to the last good iteration and the
    reason and iteration in progress in ``log.abort``, under any warning
    filter: NumPy's floating-point warnings are off inside ``run``.  Any other
    ``FedtriError``, such as a broken staleness bound, propagates.
    """
    if problem.dims.N != sched_cfg.N:
        raise ValueError("problem and schedule disagree on the worker count")
    if grad_mode == "finite-diff":
        problem = replace(problem, cross_hess_fn=None)
    elif grad_mode != "auto":
        raise ValueError(f"unknown grad_mode {grad_mode!r}")
    mu = problem.weak_convexity_mu
    outer_cfg.check_floors(N=sched_cfg.N)

    N = problem.dims.N
    rng = np.random.default_rng(sched_cfg.seed)
    state = PrimalState.from_point(problem.dims, *problem.initial_point(rng))
    duals = DualState.zeros(problem.dims)
    poly1 = Polytope("I", problem.dims)
    poly2 = Polytope("II", problem.dims)
    next_cut_id = 0
    warm3 = warm2 = None  # (x, z, phi, s, gamma) inits, set only under warm_start

    log = RunLog(
        dims=problem.dims.sizes,
        N=N, S=sched_cfg.S, tau=sched_cfg.tau, K=inner_cfg.K,
        T_pre=outer_cfg.T_pre, T1=outer_cfg.T1, seed=sched_cfg.seed,
    )

    clock = 0.0
    staleness = [0] * N  # t - t_hat_j, the age of each worker's snapshot

    results = np.zeros_like(state.X)  # row j: worker j's in-flight flat point
    pending = [0.0] * N

    def dispatch(workers, gap):
        """Start the workers' next updates from ``gap``, taken at the current state."""
        rows = list(workers)
        results[rows] = worker_step(problem, state, gap, outer_cfg, rows)
        for j, delay in zip(rows, sched_cfg.delay.draw(rng, rows).tolist()):
            pending[j] = clock + delay

    def refine() -> tuple[list[int], list[int]]:
        """Generate one unit-normalized cut per layer at the current point, then prune.

        The raw linearizations have coefficient norms far from one (about 100
        on the quadratic problems); unscaled, a fresh cut's violation drives
        its dual to the cap and the primal steps blow up.
        """
        nonlocal poly1, poly2, next_cut_id, warm3, warm2
        (_, x2, x3), (z1, z2, z3) = state.x, state.z
        # No stored warm start: begin at the outer iterate (zeros are an MLP saddle).
        trace1 = solve_level3(problem, z1, z2, init=warm3 or (x3, z3), cfg=inner_cfg)
        cut1 = normalize_cut(generate_cut_I(trace1, (z1, z2, z3, x3), mu, inner_cfg.eps1,
                                            problem.alphas, cut_id=next_cut_id))
        poly1 = add_cut(poly1, cut1)

        trace2 = solve_level2(problem, z1, z3, x3, poly1, init=warm2 or (x2, z2), cfg=inner_cfg)
        cut2 = normalize_cut(generate_cut_II(trace2, (z1, z2, z3, x3, x2), mu, inner_cfg.eps2,
                                             problem.alphas, cut_id=next_cut_id + 1))
        next_cut_id += 2
        poly2 = add_cut(poly2, cut2)
        lam = np.append(duals.lam, 0.0)

        kept1, kept2 = drop_inactive(poly1, trace2.gamma_K, poly2, lam, protect2=(cut2.id,))
        duals.lam = lam[np.isin(poly2.ids(), kept2.ids())]
        dropped = sorted(set(poly1.ids()) - set(kept1.ids())) + sorted(
            set(poly2.ids()) - set(kept2.ids())
        )
        poly1, poly2 = kept1, kept2
        if inner_cfg.warm_start:
            # Warm-start only the inner primal blocks; inner duals, slacks
            # and cut duals restart at zero every refinement (persisting them
            # integrates the drag of any still-violated cut across events
            # without bound).
            warm3, warm2 = ((t.x[-1].copy(), t.z[-1].copy()) for t in (trace1, trace2))
        return [cut1.id, cut2.id], dropped

    def finish(status: str) -> RunResult:
        log.status = status
        log.final_gap_sq = log.records[-1].gap_sq if log.records else float("nan")
        sizes = {r.t: r.p2_size for r in log.records}
        log.c2_total = comm_cost_cuts(log.refinement_iters(), N, inner_cfg.K,
                                      problem.dims, sizes)
        return RunResult(log=log, state=state, duals=duals, poly1=poly1, poly2=poly2)

    active: tuple[int, ...] = ()  # no worker is delivered at t = 0
    status = "max_iters"
    try:
        for t in range(outer_cfg.max_iters + 1):
            if t:
                active, clock = schedule_epoch(pending, staleness, sched_cfg, clock)
                # Every snapshot, delivered now or still waiting, is one iteration older.
                if max(staleness) + 1 > sched_cfg.tau:
                    raise FedtriError("staleness bound violated")
                rows = list(active)
                state.X[rows] = results[rows]
                state, duals = master_step(state, duals, poly2, problem, outer_cfg, gap, t=t - 1)
                for j in range(N):
                    staleness[j] = 0 if j in active else staleness[j] + 1

            # At t = 0 this is the bootstrap refinement: while the horizon is
            # open the master never steps on empty polytopes.
            refined = t % outer_cfg.T_pre == 0 and max(t - 1, 0) < outer_cfg.T1
            added, dropped = refine() if refined else ([], [])

            gap = stationarity_gap(state, duals, poly2, problem, outer_cfg)
            gap_sq = gap.sq_norm
            f1v, f2v, f3v = _objectives(problem, state)
            c1_cost = comm_cost_iter(sched_cfg.S, problem.dims, poly2.size) if t else 0
            log.c1_total += c1_cost
            log.records.append(IterRecord(
                t=t, sim_time=clock, active=[j + 1 for j in active],
                staleness=list(staleness), gap_sq=gap_sq, f1=f1v, f2=f2v, f3=f3v,
                p1_size=poly1.size, p2_size=poly2.size, c1=c1_cost,
                refined=refined, cuts_added=added, cuts_dropped=dropped,
            ))
            if gap_sq <= outer_cfg.tol:
                log.T_eps = t
                status = "converged"
                break
            dispatch(active if t else range(N), gap)
    except (NonFiniteError, InnerSolverError) as exc:
        log.abort = {"reason": str(exc), "t": t}
        return finish("aborted")
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
        expect = 0 if r.t == 0 else comm_cost_iter(log.S, dims, r.p2_size)
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
