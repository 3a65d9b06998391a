"""The three AFTO workloads, the correctness gate and the metrics taken on them.

Each workload is built from the benchmark seed through fedtri's public API and
runs every ``run()`` call to the squared-gap target ``OuterConfig.tol`` or to
an iteration horizon, whichever comes first.  Load is one process running one
``run()`` call at a time (a closed loop with a single client).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import fedtri
from fedtri import (
    DelayModel,
    InnerConfig,
    OuterConfig,
    QuadraticOracle,
    RobustHpo,
    RobustHpoSpec,
    RunResult,
    ScheduleConfig,
    TrilevelProblem,
    build_quadratic_problem,
    build_robust_hpo_problem,
    evaluate_model,
    load_dataset,
    run,
    time_to_gap,
    validate_runlog,
)
from tracer import SpanRecorder, SpanStats

GAP_TARGET = 1e-3
SETUP_REPS = 3  # builds per repetition
# Nominal wall time of reference_kernel, about its fastest on the development
# host (2 vCPUs, Python 3.11, NumPy 2.4); the unit of host-normalised seconds.
REF_S = 0.06


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str


END_TO_END = {
    "setup_s": Metric("s", "lower"),
    "run_wall_s": Metric("s", "lower"),
    "iters_per_s": Metric("1/s", "higher"),
    "sim_time_to_gap": Metric("sim", "lower"),
    "sync_sim_time_to_gap": Metric("sim", "lower"),
    "gap_reached": Metric("share", "higher"),
    "final_gap_sq": Metric("1", "lower"),
    "oracle_dist": Metric("1", "lower"),
    "test_mse_clean": Metric("1", "lower"),
    "test_mse_noisy": Metric("1", "lower"),
    "comm_scalars": Metric("count", "lower"),
    "peak_rss_mb": Metric("MB", "lower"),
    "failed_share": Metric("share", "lower"),
}

_COUNT = Metric("count", "lower")
_SELF = Metric("s", "lower")
PER_LAYER = {
    "harness.iterations": _COUNT,
    "harness.refinements": _COUNT,
    "harness.schedule_epoch.self_s": _SELF,
    "harness.run.self_s": _SELF,
    "harness.sim_wait_per_iter": Metric("sim", "lower"),
    "harness.jsonl_bytes": Metric("B", "lower"),
    **{f"outer.{fn}.{kind}": (_COUNT if kind == "calls" else _SELF)
       for fn in ("worker_step", "master_step", "stationarity_gap")
       for kind in ("calls", "self_s")},
    "outer.per_iter_ms": Metric("ms", "lower"),
    "cuts.generate_cut_I.self_s": _SELF,
    "cuts.generate_cut_II.self_s": _SELF,
    "cuts.drop_inactive.self_s": _SELF,
    "cuts.cut_violation.calls": _COUNT,
    "cuts.cut_violation.self_s": _SELF,
    "cuts.generated": _COUNT,
    "cuts.kept_ratio": Metric("share", "higher"),
    "cuts.p1_size_max": _COUNT,
    "cuts.p2_size_max": _COUNT,
    "inner.solve_level3.calls": _COUNT,
    "inner.solve_level3.self_s": _SELF,
    "inner.solve_level2.calls": _COUNT,
    "inner.solve_level2.self_s": _SELF,
    "inner.unrolls_per_refine": _COUNT,
    "inner.grad_h.calls": _COUNT,
    "inner.grad_h.self_s": _SELF,
    "inner.refine_ms": Metric("ms", "lower"),
    "problems.eval.calls": _COUNT,
    "problems.eval.self_s": _SELF,
    "problems.grad.l1.calls": _COUNT,
    "problems.grad.l2.calls": _COUNT,
    "problems.grad.l3.calls": _COUNT,
    "problems.grad.self_s": _SELF,
    "problems.cross_hess.calls": _COUNT,
    "problems.cross_hess.self_s": _SELF,
    "data.load_s": _SELF,
    "trace.overhead_ratio": Metric("ratio", "lower"),
}

# Functions wrapped in fedtri.harness, where run() looks them up, by span name.
HARNESS_SPANS = {
    "schedule_epoch": "harness.schedule_epoch",
    "worker_step": "outer.worker_step",
    "master_step": "outer.master_step",
    "stationarity_gap": "outer.stationarity_gap",
    "solve_level3": "inner.solve_level3",
    "solve_level2": "inner.solve_level2",
    "generate_cut_I": "cuts.generate_cut_I",
    "generate_cut_II": "cuts.generate_cut_II",
    "drop_inactive": "cuts.drop_inactive",
}
# Direct children of a run() span that belong to a refinement, not to an iteration.
REFINE_SPANS = frozenset({
    "inner.solve_level3", "inner.solve_level2", "cuts.generate_cut_I",
    "cuts.generate_cut_II", "cuts.drop_inactive",
})


@dataclass
class Instance:
    """A built workload: the problem, its configs and the run() calls to make."""

    seed: int
    problem: TrilevelProblem
    inner: InnerConfig
    outer: OuterConfig
    legs: tuple[tuple[str, ScheduleConfig], ...]
    run_kwargs: dict = field(default_factory=dict)
    oracle: Optional[QuadraticOracle] = None
    hpo: Optional[RobustHpo] = None
    data_load_s: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    """A workload; BENCHMARK.json records why each one was chosen."""

    name: str
    horizon: int
    build: Callable[[int, int, Path], Instance]
    write_inputs: Optional[Callable[[int, Path], None]] = None


def _quad_configs(T_pre: int, horizon: int) -> tuple[InnerConfig, OuterConfig]:
    """The step sizes and dual bounds of the repository's quadratic harness tests."""
    inner = InnerConfig(K=10, eta_x=0.15, eta_z=0.15, eta_phi=0.15,
                        eps1=1e-4, eps2=1e-4, warm_start=True)
    outer = OuterConfig(eta_x1=0.05, eta_x2=0.05, eta_x3=0.05, eta_z1=0.05,
                        eta_z2=1.0, eta_z3=1.0, eta_lambda=0.3, eta_theta=0.3,
                        alpha4=100.0, alpha5=1e4, c1_floor=0.3, c2_floor=0.5,
                        tol=GAP_TARGET, T_pre=T_pre, max_iters=horizon)
    return inner, outer


def _quad_problem(seed: int, dims, N: int):
    return build_quadratic_problem(seed=seed, dims=dims, N=N, coupling=0.15,
                                   conditioning=3.0)


def build_quad_straggler(seed: int, horizon: int, data_dir: Path) -> Instance:
    problem, oracle = _quad_problem(seed, (8, 8, 8), 8)
    inner, outer = _quad_configs(T_pre=50, horizon=horizon)
    delay = DelayModel(kind="uniform", lo=0.5, hi=1.5, straggler_ids=(8,),
                       straggler_factor=5.0)
    legs = (
        ("async", ScheduleConfig(N=8, S=4, tau=10, delay=delay, seed=seed)),
        ("sync", ScheduleConfig(N=8, S=8, tau=10, delay=delay, seed=seed, sync_mode=True)),
    )
    return Instance(seed=seed, problem=problem, inner=inner, outer=outer, legs=legs,
                    oracle=oracle)


def build_quad_fd(seed: int, horizon: int, data_dir: Path) -> Instance:
    problem, oracle = _quad_problem(seed, (4, 4, 4), 4)
    inner, outer = _quad_configs(T_pre=5, horizon=horizon)
    legs = (("sync", ScheduleConfig(N=4, S=4, seed=seed)),)
    return Instance(seed=seed, problem=problem, inner=inner, outer=outer, legs=legs,
                    run_kwargs={"grad_mode": "finite-diff"}, oracle=oracle)


def _csv_path(data_dir: Path, seed: int) -> Path:
    return data_dir / f"robust-hpo-seed{seed}.csv"


def write_regression_csv(seed: int, data_dir: Path) -> None:
    """Seeded 200x5 linear-regression CSV (y = X beta + 0.05 noise) with a header row.

    The benchmark writes its own input rather than calling
    ``fedtri.generate_synthetic_csv``: under NumPy 2 that function writes cells
    as ``np.float64(...)``, which ``load_dataset`` rejects.
    """
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((200, 5))
    y = X @ rng.standard_normal(5) + 0.05 * rng.standard_normal(200)
    lines = [",".join([f"x{k}" for k in range(5)] + ["y"])]
    lines += [",".join(repr(float(v)) for v in (*row, target)) for row, target in zip(X, y)]
    _csv_path(data_dir, seed).write_text("\n".join(lines) + "\n")


def build_robust_hpo(seed: int, horizon: int, data_dir: Path) -> Instance:
    t0 = time.perf_counter()
    data = load_dataset(_csv_path(data_dir, seed), seed=seed)
    load_s = time.perf_counter() - t0
    hpo = build_robust_hpo_problem(data, RobustHpoSpec(mlp_layers=(8,)), N=4)
    inner = InnerConfig(K=5, warm_start=True)
    outer = OuterConfig(tol=GAP_TARGET, T_pre=10, max_iters=horizon)
    legs = (("sync", ScheduleConfig(N=4, S=4, seed=seed)),)
    return Instance(seed=seed, problem=hpo.problem, inner=inner, outer=outer, legs=legs,
                    hpo=hpo, data_load_s=load_s)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quad-straggler", horizon=300, build=build_quad_straggler),
        Workload("quad-fd", horizon=100, build=build_quad_fd),
        Workload("robust-hpo", horizon=10, build=build_robust_hpo,
                 write_inputs=write_regression_csv),
    )
}


# ---------------------------------------------------------------------------
# Running and checking


@dataclass
class LegRun:
    label: str
    wall_s: float
    result: Optional[RunResult]
    jsonl: str = ""
    error: Optional[str] = None


def run_legs(inst: Instance, recorder: Optional[SpanRecorder] = None) -> list[LegRun]:
    """One repetition: every run() call of the workload, each timed on its own."""
    out = []
    for label, sched in inst.legs:
        args = (inst.problem, inst.inner, inst.outer, sched)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if recorder is None:
                res = run(*args, **inst.run_kwargs)
            else:
                res = recorder.call("harness.run", run, *args, **inst.run_kwargs)
        except Exception as exc:  # a raising run is a failed run, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
            out.append(LegRun(label, time.perf_counter() - t0, None,
                              error=f"{type(exc).__name__}: {exc}"))
            continue
        out.append(LegRun(label, time.perf_counter() - t0, res, res.log.to_jsonl()))
    return out


def leg_quality(inst: Instance, res: RunResult) -> dict[str, float]:
    """Solution quality of one run: oracle distance or test errors."""
    q = {"final_gap_sq": res.log.final_gap_sq}
    if inst.oracle is not None:
        o = inst.oracle
        z = np.concatenate(res.state.z)
        q["oracle_dist"] = float(np.linalg.norm(z - np.concatenate([o.y1, o.y2, o.y3])))
    if inst.hpo is not None:
        mse = evaluate_model(inst.hpo, res.state.z[2], noise_seed=inst.seed)
        q["test_mse_clean"] = mse["mse_clean"]
        q["test_mse_noisy"] = mse["mse_noisy"]
    return q


class Gate:
    """Counts run() calls and records each one that fails a check.

    A run fails when it raised or aborted, when ``validate_runlog`` reports a
    violation, when its JSONL log differs from the first log of the same seed,
    or when its oracle distance or test errors are not finite.
    """

    def __init__(self):
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, inst: Instance, legs: list[LegRun], tag: str) -> None:
        for leg in legs:
            self.attempted += 1
            problems = self._problems(inst, leg)
            if problems:
                self.failures.append(f"{tag}/{leg.label}: " + "; ".join(problems))

    def _problems(self, inst: Instance, leg: LegRun) -> list[str]:
        if leg.result is None:
            return [f"raised {leg.error}"]
        log = leg.result.log
        out = []
        if log.status == "aborted":
            out.append("aborted")
        out += validate_runlog(log, inst.problem.dims, inst.inner.K)
        if leg.jsonl != self.reference.setdefault(leg.label, leg.jsonl):
            out.append("JSONL log differs from the first log of this seed")
        quality = leg_quality(inst, leg.result)
        out += [f"{k} is not finite" for k, v in quality.items()
                if k != "final_gap_sq" and not math.isfinite(v)]
        return out


def _sim_time_to_gap(log, target: float) -> float:
    """Simulated clock at the first gap <= target, censored at the horizon's clock."""
    t, it = time_to_gap(log, target)
    return t if it is not None else log.records[-1].sim_time


def _iterations(log) -> int:
    return len(log.records) - 1


def summarize(samples: list[float]) -> dict:
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def reference_kernel() -> float:
    """Wall time of two fixed loops of small NumPy operations that use no fedtri code.

    One loop is bound by interpreter overhead on 8-vectors, the other trains a
    tiny tanh network on a 50x5 batch: the two mixes the workloads are made
    of.  Its time tracks the speed that other tenants leave to this process.
    """
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((50, 5)), rng.standard_normal(50)
    w1, w2 = rng.standard_normal((8, 5)), rng.standard_normal((1, 8))
    a = np.ones(8)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(20000):
        a = a * 1.0000001 + 0.5
        acc += float(a @ a)
    for _ in range(1500):
        h = np.tanh(X @ w1.T)
        err = (h @ w2.T).ravel() - y
        w2 -= 1e-3 * (err @ h)[None, :] / 50
        w1 -= 1e-3 * ((err[:, None] @ w2) * (1.0 - h * h)).T @ X / 50
    return time.perf_counter() - t0


@dataclass
class Report:
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    timings: dict[str, dict]
    attempted: int
    failures: list[str]
    window_s: float

    @property
    def correct(self) -> bool:
        return not self.failures


def measure(workload: Workload, seed: int, seconds: float, out_dir: Path,
            trace: bool = False, min_reps: int = 3,
            horizon: Optional[int] = None) -> Report:
    """Set up, warm up, repeat the workload for ``seconds``, optionally trace once.

    Each repetition builds the workload ``SETUP_REPS`` times and then makes its
    run() calls; ``reference_kernel`` is timed before the first repetition and
    after each one.  Every time reported is host-normalised: the measured wall
    time times ``REF_S`` over the mean of the two kernel times around its
    repetition, i.e. seconds on a host that runs the kernel in ``REF_S``.
    ``setup_s`` is the median over all builds, ``run_wall_s`` and
    ``iters_per_s`` the medians over repetitions; raw wall times and kernel
    times are kept beside them.  The deterministic metrics come from the
    untimed warm-up, whose logs every later run must reproduce byte for byte.
    """
    horizon = workload.horizon if horizon is None else horizon
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.write_inputs is not None:
        workload.write_inputs(seed, out_dir)

    def setup(n: int) -> tuple[Instance, list[float]]:
        walls = []
        for _ in range(n):
            gc.collect()
            t0 = time.perf_counter()
            inst = workload.build(seed, horizon, out_dir)
            walls.append(time.perf_counter() - t0)
        return inst, walls

    gate = Gate()
    inst, _ = setup(1)
    warm = run_legs(inst)
    gate.check(inst, warm, "warm-up")
    for leg in warm:
        if leg.result is not None:
            (out_dir / f"{workload.name}-seed{seed}-{leg.label}.jsonl").write_text(leg.jsonl)

    raw = {"setup_s": [], "run_wall_s": [], "kernel_s": []}
    norm = {"setup_s": [], "run_wall_s": [], "iters_per_s": []}
    start = time.perf_counter()
    before = reference_kernel()
    while len(raw["run_wall_s"]) < min_reps or time.perf_counter() - start < seconds:
        inst, setup_walls = setup(SETUP_REPS)
        legs = run_legs(inst)
        after = reference_kernel()
        kernel = (before + after) / 2
        before = after
        gate.check(inst, legs, f"rep{len(raw['run_wall_s'])}")
        wall = sum(leg.wall_s for leg in legs)
        iters = sum(_iterations(leg.result.log) for leg in legs if leg.result is not None)
        scale = REF_S / kernel
        raw["setup_s"] += setup_walls
        raw["run_wall_s"].append(wall)
        raw["kernel_s"].append(kernel)
        norm["setup_s"] += [w * scale for w in setup_walls]
        norm["run_wall_s"].append(wall * scale)
        norm["iters_per_s"].append(iters / (wall * scale))
    window_s = time.perf_counter() - start

    per_layer: dict[str, float] = {}
    if trace:
        rec = SpanRecorder()
        inst, _ = setup(1)
        install_tracing(rec, inst)
        try:
            traced = run_legs(inst, rec)
        finally:
            rec.restore()
        scale = 2 * REF_S / (before + reference_kernel())  # before: after the last rep
        gate.check(inst, traced, "traced")
        if all(leg.result is not None for leg in traced):
            per_layer = layer_metrics(rec, traced, inst, scale,
                                      statistics.median(norm["run_wall_s"]))
        rec.write(out_dir / f"{workload.name}-seed{seed}.spans.jsonl")

    e2e = {name: statistics.median(values) for name, values in norm.items()}
    done = [leg for leg in warm if leg.result is not None]
    if done:
        logs = {leg.label: leg.result.log for leg in done}
        primary = done[0]
        e2e["sim_time_to_gap"] = _sim_time_to_gap(primary.result.log, inst.outer.tol)
        if "sync" in logs and primary.label != "sync":
            e2e["sync_sim_time_to_gap"] = _sim_time_to_gap(logs["sync"], inst.outer.tol)
        e2e["gap_reached"] = sum(
            time_to_gap(log, inst.outer.tol)[1] is not None for log in logs.values()
        ) / len(logs)
        e2e.update(leg_quality(inst, primary.result))
        e2e["comm_scalars"] = sum(log.c1_total + log.c2_total for log in logs.values())
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e["failed_share"] = len(gate.failures) / gate.attempted

    timings = {name: summarize(values) for name, values in norm.items()}
    timings.update({f"raw_{name}": summarize(values) for name, values in raw.items()})
    return Report(end_to_end=e2e, per_layer=per_layer, timings=timings,
                  attempted=gate.attempted, failures=gate.failures, window_s=window_s)


# ---------------------------------------------------------------------------
# Tracing


def install_tracing(rec: SpanRecorder, inst: Instance) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    for attr, name in HARNESS_SPANS.items():
        rec.patch(fedtri.harness, attr, name)
    rec.patch(fedtri.cuts, "grad_h", "inner.grad_h")
    rec.patch(fedtri.inner, "solve_level3", "inner.solve_level3")  # re-runs
    rec.patch(fedtri.inner, "solve_level2", "inner.solve_level2")
    rec.patch(fedtri.outer, "cut_violation", "cuts.cut_violation")
    problem = inst.problem
    rec.patch(problem, "eval_fn", "problems.eval")
    if problem.grad_fn is not None:
        rec.patch_by_level(problem, "grad_fn", "problems.grad")
    if problem.cross_hess_fn is not None:
        rec.patch(problem, "cross_hess_fn", "problems.cross_hess")


def layer_metrics(rec: SpanRecorder, legs: list[LegRun], inst: Instance, scale: float,
                  untraced_wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced repetition (all its legs).

    Times are host-normalised with ``scale`` like the end-to-end ones.
    """
    st = rec.stats()

    def get(name: str) -> SpanStats:
        return st.get(name, SpanStats())

    logs = [leg.result.log for leg in legs]
    iterations = sum(_iterations(log) for log in logs)
    refinements = sum(len(log.refinement_iters()) for log in logs)
    run_spans = {i for i, span in enumerate(rec.spans) if span[0] == "harness.run"}
    refine_s = sum(end - start for name, start, end, parent in rec.spans
                   if parent in run_spans and name in REFINE_SPANS)
    generated = get("cuts.generate_cut_I").calls + get("cuts.generate_cut_II").calls
    unrolls = get("inner.solve_level3").calls + get("inner.solve_level2").calls

    m: dict[str, float] = {
        "harness.iterations": iterations,
        "harness.refinements": refinements,
        "harness.schedule_epoch.self_s": get("harness.schedule_epoch").self_s,
        "harness.run.self_s": get("harness.run").self_s,
        "harness.sim_wait_per_iter": sum(
            log.records[-1].sim_time - log.records[0].sim_time for log in logs
        ) / max(1, iterations),
        "harness.jsonl_bytes": sum(len(leg.jsonl.encode()) for leg in legs),
    }
    for fn in ("worker_step", "master_step", "stationarity_gap"):
        m[f"outer.{fn}.calls"] = get(f"outer.{fn}").calls
        m[f"outer.{fn}.self_s"] = get(f"outer.{fn}").self_s
    m["outer.per_iter_ms"] = 1e3 * (get("harness.run").total_s - refine_s) / max(1, iterations)
    for fn in ("generate_cut_I", "generate_cut_II", "drop_inactive"):
        m[f"cuts.{fn}.self_s"] = get(f"cuts.{fn}").self_s
    m["cuts.cut_violation.calls"] = get("cuts.cut_violation").calls
    m["cuts.cut_violation.self_s"] = get("cuts.cut_violation").self_s
    m["cuts.generated"] = generated
    m["cuts.kept_ratio"] = sum(
        log.records[-1].p1_size + log.records[-1].p2_size for log in logs
    ) / max(1, generated)
    m["cuts.p1_size_max"] = max(r.p1_size for log in logs for r in log.records)
    m["cuts.p2_size_max"] = max(r.p2_size for log in logs for r in log.records)
    for fn in ("solve_level3", "solve_level2", "grad_h"):
        m[f"inner.{fn}.calls"] = get(f"inner.{fn}").calls
        m[f"inner.{fn}.self_s"] = get(f"inner.{fn}").self_s
    m["inner.unrolls_per_refine"] = unrolls / max(1, refinements)
    m["inner.refine_ms"] = 1e3 * refine_s / max(1, refinements)
    m["problems.eval.calls"] = get("problems.eval").calls
    m["problems.eval.self_s"] = get("problems.eval").self_s
    for level in (1, 2, 3):
        m[f"problems.grad.l{level}.calls"] = get(f"problems.grad.l{level}").calls
    m["problems.grad.self_s"] = sum(get(f"problems.grad.l{level}").self_s for level in (1, 2, 3))
    m["problems.cross_hess.calls"] = get("problems.cross_hess").calls
    m["problems.cross_hess.self_s"] = get("problems.cross_hess").self_s
    if inst.data_load_s is not None:
        m["data.load_s"] = inst.data_load_s
    for name in m:
        if PER_LAYER[name].unit in ("s", "ms"):
            m[name] *= scale
    m["trace.overhead_ratio"] = scale * sum(leg.wall_s for leg in legs) / untraced_wall_s
    return m
