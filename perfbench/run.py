"""Run a fedtri benchmark workload, or all of them in turn, and print its metrics.

    python3 perfbench/run.py --workload quad-straggler --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root; it imports fedtri from ``src/``.  Every metric
is printed by name with its unit.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: with ``--trace 0`` the metrics are the ``end_to_end`` entries of
BENCHMARK.json, with ``--trace 1`` the ``per_layer`` entries, taken from one
extra traced repetition.  ``--workload all`` runs each workload in its own
process, one after another.  Logs, spans and a full report go to
``perfbench/out/``.  The exit code is 0 only when the correctness gate passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_table(title: str, values: dict, units: dict, timings: dict) -> None:
    print(f"# {title}")
    print(f"{'metric':34} {'value':>14} {'unit':6} {'better':6}  detail")
    for name, value in values.items():
        metric = units[name]
        if name in timings:
            t = timings[name]
            detail = f"median of {t['n']}, q1 {_fmt(t['q1'])}, q3 {_fmt(t['q3'])}"
            if f"raw_{name}" in timings:
                detail += f"; raw wall median {_fmt(timings[f'raw_{name}']['median'])} s"
        elif metric.unit in ("s", "ms", "ratio"):
            detail = "one traced run"
        elif metric.unit == "MB":
            detail = "whole process"
        else:
            detail = "exact per seed"
        print(f"{name:34} {_fmt(value):>14} {metric.unit:6} {metric.better:6}  {detail}")


def run_one(args, spec: dict) -> int:
    # BLAS reads its thread count when numpy loads, so set it before the import.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    prov = provenance()
    workload = workloads.WORKLOADS[args.workload]
    report = workloads.measure(workload, args.seed, args.seconds, OUT, trace=bool(args.trace))

    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"window={report.window_s:.1f}s: {why}")
    print("# provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    kernel = report.timings["raw_kernel_s"]
    print(f"# times are host-normalised to a reference kernel of {workloads.REF_S} s; "
          f"it took {_fmt(kernel['median'])} s here (median of {kernel['n']})")
    if args.trace:
        print_table("per-layer metrics", report.per_layer, workloads.PER_LAYER, {})
        wanted = spec["per_layer"]
        values = report.per_layer
    else:
        print_table("end-to-end metrics", report.end_to_end, workloads.END_TO_END,
                    report.timings)
        wanted = spec["end_to_end"]
        values = report.end_to_end
    for failure in report.failures:
        print(f"# FAILED {failure}")

    full = {"provenance": prov, "args": vars(args), "workload": workload.name,
            "why": why, "horizon": workload.horizon,
            "end_to_end": report.end_to_end, "per_layer": report.per_layer,
            "timings": report.timings, "attempted": report.attempted,
            "failures": report.failures}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1, sort_keys=True))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = report.correct and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": len(report.failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fedtri" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/fedtri package or no BENCHMARK.json; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
