"""Tests of the benchmark itself, on tiny horizons.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Horizons that still make at least one refinement on every workload.
TINY = {"quad-straggler": 3, "quad-fd": 6, "robust-hpo": 1}
SEED = 3


def _measure(out_dir: Path) -> dict:
    return {
        name: workloads.measure(workloads.WORKLOADS[name], SEED, seconds=0.0,
                                out_dir=out_dir, trace=True, min_reps=1, horizon=h)
        for name, h in TINY.items()
    }


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench")


@pytest.fixture(scope="module")
def reports(out_dir):
    return _measure(out_dir)


@pytest.fixture(scope="module")
def second_reports(tmp_path_factory):
    return _measure(tmp_path_factory.mktemp("perfbench-again"))


@pytest.mark.parametrize("name", TINY)
def test_gate_passes_on_tiny_horizon(reports, out_dir, name):
    report = reports[name]
    assert report.failures == []
    # warm-up, one timed repetition and the traced one, for every leg
    legs = len(workloads.WORKLOADS[name].build(SEED, 1, out_dir).legs)
    assert report.attempted == 3 * legs
    assert report.end_to_end["failed_share"] == 0.0
    assert report.per_layer["harness.iterations"] == TINY[name] * legs


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS) == list(TINY)


@pytest.mark.parametrize("name", TINY)
def test_every_listed_metric_is_reported_with_its_unit(reports, name):
    report = reports[name]
    for section, values, table in (("end_to_end", report.end_to_end, workloads.END_TO_END),
                                   ("per_layer", report.per_layer, workloads.PER_LAYER)):
        for entry in SPEC[section]:
            assert entry["name"] in values, (section, entry["name"])
            assert table[entry["name"]].unit == entry["unit"]
            assert table[entry["name"]].better == entry["better"]
        assert set(values) <= set(table)


def test_workload_specific_metrics(reports):
    assert {"sync_sim_time_to_gap", "oracle_dist"} <= set(reports["quad-straggler"].end_to_end)
    assert "oracle_dist" in reports["quad-fd"].end_to_end
    assert {"test_mse_clean", "test_mse_noisy"} <= set(reports["robust-hpo"].end_to_end)
    assert "data.load_s" in reports["robust-hpo"].per_layer
    assert reports["quad-straggler"].per_layer["problems.cross_hess.calls"] > 0


@pytest.mark.parametrize("name", TINY)
def test_counts_repeat_exactly(reports, second_reports, name):
    a, b = reports[name].per_layer, second_reports[name].per_layer
    exact_units = ("count", "B", "sim", "share")
    counts = [n for n, m in workloads.PER_LAYER.items() if m.unit in exact_units]
    for metric in counts:
        assert a[metric] == b[metric], metric
    assert (reports[name].end_to_end["comm_scalars"]
            == second_reports[name].end_to_end["comm_scalars"])


def test_unrolls_per_refine_is_a_whole_count(reports):
    # Finite differences re-run the unroll twice per coordinate of each block.
    assert reports["quad-fd"].per_layer["inner.unrolls_per_refine"] == 66
    hpo = reports["robust-hpo"].per_layer["inner.unrolls_per_refine"]
    assert hpo == int(hpo) and hpo > 500


@pytest.mark.parametrize("name", TINY)
def test_child_spans_stay_inside_their_parent(reports, out_dir, name):
    lines = (out_dir / f"{name}-seed{SEED}.spans.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert spans and spans[0]["name"] == "harness.run"
    children_s = [0.0] * len(spans)
    for span in spans:
        assert span["start"] <= span["end"]
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            children_s[span["parent"]] += span["end"] - span["start"]
    for span, covered in zip(spans, children_s):
        assert covered <= span["end"] - span["start"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quad-fd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
