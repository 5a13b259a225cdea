"""Tests of the benchmark harness itself: names, tracing, checks, configs.

They run a seconds-long smoke study, never a benchmark workload.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sphwass.config import plan_from_config, validate_config  # noqa: E402

BENCH = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

SMOKE = workloads.Workload(
    "smoke",
    {
        "family": "rotating_square_2d",
        "gamma": 2.0,
        "theta": 1,
        "resolutions": [1, 2, 3],
        "dt": 1e-3,
        "t_end": 0.01,
        "n_snapshots": 2,
    },
)


@pytest.fixture
def out(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "OUT", tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def smoke_reference(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ref")
    path = workloads.write_config(SMOKE.config(0, tmp / "report"), tmp / "config.json")
    result = workloads.run_study(path)
    return {
        "sup_distances": [float(d) for d in result.sup_distances],
        "rates": [float(r) for r in result.rate_table.rates],
    }


def _report(report_dir):
    return {f: (report_dir / f).read_bytes() for f in ("rates.csv", "distances.csv")}


def test_metric_and_workload_names_are_valid_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert "setup_s" in [m["name"] for m in BENCH["end_to_end"]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_configs_are_valid_and_deterministic_per_seed(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    for seed in (0, 1, 12345):
        cfg = workload.config(seed, tmp_path)
        assert cfg == workload.config(seed, tmp_path)
        assert cfg["workers"] == 1
        plan = plan_from_config(validate_config(cfg))
        assert plan == plan_from_config(validate_config(workload.config(seed, tmp_path)))


def test_smoke_study_runs_end_to_end(out, smoke_reference):
    studies, metrics, _ = bench_run.measure(SMOKE, 0, 0.0, smoke_reference, setup_repeats=1)
    assert [s.problems for s in studies] == [[]]
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v > 0 for v in metrics.values())
    assert (out / "smoke" / "report" / "rates.csv").is_file()


def test_wrong_output_is_counted_not_raised(out, smoke_reference):
    wrong = dict(smoke_reference, rates=[r * (1 + 1e-6) for r in smoke_reference["rates"]])
    studies, metrics, _ = bench_run.measure(SMOKE, 0, 0.0, wrong, setup_repeats=1)
    assert len(studies) == 1 and any("rates" in p for p in studies[0].problems)
    assert metrics["study_s"] > 0


def test_trace_restores_targets_and_leaves_reports_unchanged(out, smoke_reference):
    originals = {
        (owner, attr): tracing._resolve(owner).__dict__[attr]
        for owner, attr, _, _ in tracing.TARGETS
    }
    path = workloads.write_config(SMOKE.config(0, out / "plain"), out / "plain.json")
    workloads.run_study(path)
    before = _report(out / "plain")

    studies, metrics, _ = bench_run.trace_run(SMOKE, 0, 0.0, smoke_reference)

    for (owner, attr), original in originals.items():
        assert tracing._resolve(owner).__dict__[attr] is original, (owner, attr)
    workloads.run_study(path)
    assert _report(out / "plain") == before
    assert all(s.problems == [] for s in studies)
    assert set(metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert metrics["integrator.steps"] == 3 * 10
    assert metrics["transport.lp_calls"] == 2 * 2


def test_span_self_times_are_nonnegative_and_children_fit_parents(out, smoke_reference):
    bench_run.trace_run(SMOKE, 0, 0.0, smoke_reference)
    spans = json.loads((out / "smoke" / "spans.json").read_text())["spans"]
    assert spans
    own = tracing.self_times(spans)
    assert min(own) >= -1e-12
    children = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    for parent, total in children.items():
        assert total <= spans[parent][2] - spans[parent][1] + 1e-12


def test_layer_metrics_on_a_synthetic_trace():
    # study -> run -> 3 accel calls (n=4): two evaluate all 16 pairs, one prunes to 9
    spans = [
        ("study", 0.0, 10.0, -1, 0),
        ("integrator.run", 1.0, 9.0, 0, 0),
        ("sph.accel", 2.0, 3.0, 1, 4),
        ("kernels.grad", 2.1, 2.6, 2, 16),
        ("sph.accel", 4.0, 5.0, 1, 4),
        ("kernels.grad", 4.1, 4.4, 4, 9),
        ("sph.accel", 6.0, 7.0, 1, 4),
        ("kernels.grad", 6.2, 6.4, 6, 16),
        ("integrator.run", 20.0, 21.0, -1, 0),  # another study: ignored
    ]
    m = tracing.layer_metrics(spans, root=0)
    assert m["integrator.run_s"] == 8.0
    assert m["integrator.self_s"] == pytest.approx(5.0)
    assert m["integrator.steps"] == 2
    assert m["sph.accel_calls"] == 3
    assert m["sph.accel_s"] == pytest.approx(3.0 - 0.5 - 0.3 - 0.2)
    assert m["sph.pairs"] == 41
    assert m["sph.cell_calls_frac"] == pytest.approx(1 / 3)
    assert m["kernels.elements"] == 41
    assert m["kernels.ns_per_element"] == pytest.approx(1.0 / 41 * 1e9)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_is_the_result_object(trace, section, out, smoke_reference, monkeypatch, capsys):
    bench = dict(BENCH, workloads=[{"name": "smoke", "why": "test"}])
    monkeypatch.setattr(bench_run, "load_benchmark", lambda: bench)
    monkeypatch.setattr(bench_run, "load_reference", lambda name: smoke_reference)
    monkeypatch.setitem(workloads.WORKLOADS, "smoke", SMOKE)
    argv = ["--workload", "smoke", "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench_run.main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "square-dense",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
