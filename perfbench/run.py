"""Time one sphwass convergence study workload and check its outputs.

    python3 perfbench/run.py --workload square-dense --seed 0 --seconds 20 --trace 0

``--trace 0`` times ``sphwass run`` in process (load_config, plan_from_config,
run_convergence_study, emit_report; one worker) back to back until
``--seconds`` have passed, after one untimed warm-up study, and reports the
end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs the study once untraced, then traced until ``--seconds``
have passed, and reports the per-layer metrics.  Every
study's outputs are checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  Outputs go to
``.perfbench_out/<workload>/`` under the checkout.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

try:
    import workloads
except ImportError as err:
    sys.exit(f"error: cannot import sphwass from this checkout's src/: {err}")

import checks  # noqa: E402
import tracing  # noqa: E402
from facts import machine_facts  # noqa: E402

ROOT = workloads.ROOT
OUT = ROOT / ".perfbench_out"
REFERENCE = Path(__file__).with_name("reference.json")
SETUP_REPEATS = 5

# Runs in a fresh interpreter: sys.argv = [-c, src dir, config path].
_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sphwass
from sphwass.config import load_config
load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_reference(name):
    return json.loads(REFERENCE.read_text())["workloads"].get(name)


def time_setup(config_path, repeats):
    """Seconds to import sphwass and load the config, once per fresh interpreter."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(workloads.SRC), str(config_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def _report_files(report_dir):
    return b"".join((report_dir / f).read_bytes() for f in ("rates.csv", "distances.csv"))


@dataclass
class Study:
    """One timed study: wall and CPU seconds, result (None if it raised), problems."""

    seconds: float
    cpu: float
    result: object
    problems: list


def study_once(workload, config_path, report_dir, reference, tracer=None):
    root = None
    t0, c0 = perf_counter(), process_time()
    try:
        if tracer is None:
            result = workloads.run_study(config_path)
        else:
            with tracer.span("study") as root:
                result = workloads.run_study(config_path)
    except Exception:  # a failed study is counted, never fatal to the run
        study = Study(perf_counter() - t0, process_time() - c0, None, [traceback.format_exc()])
        return study, root
    elapsed, cpu = perf_counter() - t0, process_time() - c0
    problems = checks.check_study(workload, result, report_dir, reference)
    return Study(elapsed, cpu, result, problems), root


def _prepare(workload, seed):
    outdir = OUT / workload.name
    report_dir = outdir / "report"
    config_path = workloads.write_config(workload.config(seed, report_dir), outdir / "config.json")
    return outdir, report_dir, config_path


def _warm_up(config_path):
    """One untimed study, so the timed ones run in a warm process.

    A fresh process ran its first study up to 50% slower than the ones
    after it: the allocator hands the force evaluations' temporaries back to
    the kernel until the process has worked at that size once.
    """
    try:
        workloads.run_study(config_path)
    except Exception:  # the timed studies that follow record the failure
        traceback.print_exc()


def _same_report(study, report_dir, first):
    """Single-worker runs are bitwise reproducible: every report must match the first.

    Returns the first report's bytes (this study's, if it is the first).
    """
    current = _report_files(report_dir)
    if first is None:
        return current
    if current != first:
        study.problems.append("rates.csv/distances.csv differ from the run's first study")
    return first


def measure(workload, seed, seconds, reference, setup_repeats=SETUP_REPEATS):
    """End-to-end metrics of ``workload``; returns (studies, metrics, notes)."""
    outdir, report_dir, config_path = _prepare(workload, seed)
    setup = time_setup(config_path, setup_repeats)
    _warm_up(config_path)
    studies, first = [], None
    start = perf_counter()
    while not studies or perf_counter() - start < seconds:
        study, _ = study_once(workload, config_path, report_dir, reference)
        studies.append(study)
        if study.result is not None:
            first = _same_report(study, report_dir, first)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [s.seconds for s in studies]
    # study_s is the run's study time per study (the mean), not the median:
    # the host switches between a fast and a slow speed in phases of 10-40 s,
    # and a median flips between the two when a run is about half in each.
    metrics = {
        "study_s": statistics.fmean(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    notes = {
        "study_s": f"mean of {len(times)}, median {statistics.median(times):.4f}: "
                   + " ".join(f"{t:.4f}" for t in times),
        "setup_s": f"median of {len(setup)}: " + " ".join(f"{t:.4f}" for t in setup),
    }
    return studies, metrics, notes


def trace_run(workload, seed, seconds, reference):
    """Per-layer metrics: one untraced study, then traced ones; medians per metric."""
    outdir, report_dir, config_path = _prepare(workload, seed)
    _warm_up(config_path)
    start = perf_counter()
    untraced, _ = study_once(workload, config_path, report_dir, reference)
    studies, per_study = [untraced], []
    first = _report_files(report_dir) if untraced.result is not None else None
    tracer = tracing.Tracer()
    with tracer:
        while len(studies) < 2 or perf_counter() - start < seconds:
            tracer.lp_solves.clear()
            study, root = study_once(workload, config_path, report_dir, reference, tracer)
            studies.append(study)
            if study.result is None:
                continue
            first = _same_report(study, report_dir, first)
            gap = checks.certificate_gap(tracer.lp_solves)
            drift = checks.momentum_drift(study.result)
            study.problems += checks.check_invariants(study.result, gap, drift)
            metrics = tracing.layer_metrics(tracer.spans(), root)
            metrics.update({
                "transport.cert_gap_max": gap,
                "sph.momentum_drift_max": drift,
                "experiments.report_bytes": sum(
                    f.stat().st_size for f in report_dir.iterdir() if f.is_file()),
                "trace.overhead_frac": study.cpu / untraced.cpu - 1.0,
            })
            per_study.append(metrics)
    tracer.dump(outdir / "spans.json")
    metrics = {name: statistics.median(m[name] for m in per_study)
               for name in (per_study[0] if per_study else {})}
    notes = {"trace.overhead_frac": f"CPU time of {len(per_study)} traced studies "
                                    f"against {untraced.cpu:.4f} s untraced"}
    return studies, metrics, notes


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    reference = load_reference(args.workload)
    if args.trace:
        studies, metrics, notes = trace_run(workload, args.seed, args.seconds, reference)
        wanted = bench["per_layer"]
    else:
        studies, metrics, notes = measure(workload, args.seed, args.seconds, reference)
        wanted = bench["end_to_end"]

    facts = machine_facts(ROOT, args.seed)
    failed = sum(1 for s in studies if s.problems)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(facts))
    for entry in wanted:
        name = entry["name"]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {metrics.get(name, float('nan')):.6g} {entry['unit']}{note}")
    print(f"{'failed_frac':32s} {failed / len(studies):.6g} 1  ({failed} of {len(studies)} studies)")
    for s in studies:
        for problem in s.problems:
            print(f"check failed: {problem}", file=sys.stderr)

    missing = [e["name"] for e in wanted if e["name"] not in metrics]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    line = {
        "correct": failed == 0,
        "attempted": len(studies),
        "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in wanted},
    }
    (OUT / args.workload / "result.json").write_text(
        json.dumps({**line, "machine": facts, "notes": notes}, indent=2) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
