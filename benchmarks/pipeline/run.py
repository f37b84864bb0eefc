"""Standing pipeline benchmark: emptiness, role views, LTL-FO and the monitor.

Usage (from the repository root)::

    python benchmarks/pipeline/run.py [--workload NAME] [--seed N]
                                      [--seconds S] [--trace [0|1]]

Without ``--workload`` all four workloads run one after another.  Each
workload runs as three passes, one at a time, each in a fresh process
with every ``REPRO_*`` variable removed and ``PYTHONHASHSEED=0``.  Every
loop is closed: a call starts when the previous one returns.  ``--trace``
adds one traced pass whose per-layer numbers are reported instead of the
end-to-end ones; end-to-end numbers always come from untraced passes.

``--seconds`` (default ``RUN_SECONDS``) scales the fixed inputs of
``PASS_SIZES``; it is not a timer, so a faster or slower commit does the
same work.  Times are in reference-host seconds (``reference.py``), and a
late call counts as ``workloads.LATE_FACTOR`` times its deadline.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results (with
host metadata) and traces are written to ``results/`` next to this file.
The exit code is nonzero when any call raised or any oracle disagreed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from reference import REFERENCE_S, probe
from tracing import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WORKLOADS = ("emptiness-random", "role-views", "ltl-verify", "monitor-churn")
PASSES = 3
#: Set-up-only starts before each pass: ``setup_s`` is the median of
#: ``PASSES * (1 + SETUPS_PER_PASS)`` set-ups, spread over the run.
SETUPS_PER_PASS = 2
#: Reference loops timed before each set-up, to scale it.
SETUP_PROBES = 3
#: Run length, in seconds of measured work per workload, that ``PASS_SIZES``
#: is calibrated to.
RUN_SECONDS = 12
#: Inputs of one pass at ``RUN_SECONDS``.  Three passes of each workload
#: measure about that long in reference-host seconds (2 vCPUs);
#: ``--seconds`` scales them.  They are part of the benchmark definition:
#: changing them changes the work, and so starts a new baseline.
#: ``role-views`` runs longer, so that its tail keeps ten projections
#: beyond it, and ``emptiness-random`` shorter.
PASS_SIZES = {
    "emptiness-random": {"instances": 1000},
    "role-views": {"ra": 20, "extended": 4},
    "ltl-verify": {"calls": 400},
    "monitor-churn": {"batches": 400},
}
#: Wall-clock limit of one invocation per workload it runs.
LIMIT_S_PER_WORKLOAD = 170.0

#: ``(name, unit)`` of the end-to-end metrics ``BENCHMARK.json`` names.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("rss_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("decided_share", "fraction"),
    ("on_time_share", "fraction"),
)
#: Printed and saved but not gated.  The shares are 0 on most workloads, so
#: no bound relative to their median can hold them: ``on_time_share`` is
#: ``1 - late_share``, and a failed call makes the run incorrect.
REPORTED = (
    ("late_share", "fraction"),
    ("error_share", "fraction"),
)
#: Percentile that ``latency_tail_ms`` reports, per workload.  Each leaves at
#: least ten calls beyond it (role-views makes 30 timed projections a
#: pass, ltl-verify 400, monitor-churn 400 ingests); emptiness-random
#: stays at p80, below the share of calls that end on their deadline.
TAIL_PERCENTILE = {
    "emptiness-random": 80,
    "role-views": 65,
    "ltl-verify": 97,
    "monitor-churn": 97,
}


def child_environment() -> Dict[str, str]:
    """The parent's environment without ``REPRO_*`` knobs, so defaults are measured."""
    environment = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = str(ROOT / "src")
    return environment


class PassFailed(Exception):
    """A pass process died, hung or printed no result."""


def run_pass(
    workload: str,
    seed: int,
    sizes: Dict[str, int],
    pass_index: int,
    timeout_s: float,
    trace_out: Optional[Path] = None,
    setup_only: bool = False,
) -> dict:
    """Run one pass in a fresh process; its result plus the measured ``setup_s``.

    ``setup_s`` is in reference-host seconds, scaled by the reference loop
    timed just before the process starts.  With *setup_only* the process
    exits once set up, and the result holds only ``setup_s``.
    """
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--sizes", json.dumps(sizes),
        "--pass-index", str(pass_index),
    ]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    if setup_only:
        command.append("--setup-only")
    factor = REFERENCE_S / probe(SETUP_PROBES)
    start = perf_counter()
    process = subprocess.Popen(
        command, cwd=str(ROOT), env=child_environment(), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(max(timeout_s, 1.0), process.kill)
    watchdog.start()
    try:
        setup_s = None
        lines: List[str] = []
        for line in process.stdout:
            if setup_s is None and line.strip() == "ready":
                setup_s = (perf_counter() - start) * factor
            else:
                lines.append(line)
        code = process.wait()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
        process.wait()
        process.stdout.close()
    if code != 0 or setup_s is None or not (lines or setup_only):
        raise PassFailed("%s pass %d exited with code %s" % (workload, pass_index, code))
    result = json.loads(lines[-1]) if lines else {}
    result["setup_s"] = setup_s
    return result


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile, interpolated between neighbouring values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarise(passes: List[dict], tail: int) -> Dict[str, float]:
    """End-to-end metrics (all but ``setup_s``) from the passes' raw numbers.

    Every pass makes the same calls on the same inputs, so each call's time
    is taken as its median over the passes before throughput and
    percentiles are computed: a slow spell of the host that hits one pass
    then moves no number.  Memory and the shares are medians over passes.
    """
    calls = [statistics.median(times) for times in zip(*(p["calls_s"] for p in passes))]
    latencies = [statistics.median(times) for times in zip(*(p["latencies_s"] for p in passes))]
    ops = statistics.median(p["ops"] for p in passes)

    def share(count) -> float:
        return statistics.median(count(p) / len(p["calls_s"]) for p in passes)

    return {
        "ops_per_s": ops / sum(calls),
        "latency_p50_ms": percentile(latencies, 50) * 1000.0,
        "latency_tail_ms": percentile(latencies, tail) * 1000.0,
        "rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "decided_share": share(lambda p: len(p["calls_s"]) - p["undecided"]),
        "on_time_share": share(lambda p: len(p["calls_s"]) - p["late"]),
        "late_share": share(lambda p: p["late"]),
        "error_share": statistics.median(p["failed"] / max(p["ops"], 1) for p in passes),
    }


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out: Path,
    limit_at: float,
    sizes: Optional[Dict[str, int]] = None,
) -> dict:
    """Three untraced passes (and a traced one); metrics and per-layer numbers.

    *sizes* overrides ``PASS_SIZES`` (the self-test passes tiny ones).
    """
    if sizes is None:
        scale = seconds / RUN_SECONDS
        sizes = {key: max(1, round(count * scale)) for key, count in PASS_SIZES[workload].items()}
    passes, setups = [], []
    for index in range(PASSES):
        for _ in range(SETUPS_PER_PASS):
            started = run_pass(workload, seed, sizes, index, limit_at - perf_counter(), setup_only=True)
            setups.append(started["setup_s"])
        passes.append(run_pass(workload, seed, sizes, index, limit_at - perf_counter()))
        setups.append(passes[-1]["setup_s"])
    metrics = {"setup_s": statistics.median(setups)}
    metrics.update(summarise(passes, TAIL_PERCENTILE[workload]))
    summary = {
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
        "tail_percentile": TAIL_PERCENTILE[workload],
        "samples": len(passes[0]["latencies_s"]),
        "setups_s": setups,
        "busy_s": [sum(p.pop("calls_s")) for p in passes],
        "passes": passes,
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [error for p in passes for error in p["errors"]][:5],
        "metrics": metrics,
    }
    for p in passes:
        del p["latencies_s"]
    if trace:
        trace_path = out / ("trace-%s.json" % workload)
        traced = run_pass(workload, seed, sizes, 0, limit_at - perf_counter(), trace_path)
        summary["attempted"] += traced["ops"]
        summary["failed"] += traced["failed"]
        layers = dict(traced["per_layer"])
        baseline = statistics.median(summary["busy_s"])
        layers["trace.overhead_pct"] = (sum(traced["calls_s"]) / baseline - 1.0) * 100.0
        summary["per_layer"] = layers
        summary["missing_spans"] = traced["missing"]
        summary["trace_file"] = str(trace_path)
    return summary


def per_layer_units() -> Dict[str, str]:
    units = dict(per_layer_metrics())
    units["trace.overhead_pct"] = "%"
    return units


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref:"):
            return text
        ref = text.split(None, 1)[1]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_metadata() -> dict:
    return {
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def print_summary(summary: dict, units: Dict[str, str]) -> None:
    workload = summary["workload"]
    print("== %s (seed %d, sizes %s) ==" % (workload, summary["seed"], json.dumps(summary["sizes"])))
    for name, unit in END_TO_END + REPORTED:
        note = ""
        if name == "latency_tail_ms":
            note = "  p%d of %d calls" % (summary["tail_percentile"], summary["samples"])
        print("  %-18s %14.4f %s%s" % (name, summary["metrics"][name], unit, note))
    for name, value in sorted(summary.get("per_layer", {}).items()):
        print("  %-58s %14.4f %s" % (name, value, units.get(name, "")))
    if summary.get("missing_spans"):
        print("  missing span targets: %s" % ", ".join(summary["missing_spans"]))
    for error in summary["errors"]:
        print("  error: %s" % error.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="scales the work per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("error: %s holds no library sources (src/repro)" % ROOT, file=sys.stderr)
        return 2
    selected = [args.workload] if args.workload else list(WORKLOADS)
    out = HERE / "results"
    out.mkdir(parents=True, exist_ok=True)
    limit_at = perf_counter() + LIMIT_S_PER_WORKLOAD * len(selected)
    units = dict(END_TO_END + REPORTED)
    if args.trace:
        units.update(per_layer_units())

    load_before = os.getloadavg()
    summaries = []
    failures = []
    for workload in selected:
        try:
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), out, limit_at)
        except PassFailed as failure:
            failures.append(str(failure))
            print("error: %s" % failure, file=sys.stderr)
            continue
        summaries.append(summary)
        print_summary(summary, units)

    results = {
        "host": host_metadata(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "passes_per_workload": PASSES,
        "units": units,
        "workloads": summaries,
        "failures": failures,
    }
    name = "results-%s-seed%d.json" % (args.workload or "all", args.seed)
    (out / name).write_text(json.dumps(results, indent=1))

    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    correct = not failures and failed == 0 and attempted > 0
    print("results written to %s" % (out / name))
    if failures:
        return 1

    def reported(summary: dict) -> Dict[str, dict]:
        if args.trace:
            values = summary["per_layer"]
            return {n: {"value": values[n], "unit": units[n]} for n in values}
        values = summary["metrics"]
        return {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    if args.workload:
        metrics = reported(summaries[0])
    else:
        metrics = {s["workload"]: reported(s) for s in summaries}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
