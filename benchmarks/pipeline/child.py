"""One measured pass of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  Prints ``ready`` when
set-up (imports, the first inputs, one warm-up call) is done, then, unless
``--setup-only``, one JSON line with the pass's raw numbers: call times in
reference-host seconds (``reference.py``), counts and memory.  ``run.py``
turns the passes into metrics.  Per-process caches start cold here,
exactly as they do for a command-line user.
"""

import argparse
import gc
import json
import os
import resource
import sys
from pathlib import Path


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def rss_mb() -> float:
    """Resident memory now, in MiB, after a full collection."""
    gc.collect()
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:  # no procfs: fall back to the peak
        return peak_rss_mb()
    return pages * os.sysconf("SC_PAGE_SIZE") / (1024.0 * 1024.0)


def measure(workload, tracer=None) -> dict:
    """Run and check one pass of an already built *workload*; its raw numbers."""
    from workloads import Recorder

    recorder = Recorder(tracer)
    if tracer is not None:
        tracer.install()
    try:
        workload.run(recorder)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Memory is read before the oracles run, so theirs is not charged.
    memory = {"peak_rss_mb": peak_rss_mb(), "rss_mb": rss_mb()}
    try:
        workload.check(recorder)
    except Exception as exc:  # an oracle that crashes is a failed check
        recorder.mismatch("oracle raised %s: %s" % (type(exc).__name__, exc))
    return {
        "ops": recorder.ops,
        **recorder.scaled(),
        "measured_s": sum(recorder.calls_s),
        "probes": len(recorder.speed.probes),
        "undecided": recorder.undecided,
        "late": recorder.late,
        "failed": len(recorder.raised) + len(recorder.mismatches),
        "errors": (recorder.raised + recorder.mismatches)[:5],
        **memory,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sizes", required=True, help="JSON object of workload sizes")
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace-out", help="trace this pass and write its spans here")
    parser.add_argument("--setup-only", action="store_true", help="exit once set-up is done")
    args = parser.parse_args(argv)

    import workloads

    workload = workloads.build(args.workload, args.seed, json.loads(args.sizes), args.pass_index)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
    result = measure(workload, tracer)
    if tracer is not None:
        layers = tracer.metrics()
        result["per_layer"] = layers
        result["missing"] = tracer.missing
        document = tracer.trace_document(args.workload, layers)
        Path(args.trace_out).write_text(json.dumps(document))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
