"""One job of one workload, in a fresh interpreter.

    python3 perfbench/job.py --workload NAME --seed N --job K --t0 T [--trace] [--tiny]

`--t0` is the parent's `time.monotonic()` just before it started this
process; set-up time is measured from there to the moment the job's inputs
are ready.  The last line on stdout is the job's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--job", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.job, args.tiny)
    setup_s = time.monotonic() - args.t0

    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    if args.trace:
        tracer.install()
        tracer.enabled = True
    report = wl.run(inputs, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        tracer.enabled = False

    pins = json.loads((Path(__file__).with_name("pins.json")).read_text())
    expected = wl.expected(inputs, pins)
    failed = wl.check(inputs, report.pop("outputs"), expected)
    result = {
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "attempted": len(report["ops_ms"]),
        "failed": len(failed),
        "failed_ops": sorted(map(str, failed)),
        **report,
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent + sorted(tracer.hook_errors)
        write_spans(args, tracer)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


def write_spans(args, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}-job{args.job}.json"
    path.write_text(json.dumps({
        "fields": ["id", "parent", "name", "start", "end"],
        "spans": tracer.spans,
        "spans_dropped": tracer.spans_dropped,
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "absent": tracer.absent,
    }))


if __name__ == "__main__":
    sys.exit(main())
