"""signcrystal benchmark: run one workload for a fixed time and report metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  Every job runs in a fresh interpreter (`job.py`), one at a time,
so no job can reuse what an earlier one computed.  With `--trace 0` the
last stdout line carries the end-to-end metrics, with `--trace 1` the
per-layer metrics of traced jobs.  Records and spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
HARD_LIMIT_S = 165.0  # every run ends well inside 180 s, whatever --seconds says
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with at least this many samples beyond
COLD_CLI = ["-m", "signcrystal", "reduce", "--string", "-+"]
COLD_CLI_OUT = {"h_minus": 0, "h_plus": 0, "reduced": "00", "weight": 0}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(workload, seed, job, trace, deadline, tiny=False) -> dict:
    """Run one job in a fresh interpreter; a crash or overrun is a failed job."""
    argv = [sys.executable, str(HERE / "job.py"), "--workload", workload,
            "--seed", str(seed), "--job", str(job)]
    argv += ["--trace"] if trace else []
    argv += ["--tiny"] if tiny else []
    t0 = time.monotonic()
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"crashed": f"job {job} overran the run's time limit"}
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        return {"crashed": f"job {job} exited {proc.returncode}"}
    return json.loads(lines[-1])


def cold_cli(deadline) -> tuple[float, bool]:
    """Wall time of one cold CLI process, and whether its answer was right."""
    t0 = time.monotonic()
    try:
        done = subprocess.run([sys.executable] + COLD_CLI, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        return time.monotonic() - t0, False
    elapsed = time.monotonic() - t0
    try:
        ok = done.returncode == 0 and json.loads(done.stdout) == COLD_CLI_OUT
    except ValueError:
        ok = False
    return elapsed, ok


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(jobs: list[dict], setups: list[float], attempted: int, failed: int):
    """End-to-end metric values, and notes on how they were taken.

    op_tail_ms is taken per job, whose mix of operations is fixed, and then
    the median over jobs, so it does not drift with the number of jobs.
    """
    ops = [ms for job in jobs for ms in job["ops_ms"]]
    tails = [tail(job["ops_ms"]) for job in jobs]
    values = {
        "items_per_s": statistics.median(job["items"] / job["wall_s"] for job in jobs),
        "cpu_s": statistics.median(job["cpu_s"] for job in jobs),
        "op_p50_ms": statistics.median(ops),
        "op_tail_ms": statistics.median(value for value, _ in tails),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(job["rss_mb"] for job in jobs),
        "ok_ratio": 1.0 - failed / attempted,
    }
    notes = {
        "jobs": len(jobs),
        "items_per_job": statistics.median(job["items"] for job in jobs),
        "ops": len(ops),
        "ops_per_job": statistics.median(len(job["ops_ms"]) for job in jobs),
        "op_tail_percentile": statistics.median(pct for _, pct in tails),
        "setup_samples": len(setups),
    }
    return values, notes


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Per-layer values from (untraced, traced) job pairs of the same inputs."""
    traced = [t for _, t in pairs]
    first = traced[0]["layers"]
    values = {}
    for name, value in first.items():
        if name.endswith("self_s"):
            values[name] = statistics.median(t["layers"][name] for t in traced)
        else:
            values[name] = value
    values["trace.overhead_ratio"] = statistics.median(t["wall_s"] / b["wall_s"] for b, t in pairs)
    unsteady = sorted(
        name for name, value in first.items()
        if not name.endswith("self_s") and any(t["layers"][name] != value for t in traced)
    )
    notes = {"pairs": len(pairs), "absent": traced[0]["absent"], "counts_differ": unsteady}
    return values, notes


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
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


def machine_record(args) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "signcrystal" / "__init__.py").is_file():
        print(f"no signcrystal sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    jobs, setups, pairs, crashes = [], [], [], []
    job = 0
    while not crashes:
        if args.trace:
            base = run_job(args.workload, args.seed, 0, False, deadline)
            traced = run_job(args.workload, args.seed, 0, True, deadline)
            for r in (base, traced):
                if "crashed" in r:
                    crashes.append(r["crashed"])
                else:
                    jobs.append(r)
            if not crashes:
                pairs.append((base, traced))
        else:
            if args.workload == "cli_requests":
                elapsed, ok = cold_cli(deadline)
                setups.append(elapsed)
                if not ok:
                    crashes.append("cold CLI process gave a wrong answer")
            result = run_job(args.workload, args.seed, job, False, deadline)
            if "crashed" in result:
                crashes.append(result["crashed"])
            else:
                jobs.append(result)
                if args.workload != "cli_requests":
                    setups.append(result["setup_s"])
            job += 1
        if time.monotonic() - start >= args.seconds:
            break

    attempted = sum(j["attempted"] for j in jobs) + len(crashes)
    failed = sum(j["failed"] for j in jobs) + len(crashes)
    record = machine_record(args)
    if args.trace and pairs:
        values, notes = per_layer(pairs)
        metric_specs = spec["per_layer"]
    elif not args.trace and jobs and setups:
        values, notes = end_to_end(jobs, setups, attempted, failed)
        metric_specs = spec["end_to_end"]
    else:
        print(f"no job completed: {crashes}", file=sys.stderr)
        return 1
    notes["crashes"] = crashes
    notes["failed_ops"] = [j["failed_ops"] for j in jobs if j["failed_ops"]]
    notes["contract_breaches"] = sum(j.get("contract_breaches", 0) for j in jobs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}

    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(
        {"record": record, "notes": notes, "metrics": metrics, "jobs": jobs}, indent=1))
    print(json.dumps({"record": record, "notes": notes}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
