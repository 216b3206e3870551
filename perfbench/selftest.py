"""Self-test of the benchmark itself; exits non-zero on the first problem.

    python3 perfbench/selftest.py

1. A tiny job of every workload runs, untraced and traced, in a fresh
   interpreter exactly as in a real run, and passes its checks.
2. Corrupted outputs (a dropped edge, a wrong depth, an empty suite, a
   wrong or non-JSON CLI response) are caught by the same checks.
3. The metrics computed from those jobs are exactly the ones named in
   BENCHMARK.json, for both kinds of run.
4. run.py refuses, without printing a result, to run in a directory that
   holds only the benchmark and no sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as w  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def tiny_jobs(spec) -> None:
    deadline = time.monotonic() + run.HARD_LIMIT_S
    for name in w.WORKLOADS:
        plain = run.run_job(name, 7, 0, False, deadline, tiny=True)
        traced = run.run_job(name, 7, 0, True, deadline, tiny=True)
        for label, job in (("untraced", plain), ("traced", traced)):
            expect("crashed" not in job and job["failed"] == 0 and job["attempted"] > 0,
                   f"{name}: tiny {label} job passes its checks")
        values, _ = run.end_to_end([plain], [plain["setup_s"]], plain["attempted"], 0)
        expect(set(values) == {m["name"] for m in spec["end_to_end"]},
               f"{name}: end-to-end metrics match BENCHMARK.json")
        values, _ = run.per_layer([(plain, traced)])
        expect(set(values) == {m["name"] for m in spec["per_layer"]},
               f"{name}: per-layer metrics match BENCHMARK.json")


def caught(workload, corrupt) -> bool:
    """Run a tiny job in-process, corrupt its output, and re-check it."""
    wl = w.WORKLOADS[workload]
    inputs = wl.inputs(3, 0, True)
    outputs = wl.run(inputs, tracer.NullTracer())["outputs"]
    pins = json.loads((HERE / "pins.json").read_text())
    expected = wl.expected(inputs, pins)
    if wl.check(inputs, outputs, expected):
        raise SystemExit(f"selftest FAILED: {workload}: clean tiny output flagged")
    bad = copy.deepcopy(outputs)
    corrupt(bad)
    return bool(wl.check(inputs, bad, expected))


def drop_edge(out) -> None:
    data = json.loads(out["text"])
    data["edges"].pop(len(data["edges"]) // 2)
    out["text"] = json.dumps(data)


def move_edge(out) -> None:
    data = json.loads(out["text"])
    data["edges"][0]["target"] = data["edges"][1]["target"]
    out["text"] = json.dumps(data)


def wrong_depth(out) -> None:
    out[0][len(out[0]) // 2] += 1


def wrong_staircase(out) -> None:
    out[-1][0] -= 1


def empty_suite(out) -> None:
    out[0] = (True, 0)


def traceback_response(out) -> None:
    out[0] = ("RecursionError", "")


def changed_response(out) -> None:
    code, stdout = out[1]
    out[1] = (code, json.dumps({"result": "something else"}))


def corruptions() -> None:
    expect(caught("graph_build", drop_edge), "graph_build: a dropped edge is caught")
    expect(caught("graph_build", move_edge), "graph_build: a redirected edge is caught")
    expect(caught("depth_sweep", wrong_depth), "depth_sweep: a wrong depth is caught")
    expect(caught("depth_sweep", wrong_staircase), "depth_sweep: a wrong staircase depth is caught")
    expect(caught("verify_battery", empty_suite), "verify_battery: a pass after 0 checks is caught")
    expect(caught("cli_requests", traceback_response), "cli_requests: a traceback is caught")
    expect(caught("cli_requests", changed_response), "cli_requests: a changed payload is caught")
    expect(w.judge(0, '{"pass": true, "checked": 0}') is None,
           "cli_requests: a verify pass with checked 0 breaks the contract")
    expect(w.judge(1, "{}") is None, "cli_requests: exit code 1 breaks the contract")


def bare_directory() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "graph_build",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(),
           "run.py refuses a directory without sources and prints no result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny_jobs(spec)
    corruptions()
    bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
