"""Write perfbench/pins.json: the expected outputs the jobs are checked against.

    python3 perfbench/pin.py

Graph pins and the ell=2 depth tables come from the naive reference
transcription, and the production code is required to agree before
anything is written.  Staircase depths come from the production search and
are cross-checked against the naive one for the smaller labels.  CLI pins
are the production responses, each required to keep the CLI contract.
Takes under a minute; run it again only when a workload's inputs change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402
from signcrystal import engine, serialize, young  # noqa: E402

NAIVE_STAIRS = 3  # staircase labels cross-checked against the naive depth


def graph_pins() -> dict:
    out = {}
    for kappa, charges in w.GRAPH_POOL:
        want = w.naive_graph(kappa, charges, 12)
        data = serialize.graph_to_json(engine.build_graph(w.make_params(3, kappa, charges), 12))
        nodes = [tuple(tuple(r) for r in comps) for comps in data["nodes"]]
        edges = [
            (nodes[e["source"]], nodes[e["target"]], next(iter(e["class"].items())),
             (e["box"]["c"], e["box"]["row"], e["box"]["col"]))
            for e in data["edges"]
        ]
        got = w.canonical_graph(nodes, edges)
        if got != want:
            raise SystemExit(f"graph {kappa} {charges}: production {got} != naive {want}")
        out[w.graph_key(kappa, charges)] = want
        print(f"graph {kappa} {charges}: {want}", flush=True)
    return out


def depth_pins() -> dict:
    out = {}
    labels = w.multipartitions(2, w.SWEEP_MAX_BOXES)
    for key, kappa in w.SWEEP_PARAMS:
        params = w.make_params(2, kappa, w.SWEEP_CHARGES)
        memo: dict = {}
        naive_memo: dict = {}
        table = []
        for comps in labels:
            want = w.naive_depth(2, kappa, w.SWEEP_CHARGES, comps, naive_memo)
            got = engine.depth(params, young.Multipartition(comps), memo)
            if got != want:
                raise SystemExit(f"{key} {comps}: production {got} != naive {want}")
            table.append(want)
        out[key] = table
        print(f"depth {key}: {len(table)} labels", flush=True)
    params = w.make_params(3, w.STAIR_KAPPA, w.STAIR_CHARGES)
    stairs = []
    for k in range(1, 6):
        comps = w.staircase(k)
        got = engine.depth(params, young.Multipartition(comps), {})
        if k <= NAIVE_STAIRS:
            want = w.naive_depth(3, w.STAIR_KAPPA, w.STAIR_CHARGES, comps, {})
            if got != want:
                raise SystemExit(f"staircase {k}: production {got} != naive {want}")
        stairs.append(got)
    out["staircase"] = stairs
    print(f"depth staircase: {stairs}", flush=True)
    return out


def cli_pins() -> dict:
    cat = w.catalogue()
    digests = []
    for template, requests in cat.items():
        for argv in requests:
            code, stdout = w.call_cli(argv)
            obj = w.judge(code, stdout)
            if obj is None or (template == "malformed") != (code == 2):
                raise SystemExit(f"{argv}: breaks the CLI contract (exit {code}): {stdout[:200]}")
            digests.append(w.response_digest(code, obj))
    print(f"cli: {len(digests)} requests", flush=True)
    return {"fingerprint": w.catalogue_fingerprint(cat), "digests": digests}


def main() -> None:
    pins = {"cli_requests": cli_pins(), "depth_sweep": depth_pins(), "graph_build": graph_pins()}
    path = Path(__file__).with_name("pins.json")
    path.write_text(json.dumps(pins, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
