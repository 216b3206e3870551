"""The four workloads: seeded inputs, one timed job, and its output checks.

Each workload has three parts.  `inputs(seed, job, tiny)` makes the job's
inputs (set-up, untimed).  `run(inputs, tracer)` does the timed work and
returns its timings and outputs.  `check(inputs, outputs, pins)` returns
the ids of the operations whose output was wrong.  Expected values come
from `pins.json` (written by `pin.py`) or from the naive reference
transcription and closed-form counts, never from the code being timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import io
import json
import random
import time
from fractions import Fraction
from math import comb
from typing import NamedTuple

from signcrystal import cli, engine, naive, realizations, serialize
from signcrystal import params as params_mod
from signcrystal import young

IRRATIONAL = params_mod.IRRATIONAL


def job_rng(seed: int, job: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}:{job}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Timer:
    """Times a job: wall and CPU for the whole, wall per operation."""

    def __init__(self):
        self.ops_ms: list[float] = []

    def __enter__(self):
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.wall0
        self.cpu_s = time.process_time() - self.cpu0

    def op(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.ops_ms.append((time.perf_counter() - start) * 1000.0)
        return result

    def report(self, items: int, outputs) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "items": items,
            "ops_ms": self.ops_ms,
            "outputs": outputs,
        }


# --- combinatorics the benchmark does for itself ---------------------------


def partitions(n: int, cap: int | None = None):
    """Partitions of n as row tuples, largest first part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def multipartitions(ell: int, max_boxes: int) -> list[tuple]:
    """All ell-tuples of partitions with at most max_boxes boxes in total."""
    out = []
    for n in range(max_boxes + 1):
        out += _multipartitions_of(ell, n)
    return out


def _multipartitions_of(ell: int, n: int) -> list[tuple]:
    if ell == 1:
        return [(p,) for p in partitions(n)]
    return [
        (p,) + rest
        for k in range(n, -1, -1)
        for p in partitions(k)
        for rest in _multipartitions_of(ell - 1, n - k)
    ]


def corners(rows: tuple) -> tuple[list, list]:
    """(addable, removable) corner cells (row, col) of one partition."""
    addable, removable = [], []
    for j, width in enumerate(rows, start=1):
        if j == 1 or width < rows[j - 2]:
            addable.append((j, width + 1))
        if j == len(rows) or rows[j] < width:
            removable.append((j, width))
    addable.append((len(rows) + 1, 1))
    return addable, removable


def class_label(kappa, content: int) -> tuple[str, int]:
    if kappa is None:
        return ("content", content)
    return ("residue", content % kappa.denominator)


def boundary_classes(kappa, charges, comps, which=(0, 1)) -> set:
    """Class labels of the addable (0) and/or removable (1) boxes."""
    found = set()
    for ci, rows in enumerate(comps):
        cells = corners(rows)
        for kind in which:
            for row, col in cells[kind]:
                found.add(class_label(kappa, charges[ci] + col - row))
    return found


def naive_depth(ell, kappa, charges, comps, memo) -> int:
    """Depth by the naive reference: longest chain of box-removing moves."""
    if comps in memo:
        return memo[comps]
    best = 0
    for z in sorted(boundary_classes(kappa, charges, comps, which=(1,))):
        step = naive.crystal_remove(ell, kappa, charges, comps, z)
        if step is not None:
            best = max(best, 1 + naive_depth(ell, kappa, charges, step[0], memo))
    memo[comps] = best
    return best


def make_params(ell: int, kappa, charges) -> params_mod.Params:
    return params_mod.Params(ell, IRRATIONAL if kappa is None else kappa, tuple(charges))


def zclass(label: tuple[str, int]) -> params_mod.ZClass:
    return params_mod.ZClass(*label)


# --- graph_build -------------------------------------------------------------

GRAPH_POOL = [
    (Fraction(k, 3), charges)
    for k in (1, 2)
    for charges in ((0, 1, 2), (0, 2, 1), (0, 0, 1), (1, 0, 2))
]
GRAPH_EDGE_SAMPLE = 100


def graph_key(kappa, charges) -> str:
    return f"{kappa}|{','.join(map(str, charges))}"


def canonical_graph(nodes, edges) -> dict:
    """Counts and a digest of a graph given as node tuples and edge tuples."""
    lines = sorted(repr(n) for n in nodes)
    lines += sorted(repr(e) for e in edges)
    per_class: dict[int, int] = {}
    for e in edges:
        per_class[e[2][1]] = per_class.get(e[2][1], 0) + 1
    return {
        "nodes": len(nodes),
        "edges": len(edges),
        "digest": digest("\n".join(lines)),
        "chains": [len(nodes) - per_class.get(r, 0) for r in range(3)],
    }


def naive_graph(kappa, charges, max_boxes) -> dict:
    """The expected graph, built edge by edge from the naive reference."""
    nodes = multipartitions(3, max_boxes)
    edges = []
    for comps in nodes:
        if sum(map(sum, comps)) >= max_boxes:
            continue
        for r in range(3):
            step = naive.crystal_add(3, kappa, charges, comps, ("residue", r))
            if step is not None:
                edges.append((comps, step[0], ("residue", r), step[1]))
    return canonical_graph(nodes, edges)


class GraphBuild:
    name = "graph_build"

    def inputs(self, seed, job, tiny):
        offset = random.Random(f"graph:{seed}").randrange(len(GRAPH_POOL))
        kappa, charges = GRAPH_POOL[(offset + job) % len(GRAPH_POOL)]
        return {
            "kappa": kappa,
            "charges": charges,
            "max_boxes": 5 if tiny else 12,
            "tiny": tiny,
            "params": make_params(3, kappa, charges),
            "check_rng": job_rng(seed, job, "graph-check"),
        }

    def run(self, inp, tracer):
        dumps = tracer.wrap("serialize.json_dumps", json.dumps)
        with Timer() as t:
            graph = t.op(engine.build_graph, inp["params"], inp["max_boxes"])
            chains = [
                t.op(engine.string_decomposition, graph, params_mod.ZClass("residue", r))
                for r in range(3)
            ]
            text = dumps(t.op(serialize.graph_to_json, graph))
        tracer.count("serialize.bytes_out", len(text))
        chains = [[[mp.components for mp in chain] for chain in per] for per in chains]
        return t.report(len(graph.nodes), {"text": text, "chains": chains})

    def expected(self, inp, pins):
        if inp["tiny"]:
            return naive_graph(inp["kappa"], inp["charges"], inp["max_boxes"])
        return pins["graph_build"][graph_key(inp["kappa"], inp["charges"])]

    def check(self, inp, out, expected):
        failed = set()
        try:
            data = json.loads(out["text"])
            nodes = [tuple(tuple(rows) for rows in comps) for comps in data["nodes"]]
            edges = [
                (
                    nodes[e["source"]],
                    nodes[e["target"]],
                    next(iter(e["class"].items())),
                    (e["box"]["c"], e["box"]["row"], e["box"]["col"]),
                )
                for e in data["edges"]
            ]
        except (ValueError, KeyError, IndexError, TypeError, AttributeError):
            return {"graph_to_json"}
        got = canonical_graph(nodes, edges)
        if got != expected:
            failed.add("build_graph")
        rng = inp["check_rng"]
        for src, tgt, z, box in rng.sample(edges, min(GRAPH_EDGE_SAMPLE, len(edges))):
            if naive.crystal_add(3, inp["kappa"], inp["charges"], src, z) != (tgt, box):
                failed.add("build_graph")
        edge_set = {(src, tgt, z[1]) for src, tgt, z, _ in edges}
        for r, per_class in enumerate(out["chains"]):
            sizes = [len(chain) for chain in per_class]
            linked = all(
                (a, b, r) in edge_set for chain in per_class for a, b in zip(chain, chain[1:])
            )
            if sum(sizes) != len(nodes) or len(sizes) != expected["chains"][r] or not linked:
                failed.add(f"string_decomposition:{r}")
        return failed


# --- depth_sweep -------------------------------------------------------------

SWEEP_PARAMS = (("ell2:1/2", Fraction(1, 2)), ("ell2:irrational", None))
SWEEP_CHARGES = (0, 1)
SWEEP_MAX_BOXES = 10
SWEEP_SAMPLE = 600
LINE_SAMPLE = 30  # ell=1, irrational kappa: depth equals size
LINE_MAX_BOXES = 12
STAIR_KAPPA = Fraction(2, 5)
STAIR_CHARGES = (0, 1, 3)
REMOVAL_SAMPLE = 40


def staircase(k: int) -> tuple:
    """Label k of the staircase family: staircases of lengths k+5, k and 2."""
    return tuple(tuple(range(n, 0, -1)) for n in (k + 5, k, 2))


class Sweep(NamedTuple):
    key: str  # its pins table, or "line" where depth must equal size
    kappa: Fraction | None  # None: irrational
    charges: tuple
    labels: list  # (index in the pins table, Multipartition)
    shared_memo: bool

    @property
    def params(self):
        return make_params(len(self.charges), self.kappa, self.charges)


class DepthSweep:
    name = "depth_sweep"

    def inputs(self, seed, job, tiny):
        rng = job_rng(seed, job, "depth")

        def sample(ell, max_boxes, size):
            labels = multipartitions(ell, max_boxes)
            picked = sorted(rng.sample(range(len(labels)), size))
            return [(i, young.Multipartition(labels[i])) for i in picked]

        sweeps = [
            Sweep(key, kappa, SWEEP_CHARGES, sample(2, 4 if tiny else SWEEP_MAX_BOXES,
                                                    20 if tiny else SWEEP_SAMPLE), True)
            for key, kappa in SWEEP_PARAMS
        ]
        lines = sample(1, 5 if tiny else LINE_MAX_BOXES, 5 if tiny else LINE_SAMPLE)
        sweeps.append(Sweep("line", None, (0,), lines, True))
        stairs = [(k - 1, young.Multipartition(staircase(k))) for k in ((1,) if tiny else range(1, 6))]
        sweeps.append(Sweep("staircase", STAIR_KAPPA, STAIR_CHARGES, stairs, False))
        return {
            "tiny": tiny,
            "sweeps": [(sweep, sweep.params) for sweep in sweeps],
            "memo_arg": "memo" in inspect.signature(engine.depth).parameters,
            "check_rng": job_rng(seed, job, "depth-check"),
        }

    def run(self, inp, tracer):
        memo_arg = inp["memo_arg"]
        values = []
        with Timer() as t:
            for sweep, params in inp["sweeps"]:
                shared: dict = {}
                got = []
                for _, m in sweep.labels:
                    if not memo_arg:
                        got.append(t.op(engine.depth, params, m))
                    else:
                        got.append(t.op(engine.depth, params, m, shared if sweep.shared_memo else {}))
                values.append(got)
        return t.report(len(t.ops_ms), values)

    def expected(self, inp, pins):
        out = []
        for sweep, _ in inp["sweeps"]:
            if sweep.key == "line":
                out.append([m.size for _, m in sweep.labels])
            elif inp["tiny"]:
                memo: dict = {}
                out.append([naive_depth(len(sweep.charges), sweep.kappa, sweep.charges, m.components, memo)
                            for _, m in sweep.labels])
            else:
                out.append([pins["depth_sweep"][sweep.key][i] for i, _ in sweep.labels])
        return out

    def check(self, inp, out, expected):
        failed = set()
        samples = []
        for (sweep, params), got, want in zip(inp["sweeps"], out, expected):
            if len(got) != len(want):
                failed.add(f"{sweep.key}:count")
            for (_, m), g, w in zip(sweep.labels, got, want):
                op = len(samples)
                if g != w:
                    failed.add(op)
                samples.append((op, sweep, params, m))
        rng = inp["check_rng"]
        for op, sweep, params, m in rng.sample(samples, min(REMOVAL_SAMPLE, len(samples))):
            kappa, charges = sweep.kappa, sweep.charges
            for z in sorted(boundary_classes(kappa, charges, m.components, which=(1,))):
                step = realizations.crystal_remove(params, m, zclass(z))
                ref = naive.crystal_remove(len(charges), kappa, charges, m.components, z)
                if (None if step is None else (step[0].components, tuple(step[1]))) != ref:
                    failed.add(op)
        return failed


# --- verify_battery ----------------------------------------------------------


def battery(seed, job, tiny) -> list[tuple[str, dict]]:
    third = params_mod.Params(2, Fraction(1, 3), (0, 1))
    irr = params_mod.Params(3, IRRATIONAL, (0, 1, 2))
    conf_seed = job_rng(seed, job, "confluence").randrange(2**31)
    if tiny:
        n_ax, n_conf, trials, n_comb, boxes, gl, n_depth = 6, 5, 3, 5, 3, (3, 3, 5), 4
    else:
        n_ax, n_conf, trials, n_comb, boxes, gl, n_depth = 14, 10, 100, 12, 8, (4, 3, 8), 8
    return [
        ("axioms", {"n": n_ax}),
        ("confluence", {"n": n_conf, "trials": trials, "seed": conf_seed}),
        ("comb_lemma", {"n": n_comb}),
        ("boundary_invariance", {"params": third, "max_boxes": boxes}),
        ("boundary_invariance", {"params": irr, "max_boxes": boxes}),
        ("realization_consistency", {"params": third, "max_boxes": boxes}),
        ("realization_consistency", {"params": irr, "max_boxes": boxes}),
        ("gl_realization", {"n": gl[0], "p": gl[1], "entry_bound": gl[2]}),
        ("depth_irrational", {"max_boxes": n_depth}),
    ]


def expected_checked(suite: str, bounds: dict) -> int:
    """How many cases each suite checks, counted independently of it."""
    if suite == "axioms":
        return 2 ** (bounds["n"] + 1) - 1
    if suite == "confluence":
        return (2 ** (bounds["n"] + 1) - 1) * bounds["trials"]
    if suite == "comb_lemma":
        return 2 ** (bounds["n"] + 1) - 2
    if suite == "gl_realization":
        p, top = bounds["p"], bounds["entry_bound"]
        return comb(top + 1, bounds["n"]) * (p if p else top + 2)
    if suite == "depth_irrational":
        return len(multipartitions(1, bounds["max_boxes"]))
    p = bounds["params"]
    kappa = p.kappa if p.is_rational else None
    labels = multipartitions(p.ell, bounds["max_boxes"])
    if suite == "boundary_invariance":
        return sum(len(corners(rows)[0]) for comps in labels for rows in comps)
    return sum(len(boundary_classes(kappa, p.charges, comps)) for comps in labels)


class VerifyBattery:
    name = "verify_battery"

    def inputs(self, seed, job, tiny):
        return {"battery": battery(seed, job, tiny)}

    def run(self, inp, tracer):
        with Timer() as t:
            reports = [t.op(engine.verify, suite, **bounds) for suite, bounds in inp["battery"]]
        checked = [(r.passed, r.checked) for r in reports]
        return t.report(sum(c for _, c in checked), checked)

    def expected(self, inp, pins):
        return [(True, expected_checked(suite, bounds)) for suite, bounds in inp["battery"]]

    def check(self, inp, out, expected):
        return {k for k, (got, want) in enumerate(zip(out, expected)) if got != want or got[1] <= 0}


# --- cli_requests ------------------------------------------------------------

CATALOGUE_SEED = "signcrystal-cli-catalogue-1"
POOL_FACTOR = 4
MIX = {
    "reduce": 32,
    "string-op": 30,
    "boundary": 20,
    "fock-op": 20,
    "kgroup": 16,
    "class-member": 16,
    "gl-op": 16,
    "gl-op-big-p": 4,
    "depth": 20,
    "support": 16,
    "graph": 10,
    "verify": 12,
    "params": 16,
    "malformed": 12,
}
PARAM_POOL = [
    (1, Fraction(1, 2), (0,)),
    (2, Fraction(1, 3), (0, 1)),
    (2, None, (0, 1)),
    (3, Fraction(2, 5), (0, 1, 3)),
    (2, Fraction(2, 3), (1, 0)),
    (3, Fraction(1, 2), (0, 0, 1)),
    (1, None, (0,)),
    (2, Fraction(3, 4), (0, 2)),
]
HALF_LINE = '{"ell":1,"kappa":{"num":1,"den":2},"charges":[0]}'
# Requests known to break the CLI contract (a traceback, and a suite that
# passes after checking nothing).  They run after the timed batch and are
# counted as cli.contract_breaches, not as failed operations.
CONTRACT_PROBES = (
    ["depth", "--params", HALF_LINE, "--mp", "[[1200]]"],
    ["verify", "--suite", "axioms", "--n", "-1"],
)


def params_json(ell, kappa, charges) -> str:
    k = "irrational" if kappa is None else {"num": kappa.numerator, "den": kappa.denominator}
    return json.dumps({"ell": ell, "kappa": k, "charges": list(charges)}, separators=(",", ":"))


def _word(rng, lo=1, hi=12) -> str:
    return "".join(rng.choice("+-") for _ in range(rng.randint(lo, hi)))


def _mp(rng, ell, max_boxes) -> tuple:
    total = rng.randint(0, max_boxes)
    sizes = [0] * ell
    for _ in range(total):
        sizes[rng.randrange(ell)] += 1
    return tuple(rng.choice(list(partitions(s))) for s in sizes)


def _class(rng, kappa, charges, comps) -> tuple[str, int]:
    if kappa is not None:
        return ("residue", rng.randrange(kappa.denominator))
    met = sorted(boundary_classes(None, charges, comps))
    if rng.random() < 0.8:
        return rng.choice(met)
    return ("content", rng.randint(-3, 5))


def _class_word_length(kappa, charges, comps, z) -> int:
    count = 0
    for ci, rows in enumerate(comps):
        addable, removable = corners(rows)
        for row, col in addable + removable:
            if class_label(kappa, charges[ci] + col - row) == z:
                count += 1
    return count


def _labelled(rng, max_boxes=6):
    ell, kappa, charges = rng.choice(PARAM_POOL)
    comps = _mp(rng, ell, max_boxes)
    z = _class(rng, kappa, charges, comps)
    mp = json.dumps([list(rows) for rows in comps], separators=(",", ":"))
    return (ell, kappa, charges), comps, z, [
        "--params", params_json(ell, kappa, charges), "--mp", mp,
        "--class", json.dumps({z[0]: z[1]}),
    ]


def _weight(rng) -> str:
    entries = sorted(rng.sample(range(0, 10), rng.randint(2, 5)), reverse=True)
    return json.dumps(entries)


def _request(rng, template: str, k: int) -> list[str]:
    if template == "reduce":
        return ["reduce", "--string", _word(rng)]
    if template == "string-op":
        op = ["e", "f", "suffix-h", "compare", "plus-flips", "minus-flips"][k % 6]
        w = _word(rng)
        argv = ["string-op", "--op", op, "--string", w]
        if op == "suffix-h":
            argv += ["--k", str(rng.randint(1, len(w) + 1))]
        if op == "compare":
            argv += ["--other", "".join(rng.choice("+-") for _ in w)]
        return argv
    if template in ("boundary", "fock-op", "kgroup", "class-member"):
        (ell, kappa, charges), comps, z, rest = _labelled(rng)
        if template == "boundary":
            return ["boundary"] + rest
        if template == "fock-op":
            return ["fock-op", "--op", ["add", "remove"][k % 2]] + rest
        if template == "kgroup":
            return ["kgroup", "--op", ["induction", "restriction"][k % 2]] + rest
        n = _class_word_length(kappa, charges, comps, z)
        return ["class-member"] + rest + ["--string", "".join(rng.choice("+-") for _ in range(n))]
    if template in ("gl-op", "gl-op-big-p"):
        op = ["positions", "sign", "add", "remove"][k % 4]
        p = 1000000007 if template == "gl-op-big-p" else rng.choice([0, 2, 3, 5, 7])
        return ["gl-op", "--op", op, "--weight", _weight(rng), "--i", str(rng.randint(0, 4)), "--p", str(p)]
    if template in ("depth", "support"):
        ell, kappa, charges = rng.choice(PARAM_POOL)
        comps = _mp(rng, ell, 7)
        mp = json.dumps([list(rows) for rows in comps], separators=(",", ":"))
        return [template, "--params", params_json(ell, kappa, charges), "--mp", mp]
    if template == "graph":
        ell, kappa, charges = rng.choice([p for p in PARAM_POOL if p[0] <= 2])
        return ["graph", "--params", params_json(ell, kappa, charges), "--max-boxes", str(rng.randint(2, 4))]
    if template == "verify":
        return _verify_request(rng, k)
    if template == "params":
        return ["params", "--params", params_json(*rng.choice(PARAM_POOL))]
    return _malformed(rng, k)


def _verify_request(rng, k: int) -> list[str]:
    suite = ["axioms", "comb_lemma", "confluence", "boundary_invariance",
             "realization_consistency", "gl_realization", "depth_irrational"][k % 7]
    argv = ["verify", "--suite", suite]
    if suite == "axioms":
        return argv + ["--n", str(rng.randint(3, 8))]
    if suite == "comb_lemma":
        return argv + ["--n", str(rng.randint(3, 7))]
    if suite == "confluence":
        return argv + ["--n", str(rng.randint(3, 6)), "--trials", str(rng.randint(2, 5)),
                       "--seed", str(rng.randint(0, 99))]
    if suite in ("boundary_invariance", "realization_consistency"):
        ell, kappa, charges = rng.choice([p for p in PARAM_POOL if p[0] <= 2])
        return argv + ["--params", params_json(ell, kappa, charges), "--max-boxes", str(rng.randint(2, 4))]
    if suite == "gl_realization":
        return argv + ["--n", str(rng.randint(2, 3)), "--p", str(rng.choice([0, 3])),
                       "--entry-bound", str(rng.randint(4, 6))]
    return argv + ["--max-boxes", str(rng.randint(3, 6))]


def _malformed(rng, k: int) -> list[str]:
    two = params_json(2, Fraction(1, 3), (0, 1))
    kinds = [
        ["reduce", "--string", _word(rng, 1, 4) + "x" + _word(rng, 1, 4)],
        ["frobnicate"],
        ["depth", "--params", "{not json", "--mp", "[[1]]"],
        ["boundary", "--params", HALF_LINE, "--mp", "[[1,2]]", "--class", '{"residue":0}'],
        ["gl-op", "--op", "add", "--weight", "[1,2,3]", "--i", "0", "--p", "3"],
        ["params", "--params", '{"kappa":{"num":2,"den":1},"charges":[0]}'],
        [],
        ["gl-op", "--op", "sign", "--weight", _weight(rng), "--i", "1", "--p", "4"],
        ["fock-op", "--op", "add", "--params", HALF_LINE, "--mp", "[[1]]", "--class", '{"residue":"a"}'],
        ["depth", "--params", two, "--mp", "[[1]]"],
        ["verify", "--suite", "axioms", "--n", "x"],
        ["string-op", "--op", "compare", "--string", "+-", "--other", "+"],
    ]
    return kinds[k % len(kinds)]


def catalogue() -> dict[str, list[list[str]]]:
    """Every request a job can draw, by template; fixed, so pins line up."""
    rng = random.Random(CATALOGUE_SEED)
    return {t: [_request(rng, t, k) for k in range(n * POOL_FACTOR)] for t, n in MIX.items()}


def catalogue_fingerprint(cat) -> str:
    return digest(json.dumps(cat, sort_keys=True))


def _normalize(obj):
    if isinstance(obj, float):
        return round(obj, 9) + 0.0
    if isinstance(obj, dict):
        if set(obj) == {"error"} and isinstance(obj["error"], dict):
            return {"error": {"code": obj["error"].get("code")}}
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_normalize(v) for v in obj]
    return obj


def response_digest(code, obj) -> str:
    """Exit code plus the JSON payload; error messages and float noise below 1e-9 ignored."""
    return digest(f"{code}|" + json.dumps(_normalize(obj), sort_keys=True, separators=(",", ":")))


def call_cli(argv) -> tuple:
    """(exit code or exception name, stdout) of one in-process request."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except Exception as err:  # a traceback is a contract breach, recorded as such
        code = type(err).__name__
    return code, buf.getvalue()


def judge(code, stdout):
    """The JSON payload of a response that keeps the CLI contract, else None."""
    if code not in (0, 2, 3, 4):
        return None
    try:
        obj = json.loads(stdout)
    except ValueError:
        return None
    if isinstance(obj, dict) and obj.get("pass") is True and obj.get("checked") == 0:
        return None
    return obj


class CliRequests:
    name = "cli_requests"

    def inputs(self, seed, job, tiny):
        cat = catalogue()
        rng = job_rng(seed, job, "cli")
        picked = []
        offset = 0
        for template, n in MIX.items():
            chosen = rng.sample(range(len(cat[template])), 1 if tiny else n)
            picked += [(offset + i, template, cat[template][i]) for i in chosen]
            offset += len(cat[template])
        rng.shuffle(picked)
        return {"requests": picked, "fingerprint": catalogue_fingerprint(cat)}

    def run(self, inp, tracer):
        responses = []
        with Timer() as t:
            for _, _, argv in inp["requests"]:
                responses.append(t.op(call_cli, argv))
        tracer.count("serialize.bytes_out", sum(len(out) for _, out in responses))
        breaches = sum(judge(*call_cli(argv)) is None for argv in CONTRACT_PROBES)
        tracer.count("cli.contract_breaches", breaches)
        report = t.report(len(responses), responses)
        report["contract_breaches"] = breaches
        return report

    def expected(self, inp, pins):
        table = pins["cli_requests"]
        if table["fingerprint"] != inp["fingerprint"]:
            raise ValueError("pins.json does not match the request catalogue; rerun pin.py")
        return [table["digests"][index] for index, _, _ in inp["requests"]]

    def check(self, inp, out, expected):
        failed = set()
        for k, ((_, template, _), (code, stdout), want) in enumerate(zip(inp["requests"], out, expected)):
            obj = judge(code, stdout)
            if obj is None or response_digest(code, obj) != want:
                failed.add(k)
            elif template == "malformed" and code != 2:
                failed.add(k)
        return failed


WORKLOADS = {w.name: w for w in (GraphBuild(), DepthSweep(), VerifyBattery(), CliRequests())}
