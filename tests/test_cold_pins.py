"""The CLI and scripts pinned in cold processes: each row runs in a fresh
`python` process and pins its exit code, an empty stderr and its stdout.

A row is (argv after `python`, exit code, expected stdout).  The expected
stdout is one of
- its exact text, less the one newline the CLI writes after it;
- "sha256:<hex>", the digest of stdout as printed;
- "prefix:<text>", the start of stdout;
- "sha256-no-params:<hex>", the digest of the graph JSON with its params
  deleted, dumped with sorted keys and a newline;
- None, where stdout is not checked.
Every row runs under one timeout of TIMEOUT_S seconds.
"""

import hashlib
import json
from pathlib import Path

import pytest

from test_cli import run_cold

TIMEOUT_S = 60
ROOT = Path(__file__).resolve().parents[1]
# replaced by the path of a params file that is not UTF-8
NOT_UTF8 = "<not-utf8 params file>"


def cli(*args):
    return ("-m", "signcrystal", *args)


def script(name, *args):
    return (str(ROOT / "scripts" / name), *args)


def params(ell, kappa, charges):
    return json.dumps({"ell": ell, "kappa": kappa, "charges": charges})


def labels(label):
    """`label` as a JSON list with no spaces."""
    return str(label).replace(" ", "")


P = '{"ell":1,"kappa":{"num":1,"den":2},"charges":[0]}'
P2 = '{"ell":2,"kappa":{"num":1,"den":3},"charges":[0,1]}'
P3 = '{"ell":3,"kappa":{"num":1,"den":3},"charges":[0,1,2]}'
PI = '{"ell":3,"kappa":"irrational","charges":[0,1,2]}'
PN = '{"ell":2,"kappa":{"num":-2,"den":5},"charges":[0,3]}'
PH = '{"ell":1,"kappa":"irrational","charges":[0]}'
P1000 = params(1000, "irrational", [0] * 1000)
N = "9" * 4300

PINS = [
    # the scripts run to the end
    (script("verify_all.py"), 0, None),
    (script("depth_survey.py", "--kappa", "irrational", "--charges", "0,1", "--max-boxes", "4"),
     0, None),
    # a suite's own flags pass, a flag it does not take exits 2
    (cli("verify", "--suite", "axioms", "--n", "4"), 0, None),
    (cli("verify", "--suite", "axioms", "--n", "4", "--trials", "3"), 2, None),
    # the README's reduce example
    (cli("reduce", "--string", "-+"), 0,
     '{"h_minus": 0, "h_plus": 0, "reduced": "00", "weight": 0}'),
    # importing the package loads no submodule until a name is used
    (("-c", "import signcrystal, sys; assert 'signcrystal.engine' not in sys.modules"), 0, None),
    # the README's boundary and class-member examples
    (cli("boundary", "--params", P, "--mp", "[[2]]", "--class", '{"residue":1}'), 0,
     '{"class": {"residue": 1}, "entries": [{"box": {"c": 0, "col": 1, "row": 2}, "kind": '
     '"addable", "sign": "+"}, {"box": {"c": 0, "col": 2, "row": 1}, "kind": "removable", '
     '"sign": "-"}], "sign": "+-"}'),
    (cli("class-member", "--params", P, "--mp", "[[2]]", "--class", '{"residue":1}',
         "--string", "--"), 0,
     '{"result": [[2, 1]]}'),
    # a small graph, JSON and DOT
    (cli("graph", "--params", P, "--max-boxes", "2", "--format", "json"), 0,
     '{"classes": "all", "edges": [{"box": {"c": 0, "col": 1, "row": 1}, "class": {"residue": '
     '0}, "source": 0, "target": 1}, {"box": {"c": 0, "col": 2, "row": 1}, "class": '
     '{"residue": 1}, "source": 1, "target": 3}], "max_boxes": 2, "nodes": [[[]], [[1]], '
     '[[1, 1]], [[2]]], "params": {"charges": [0], "ell": 1, "kappa": {"den": 2, "num": 1}}}'),
    (cli("graph", "--params", P, "--max-boxes", "2", "--format", "dot"), 0,
     "digraph crystal {\n"
     '  n0 [label="[[]]"];\n'
     '  n1 [label="[[1]]"];\n'
     '  n2 [label="[[1,1]]"];\n'
     '  n3 [label="[[2]]"];\n'
     '  n0 -> n1 [label="z=0 mod 2, box=(0,1,1)"];\n'
     '  n1 -> n3 [label="z=1 mod 2, box=(0,1,2)"];\n'
     "}"),
    # a one-class graph builds only that class
    (cli("graph", "--params", P, "--max-boxes", "2", "--z", '{"residue":0}'), 0,
     '{"classes": [{"residue": 0}], "edges": [{"box": {"c": 0, "col": 1, "row": 1}, "class": '
     '{"residue": 0}, "source": 0, "target": 1}], "max_boxes": 2, "nodes": [[[]], [[1]], '
     '[[1, 1]], [[2]]], "params": {"charges": [0], "ell": 1, "kappa": {"den": 2, "num": 1}}}'),
    # graphs and depths read the merged class words
    (cli("graph", "--params", P3, "--max-boxes", "4"), 0,
     "sha256:5f409e5d7ee4c1f05e512850b646ec92b8b2922ea3cd6dd13cb5eb648584904f"),
    (cli("graph", "--params", '{"ell":2,"kappa":"irrational","charges":[0,1]}',
         "--max-boxes", "4", "--format", "dot"), 0,
     "sha256:2530420bb9a8120257ef61a4dfc8da1b8cfce5f2d1a5c1ef3096706557ce198c"),
    (cli("depth", "--params", P3, "--mp", "[[3,1],[2],[1,1]]"), 0, '{"depth": 8}'),
    (cli("depth", "--params", params(20, "irrational", [0] * 20), "--mp", labels([[20]] * 20)),
     0, '{"depth": 400}'),
    # the operators and the two boundary suites read merged class words
    (cli("fock-op", "--op", "add", "--params", P, "--mp", "[[2]]", "--class", '{"residue":1}'),
     0, '{"box": {"c": 0, "col": 1, "row": 2}, "result": [[2, 1]]}'),
    (cli("fock-op", "--op", "remove", "--params", P, "--mp", "[[2]]", "--class",
         '{"residue":1}'), 0,
     '{"box": {"c": 0, "col": 2, "row": 1}, "result": [[1]]}'),
    (cli("kgroup", "--op", "induction", "--params", P2, "--mp", "[[2,1],[1]]", "--class",
         '{"residue":2}'), 0,
     '{"results": [[[2, 1], [2]], [[3, 1], [1]]]}'),
    (cli("kgroup", "--op", "restriction", "--params", P2, "--mp", "[[2,1],[1]]", "--class",
         '{"residue":1}'), 0,
     '{"results": [[[2, 1], []], [[1, 1], [1]]]}'),
    (cli("gl-op", "--op", "remove", "--weight", "[5,3,1]", "--i", "2", "--p", "3"), 0,
     '{"result": [5, 2, 1]}'),
    (cli("verify", "--suite", "boundary_invariance", "--params", P2, "--max-boxes", "5"), 0,
     '{"bounds": {"max_boxes": 5, "params": {"charges": [0, 1], "ell": 2, "kappa": {"den": 3, '
     '"num": 1}}}, "checked": 284, "counterexample": null, "pass": true, '
     '"suite": "boundary_invariance"}'),
    (cli("verify", "--suite", "realization_consistency", "--params", PI, "--max-boxes", "5"), 0,
     '{"bounds": {"max_boxes": 5, "params": {"charges": [0, 1, 2], "ell": 3, "kappa": '
     '"irrational"}}, "checked": 992, "counterexample": null, "pass": true, '
     '"suite": "realization_consistency"}'),
    # params, in a process that loads no engine
    (cli("params", "--params", P), 0,
     '{"charges": [0], "cyclotomic_c": {"approx": true, "c0": {"den": 2, "num": -1}, "rest": '
     '[]}, "e": 2, "ell": 1, "hecke": {"Q": [{"im": 0.0, "re": 1.0}], "approx": true, "q": '
     '{"im": 0.0, "re": -1.0}}, "kappa": {"den": 2, "num": 1}}'),
    # cyclotomic_c sums (ell - 1)^2 terms: ell = 1416 passes the ceiling before any work
    (cli("params", "--params", params(1416, {"num": 1, "den": 2}, [0] * 1416)), 4, None),
    # the README's remaining examples
    (cli("support", "--params", P, "--mp", "[[1,1]]"), 0,
     '{"e": 2, "i": 0, "j": "undetermined", "j_range": [0, 1], "n": 2}'),
    (cli("depth", "--params", P, "--mp", "[[2,1]]"), 0, '{"depth": 3}'),
    (cli("string-op", "--op", "compare", "--string", "+-", "--other", "-+"), 0,
     '{"relation": "first"}'),
    (cli("string-op", "--op", "e", "--string", "-++"), 0, '{"index": 3, "result": "-+-"}'),
    (cli("gl-op", "--op", "remove", "--weight", "[5,4,2]", "--i", "1", "--p", "3"), 0,
     '{"result": [5, 4, 1]}'),
    # both kinds of kappa through the one corner formula
    (cli("boundary", "--params", PI, "--mp", "[[1],[1],[]]", "--class", '{"content":1}'), 0,
     '{"class": {"content": 1}, "entries": [{"box": {"c": 1, "col": 1, "row": 1}, "kind": '
     '"removable", "sign": "-"}, {"box": {"c": 0, "col": 2, "row": 1}, "kind": "addable", '
     '"sign": "+"}], "sign": "-+"}'),
    (cli("verify", "--suite", "boundary_invariance", "--params", PI, "--max-boxes", "5"), 0,
     '{"bounds": {"max_boxes": 5, "params": {"charges": [0, 1, 2], "ell": 3, "kappa": '
     '"irrational"}}, "checked": 999, "counterexample": null, "pass": true, '
     '"suite": "boundary_invariance"}'),
    (cli("graph", "--params", PN, "--max-boxes", "5"), 0,
     "sha256:8be7281466a366e095f5853e93d327e2d5b2cd8f684b4b348c14be79331bddff"),
    # the class order reads e and the sign of kappa, never |kappa|: kappa 1/3
    # and 100/3 print the same nodes and edges
    *(
        (cli("graph", "--params", f'{{"ell":2,"kappa":{kappa},"charges":[0,1]}}',
             "--max-boxes", "4"), 0,
         "sha256-no-params:70c39851b43761dfada8606d3c0eadea1dcd0b91bc73edb643d630ffe8c9dba2")
        for kappa in ('{"num":1,"den":3}', '{"num":100,"den":3}')
    ),
    # the dominant-weight word, mod p and exact
    (cli("gl-op", "--op", "sign", "--weight", "[3,0,-1]", "--i", "5", "--p", "3"), 0,
     '{"positions": [1, 2, 3], "sign": "--+"}'),
    (cli("gl-op", "--op", "remove", "--weight", "[3,0,-1]", "--i", "5", "--p", "3"), 0,
     '{"result": [2, 0, -1]}'),
    (cli("gl-op", "--op", "sign", "--weight", "[9,7,3,-2]", "--i", "7", "--p", "0"), 0,
     '{"positions": [2], "sign": "+"}'),
    # positions and sign come from one word: a 61-bit prime p is decided once
    (cli("gl-op", "--op", "positions", "--weight", "[5,4,2]", "--i", "1",
         "--p", "2305843009213693951"), 0,
     '{"positions": [3]}'),
    # the label readers' first errors
    (cli("gl-op", "--op", "sign", "--weight", "[5,4,2]", "--i", "1", "--p", "1"), 2,
     '{"error": {"code": "VALIDATION", "message": "characteristic must be 0 or a prime, got 1"}}'),
    (cli("class-member", "--params", P, "--mp", "[[2]]", "--class", '{"content":1}',
         "--string=--"), 2,
     '{"error": {"code": "VALIDATION", "message": "rational kappa indexes classes by residue, '
     'not content"}}'),
    (cli("reduce"), 2,
     '{"error": {"code": "VALIDATION", "message": "--string is required for this command"}}'),
    # a JSON true is never an integer: each reader's first error
    (cli("params", "--params", '{"ell":true,"kappa":{"num":1,"den":2},"charges":[0]}'), 2,
     '{"error": {"code": "VALIDATION", "location": "params.ell", '
     '"message": "ell must be an integer"}}'),
    (cli("params", "--params", '{"kappa":{"num":1,"den":2},"charges":[false]}'), 2,
     '{"error": {"code": "VALIDATION", "location": "params.charges", '
     '"message": "charges must be a list of integers"}}'),
    (cli("params", "--params", '{"kappa":{"num":true,"den":2},"charges":[0]}'), 2,
     '{"error": {"code": "VALIDATION", "location": "params.kappa", '
     '"message": "kappa needs integer num and nonzero integer den"}}'),
    (cli("depth", "--params", P, "--mp", "[[true]]"), 2,
     '{"error": {"code": "VALIDATION", "message": "partition rows must be integers, got True"}}'),
    (cli("boundary", "--params", P, "--mp", "[[2]]", "--class", '{"residue":true}'), 2,
     r'{"error": {"code": "VALIDATION", "location": "class", "message": "class must be '
     r'{\"residue\": r} or {\"content\": c} with an integer value"}}'),
    (cli("gl-op", "--op", "sign", "--weight", "[true,0]", "--i", "1", "--p", "3"), 2,
     '{"error": {"code": "VALIDATION", "message": "weight entries must be integers, got True"}}'),
    # flips write len(t) symbols per flip: 1414 '+' pass the ceiling, 1415 exit 4
    (cli("string-op", "--op", "plus-flips", "--string", "+" * 1414), 0, None),
    (cli("string-op", "--op", "plus-flips", "--string", "+" * 1415), 4, None),
    # the word, confluence and depth_irrational budgets exit 4 with their messages
    (cli("verify", "--suite", "axioms", "--n", "15"), 4,
     '{"error": {"code": "RESOURCE_CEILING", "message": "2^15 words exceed the ceiling 16384; '
     'raise it explicitly to proceed"}}'),
    (cli("verify", "--suite", "confluence", "--n", "20", "--trials", "1"), 4,
     '{"error": {"code": "RESOURCE_CEILING", "message": "confluence would rewrite every word up '
     'to length 20 x 1 trials, above the ceiling 2000000; raise it explicitly to proceed"}}'),
    (cli("verify", "--suite", "depth_irrational", "--max-boxes", "8", "--ceiling", "10"), 4,
     '{"error": {"code": "RESOURCE_CEILING", "message": "depth_irrational would visit more '
     'than 10 labels; raise the ceiling to proceed"}}'),
    # the README's two confluence runs pass: 2047 words x 100 trials share each
    # word's rewrites, and 65535 words x 1 trial stay under the default ceiling
    (cli("verify", "--suite", "confluence", "--n", "10", "--trials", "100", "--seed", "0"), 0,
     '{"bounds": {"n": 10, "seed": 0, "trials": 100}, "checked": 204700, '
     '"counterexample": null, "pass": true, "suite": "confluence"}'),
    (cli("verify", "--suite", "confluence", "--n", "15", "--trials", "1"), 0,
     '{"bounds": {"n": 15, "seed": 0, "trials": 1}, "checked": 65535, '
     '"counterexample": null, "pass": true, "suite": "confluence"}'),
    # gl_realization steps every case weight with no dominance guard and
    # passes: at p = 2 every entry is in the word, at p = 0 only the entries
    # at i and i + 1
    (cli("verify", "--suite", "gl_realization", "--n", "3", "--p", "2", "--entry-bound", "6"),
     0,
     '{"bounds": {"entry_bound": 6, "n": 3, "p": 2}, "checked": 70, "counterexample": null, '
     '"pass": true, "suite": "gl_realization"}'),
    (cli("verify", "--suite", "gl_realization", "--n", "3", "--p", "0", "--entry-bound", "6"),
     0,
     '{"bounds": {"entry_bound": 6, "n": 3, "p": 0}, "checked": 280, "counterexample": null, '
     '"pass": true, "suite": "gl_realization"}'),
    # gl_realization checks its characteristic before its budget: a composite p exits 2
    (cli("verify", "--suite", "gl_realization", "--p", "100000000000000000000"), 2,
     '{"error": {"code": "VALIDATION", "message": "characteristic must be 0 or a prime, '
     'got 100000000000000000000"}}'),
    # p = 0 counts its classes in closed form: a huge --entry-bound exits 4
    (cli("verify", "--suite", "gl_realization", "--p", "0",
         "--entry-bound", "100000000000000000000", "--n", "1"), 4,
     '{"error": {"code": "RESOURCE_CEILING", "message": "gl_realization would run more than '
     '2000000 checks; raise the ceiling to proceed"}}'),
    # n above the weight count checks nothing, before any weight is formed
    (cli("verify", "--suite", "gl_realization", "--n", "9223372036854775807"), 2,
     '{"error": {"code": "VALIDATION", "message": "suite \'gl_realization\' checks nothing '
     "under the bounds {'n': 9223372036854775807, 'p': 3, 'entry_bound': 6}\"}}"),
    (cli("verify", "--suite", "gl_realization", "--n", "9223372036854775808"), 2,
     '{"error": {"code": "VALIDATION", "message": "suite \'gl_realization\' checks nothing '
     "under the bounds {'n': 9223372036854775808, 'p': 3, 'entry_bound': 6}\"}}"),
    # kgroup charges results x ell before it builds: 2000 additions of 2000 components exit 4
    (cli("kgroup", "--op", "induction", "--params", params(2000, "irrational", [0] * 2000),
         "--mp", labels([[]] * 2000), "--class", '{"content":0}'), 4, None),
    # recursion depth in a cold process differs from a pytest process
    (cli("graph", "--params", P1000, "--max-boxes", "0"), 0, None),
    # graph charges each node its ell components: 1001 nodes at one box build, two boxes exit 4
    (cli("graph", "--params", P1000, "--max-boxes", "1"), 0, None),
    (cli("graph", "--params", P1000, "--max-boxes", "2"), 4, None),
    # boundary_invariance charges checks times corners: ell = 1000 hits the ceiling within seconds
    (cli("verify", "--suite", "boundary_invariance", "--params", P1000, "--max-boxes", "1"),
     4, None),
    # realization_consistency charges each check corners plus class size squared:
    # ell = 1000 exits 4 at once
    (cli("verify", "--suite", "realization_consistency", "--params", P1000, "--max-boxes", "1"),
     4, None),
    # depth charges each step its corners: 1000 rows of length 1000 hit the ceiling within seconds
    (cli("depth", "--params", P1000, "--mp", labels([[1000]] * 1000)), 4, None),
    # results and messages longer than Python's 4,300-digit int limit print
    # in full; a 4,301-digit input still exits 2
    (cli("gl-op", "--op", "add", "--weight", f"[{N}]", "--i", "4", "--p", "5"), 0,
     "sha256:89b88708ef34a12bd0d7a96c64002a4e3328e0f69c33f4ccb24ddccd368e2ac7"),
    (cli("boundary", "--params", P, "--mp", f"[[{N}]]", "--class", '{"residue":1}'), 0,
     "sha256:431422b1a7c1f1d55794f263999364bcce7e5c893012fd2df54a5617b858e0ce"),
    (cli("fock-op", "--op", "add", "--params", PH, "--mp", f"[[{N}]]",
         "--class", f'{{"content":{N}}}'), 0,
     "sha256:94d5668a8041b98276ac0c59d03cb7b9dc7f3ed3d18d77d19d0eb36da9b327f2"),
    (cli("depth", "--params", P, "--mp", f"[[{N},{N}]]"), 4,
     "sha256:0886c36c99a41a21b90e83277cbcd9f9bf7fef597d066371a29371bb2e1ae2f8"),
    (cli("support", "--params", P, "--mp", f"[[{N},{N}]]"), 4,
     "sha256:0886c36c99a41a21b90e83277cbcd9f9bf7fef597d066371a29371bb2e1ae2f8"),
    (cli("depth", "--params", P, "--mp", f"[[{N}9]]"), 2,
     'prefix:{"error": {"code": "VALIDATION", "location": "mp", "message": "invalid JSON for mp: '),
    # a params file that is not UTF-8 exits 2
    (cli("depth", "--params", NOT_UTF8, "--mp", "[[1]]"), 2, None),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _without_params(stdout):
    graph = json.loads(stdout)
    del graph["params"]
    return json.dumps(graph, sort_keys=True) + "\n"


def _stdout_matches(stdout, expected):
    if expected is None:
        return True
    tag, _, rest = expected.partition(":")
    if tag == "sha256":
        return _sha256(stdout) == rest
    if tag == "sha256-no-params":
        return _sha256(_without_params(stdout)) == rest
    if tag == "prefix":
        return stdout.startswith(rest)
    return stdout == expected + "\n"


def _pin_id(index, argv):
    if argv[0] == "-m":
        name = argv[2]
    elif argv[0] == "-c":
        name = "import"
    else:
        name = Path(argv[0]).stem
    return f"{index:02d}-{name}"


@pytest.mark.parametrize(
    "argv, code, expected", PINS, ids=[_pin_id(i, argv) for i, (argv, _, _) in enumerate(PINS)]
)
def test_pin(argv, code, expected, tmp_path):
    if NOT_UTF8 in argv:
        path = tmp_path / "not-utf8.json"
        path.write_bytes(b"\xff\xfe")
        argv = tuple(str(path) if arg == NOT_UTF8 else arg for arg in argv)
    done = run_cold(*argv, timeout=TIMEOUT_S)
    assert done.returncode == code
    assert done.stderr == ""
    assert _stdout_matches(done.stdout, expected), done.stdout[:500]

