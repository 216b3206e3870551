import contextlib
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from signcrystal import cli, engine, errors
from signcrystal.engine import VerifyReport
from test_realizations import count_gl_reads

PARAMS_HALF = '{"ell":1,"kappa":{"num":1,"den":2},"charges":[0]}'
PARAMS_IRR = '{"ell":2,"kappa":"irrational","charges":[0,1]}'
SRC = str(Path(cli.__file__).resolve().parents[1])


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args)
    return code, json.loads(out)


def run_cold(*args, timeout=None):
    """`python *args` in a fresh process that imports the package from SRC;
    past `timeout` seconds it is killed and subprocess.TimeoutExpired raised."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def contains_float(value):
    if isinstance(value, float):
        return True
    if isinstance(value, dict):
        return any(contains_float(v) for v in value.values())
    if isinstance(value, list):
        return any(contains_float(v) for v in value)
    return False


class TestReduce:
    def test_example_exact_payload(self, capsys):
        code, data = run_json(capsys, "reduce", "--string", "-+")
        assert code == 0
        assert data == {"reduced": "00", "h_plus": 0, "h_minus": 0, "weight": 0}

    def test_equals_form(self, capsys):
        code, data = run_json(capsys, "reduce", "--string=-++")
        assert code == 0
        assert data["reduced"] == "00+"

    def test_empty_word(self, capsys):
        code, data = run_json(capsys, "reduce", "--string=")
        assert code == 0
        assert data == {"reduced": "", "h_plus": 0, "h_minus": 0, "weight": 0}

    def test_bad_symbol(self, capsys):
        code, data = run_json(capsys, "reduce", "--string", "+x")
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"


class TestStringOp:
    def test_raise(self, capsys):
        code, data = run_json(capsys, "string-op", "--op", "e", "--string", "-++")
        assert code == 0
        assert data == {"result": "-+-", "index": 3}

    def test_lower_absent(self, capsys):
        code, data = run_json(capsys, "string-op", "--op", "f", "--string", "++")
        assert code == 0
        assert data == {"result": None, "index": None}

    def test_suffix(self, capsys):
        code, data = run_json(capsys, "string-op", "--op", "suffix-h", "--string", "-+-", "--k", "2")
        assert code == 0
        assert data == {"h_minus": 1}

    def test_compare(self, capsys):
        code, data = run_json(capsys, "string-op", "--op", "compare", "--string", "+-", "--other", "-+")
        assert code == 0
        assert data == {"relation": "first"}

    def test_plus_flips(self, capsys):
        code, data = run_json(capsys, "string-op", "--op", "plus-flips", "--string", "+-+")
        assert code == 0
        assert data == {
            "flips": [{"index": 1, "string": "--+"}, {"index": 3, "string": "+--"}]
        }

    @pytest.mark.parametrize("op, sym", [("plus-flips", "+"), ("minus-flips", "-")])
    def test_flips_ceiling(self, capsys, op, sym):
        code, data = run_json(capsys, "string-op", "--op", op, "--string", sym * 1414)
        assert code == 0 and len(data["flips"]) == 1414
        code, data = run_json(capsys, "string-op", "--op", op, "--string", sym * 1415)
        assert code == 4
        assert data["error"]["code"] == "RESOURCE_CEILING"

    def test_missing_k(self, capsys):
        code, data = run_json(capsys, "string-op", "--op", "suffix-h", "--string", "-")
        assert code == 2


class TestBoundary:
    def test_payload(self, capsys):
        code, data = run_json(
            capsys,
            "boundary",
            "--params", PARAMS_HALF,
            "--mp", "[[2]]",
            "--class", '{"residue":1}',
        )
        assert code == 0
        assert data == {
            "class": {"residue": 1},
            "entries": [
                {"box": {"c": 0, "row": 2, "col": 1}, "kind": "addable", "sign": "+"},
                {"box": {"c": 0, "row": 1, "col": 2}, "kind": "removable", "sign": "-"},
            ],
            "sign": "+-",
        }

    def test_no_floats_outside_params_command(self, capsys):
        _, data = run_json(
            capsys, "boundary", "--params", PARAMS_HALF, "--mp", "[[2]]", "--class", '{"residue":1}'
        )
        assert not contains_float(data)


class TestFockOp:
    def test_remove_example_exact_payload(self, capsys):
        code, data = run_json(
            capsys,
            "fock-op", "--op", "remove",
            "--params", PARAMS_HALF,
            "--mp", "[[2]]",
            "--class", '{"residue":1}',
        )
        assert code == 0
        assert data == {"result": [[1]], "box": {"c": 0, "row": 1, "col": 2}}

    def test_absent(self, capsys):
        code, data = run_json(
            capsys,
            "fock-op", "--op", "add",
            "--params", PARAMS_HALF,
            "--mp", "[[1,1]]",
            "--class", '{"residue":1}',
        )
        assert code == 0
        assert data == {"result": None, "box": None}

    def test_wrapped_mp_accepted(self, capsys):
        code, data = run_json(
            capsys,
            "fock-op", "--op", "remove",
            "--params", PARAMS_HALF,
            "--mp", '{"components":[[2]]}',
            "--class", '{"residue":1}',
        )
        assert code == 0
        assert data["result"] == [[1]]


class TestKGroupAndClassMember:
    def test_induction(self, capsys):
        code, data = run_json(
            capsys,
            "kgroup", "--op", "induction",
            "--params", PARAMS_HALF, "--mp", "[[2]]", "--class", '{"residue":1}',
        )
        assert code == 0
        assert data == {"results": [[[2, 1]]]}

    def test_restriction_empty(self, capsys):
        code, data = run_json(
            capsys,
            "kgroup", "--op", "restriction",
            "--params", PARAMS_HALF, "--mp", "[[2]]", "--class", '{"residue":0}',
        )
        assert code == 0
        assert data == {"results": []}

    def test_class_member(self, capsys):
        code, data = run_json(
            capsys,
            "class-member",
            "--params", PARAMS_HALF, "--mp", "[[2]]", "--class", '{"residue":1}',
            "--string", "--",
        )
        assert code == 0
        assert data == {"result": [[2, 1]]}

    def test_class_member_undeclared_sign_flag(self, capsys):
        # --other is string-op's alone: class-member exits 2 on it
        code, data = run_json(
            capsys,
            "class-member",
            "--params", PARAMS_HALF, "--mp", "[[2]]", "--class", '{"residue":1}',
            "--string", "--", "--other", "-+",
        )
        assert code == 2
        assert data["error"] == {
            "code": "VALIDATION",
            "location": "argv",
            "message": "unrecognized arguments: --other -+",
        }


class TestGlOp:
    def test_sign(self, capsys):
        code, data = run_json(
            capsys, "gl-op", "--op", "sign", "--weight", "[5,4,2]", "--i", "1", "--p", "3"
        )
        assert code == 0
        assert data == {"positions": [1, 2, 3], "sign": "-+-"}

    def test_remove(self, capsys):
        code, data = run_json(
            capsys, "gl-op", "--op", "remove", "--weight", "[5,4,2]", "--i", "1", "--p", "3"
        )
        assert code == 0
        assert data == {"result": [5, 4, 1]}

    def test_add_absent(self, capsys):
        code, data = run_json(
            capsys, "gl-op", "--op", "add", "--weight", "[5,4,2]", "--i", "1", "--p", "3"
        )
        assert code == 0
        assert data == {"result": None}

    def test_rejects_non_prime(self, capsys):
        code, data = run_json(
            capsys, "gl-op", "--op", "sign", "--weight", "[5,4,2]", "--i", "1", "--p", "4"
        )
        assert code == 2

    def test_large_prime(self, capsys):
        start = time.perf_counter()
        code, data = run_json(
            capsys, "gl-op", "--op", "add", "--weight", "[5,4,2]", "--i", "1",
            "--p", "2305843009213693951",
        )
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert data == {"result": None}

    def test_rejects_non_list_weight(self, capsys):
        code, out = run_cli(capsys, "gl-op", "--op", "sign", "--weight", "5", "--i", "1", "--p", "3")
        assert code == 2
        assert json.loads(out) == {
            "error": {
                "code": "VALIDATION",
                "location": "weight",
                "message": "weight must be a JSON list of integers",
            }
        }

    def test_sign_reads_one_word(self, capsys, monkeypatch):
        reads = count_gl_reads(monkeypatch)
        code, data = run_json(
            capsys, "gl-op", "--op", "sign", "--weight", "[5,4,2]", "--i", "1", "--p", "3"
        )
        assert (code, data) == (0, {"positions": [1, 2, 3], "sign": "-+-"})
        assert len(reads) == 1

    def test_rejects_non_dominant(self, capsys):
        code, data = run_json(
            capsys, "gl-op", "--op", "sign", "--weight", "[2,2]", "--i", "1", "--p", "3"
        )
        assert code == 2


class TestDepthSupport:
    def test_depth(self, capsys):
        code, data = run_json(
            capsys, "depth",
            "--params", '{"ell":1,"kappa":"irrational","charges":[0]}',
            "--mp", "[[2,1]]",
        )
        assert code == 0
        assert data == {"depth": 3}

    def test_depth_long_row(self, capsys):
        code, data = run_json(capsys, "depth", "--params", PARAMS_HALF, "--mp", "[[1200]]")
        assert code == 0
        assert data == {"depth": 1200}

    def test_depth_ceiling(self, capsys):
        start = time.perf_counter()
        code, data = run_json(capsys, "depth", "--params", PARAMS_HALF, "--mp", "[[2000001]]")
        assert time.perf_counter() - start < 1.0
        assert code == 4
        assert data["error"]["code"] == "RESOURCE_CEILING"

    def test_depth_mismatched_label_before_ceiling(self, capsys):
        # the component count is checked before the size ceiling: exit 2, not 4
        code, data = run_json(capsys, "depth", "--params", PARAMS_HALF, "--mp", "[[2000001],[]]")
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"
        assert "multipartition has 2 components, parameters expect 1" in data["error"]["message"]

    def test_support_finite_e(self, capsys):
        code, data = run_json(capsys, "support", "--params", PARAMS_HALF, "--mp", "[[1,1]]")
        assert code == 0
        assert data == {"n": 2, "e": 2, "i": 0, "j": "undetermined", "j_range": [0, 1]}

    def test_support_infinite_e(self, capsys):
        code, data = run_json(
            capsys, "support", "--params", PARAMS_IRR, "--mp", "[[1],[]]"
        )
        assert code == 0
        assert data == {"n": 1, "e": "infinity", "i": 1, "j": 0}


# the most digits Python lets a JSON input integer have, and what grows past it
BIG_INPUT = "9" * 4300
BIG_INPUT_PLUS_1 = "1" + "0" * 4300
TWICE_BIG_INPUT = "1" + "9" * 4299 + "8"


class TestLargeIntegers:
    """Inputs keep Python's 4,300-digit limit; the CLI prints a result or a
    message of any length, never a traceback."""

    def test_gl_op_result(self, capsys):
        argv = ["gl-op", "--op", "add", "--weight", f"[{BIG_INPUT}]", "--i", "4", "--p", "5"]
        assert run_cli(capsys, *argv) == (0, f'{{"result": [{BIG_INPUT_PLUS_1}]}}\n')

    def test_boundary_column(self, capsys):
        code, out = run_cli(
            capsys, "boundary", "--params", PARAMS_HALF, "--mp", f"[[{BIG_INPUT}]]",
            "--class", '{"residue":1}',
        )
        assert code == 0
        assert out == (
            '{"class": {"residue": 1}, "entries": [{"box": {"c": 0, "col": 1, "row": 2}, '
            '"kind": "addable", "sign": "+"}, {"box": {"c": 0, "col": ' + BIG_INPUT_PLUS_1
            + ', "row": 1}, "kind": "addable", "sign": "+"}], "sign": "++"}\n'
        )

    def test_fock_op_result(self, capsys):
        code, out = run_cli(
            capsys, "fock-op", "--op", "add",
            "--params", '{"ell":1,"kappa":"irrational","charges":[0]}',
            "--mp", f"[[{BIG_INPUT}]]", "--class", f'{{"content":{BIG_INPUT}}}',
        )
        assert code == 0
        assert out == (
            f'{{"box": {{"c": 0, "col": {BIG_INPUT_PLUS_1}, "row": 1}}, '
            f'"result": [[{BIG_INPUT_PLUS_1}]]}}\n'
        )

    @pytest.mark.parametrize("command", ["depth", "support"])
    def test_depth_ceiling_message(self, capsys, command):
        code, data = run_json(
            capsys, command, "--params", PARAMS_HALF, "--mp", f"[[{BIG_INPUT},{BIG_INPUT}]]"
        )
        assert code == 4
        assert data == {
            "error": {
                "code": "RESOURCE_CEILING",
                "message": f"depth walks up to {TWICE_BIG_INPUT} steps, above the ceiling 2000000",
            }
        }

    def test_graph_dot_content(self, capsys):
        # the DOT text is rendered inside main's lifted limit, as JSON is
        code, out = run_cli(
            capsys, "graph",
            "--params", f'{{"ell":1,"kappa":"irrational","charges":[{BIG_INPUT}]}}',
            "--max-boxes", "2", "--format", "dot",
        )
        assert code == 0
        assert out == (
            "digraph crystal {\n"
            '  n0 [label="[[]]"];\n'
            '  n1 [label="[[1]]"];\n'
            '  n2 [label="[[1,1]]"];\n'
            '  n3 [label="[[2]]"];\n'
            f'  n0 -> n1 [label="z=cont {BIG_INPUT}, box=(0,1,1)"];\n'
            f'  n1 -> n2 [label="z=cont {"9" * 4299}8, box=(0,2,1)"];\n'
            f'  n1 -> n3 [label="z=cont {BIG_INPUT_PLUS_1}, box=(0,1,2)"];\n'
            "}\n"
        )

    def test_input_past_the_limit_is_rejected(self, capsys):
        code, data = run_json(capsys, "depth", "--params", PARAMS_HALF, "--mp", f"[[{BIG_INPUT}9]]")
        assert code == 2
        assert (data["error"]["code"], data["error"]["location"]) == ("VALIDATION", "mp")


class TestGraph:
    def test_json_deterministic(self, capsys):
        args = ("graph", "--params", PARAMS_HALF, "--max-boxes", "3")
        code1, out1 = run_cli(capsys, *args)
        code2, out2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        data = json.loads(out1)
        assert data["nodes"][0] == [[]]
        assert all(set(e) == {"source", "target", "class", "box"} for e in data["edges"])

    def test_single_class(self, capsys):
        code, data = run_json(
            capsys, "graph", "--params", PARAMS_HALF, "--max-boxes", "3", "--z", '{"residue":0}'
        )
        assert code == 0
        assert data["classes"] == [{"residue": 0}]
        assert all(e["class"] == {"residue": 0} for e in data["edges"])

    def test_dot(self, capsys):
        code, out = run_cli(
            capsys, "graph", "--params", PARAMS_HALF, "--max-boxes", "2", "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph crystal {")
        assert 'n0 [label="[[]]"];' in out
        assert 'box=(0,1,1)' in out
        assert "z=0 mod 2" in out

    def test_many_components(self, capsys):
        # more components than the default recursion limit of 1000
        p = json.dumps({"ell": 1500, "kappa": "irrational", "charges": [0] * 1500})
        code, data = run_json(capsys, "graph", "--params", p, "--max-boxes", "0")
        assert code == 0
        assert data["nodes"] == [[[]] * 1500] and data["edges"] == []

    def test_ceiling(self, capsys):
        code, data = run_json(
            capsys, "graph", "--params", PARAMS_HALF, "--max-boxes", "6", "--ceiling", "3"
        )
        assert code == 4
        assert data["error"]["code"] == "RESOURCE_CEILING"
        code, data = run_json(
            capsys, "graph", "--params", PARAMS_HALF, "--max-boxes", "6", "--ceiling", "-1"
        )
        assert code == 2
        assert data["error"]["code"] == "VALIDATION" and "ceiling" in data["error"]["message"]
        # the ceiling counts components: 301 nodes of 300 fit 90,300, not one less
        args = ("graph", "--max-boxes", "1", "--params")
        args += (json.dumps({"ell": 300, "kappa": "irrational", "charges": [0] * 300}),)
        code, data = run_json(capsys, *args, "--ceiling", "90300")
        assert code == 0 and len(data["nodes"]) == 301
        code, data = run_json(capsys, *args, "--ceiling", "90299")
        assert code == 4
        assert data["error"]["message"] == (
            "graph would hold more than 90299 components (nodes x ell); "
            "raise the ceiling to proceed"
        )


class TestVerifyCommand:
    def test_axioms_pass(self, capsys):
        code, data = run_json(capsys, "verify", "--suite", "axioms", "--n", "8")
        assert code == 0
        assert data["pass"] is True
        assert data["counterexample"] is None

    def test_bounds_reported(self, capsys):
        code, data = run_json(
            capsys,
            "verify", "--suite", "boundary_invariance",
            "--params", PARAMS_IRR, "--max-boxes", "3",
        )
        assert code == 0
        assert data["bounds"]["params"]["kappa"] == "irrational"

    def test_failing_suite_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            engine,
            "verify",
            lambda suite, **bounds: VerifyReport(suite, {}, False, 1, {"word": "x"}),
        )
        code, data = run_json(capsys, "verify", "--suite", "axioms", "--n", "4")
        assert code == 3
        assert data["pass"] is False

    def test_ceiling(self, capsys):
        code, data = run_json(capsys, "verify", "--suite", "axioms", "--n", "15")
        assert code == 4

    @pytest.mark.parametrize(
        "flags",
        [
            ("--suite", "boundary_invariance", "--params", PARAMS_IRR, "--max-boxes", "3"),
            ("--suite", "realization_consistency", "--params", PARAMS_IRR, "--max-boxes", "3"),
            ("--suite", "depth_irrational", "--max-boxes", "6"),
            ("--suite", "gl_realization", "--n", "3", "--p", "3", "--entry-bound", "6"),
            ("--suite", "confluence", "--n", "3", "--trials", "5"),
        ],
    )
    def test_suite_ceiling(self, capsys, flags):
        code, data = run_json(capsys, "verify", *flags, "--ceiling", "10")
        assert code == 4
        assert data["error"]["code"] == "RESOURCE_CEILING"
        code, data = run_json(capsys, "verify", *flags, "--ceiling", "-1")
        assert code == 2
        assert data["error"]["code"] == "VALIDATION" and "ceiling" in data["error"]["message"]
        code, data = run_json(capsys, "verify", *flags)
        assert code == 0 and data["pass"] is True

    @pytest.mark.parametrize(
        "flags, bound",
        [
            (("--suite", "axioms", "--n", "4", "--trials", "3"), "trials"),
            (("--suite", "depth_irrational", "--params", PARAMS_IRR), "params"),
            (("--suite", "gl_realization", "--max-boxes", "2"), "max_boxes"),
            (("--suite", "realization_consistency"), "params"),  # missing, not extra
        ],
    )
    def test_bounds_must_match_the_suite(self, capsys, flags, bound):
        code, data = run_json(capsys, "verify", *flags)
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"
        assert bound in data["error"]["message"] and flags[1] in data["error"]["message"]

    def test_confluence_default_ceiling(self, capsys):
        # the default budget is 2e6 rewrites: 2^16 - 1 words at n=15 pass it
        # (and then check nothing with 0 trials), 2^21 - 1 words at n=20 do not
        code, data = run_json(capsys, "verify", "--suite", "confluence", "--n", "15", "--trials", "0")
        assert code == 2 and "checks nothing" in data["error"]["message"]
        code, data = run_json(capsys, "verify", "--suite", "confluence", "--n", "20", "--trials", "1")
        assert code == 4

    def test_gl_huge_characteristic(self, capsys):
        # a huge prime passes the characteristic check and exits 4 on the
        # check count; a huge composite is no characteristic and exits 2
        code, data = run_json(
            capsys, "verify", "--suite", "gl_realization", "--p", "2305843009213693951"
        )
        assert code == 4
        assert data["error"]["code"] == "RESOURCE_CEILING"
        code, data = run_json(
            capsys, "verify", "--suite", "gl_realization", "--p", "100000000000000000000"
        )
        assert code == 2
        assert data["error"] == {
            "code": "VALIDATION",
            "message": "characteristic must be 0 or a prime, got 100000000000000000000",
        }

    def test_gl_huge_entry_bound_at_char_zero(self, capsys):
        # p = 0 counts entry_bound + 2 classes in closed form: exit 4, no traceback
        code, out = run_cli(
            capsys, "verify", "--suite", "gl_realization", "--p", "0",
            "--entry-bound", "100000000000000000000", "--n", "1",
        )
        assert code == 4
        assert out == (
            '{"error": {"code": "RESOURCE_CEILING", "message": "gl_realization would run more '
            'than 2000000 checks; raise the ceiling to proceed"}}\n'
        )

    def test_gl_negative_n(self, capsys):
        code, data = run_json(capsys, "verify", "--suite", "gl_realization", "--n", "-1")
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"
        # a negative characteristic is rejected as one, not as a suite that checks nothing
        code, data = run_json(capsys, "verify", "--suite", "gl_realization", "--p", "-3")
        assert code == 2
        assert data["error"] == {
            "code": "VALIDATION",
            "message": "characteristic must be 0 or a prime, got -3",
        }

    @pytest.mark.parametrize(
        "bounds",
        [
            ("axioms", "--n", "-1"),
            ("confluence", "--trials", "-1"),
            ("depth_irrational", "--max-boxes", "-3"),
            ("comb_lemma", "--n", "0"),
            ("gl_realization", "--n", "9", "--entry-bound", "6"),
            # n above the weight count forms no weight, however large
            ("gl_realization", "--n", "9223372036854775807"),
            ("gl_realization", "--n", "9223372036854775808"),
            # a negative n checks no word, however large
            ("axioms", "--n", str(-10**400)),
            ("comb_lemma", "--n", str(-10**400)),
        ],
    )
    def test_empty_suite_rejected(self, capsys, bounds):
        suite, *flags = bounds
        code, data = run_json(capsys, "verify", "--suite", suite, *flags)
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"
        assert suite in data["error"]["message"]

    def test_every_suite_is_listed_everywhere(self):
        # the README's --ceiling table and verify examples, both run lists of
        # scripts/verify_all.py, and a verify flag for each runner parameter
        root = Path(SRC).parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        table = readme.split("| suite | `--ceiling` counts | default |\n")[1].split("\n\n")[0]
        in_table = {
            name for row in table.splitlines() for name in re.findall(r"`(\w+)`", row.split("|")[1])
        }
        examples = set(re.findall(r"signcrystal verify --suite (\w+)", readme))
        spec = importlib.util.spec_from_file_location(
            "verify_all", root / "scripts" / "verify_all.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        parser = cli._build_parser()
        for suite, runner in engine.SUITES.items():
            assert suite in in_table
            assert suite in examples
            assert suite in {name for name, _ in script.FULL_RUNS}
            assert suite in {name for name, _ in script.QUICK_RUNS}
            for name in inspect.signature(runner).parameters:
                flag = "--" + name.replace("_", "-")
                assert name in vars(parser.parse_args(["verify", "--suite", suite, flag, "1"]))

    def test_unknown_suite_names_every_suite(self, capsys):
        code, data = run_json(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"
        for suite in engine.SUITES:
            assert repr(suite) in data["error"]["message"]

    def test_unknown_suite_in_a_cold_process(self, capsys):
        done = run_cold("-m", "signcrystal", "verify", "--suite", "nope")
        assert done.returncode == 2
        assert done.stdout == run_cli(capsys, "verify", "--suite", "nope")[1]


class TestParamsCommand:
    def test_rational(self, capsys):
        code, data = run_json(capsys, "params", "--params", PARAMS_HALF)
        assert code == 0
        assert data["e"] == 2
        assert data["hecke"]["approx"] is True
        assert abs(data["hecke"]["q"]["re"] + 1) < 1e-12
        assert data["cyclotomic_c"]["c0"] == {"num": -1, "den": 2}

    def test_irrational(self, capsys):
        code, data = run_json(capsys, "params", "--params", PARAMS_IRR)
        assert code == 0
        assert data["e"] == "infinity"
        assert data["hecke"] is None and data["cyclotomic_c"] is None

    def test_params_from_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(PARAMS_HALF, encoding="utf-8")
        code, data = run_json(capsys, "params", "--params", str(path))
        assert code == 0
        assert data["e"] == 2

    def test_params_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_bytes(b"\xff\xfe")
        code, data = run_json(capsys, "params", "--params", str(path))
        assert code == 2
        assert data["error"]["location"] == "params"

    def test_params_file_size_bound(self, capsys, tmp_path):
        # a file is read up to the default ceiling of 2,000,000 characters;
        # the braces in its name reach the message as they are
        path = tmp_path / "p{spent}.json"
        path.write_text(PARAMS_HALF.ljust(errors.DEFAULT_NODE_CEILING), encoding="utf-8")
        code, data = run_json(capsys, "params", "--params", str(path))
        assert code == 0
        assert data["e"] == 2
        path.write_text(PARAMS_HALF.ljust(errors.DEFAULT_NODE_CEILING + 1), encoding="utf-8")
        code, data = run_json(capsys, "params", "--params", str(path))
        assert code == 4
        assert data["error"] == {
            "code": "RESOURCE_CEILING",
            "message": f"params file {str(path)!r} holds more than 2000000 characters",
        }

    def test_cyclotomic_ceiling(self, capsys):
        # (ell - 1)^2 terms: 1415 is the largest ell within 2,000,000
        for ell, expected in ((1415, 0), (1416, 4)):
            p = json.dumps({"ell": ell, "kappa": {"num": 1, "den": 2}, "charges": [0] * ell})
            code, data = run_json(capsys, "params", "--params", p)
            assert code == expected
        assert data["error"]["code"] == "RESOURCE_CEILING"


# each label command with the flags it takes before --params; the class
# commands also take --class
LABEL_COMMANDS = {
    "boundary": (),
    "fock-op": ("--op", "add"),
    "kgroup": ("--op", "induction"),
    "class-member": (),
    "depth": (),
    "support": (),
}
CLASS_COMMANDS = {"boundary", "fock-op", "kgroup", "class-member"}


class TestLabelReadOrder:
    # params, then mp, then class, then --string: the first bad one is
    # reported, and class-member's missing --string never is
    @pytest.mark.parametrize("command", list(LABEL_COMMANDS))
    def test_first_bad_flag_is_reported(self, capsys, command):
        head = [command, *LABEL_COMMANDS[command]]
        tail = ["--class", "{bad"] if command in CLASS_COMMANDS else []
        code, data = run_json(capsys, *head, "--params", "{bad", "--mp", "{bad", *tail)
        assert code == 2 and data["error"]["location"] == "params"
        code, data = run_json(capsys, *head, "--params", PARAMS_HALF, "--mp", "{bad", *tail)
        assert code == 2 and data["error"]["location"] == "mp"
        if command in CLASS_COMMANDS:
            code, data = run_json(capsys, *head, "--params", PARAMS_HALF, "--mp", "[[1]]", *tail)
            assert code == 2 and data["error"]["location"] == "class"


class TestErrors:
    def test_no_command(self, capsys):
        code, data = run_json(capsys)
        assert code == 2

    def test_unknown_command(self, capsys):
        code, data = run_json(capsys, "frobnicate")
        assert code == 2

    def test_bad_json(self, capsys):
        code, data = run_json(capsys, "depth", "--params", "{oops", "--mp", "[[1]]")
        assert code == 2
        assert data["error"]["location"] == "params"

    def test_integer_kappa_rejected(self, capsys):
        code, data = run_json(
            capsys, "depth",
            "--params", '{"ell":1,"kappa":{"num":2,"den":1},"charges":[0]}',
            "--mp", "[[1]]",
        )
        assert code == 2
        assert "not integral" in data["error"]["message"]

    def test_wrong_class_mode(self, capsys):
        code, data = run_json(
            capsys,
            "boundary", "--params", PARAMS_HALF, "--mp", "[[1]]", "--class", '{"content":0}',
        )
        assert code == 2

    def test_each_class_code_and_exit_code(self):
        # the code is the class's own; no caller can override it
        for cls, code, exit_code in (
            (errors.ValidationError, "VALIDATION", 2),
            (errors.ResourceCeilingError, "RESOURCE_CEILING", 4),
        ):
            assert cls("m").to_json() == {"error": {"code": code, "message": "m"}}
            err = cls("m", location="params")
            assert err.to_json() == {"error": {"code": code, "message": "m", "location": "params"}}
            assert err.exit_code == exit_code
        with pytest.raises(TypeError):
            errors.ValidationError("m", code="OTHER")

    def test_message_is_formatted_only_with_values(self, monkeypatch):
        # without values the message is used as it is, braces and all
        assert errors.ValidationError("a {b}").message == "a {b}"
        # Python 3.10.0-3.10.6 has no digit limit, nor its setter
        monkeypatch.delattr(sys, "set_int_max_str_digits")
        assert errors.ValidationError("got {!r}", 5).message == "got 5"


# graph's --z and verify's --max-boxes show that a value given in one call
# does not carry over to the next; each malformed request is followed by a
# valid one, so a failed parse leaves nothing behind
PARSER_REUSE_SEQUENCE = [
    ["graph", "--params", PARAMS_HALF, "--max-boxes", "2", "--z", '{"residue":1}'],
    ["graph", "--params", PARAMS_HALF, "--max-boxes", "2"],
    ["verify", "--suite", "depth_irrational", "--max-boxes", "3"],
    ["verify", "--suite", "depth_irrational"],
    ["string-op", "--op", "suffix-h", "--string", "-+-", "--k", "2"],
    ["string-op", "--op", "e", "--string", "-+-"],
    ["frobnicate"],
    ["reduce", "--string", "+-"],
    ["depth", "--params", "{not json", "--mp", "[[1]]"],
    ["depth", "--params", PARAMS_HALF, "--mp", "[[2,1]]"],
    [],
    ["support", "--params", PARAMS_IRR, "--mp", "[[1],[1]]"],
]


class TestParserReuse:
    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_same_output_as_a_fresh_parser(self, capsys, monkeypatch):
        reused = [run_cli(capsys, *argv) for argv in PARSER_REUSE_SEQUENCE]
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = [run_cli(capsys, *argv) for argv in PARSER_REUSE_SEQUENCE]
        assert reused == fresh
        assert json.loads(reused[1][1])["classes"] == "all"
        assert json.loads(reused[3][1])["bounds"]["max_boxes"] == 8
        assert [code for code, _ in reused[6:]] == [2, 0, 2, 0, 2, 0]

    def test_import_builds_no_parser(self):
        probe = "import signcrystal.cli as c; print(c._build_parser.cache_info().currsize)"
        done = run_cold("-c", probe)
        assert done.returncode == 0
        assert done.stdout.strip() == "0"

    @pytest.mark.parametrize("argv", [["--help"], ["depth", "-h"], ["verify", "-h"]])
    def test_help_returns_zero(self, capsys, argv):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert out.startswith("usage:")


# runs one command in a fresh process, then prints the loaded module names
COLD_PROBE = (
    "import json, sys; from signcrystal import cli; code = cli.main(sys.argv[1:]); "
    "print(json.dumps(sorted(sys.modules))); raise SystemExit(code)"
)
NOT_FOR_SIGN_WORDS = {
    "signcrystal.engine",
    "signcrystal.realizations",
    "signcrystal.params",
    "signcrystal.serialize",
    "signcrystal.naive",
    "fractions",
}


def cold_modules(*argv) -> set[str]:
    done = run_cold("-c", COLD_PROBE, *argv)
    assert done.returncode == 0, done.stdout + done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestColdImports:
    """A cold command imports only the modules it runs."""

    @pytest.mark.parametrize(
        "argv",
        [["reduce", "--string", "-+"], ["string-op", "--op", "e", "--string", "-++"]],
        ids=["reduce", "string-op"],
    )
    def test_sign_word_commands(self, argv):
        loaded = cold_modules(*argv)
        assert "signcrystal.signstrings" in loaded
        assert not loaded & NOT_FOR_SIGN_WORDS

    @pytest.mark.parametrize(
        "argv",
        [
            ["boundary", "--params", PARAMS_HALF, "--mp", "[[2]]", "--class", '{"residue":1}'],
            [
                "class-member", "--params", PARAMS_HALF, "--mp", "[[2]]",
                "--class", '{"residue":1}', "--string", "--",
            ],
        ],
        ids=["boundary", "class-member"],
    )
    def test_class_commands_load_no_engine(self, argv):
        loaded = cold_modules(*argv)
        assert "signcrystal.realizations" in loaded
        assert not loaded & {"signcrystal.engine", "signcrystal.naive"}

    def test_gl_op_loads_realizations_alone(self):
        # the dominant-weight realization needs neither serialize nor engine
        loaded = cold_modules("gl-op", "--op", "remove", "--weight", "[5,4,2]", "--i", "1", "--p", "3")
        assert "signcrystal.realizations" in loaded
        assert not loaded & {"signcrystal.serialize", "signcrystal.engine", "signcrystal.naive"}

    def test_params_loads_no_engine(self):
        # the cyclotomic ceiling lives in the library, not in engine, and
        # serialize reads realizations only for an annotation
        loaded = cold_modules("params", "--params", PARAMS_HALF)
        assert "signcrystal.params" in loaded
        assert not loaded & {"signcrystal.engine", "signcrystal.naive", "signcrystal.realizations"}

    def test_depth_loads_engine_but_not_naive(self):
        loaded = cold_modules("depth", "--params", PARAMS_HALF, "--mp", "[[2,1]]")
        assert "signcrystal.engine" in loaded
        assert "signcrystal.naive" not in loaded

    def test_patched_engine_reaches_the_first_verify(self):
        # the handler reads engine.verify when it runs, after the patch
        probe = (
            "from signcrystal import cli, engine; "
            "engine.verify = lambda suite, **b: engine.VerifyReport(suite, {}, False, 1, {}); "
            "raise SystemExit(cli.main(['verify', '--suite', 'axioms', '--n', '4']))"
        )
        done = run_cold("-c", probe)
        assert done.returncode == 3
        assert json.loads(done.stdout)["pass"] is False


class TestRoundTrip:
    def test_params(self, capsys):
        from signcrystal import serialize

        for text in (PARAMS_HALF, PARAMS_IRR):
            p = serialize.params_from_json(json.loads(text))
            assert serialize.params_from_json(serialize.params_to_json(p)) == p

    def test_multipartition_and_class(self):
        from signcrystal import serialize
        from signcrystal.params import Params, IRRATIONAL
        from fractions import Fraction

        p = Params(1, Fraction(1, 2), (0,))
        z = serialize.zclass_from_json({"residue": 1}, p)
        assert serialize.zclass_from_json(serialize.zclass_to_json(z), p) == z
        p2 = Params(1, IRRATIONAL, (0,))
        z2 = serialize.zclass_from_json({"content": -3}, p2)
        assert serialize.zclass_from_json(serialize.zclass_to_json(z2), p2) == z2


# --- contract fuzz: every command, small bounded inputs ----------------------

_PARAMS_POOL = [
    PARAMS_HALF,
    PARAMS_IRR,
    '{"ell":1,"kappa":"irrational","charges":[0]}',
    '{"ell":2,"kappa":{"num":2,"den":3},"charges":[1,0]}',
    '{"ell":3,"kappa":{"num":-1,"den":2},"charges":[1,0,2]}',
    '{"ell":1,"kappa":{"num":1,"den":0},"charges":[0]}',
    '{"ell":2,"kappa":"irrational","charges":[0]}',
    "{oops",
    "[]",
    "no-such-params.json",
]
_rows = st.lists(st.integers(-1, 4), max_size=3)
_mps = st.one_of(
    st.lists(_rows, min_size=1, max_size=3)
    .filter(lambda comps: sum(r for rows in comps for r in rows if r > 0) <= 4)
    .map(json.dumps),
    st.sampled_from(["[]", "{}", "[[1.5]]", '{"components":[[1]]}', "x"]),
)
_classes = st.one_of(
    st.builds(
        lambda k, v: json.dumps({k: v}),
        st.sampled_from(["residue", "content", "bogus"]),
        st.integers(-2, 3),
    ),
    st.sampled_from(["{}", "[]", '{"residue":"a"}', "x"]),
)
_words = st.text(alphabet="+-x", max_size=6)
_small = st.integers(-1, 6)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


def _cmd(*parts):
    return st.tuples(*parts).map(lambda ps: [tok for part in ps for tok in part])


def _fixed(*tokens):
    return st.just(list(tokens))


_any_int = st.one_of(st.integers(-3, 4), st.sampled_from([10**30, -(10**30), 10**400, -(10**400)]))
_leaf = st.one_of(st.none(), st.booleans(), _any_int, st.floats(-2, 2), st.text(max_size=3))
_nested = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=2), inner, max_size=2)
    ),
    max_leaves=4,
)
_kappas = st.one_of(
    st.fixed_dictionaries({"num": _any_int, "den": _any_int}),
    st.just("irrational"),
    st.fixed_dictionaries({"num": _leaf, "den": _leaf}, optional={"extra": _leaf}),
    _nested,
)
# wrong types, bools, extra keys, den 0, ell/charges mismatch, huge ints, nesting;
# at most 3 components keeps the verify suites small
_params_objects = st.one_of(
    st.fixed_dictionaries(
        {"kappa": _kappas, "charges": st.one_of(st.lists(_any_int, min_size=1, max_size=3), _nested)},
        optional={"ell": st.one_of(st.integers(0, 3), _leaf), "extra": _leaf},
    ),
    _nested,
)
_params_flag = st.one_of(st.sampled_from(_PARAMS_POOL), _params_objects.map(json.dumps)).map(
    lambda v: ["--params", v]
)
_mp_flag = _mps.map(lambda v: ["--mp", v])
_class_flag = _classes.map(lambda v: ["--class", v])
_ARGV = st.one_of(
    _cmd(_fixed("reduce"), _words.map(lambda w: ["--string=" + w])),
    _cmd(
        _fixed("string-op"),
        st.sampled_from(["e", "f", "suffix-h", "compare", "plus-flips", "minus-flips"]).map(
            lambda op: ["--op", op]
        ),
        _words.map(lambda w: ["--string=" + w]),
        st.one_of(st.just([]), _words.map(lambda w: ["--other=" + w])),
        _opt("--k", _small),
    ),
    _cmd(_fixed("boundary"), _params_flag, _mp_flag, _class_flag),
    _cmd(_fixed("fock-op"), st.sampled_from([["--op", "add"], ["--op", "remove"]]), _params_flag, _mp_flag, _class_flag),
    _cmd(
        _fixed("kgroup"),
        st.sampled_from([["--op", "induction"], ["--op", "restriction"]]),
        _params_flag,
        _mp_flag,
        _class_flag,
    ),
    _cmd(_fixed("class-member"), _params_flag, _mp_flag, _class_flag, _words.map(lambda w: ["--string=" + w])),
    _cmd(
        _fixed("gl-op"),
        st.sampled_from(["positions", "sign", "add", "remove"]).map(lambda op: ["--op", op]),
        st.lists(st.integers(-1, 9), max_size=4).map(lambda w: ["--weight", json.dumps(w)]),
        st.integers(-2, 5).map(lambda i: ["--i", str(i)]),
        st.sampled_from([0, 1, 2, 3, 4, 7, -3, 1000000007, 2305843009213693951, 10**25]).map(
            lambda p: ["--p", str(p)]
        ),
    ),
    _cmd(st.sampled_from([["depth"], ["support"]]), _params_flag, _mp_flag),
    _cmd(
        _fixed("graph"),
        _params_flag,
        st.integers(-1, 4).map(lambda n: ["--max-boxes", str(n)]),
        _opt("--z", st.sampled_from(["all", '{"residue":0}', '[{"residue":1}]', '{"content":0}', "5", "x"])),
        _opt("--format", st.sampled_from(["json", "dot"])),
        _opt("--ceiling", st.integers(-1, 40)),
    ),
    _cmd(
        _fixed("verify"),
        st.sampled_from(list(engine.SUITES)).map(lambda suite: ["--suite", suite]),
        _opt("--n", _small),
        _opt("--trials", st.integers(-1, 3)),
        _opt("--seed", _small),
        st.one_of(st.just([]), _params_flag),
        _opt("--max-boxes", st.integers(-1, 4)),
        _opt("--p", st.sampled_from([0, 2, 3, 4, -1, 1000000007])),
        _opt("--entry-bound", st.integers(-2, 6)),
        _opt("--ceiling", st.integers(-1, 100_000)),
    ),
    _cmd(_fixed("params"), _params_flag),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestContractFuzz:
    @pytest.mark.parametrize(
        "payload", ["[" * 100_000, "[" + "9" * 5000 + "]"], ids=["deep", "long_int"]
    )
    @pytest.mark.parametrize("flag", ["--params", "--mp", "--class", "--z"])
    def test_unparseable_json(self, capsys, flag, payload):
        # inline --params must look like an object, or it is read as a path
        value = '{"charges":' + payload + "}" if flag == "--params" else payload
        if flag == "--z":
            argv = ["graph", "--params", PARAMS_HALF, "--max-boxes", "2", "--z", value]
        else:
            flags = {"--params": PARAMS_HALF, "--mp": "[[1]]", "--class": '{"residue":0}'}
            flags[flag] = value
            argv = ["boundary"] + [tok for pair in flags.items() for tok in pair]
        code, data = run_json(capsys, *argv)
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"

    @settings(max_examples=300, deadline=None)
    @given(_ARGV)
    @example(["depth", "--params", PARAMS_HALF, "--mp", "[[1200]]"])
    @example(["verify", "--suite", "gl_realization", "--n", "-1"])
    @example(["params", "--params", '{"kappa":{"num":%d,"den":3},"charges":[0]}' % 10**400])
    @example(["params", "--params", '{"kappa":{"num":1,"den":3},"charges":[0,%d]}' % 10**400])
    @example(["params", "--params", '{"kappa":{"num":%d,"den":3},"charges":[0,%d]}' % (10**300, 10**300)])
    def test_json_and_known_exit_code(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code in (0, 2, 3, 4)
        text = out.getvalue()
        if code == 0 and "dot" in argv:
            assert text.startswith("digraph crystal {")
            return
        data = json.loads(text, parse_constant=_reject_constant)
        if code in (2, 4):
            assert set(data) == {"error"}
