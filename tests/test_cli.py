import json

import pytest

from signcrystal import cli, engine
from signcrystal.engine import VerifyReport

PARAMS_HALF = '{"ell":1,"kappa":{"num":1,"den":2},"charges":[0]}'
PARAMS_IRR = '{"ell":2,"kappa":"irrational","charges":[0,1]}'


def run_cli(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args)
    return code, json.loads(out)


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

    def test_ceiling(self, capsys):
        code, data = run_json(
            capsys, "graph", "--params", PARAMS_HALF, "--max-boxes", "6", "--ceiling", "3"
        )
        assert code == 4
        assert data["error"]["code"] == "RESOURCE_CEILING"


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
        "bounds",
        [
            ("axioms", "--n", "-1"),
            ("confluence", "--trials", "-1"),
            ("depth_irrational", "--max-boxes", "-3"),
            ("comb_lemma", "--n", "0"),
            ("gl_realization", "--n", "9", "--entry-bound", "6"),
        ],
    )
    def test_empty_suite_rejected(self, capsys, bounds):
        suite, *flags = bounds
        code, data = run_json(capsys, "verify", "--suite", suite, *flags)
        assert code == 2
        assert data["error"]["code"] == "VALIDATION"
        assert suite in data["error"]["message"]


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

        m = serialize.mp_from_json([[3, 1], []])
        assert serialize.mp_from_json(serialize.mp_to_json(m)) == m
        p = Params(1, Fraction(1, 2), (0,))
        z = serialize.zclass_from_json({"residue": 1}, p)
        assert serialize.zclass_from_json(serialize.zclass_to_json(z), p) == z
        p2 = Params(1, IRRATIONAL, (0,))
        z2 = serialize.zclass_from_json({"content": -3}, p2)
        assert serialize.zclass_from_json(serialize.zclass_to_json(z2), p2) == z2

    def test_box(self):
        from signcrystal import serialize
        from signcrystal.young import BoxRef

        box = BoxRef(1, 2, 3)
        assert serialize.box_from_json(serialize.box_to_json(box)) == box
