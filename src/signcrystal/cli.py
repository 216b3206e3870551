"""Command-line surface: one process, one command, JSON in and out.

Exit codes: 0 success, 2 validation error, 3 invariant violation or a
failed verification suite, 4 resource ceiling.  Errors are reported as
{"error": {"code", "message", "location"?}} on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine, realizations, serialize, signstrings
from .errors import CrystalError, ValidationError
from .params import cyclotomic_c, hecke_parameters


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message, location="argv")


# flags whose value is a sign word; such values may start with '-' or even
# be exactly '--', which argparse cannot digest, so they are pulled out of
# argv before parsing
_SIGN_FLAGS = {"--string": "string", "--other": "other"}
_SIGN_FLAG_COMMANDS = {"reduce", "string-op", "class-member"}


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    argv, words = _extract_sign_values(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ValidationError("a command is required; see --help")
        for dest, value in words.items():
            setattr(args, dest, value)
        result = _HANDLERS[args.command](args)
    except CrystalError as err:
        _emit(json.dumps(err.to_json(), sort_keys=True))
        return err.exit_code
    payload, code = result if isinstance(result, tuple) else (result, 0)
    _emit(payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True))
    return code


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _extract_sign_values(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    if not argv or argv[0] not in _SIGN_FLAG_COMMANDS:
        return argv, {}
    remaining: list[str] = []
    words: dict[str, str] = {}
    k = 0
    while k < len(argv):
        tok = argv[k]
        handled = False
        for flag, dest in _SIGN_FLAGS.items():
            if tok == flag and k + 1 < len(argv) and _looks_like_word(argv[k + 1]):
                words[dest] = argv[k + 1]
                k += 2
                handled = True
                break
            if tok.startswith(flag + "="):
                words[dest] = tok[len(flag) + 1:]
                k += 1
                handled = True
                break
        if not handled:
            remaining.append(tok)
            k += 1
    return remaining, words


def _looks_like_word(tok: str) -> bool:
    return all(c in "+-" for c in tok)


def _build_parser() -> _Parser:
    parser = _Parser(prog="signcrystal", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("reduce", help="reduce a sign word and report its statistics")
    p.add_argument("--string", help="word over '+' and '-'")

    p = sub.add_parser("string-op", help="apply a sign-word operation")
    p.add_argument(
        "--op",
        required=True,
        choices=["e", "f", "suffix-h", "compare", "plus-flips", "minus-flips"],
    )
    p.add_argument("--string")
    p.add_argument("--other", help="second word for compare")
    p.add_argument("--k", type=int, help="1-based suffix start for suffix-h")

    p = sub.add_parser("boundary", help="boundary of a multipartition in one class")
    _add_params_flag(p)
    _add_mp_flag(p)
    _add_class_flag(p)

    p = sub.add_parser("fock-op", help="box-adding/-removing crystal operator")
    p.add_argument("--op", required=True, choices=["add", "remove"])
    _add_params_flag(p)
    _add_mp_flag(p)
    _add_class_flag(p)

    p = sub.add_parser("kgroup", help="all single box additions/removals in one class")
    p.add_argument("--op", required=True, choices=["induction", "restriction"])
    _add_params_flag(p)
    _add_mp_flag(p)
    _add_class_flag(p)

    p = sub.add_parser("class-member", help="class element with a prescribed sign word")
    _add_params_flag(p)
    _add_mp_flag(p)
    _add_class_flag(p)
    p.add_argument("--string")

    p = sub.add_parser("gl-op", help="dominant-weight realization operations")
    p.add_argument("--op", required=True, choices=["positions", "sign", "add", "remove"])
    p.add_argument("--weight", required=True, help="JSON list of strictly decreasing integers")
    p.add_argument("--i", required=True, type=int, help="class index")
    p.add_argument("--p", required=True, type=int, help="0 or a prime")

    p = sub.add_parser("depth", help="box-removing depth of a label")
    _add_params_flag(p)
    _add_mp_flag(p)

    p = sub.add_parser("support", help="support stratum of a label")
    _add_params_flag(p)
    _add_mp_flag(p)

    p = sub.add_parser("graph", help="crystal graph over all small multipartitions")
    _add_params_flag(p)
    p.add_argument("--max-boxes", required=True, type=int)
    p.add_argument("--z", default="all", help="'all', a class object, or a list of classes")
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.add_argument("--ceiling", type=int, help="node ceiling override")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument(
        "--suite",
        required=True,
        choices=[
            "axioms",
            "confluence",
            "comb_lemma",
            "boundary_invariance",
            "realization_consistency",
            "gl_realization",
            "depth_irrational",
        ],
    )
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_params_flag(p, required=False)
    p.add_argument("--max-boxes", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--entry-bound", type=int)
    p.add_argument("--ceiling", type=int, help="word ceiling override")

    p = sub.add_parser("params", help="echo parameters with numeric conversions")
    _add_params_flag(p)

    return parser


def _add_params_flag(p, required: bool = True) -> None:
    p.add_argument("--params", required=required, help="inline JSON or a file path")


def _add_mp_flag(p) -> None:
    p.add_argument("--mp", required=True, help="multipartition JSON")


def _add_class_flag(p) -> None:
    p.add_argument("--class", dest="zclass", required=True, help="class JSON")


def _load_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(f"invalid JSON for {what}: {err}", location=what)


def _params_arg(args):
    raw = args.params
    if raw is None:
        raise ValidationError("--params is required for this command")
    text = raw
    if not raw.lstrip().startswith("{"):
        try:
            with open(raw, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as err:
            raise ValidationError(f"cannot read params file {raw!r}: {err}", location="params")
    return serialize.params_from_json(_load_json(text, "params"))


def _mp_arg(args):
    return serialize.mp_from_json(_load_json(args.mp, "mp"))


def _class_arg(args, params):
    return serialize.zclass_from_json(_load_json(args.zclass, "class"), params)


def _word_arg(args, attr: str = "string") -> str:
    value = getattr(args, attr, None)
    if value is None:
        raise ValidationError(f"--{attr} is required for this command")
    return value


def _cmd_reduce(args):
    t = signstrings.check_sign_string(_word_arg(args))
    hp, hm = signstrings.statistics(t)
    return {
        "reduced": signstrings.reduced_form(t),
        "h_plus": hp,
        "h_minus": hm,
        "weight": hm - hp,
    }


def _cmd_string_op(args):
    t = signstrings.check_sign_string(_word_arg(args))
    op = args.op
    if op in ("e", "f"):
        step = (signstrings.e_tilde if op == "e" else signstrings.f_tilde)(t)
        if step is None:
            return {"result": None, "index": None}
        return {"result": step[0], "index": step[1]}
    if op == "suffix-h":
        if args.k is None:
            raise ValidationError("--k is required for suffix-h")
        return {"h_minus": signstrings.suffix_h_minus(t, args.k)}
    if op == "compare":
        if args.other is None:
            raise ValidationError("--other is required for compare")
        verdict = signstrings.succ_compare(t, args.other)
        return {"relation": {1: "first", -1: "second", 0: "equal"}[verdict]}
    flips = signstrings.plus_flips(t) if op == "plus-flips" else signstrings.minus_flips(t)
    return {"flips": [{"index": i, "string": s} for i, s in flips]}


def _cmd_boundary(args):
    params = _params_arg(args)
    m = _mp_arg(args)
    z = _class_arg(args, params)
    return serialize.boundary_to_json(realizations.boundary(params, m, z))


def _cmd_fock_op(args):
    params = _params_arg(args)
    m = _mp_arg(args)
    z = _class_arg(args, params)
    fn = realizations.crystal_add if args.op == "add" else realizations.crystal_remove
    step = fn(params, m, z)
    if step is None:
        return {"result": None, "box": None}
    return {"result": step[0].to_lists(), "box": serialize.box_to_json(step[1])}


def _cmd_kgroup(args):
    params = _params_arg(args)
    m = _mp_arg(args)
    z = _class_arg(args, params)
    fn = (
        realizations.kgroup_induction
        if args.op == "induction"
        else realizations.kgroup_restriction
    )
    return {"results": [mp.to_lists() for mp in fn(params, m, z)]}


def _cmd_class_member(args):
    params = _params_arg(args)
    m = _mp_arg(args)
    z = _class_arg(args, params)
    member = realizations.class_member(params, m, z, _word_arg(args))
    return {"result": member.to_lists()}


def _cmd_gl_op(args):
    raw = _load_json(args.weight, "weight")
    if not isinstance(raw, list):
        raise ValidationError("weight must be a JSON list of integers", location="weight")
    w = realizations.check_dominant_weight(raw)
    if args.op == "positions":
        return {"positions": realizations.gl_positions(w, args.i, args.p)}
    if args.op == "sign":
        return {
            "positions": realizations.gl_positions(w, args.i, args.p),
            "sign": realizations.gl_sign_string(w, args.i, args.p),
        }
    fn = realizations.gl_crystal_add if args.op == "add" else realizations.gl_crystal_remove
    result = fn(w, args.i, args.p)
    return {"result": None if result is None else list(result)}


def _cmd_depth(args):
    params = _params_arg(args)
    m = _mp_arg(args)
    return {"depth": engine.depth(params, m)}


def _cmd_support(args):
    params = _params_arg(args)
    m = _mp_arg(args)
    return serialize.support_to_json(engine.support(params, m))


def _cmd_graph(args):
    params = _params_arg(args)
    classes = None
    if args.z != "all":
        obj = _load_json(args.z, "z")
        if isinstance(obj, dict):
            obj = [obj]
        if not isinstance(obj, list):
            raise ValidationError(
                "--z must be 'all', a class object, or a list of class objects", location="z"
            )
        classes = [serialize.zclass_from_json(item, params) for item in obj]
    ceiling = args.ceiling if args.ceiling is not None else engine.DEFAULT_NODE_CEILING
    graph = engine.build_graph(params, args.max_boxes, classes=classes, node_ceiling=ceiling)
    if args.format == "dot":
        return serialize.graph_to_dot(graph)
    return serialize.graph_to_json(graph)


def _cmd_verify(args):
    suite = args.suite
    bounds: dict = {}
    if suite in ("axioms", "confluence", "comb_lemma"):
        if args.n is not None:
            bounds["n"] = args.n
        if args.ceiling is not None:
            bounds["word_ceiling"] = args.ceiling
        if suite == "confluence":
            if args.trials is not None:
                bounds["trials"] = args.trials
            if args.seed is not None:
                bounds["seed"] = args.seed
    elif suite in ("boundary_invariance", "realization_consistency"):
        bounds["params"] = _params_arg(args)
        if args.max_boxes is not None:
            bounds["max_boxes"] = args.max_boxes
    elif suite == "gl_realization":
        if args.n is not None:
            bounds["n"] = args.n
        if args.p is not None:
            bounds["p"] = args.p
        if args.entry_bound is not None:
            bounds["entry_bound"] = args.entry_bound
    else:  # depth_irrational
        if args.max_boxes is not None:
            bounds["max_boxes"] = args.max_boxes
    report = engine.verify(suite, **bounds)
    return serialize.report_to_json(report), (0 if report.passed else 3)


def _cmd_params(args):
    p = _params_arg(args)
    out = serialize.params_to_json(p)
    out["e"] = "infinity" if p.e is None else p.e
    if p.is_rational:
        q, qs = hecke_parameters(p)
        c0, rest = cyclotomic_c(p)
        out["hecke"] = {
            "q": serialize.complex_to_json(q),
            "Q": [serialize.complex_to_json(x) for x in qs],
            "approx": True,
        }
        out["cyclotomic_c"] = {
            "c0": serialize.fraction_to_json(c0),
            "rest": [serialize.complex_to_json(x) for x in rest],
            "approx": True,
        }
    else:
        out["hecke"] = None
        out["cyclotomic_c"] = None
        out["note"] = "numeric conversions need rational kappa"
    return out


_HANDLERS = {
    "reduce": _cmd_reduce,
    "string-op": _cmd_string_op,
    "boundary": _cmd_boundary,
    "fock-op": _cmd_fock_op,
    "kgroup": _cmd_kgroup,
    "class-member": _cmd_class_member,
    "gl-op": _cmd_gl_op,
    "depth": _cmd_depth,
    "support": _cmd_support,
    "graph": _cmd_graph,
    "verify": _cmd_verify,
    "params": _cmd_params,
}


if __name__ == "__main__":
    raise SystemExit(main())
