"""Command-line surface: one process, one command, JSON in and out.

Exit codes: 0 success, 2 validation error, 3 a failed verification
suite, 4 resource ceiling.  Errors are reported as
{"error": {"code", "message", "location"?}} on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import signstrings
from .errors import DEFAULT_NODE_CEILING, Budget, CrystalError, ValidationError, _any_int_digits


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
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as done:
            # -h/--help: argparse has printed the usage text and asks to
            # exit 0, which a caller reusing main gets back as the code
            return done.code
        if args.command is None:
            raise ValidationError("a command is required; see --help")
        for dest, value in words.items():
            setattr(args, dest, value)
        result = args.handler(args)
    except CrystalError as err:
        _emit(json.dumps(err.to_json(), sort_keys=True))
        return err.exit_code
    payload, code = result if isinstance(result, tuple) else (result, 0)
    if not isinstance(payload, str):
        with _any_int_digits():
            payload = json.dumps(payload, sort_keys=True)
    _emit(payload)
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
        k += 1
        flag, eq, value = tok.partition("=")
        dest = _SIGN_FLAGS.get(flag)
        if dest is not None and eq:
            words[dest] = value
        elif dest is not None and k < len(argv) and _looks_like_word(argv[k]):
            words[dest] = argv[k]
            k += 1
        else:
            remaining.append(tok)
    return remaining, words


def _looks_like_word(tok: str) -> bool:
    return all(c in "+-" for c in tok)


@functools.cache
def _build_parser() -> _Parser:
    # built on the first main call, not at import, and reused after that:
    # parse_args leaves the parser unchanged and returns a fresh Namespace
    parser = _Parser(prog="signcrystal", description=__doc__)
    # each subparser names its handler, and each handler imports the
    # modules it runs, so a cold command loads only those
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("reduce", help="reduce a sign word and report its statistics")
    p.set_defaults(handler=_cmd_reduce)
    p.add_argument("--string", help="word over '+' and '-'")

    p = sub.add_parser("string-op", help="apply a sign-word operation")
    p.set_defaults(handler=_cmd_string_op)
    p.add_argument(
        "--op",
        required=True,
        choices=["e", "f", "suffix-h", "compare", "plus-flips", "minus-flips"],
    )
    p.add_argument("--string")
    p.add_argument("--other", help="second word for compare")
    p.add_argument("--k", type=int, help="1-based suffix start for suffix-h")

    p = sub.add_parser("boundary", help="boundary of a multipartition in one class")
    p.set_defaults(handler=_cmd_boundary)
    _add_class_flags(p)

    p = sub.add_parser("fock-op", help="box-adding/-removing crystal operator")
    p.set_defaults(handler=_cmd_fock_op)
    p.add_argument("--op", required=True, choices=["add", "remove"])
    _add_class_flags(p)

    p = sub.add_parser("kgroup", help="all single box additions/removals in one class")
    p.set_defaults(handler=_cmd_kgroup)
    p.add_argument("--op", required=True, choices=["induction", "restriction"])
    _add_class_flags(p)

    p = sub.add_parser("class-member", help="class element with a prescribed sign word")
    p.set_defaults(handler=_cmd_class_member)
    _add_class_flags(p)
    p.add_argument("--string")

    p = sub.add_parser("gl-op", help="dominant-weight realization operations")
    p.set_defaults(handler=_cmd_gl_op)
    p.add_argument("--op", required=True, choices=["positions", "sign", "add", "remove"])
    p.add_argument("--weight", required=True, help="JSON list of strictly decreasing integers")
    p.add_argument("--i", required=True, type=int, help="class index")
    p.add_argument("--p", required=True, type=int, help="0 or a prime")

    p = sub.add_parser("depth", help="box-removing depth of a label")
    p.set_defaults(handler=_cmd_depth)
    _add_label_flags(p)

    p = sub.add_parser("support", help="support stratum of a label")
    p.set_defaults(handler=_cmd_support)
    _add_label_flags(p)

    p = sub.add_parser("graph", help="crystal graph over all small multipartitions")
    p.set_defaults(handler=_cmd_graph)
    _add_params_flag(p)
    p.add_argument("--max-boxes", required=True, type=int)
    p.add_argument("--z", default="all", help="'all', a class object, or a list of classes")
    p.add_argument("--format", default="json", choices=["json", "dot"])
    p.add_argument("--ceiling", type=int, default=DEFAULT_NODE_CEILING, help="ceiling on nodes x ell")

    # an unset flag stays out of the namespace: verify rejects a bound the
    # suite does not take
    p = sub.add_parser(
        "verify", help="run a named verification suite", argument_default=argparse.SUPPRESS
    )
    p.set_defaults(handler=_cmd_verify)
    # no choices list: engine.SUITES is the one list of suites, and an
    # unknown name is a ValidationError from engine.verify
    p.add_argument("--suite", required=True, help="suite name; an unknown one exits 2 and lists them")
    p.add_argument("--n", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_params_flag(p, required=False)
    p.add_argument("--max-boxes", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--entry-bound", type=int)
    p.add_argument(
        "--ceiling",
        type=int,
        help="budget override: words, rewrites (words x trials), labels or checks, by suite",
    )

    p = sub.add_parser("params", help="echo parameters with numeric conversions")
    p.set_defaults(handler=_cmd_params)
    _add_params_flag(p)

    return parser


def _add_params_flag(p, required: bool = True) -> None:
    p.add_argument("--params", required=required, help="inline JSON or a file path")


def _add_label_flags(p) -> None:
    _add_params_flag(p)
    p.add_argument("--mp", required=True, help="multipartition JSON")


def _add_class_flags(p) -> None:
    _add_label_flags(p)
    p.add_argument("--class", dest="zclass", required=True, help="class JSON")


def _load_json(text: str, what: str):
    # ValueError covers JSONDecodeError and integers beyond Python's digit
    # limit; RecursionError comes from deeply nested arrays or objects
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:
        raise ValidationError(f"invalid JSON for {what}: {err}", location=what)


def _params_arg(args):
    from . import serialize

    raw = text = args.params
    if not raw.lstrip().startswith("{"):
        try:
            with open(raw, encoding="utf-8") as handle:
                text = handle.read(DEFAULT_NODE_CEILING + 1)
        except (OSError, UnicodeDecodeError) as err:
            raise ValidationError(f"cannot read params file {raw!r}: {err}", location="params")
        # inline params are bounded by the argument size of the OS, a file by
        # the ceiling
        Budget(
            DEFAULT_NODE_CEILING, "params file {!r} holds more than {ceiling} characters", raw
        ).charge(len(text))
    return serialize.params_from_json(_load_json(text, "params"))


def _label_args(args):
    """(params, multipartition), read in that order."""
    from .young import Multipartition

    return _params_arg(args), Multipartition.from_lists(_load_json(args.mp, "mp"))


def _class_args(args):
    """(params, multipartition, class), read in that order."""
    from . import serialize

    params, m = _label_args(args)
    return params, m, serialize.zclass_from_json(_load_json(args.zclass, "class"), params)


def _word_arg(args) -> str:
    if args.string is None:
        raise ValidationError("--string is required for this command")
    return args.string


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
    from . import realizations, serialize

    return serialize.boundary_to_json(realizations.boundary(*_class_args(args)))


def _cmd_fock_op(args):
    from . import realizations, serialize

    fn = realizations.crystal_add if args.op == "add" else realizations.crystal_remove
    step = fn(*_class_args(args))
    if step is None:
        return {"result": None, "box": None}
    return {"result": step[0].to_lists(), "box": serialize.box_to_json(step[1])}


def _cmd_kgroup(args):
    from . import realizations

    fn = (
        realizations.kgroup_induction
        if args.op == "induction"
        else realizations.kgroup_restriction
    )
    return {"results": [mp.to_lists() for mp in fn(*_class_args(args))]}


def _cmd_class_member(args):
    from . import realizations

    member = realizations.class_member(*_class_args(args), _word_arg(args))
    return {"result": member.to_lists()}


def _cmd_gl_op(args):
    from . import realizations

    # the library turns a non-list weight into a ValidationError too; this
    # guard stays for the CLI's own message and its "location": "weight"
    w = _load_json(args.weight, "weight")
    if not isinstance(w, list):
        raise ValidationError("weight must be a JSON list of integers", location="weight")
    if args.op in ("positions", "sign"):
        positions, sign = realizations.gl_word(w, args.i, args.p)
        if args.op == "positions":
            return {"positions": positions}
        return {"positions": positions, "sign": sign}
    fn = realizations.gl_crystal_add if args.op == "add" else realizations.gl_crystal_remove
    result = fn(w, args.i, args.p)
    return {"result": None if result is None else list(result)}


def _cmd_depth(args):
    from . import engine

    return {"depth": engine.depth(*_label_args(args))}


def _cmd_support(args):
    from . import engine, serialize

    return serialize.support_to_json(engine.support(*_label_args(args)))


def _cmd_graph(args):
    from . import engine, serialize

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
    graph = engine.build_graph(params, args.max_boxes, classes=classes, node_ceiling=args.ceiling)
    if args.format == "dot":
        return serialize.graph_to_dot(graph)
    return serialize.graph_to_json(graph)


def _cmd_verify(args):
    from . import engine, serialize

    bounds = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "suite")}
    if "params" in bounds:
        bounds["params"] = _params_arg(args)
    report = engine.verify(args.suite, **bounds)
    return serialize.report_to_json(report), (0 if report.passed else 3)


def _cmd_params(args):
    from . import serialize
    from .params import cyclotomic_c, hecke_parameters

    p = _params_arg(args)
    out = serialize.params_to_json(p)
    out["e"] = "infinity" if p.e is None else p.e
    if p.is_rational:
        c0, rest = cyclotomic_c(p)
        q, qs = hecke_parameters(p)
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


if __name__ == "__main__":
    raise SystemExit(main())
