"""JSON forms of the public value types, requests and reports.

Parameters and class labels are read and written, and a written one
parses back to an equal value.  A multipartition is written as its list
of rows and read by `Multipartition.from_lists`.  Boxes, boundaries and
engine results are written only.  Floating point appears only in the
numeric parameter conversions, which the CLI labels as approximate.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import ValidationError, is_int
from .params import IRRATIONAL, Params, ZClass
from .young import BoxRef

if TYPE_CHECKING:
    # annotations only: a command that serializes no boundary or engine
    # result loads neither realizations nor engine
    from .engine import CrystalGraph, SupportDescriptor, VerifyReport
    from .realizations import ZBoundary


def params_to_json(p: Params) -> dict:
    if p.is_rational:
        kappa = {"num": p.kappa.numerator, "den": p.kappa.denominator}
    else:
        kappa = "irrational"
    return {"ell": p.ell, "kappa": kappa, "charges": list(p.charges)}


def params_from_json(obj) -> Params:
    if not isinstance(obj, dict):
        raise ValidationError("params must be a JSON object", location="params")
    unknown = set(obj) - {"ell", "kappa", "charges"}
    if unknown:
        raise ValidationError(f"unknown params fields: {sorted(unknown)}", location="params")
    if "kappa" not in obj or "charges" not in obj:
        raise ValidationError('params need "kappa" and "charges"', location="params")
    raw = obj["kappa"]
    if raw == "irrational":
        kappa = IRRATIONAL
    elif isinstance(raw, dict) and set(raw) == {"num", "den"}:
        num, den = raw["num"], raw["den"]
        if not is_int(num) or not is_int(den) or den == 0:
            raise ValidationError("kappa needs integer num and nonzero integer den", location="params.kappa")
        kappa = Fraction(num, den)
    else:
        raise ValidationError('kappa must be {"num":..., "den":...} or "irrational"', location="params.kappa")
    charges = obj["charges"]
    if not isinstance(charges, list) or not all(is_int(s) for s in charges):
        raise ValidationError("charges must be a list of integers", location="params.charges")
    ell = obj.get("ell", len(charges))
    if not is_int(ell):
        raise ValidationError("ell must be an integer", location="params.ell")
    return Params(ell, kappa, tuple(charges))


def zclass_to_json(z: ZClass) -> dict:
    return {z.kind: z.value}


def zclass_from_json(obj, params: Params) -> ZClass:
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValidationError('class must be {"residue": r} or {"content": c}', location="class")
    ((kind, value),) = obj.items()
    if kind not in ("residue", "content") or not is_int(value):
        raise ValidationError(
            'class must be {"residue": r} or {"content": c} with an integer value',
            location="class",
        )
    return params.coerce_class(ZClass(kind, value))


def box_to_json(box: BoxRef) -> dict:
    return {"c": box.comp, "row": box.row, "col": box.col}


def fraction_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def complex_to_json(x: complex) -> dict:
    # + 0.0 turns a negative zero into 0.0
    return {"re": x.real + 0.0, "im": x.imag + 0.0}


def boundary_to_json(b: ZBoundary) -> dict:
    return {
        "class": zclass_to_json(b.z),
        "entries": [
            {"box": box_to_json(box), "kind": "addable" if sym == "+" else "removable", "sign": sym}
            for box, sym in zip(b.boxes, b.sign)
        ],
        "sign": b.sign,
    }


def support_to_json(s: SupportDescriptor) -> dict:
    out = {"n": s.n, "e": "infinity" if s.e is None else s.e, "i": s.depth}
    if s.j is None:
        out["j"] = "undetermined"
        out["j_range"] = [0, s.j_max]
    else:
        out["j"] = s.j
    return out


def graph_to_json(g: CrystalGraph) -> dict:
    """The graph as JSON; an edge's source and target are node indices.

    Edges of one class share one class dict, and edges that add the same
    box share one box dict, so mutating one edge's dict changes the others.
    """
    classes = {z: zclass_to_json(z) for z in {e.z for e in g.edges}}
    boxes = {box: box_to_json(box) for box in {e.box for e in g.edges}}
    return {
        "params": params_to_json(g.params),
        "max_boxes": g.max_boxes,
        "classes": "all" if g.classes is None else [zclass_to_json(z) for z in g.classes],
        "nodes": [node.to_lists() for node in g.nodes],
        "edges": [
            {"source": e.source, "target": e.target, "class": classes[e.z], "box": boxes[e.box]}
            for e in g.edges
        ],
    }


def graph_to_dot(g: CrystalGraph) -> str:
    labels = {z: _class_label(g.params, z) for z in {e.z for e in g.edges}}
    lines = ["digraph crystal {"]
    for k, node in enumerate(g.nodes):
        label = json.dumps(node.to_lists(), separators=(",", ":"))
        lines.append(f'  n{k} [label="{label}"];')
    for e in g.edges:
        label = f"z={labels[e.z]}, box=({e.box.comp},{e.box.row},{e.box.col})"
        lines.append(f'  n{e.source} -> n{e.target} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _class_label(params: Params, z: ZClass) -> str:
    if z.kind == "residue":
        return f"{z.value} mod {params.e}"
    return f"cont {z.value}"


def report_to_json(r: VerifyReport) -> dict:
    return {
        "suite": r.suite,
        "bounds": {k: _bound_value(v) for k, v in r.bounds.items()},
        "pass": r.passed,
        "checked": r.checked,
        "counterexample": r.counterexample,
    }


def _bound_value(v):
    if isinstance(v, Params):
        return params_to_json(v)
    return v
