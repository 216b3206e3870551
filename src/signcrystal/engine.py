"""Whole-crystal computations: depth under box-removing moves, support
strata, crystal graphs over all small multipartitions, maximal strings,
and the named verification suites.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import naive
from .errors import DegenerateClassError, ResourceCeilingError, ValidationError
from .params import IRRATIONAL, Params, ZClass
from .realizations import (
    REMOVABLE,
    apply_flip,
    boundary,
    boundaries,
    gl_crystal_add,
    gl_crystal_remove,
    gl_positions,
    gl_sign_string,
)
from .signstrings import (
    MINUS,
    PLUS,
    e_tilde,
    f_tilde,
    iter_words,
    plus_flips,
    reduced_form,
    statistics,
    succ_compare,
    suffix_h_minus,
    weight,
)
from .young import BoxRef, Multipartition, multipartitions_up_to

DEFAULT_NODE_CEILING = 2_000_000
DEFAULT_WORD_CEILING = 1 << 14


def depth(params: Params, m: Multipartition, memo: dict | None = None) -> int:
    """Number of box-removing crystal moves down to a stuck label,
    maximized over classes.

    Only classes with a removable box can move, so the maximum over all
    classes reduces to a finite one.  `memo` may be shared across calls
    with the same parameters.
    """
    if m.ell != params.ell:
        raise ValidationError(
            f"multipartition has {m.ell} components, parameters expect {params.ell}"
        )
    if memo is None:
        memo = {}

    def go(mp: Multipartition) -> int:
        known = memo.get(mp)
        if known is not None:
            return known
        best = 0
        for b in boundaries(params, mp).values():
            if MINUS not in b.sign:
                continue
            step = apply_flip(mp, b, raising=False)
            if step is not None:
                candidate = 1 + go(step[0])
                if candidate > best:
                    best = candidate
        memo[mp] = best
        return best

    return go(m)


@dataclass(frozen=True)
class SupportDescriptor:
    """Stratum data for a label: box count n, quantum characteristic e
    (None = infinite), depth index, and the free index j.  j is None when
    the parameters leave it undetermined inside 0..j_max."""

    n: int
    e: int | None
    depth: int
    j: int | None
    j_max: int


def support(params: Params, m: Multipartition, memo: dict | None = None) -> SupportDescriptor:
    i = depth(params, m, memo)
    n = m.size
    if params.e is None:
        return SupportDescriptor(n, None, i, 0, 0)
    return SupportDescriptor(n, params.e, i, None, (n - i) // params.e)


@dataclass(frozen=True)
class GraphEdge:
    source: Multipartition
    target: Multipartition
    z: ZClass
    box: BoxRef


@dataclass(frozen=True)
class CrystalGraph:
    params: Params
    max_boxes: int
    nodes: tuple[Multipartition, ...]
    edges: tuple[GraphEdge, ...]
    classes: tuple[ZClass, ...] | None  # None = every class encountered


def build_graph(
    params: Params,
    max_boxes: int,
    classes=None,
    node_ceiling: int = DEFAULT_NODE_CEILING,
) -> CrystalGraph:
    """Crystal graph on all multipartitions with at most max_boxes boxes.

    Edges are the box-adding moves whose target stays inside the node set;
    per class every node has at most one outgoing and one incoming edge.
    """
    if not isinstance(max_boxes, int) or isinstance(max_boxes, bool) or max_boxes < 0:
        raise ValidationError(f"max_boxes must be a nonnegative integer, got {max_boxes!r}")
    allowed = None
    if classes is not None:
        allowed = tuple(sorted({params.coerce_class(z) for z in classes}))
    nodes: list[Multipartition] = []
    for mp in multipartitions_up_to(params.ell, max_boxes):
        nodes.append(mp)
        if len(nodes) > node_ceiling:
            raise ResourceCeilingError(f"graph would exceed the node ceiling {node_ceiling}")
    nodes.sort(key=lambda mp: mp.sort_key())

    edges = []
    for mp in nodes:
        if mp.size >= max_boxes:
            continue
        for z, b in boundaries(params, mp).items():
            if allowed is not None and z not in allowed:
                continue
            step = apply_flip(mp, b, raising=True)
            if step is not None:
                edges.append(GraphEdge(mp, step[0], z, step[1]))
    # Already in this order; kept because dropping it moves a full garbage
    # collection into perfbench's timed string_decomposition calls.
    edges.sort(key=lambda e: (e.source.sort_key(), e.z))
    return CrystalGraph(params, max_boxes, tuple(nodes), tuple(edges), allowed)


def string_decomposition(graph: CrystalGraph, z: ZClass) -> list[list[Multipartition]]:
    """Maximal chains of class-z edges; untouched nodes become singletons.

    Per class the edges form disjoint directed paths, so the chains
    partition the node set.
    """
    z = graph.params.coerce_class(z)
    if graph.classes is not None and z not in graph.classes:
        raise ValidationError(f"graph was built without class {z}")
    succ: dict[Multipartition, Multipartition] = {}
    pred: dict[Multipartition, Multipartition] = {}
    for edge in graph.edges:
        if edge.z == z:
            succ[edge.source] = edge.target
            pred[edge.target] = edge.source
    chains = []
    for node in graph.nodes:
        if node in pred:
            continue
        chain = [node]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(chain)
    return chains


# --- verification suites ------------------------------------------------


@dataclass
class VerifyReport:
    suite: str
    bounds: dict
    passed: bool
    checked: int
    counterexample: dict | None = None


def verify(suite: str, **bounds) -> VerifyReport:
    """Run a named exhaustive suite; reports the first counterexample.
    Bounds that leave nothing to check are a ValidationError, not a pass."""
    runners = {
        "axioms": _verify_axioms,
        "confluence": _verify_confluence,
        "comb_lemma": _verify_comb_lemma,
        "boundary_invariance": _verify_boundary_invariance,
        "realization_consistency": _verify_realization_consistency,
        "gl_realization": _verify_gl_realization,
        "depth_irrational": _verify_depth_irrational,
    }
    runner = runners.get(suite)
    if runner is None:
        raise ValidationError(f"unknown suite {suite!r}; choose from {sorted(runners)}")
    report = runner(**bounds)
    if report.passed and report.checked == 0:
        raise ValidationError(f"suite {suite!r} checks nothing under the bounds {report.bounds}")
    return report


def _check_word_budget(n: int, word_ceiling: int) -> None:
    if 2**n > word_ceiling:
        raise ResourceCeilingError(
            f"2^{n} words exceed the ceiling {word_ceiling}; raise it explicitly to proceed"
        )


def _verify_axioms(n: int = 14, word_ceiling: int = DEFAULT_WORD_CEILING) -> VerifyReport:
    _check_word_budget(n, word_ceiling)
    bounds = {"n": n}

    def fail(word, violated):
        return VerifyReport("axioms", bounds, False, checked, {"word": word, "violated": violated})

    checked = 0
    for length in range(n + 1):
        for t in iter_words(length):
            checked += 1
            hp, hm = statistics(t)
            wt = weight(t)
            if wt != hm - hp or wt != t.count(MINUS) - t.count(PLUS):
                return fail(t, "weight")
            up, down = e_tilde(t), f_tilde(t)
            if (up is None) != (hp == 0) or (down is None) != (hm == 0):
                return fail(t, "definedness")
            if up is not None:
                u, i = up
                if f_tilde(u) != (t, i):
                    return fail(t, "raise/lower inverse")
                if statistics(u) != (hp - 1, hm + 1):
                    return fail(t, "statistics shift")
                if weight(u) != wt + 2:
                    return fail(t, "weight shift")
            if down is not None:
                d, j = down
                if e_tilde(d) != (t, j):
                    return fail(t, "lower/raise inverse")
    return VerifyReport("axioms", bounds, True, checked)


def _verify_confluence(
    n: int = 10,
    trials: int = 100,
    seed: int = 0,
    word_ceiling: int = DEFAULT_WORD_CEILING,
) -> VerifyReport:
    _check_word_budget(n, word_ceiling)
    bounds = {"n": n, "trials": trials, "seed": seed}
    rng = random.Random(seed)
    checked = 0
    for length in range(n + 1):
        for t in iter_words(length):
            expected = reduced_form(t)
            for _ in range(trials):
                checked += 1
                got = naive.reduce_by_rewriting(t, rng)
                if got != expected:
                    return VerifyReport(
                        "confluence",
                        bounds,
                        False,
                        checked,
                        {"word": t, "expected": expected, "got": got},
                    )
    return VerifyReport("confluence", bounds, True, checked)


def _verify_comb_lemma(n: int = 12, word_ceiling: int = DEFAULT_WORD_CEILING) -> VerifyReport:
    _check_word_budget(n, word_ceiling)
    bounds = {"n": n}

    def fail(word, l, violated):
        return VerifyReport(
            "comb_lemma", bounds, False, checked, {"word": word, "l": l, "violated": violated}
        )

    checked = 0
    for length in range(1, n + 1):
        for t in iter_words(length):
            checked += 1
            hs = [suffix_h_minus(t, k) for k in range(1, length + 2)]
            for a, b in zip(hs, hs[1:]):
                if a < b:
                    return fail(t, None, "suffix monotonicity")
            for l in range(1, length + 1):
                if hs[l - 1] <= hs[l]:
                    continue
                tbar = t[: l - 1] + PLUS + t[l:]
                flips = plus_flips(tbar)
                for (_, u), (_, v) in zip(flips, flips[1:]):
                    if succ_compare(v, u) != 1:
                        return fail(t, l, "flip order")
                j = next(idx for idx, (pos, _) in enumerate(flips) if pos == l)
                if flips[j][1] != t:
                    return fail(t, l, "flip identification")
                if hs[l] + 1 != hs[l - 1]:
                    return fail(t, l, "claim 1")
                for idx in range(j):
                    if suffix_h_minus(flips[idx][1], l + 1) != hs[l]:
                        return fail(t, l, "claim 2")
                for idx in range(j + 1, len(flips)):
                    if suffix_h_minus(flips[idx][1], l + 1) < hs[l - 1] + 1:
                        return fail(t, l, "claim 3")
    return VerifyReport("comb_lemma", bounds, True, checked)


def _verify_boundary_invariance(params: Params | None = None, max_boxes: int = 8) -> VerifyReport:
    if params is None:
        raise ValidationError("boundary_invariance needs params")
    bounds = {"params": params, "max_boxes": max_boxes}
    checked = 0
    for m in multipartitions_up_to(params.ell, max_boxes):
        for x in m.addable_boxes:
            z = params.z_class(x)
            before = boundary(params, m, z)
            after = boundary(params, m.add_box(x), z)
            expected_kinds = tuple(
                REMOVABLE if box == x else kind for box, kind in before.entries()
            )
            checked += 1
            if after.boxes != before.boxes or after.kinds != expected_kinds:
                return VerifyReport(
                    "boundary_invariance",
                    bounds,
                    False,
                    checked,
                    {"multipartition": m.to_lists(), "box": list(x), "class": [z.kind, z.value]},
                )
    return VerifyReport("boundary_invariance", bounds, True, checked)


def _verify_realization_consistency(
    params: Params | None = None, max_boxes: int = 8
) -> VerifyReport:
    if params is None:
        raise ValidationError("realization_consistency needs params")
    bounds = {"params": params, "max_boxes": max_boxes}
    kappa = params.kappa if params.is_rational else None
    checked = 0
    for m in multipartitions_up_to(params.ell, max_boxes):
        for z, b in boundaries(params, m).items():
            zp = (z.kind, z.value)
            checked += 1
            for production, reference in (
                (apply_flip(m, b, raising=True), naive.crystal_add(params.ell, kappa, params.charges, m.components, zp)),
                (apply_flip(m, b, raising=False), naive.crystal_remove(params.ell, kappa, params.charges, m.components, zp)),
            ):
                if not _same_step(production, reference):
                    return VerifyReport(
                        "realization_consistency",
                        bounds,
                        False,
                        checked,
                        {"multipartition": m.to_lists(), "class": [z.kind, z.value]},
                    )
    return VerifyReport("realization_consistency", bounds, True, checked)


def _same_step(production, reference) -> bool:
    if production is None or reference is None:
        return production is None and reference is None
    mp, box = production
    return mp.components == reference[0] and tuple(box) == reference[1]


def _verify_gl_realization(n: int = 3, p: int = 3, entry_bound: int = 6) -> VerifyReport:
    bounds = {"n": n, "p": p, "entry_bound": entry_bound}

    def fail(w, i, violated):
        return VerifyReport(
            "gl_realization", bounds, False, checked, {"weight": list(w), "i": i, "violated": violated}
        )

    i_values = list(range(p)) if p else list(range(-1, entry_bound + 1))
    checked = 0
    for w in itertools.combinations(range(entry_bound, -1, -1), n):
        for i in i_values:
            checked += 1
            positions = gl_positions(w, i, p)
            sign = gl_sign_string(w, i, p)
            ref_positions, ref_sign = naive.gl_sign(w, i, p)
            if positions != ref_positions or sign != ref_sign:
                return fail(w, i, "sign word")
            up = _gl_call(gl_crystal_add, w, i, p)
            if up != naive.gl_add(w, i, p):
                return fail(w, i, "raise")
            down = _gl_call(gl_crystal_remove, w, i, p)
            if down != naive.gl_remove(w, i, p):
                return fail(w, i, "lower")
            if isinstance(up, tuple) and _gl_call(gl_crystal_remove, up, i, p) != w:
                return fail(w, i, "raise/lower inverse")
            if isinstance(down, tuple) and _gl_call(gl_crystal_add, down, i, p) != w:
                return fail(w, i, "lower/raise inverse")
    return VerifyReport("gl_realization", bounds, True, checked)


def _gl_call(fn, w, i, p):
    try:
        return fn(w, i, p)
    except DegenerateClassError:
        return "degenerate"


def _verify_depth_irrational(max_boxes: int = 8) -> VerifyReport:
    params = Params(1, IRRATIONAL, (0,))
    bounds = {"max_boxes": max_boxes}
    memo: dict = {}
    checked = 0
    for m in multipartitions_up_to(1, max_boxes):
        checked += 1
        if depth(params, m, memo) != m.size:
            return VerifyReport(
                "depth_irrational", bounds, False, checked, {"multipartition": m.to_lists()}
            )
    return VerifyReport("depth_irrational", bounds, True, checked)
