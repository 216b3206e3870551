"""Whole-crystal computations: depth under box-removing moves, support
strata, crystal graphs over all small multipartitions, maximal strings,
and the named verification suites.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

# naive is imported inside the three suites that check against it, so no
# other computation loads it
from .errors import DEFAULT_NODE_CEILING, Budget, ValidationError, as_tuple, is_int
from .params import IRRATIONAL, Params, ZClass
from .realizations import (
    _check_characteristic,
    _check_pair,
    _gl_read,
    _gl_step,
    _merge,
    _step,
)
from .signstrings import (
    MINUS,
    PLUS,
    _flip_at,
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
from .young import BoxRef, Multipartition, multipartitions_of, multipartitions_up_to

DEFAULT_WORD_CEILING = 1 << 14
_DEPTH_STEPS = "depth walks up to {spent} steps, above the ceiling {ceiling}"
_DEPTH_CORNERS = "depth would rebuild more than {ceiling} boundary corners"
_GRAPH_COMPONENTS = (
    "graph would hold more than {ceiling} components (nodes x ell); raise the ceiling to proceed"
)


def depth(params: Params, m: Multipartition, memo: dict | None = None) -> int:
    """Number of box-removing crystal moves down to a stuck label.

    Each box-removing move (Kashiwara's e_i on the Fock space) adds a
    simple root to the weight, and a connected component of a
    highest-weight crystal has exactly one label that no move changes.
    So every maximal chain of moves from m ends at the same label and has
    the same length, and one walk decides the depth: it takes the first
    class, in class order, whose lowering flip exists.

    `memo` may be shared across calls with the same parameters; every
    entry is an exact depth, and one call adds at most m.size + 1 entries.
    The walk builds each (component, rows) pair's corners once, in a
    corner table of its own that holds the current label's components,
    but each step still merges the corners of every component, so the
    walk charges each step its corner count: a label above
    DEFAULT_NODE_CEILING boxes, or a walk whose corners pass
    DEFAULT_NODE_CEILING, raises ResourceCeilingError.
    """
    _check_pair(params, m)
    Budget(DEFAULT_NODE_CEILING, _DEPTH_STEPS).charge(m.size)
    if memo is None:
        memo = {}
    path = []
    mp = m
    corners = Budget(DEFAULT_NODE_CEILING, _DEPTH_CORNERS)
    corner_table: dict = {}
    while mp is not None and mp not in memo:
        path.append(mp)
        merged = _merge(params, mp, corner_table, None)
        corners.charge(sum(len(boxes) for _, boxes, _ in merged))
        box = None
        for _, boxes, sign in merged:
            i = _flip_at(sign, False)  # the lowering flip
            if i >= 0:
                box = boxes[i]
                break
        if box is None:
            mp = None
        else:
            # rows only shrink along the walk, so the stepped component's old
            # corners are never read again: the table keeps one entry per
            # component, not one per step
            del corner_table[box.comp, mp.components[box.comp]]
            mp = mp.remove_box(box)
    # the last label on the path is one step above mp, or stuck (depth 0)
    below = -1 if mp is None else memo[mp]
    for k, label in enumerate(reversed(path), 1):
        memo[label] = below + k
    return memo[m]


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


class GraphEdge(NamedTuple):
    """A box-adding move; `source` and `target` index CrystalGraph.nodes."""

    source: int
    target: int
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
    An edge names its endpoints by their index in `nodes`, and every edge
    of one class holds the same ZClass object.  Edges come in (source, z)
    order: the nodes are sorted, and `_merge` gives each node's classes in
    class order.

    node_ceiling bounds the components the graph holds, nodes x ell: each
    node costs its ell components to enumerate and to store.
    """
    if not is_int(max_boxes) or max_boxes < 0:
        raise ValidationError("max_boxes must be a nonnegative integer, got {!r}", max_boxes)
    if not is_int(node_ceiling) or node_ceiling < 0:
        raise ValidationError("node_ceiling must be a nonnegative integer, got {!r}", node_ceiling)
    allowed = only = None
    if classes is not None:
        classes = as_tuple(classes, "classes must be a sequence of ZClass labels")
        allowed = tuple(sorted({params.coerce_class(z) for z in classes}))
        only = {z.value for z in allowed}
    # size by size, each size sorted by its rows: (size, rows) order
    ell, components = params.ell, Budget(node_ceiling, _GRAPH_COMPONENTS)
    nodes: list[Multipartition] = []
    for n in range(max_boxes + 1):
        below = len(nodes)
        for mp in multipartitions_of(ell, n):
            components.charge(ell)
            nodes.append(mp)
        nodes[below:] = sorted(nodes[below:], key=attrgetter("components"))
    index = {mp.components: k for k, mp in enumerate(nodes)}

    # the nodes of size max_boxes come last and take no box-adding edge.
    # Few class words recur across many nodes, so each word's raising flip
    # is read once per call
    zs: dict[int, ZClass] = {}
    raising: dict[str, int] = {}
    corner_table: dict = {}
    edges = []
    for k in range(below):
        mp = nodes[k]
        for value, boxes, sign in _merge(params, mp, corner_table, only):
            i = raising.get(sign)
            if i is None:
                i = raising[sign] = _flip_at(sign, True)
            if i >= 0:
                z = zs.get(value)
                if z is None:
                    z = zs[value] = ZClass(params.class_kind, value)
                box = boxes[i]
                edges.append(GraphEdge(k, index[mp.add_box(box).components], z, box))
    return CrystalGraph(params, max_boxes, tuple(nodes), tuple(edges), allowed)


def string_decomposition(graph: CrystalGraph, z: ZClass) -> list[list[Multipartition]]:
    """Maximal chains of class-z edges; untouched nodes become singletons.

    Per class the edges form disjoint directed paths, so the chains
    partition the node set.  One pass over the edges reads each as a
    tuple and keeps those whose class value is z's: every edge of a graph
    has its params' class kind.
    """
    z = graph.params.coerce_class(z)
    if graph.classes is not None and z not in graph.classes:
        raise ValidationError("graph was built without class {}", z)
    nodes = graph.nodes
    succ = [-1] * len(nodes)
    has_pred = bytearray(len(nodes))
    value = z.value
    for source, target, ez, _ in graph.edges:
        if ez.value == value:
            succ[source] = target
            has_pred[target] = 1
    chains = []
    for k, node in enumerate(nodes):
        if has_pred[k]:
            continue
        chain = [node]
        nxt = succ[k]
        while nxt >= 0:
            chain.append(nodes[nxt])
            nxt = succ[nxt]
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
    """Run the suite named in SUITES and report its first counterexample;
    `checked` counts the cases run, that one included.

    `bounds` are the keyword arguments of the suite's runner; those left
    out take the runner's defaults.  Every suite takes `ceiling`, the
    budget that ends in ResourceCeilingError, and the report's bounds are
    the others.  `params` is a Params and every other bound an int.  A
    bound the suite does not take, a missing or ill-typed one, a negative
    ceiling, or bounds that leave nothing to check are a ValidationError,
    not a pass.
    """
    runner = SUITES.get(suite)
    if runner is None:
        raise ValidationError("unknown suite {!r}; choose from {}", suite, sorted(SUITES))
    signature = inspect.signature(runner)
    try:
        args = signature.bind(**bounds)
    except TypeError as err:
        takes = ", ".join(signature.parameters)
        raise ValidationError(f"suite {suite!r}: {err} (it takes {takes})") from None
    args.apply_defaults()
    for name, value in args.arguments.items():
        want = Params if name == "params" else int
        if not (isinstance(value, Params) if want is Params else is_int(value)):
            raise ValidationError(
                "suite {!r}: {} must be {}, got {!r}", suite, name, want.__name__, value
            )
    ceiling = args.arguments["ceiling"]
    if ceiling < 0:
        raise ValidationError("suite {!r}: ceiling must be nonnegative, got {}", suite, ceiling)
    checked, counterexample, cases = 0, None, runner(**args.arguments)
    for counterexample in cases:
        checked += 1
        if counterexample is not None:
            break
    cases.close()
    shown = {k: v for k, v in args.arguments.items() if k != "ceiling"}
    report = VerifyReport(suite, shown, counterexample is None, checked, counterexample)
    if report.passed and checked == 0:
        raise ValidationError("suite {!r} checks nothing under the bounds {}", suite, report.bounds)
    return report


# Each runner is a generator that yields once per case: the case's
# counterexample dict at the check that finds it, or None once the case
# holds.  `verify` alone counts the items, and it closes the runner at the
# first counterexample, so no later check of that case runs.


def _check_word_budget(n: int, ceiling: int) -> None:
    # a negative n checks no word; past the ceiling's bit length, 2**n alone can exhaust memory
    words = 0 if n < 0 else 2**n if n <= ceiling.bit_length() else ceiling + 1
    message = "2^{} words exceed the ceiling {ceiling}; raise it explicitly to proceed"
    Budget(ceiling, message, n).charge(words)


def _verify_axioms(n: int = 14, ceiling: int = DEFAULT_WORD_CEILING):
    _check_word_budget(n, ceiling)
    for length in range(n + 1):
        for t in iter_words(length):
            hp, hm = statistics(t)
            wt = weight(t)
            if wt != hm - hp or wt != t.count(MINUS) - t.count(PLUS):
                yield {"word": t, "violated": "weight"}
            up, down = e_tilde(t), f_tilde(t)
            if (up is None) != (hp == 0) or (down is None) != (hm == 0):
                yield {"word": t, "violated": "definedness"}
            if up is not None:
                u, i = up
                if f_tilde(u) != (t, i):
                    yield {"word": t, "violated": "raise/lower inverse"}
                if statistics(u) != (hp - 1, hm + 1):
                    yield {"word": t, "violated": "statistics shift"}
                if weight(u) != wt + 2:
                    yield {"word": t, "violated": "weight shift"}
            if down is not None:
                d, j = down
                if e_tilde(d) != (t, j):
                    yield {"word": t, "violated": "lower/raise inverse"}
            # statistics and the flips are counted without a reduced word;
            # this ties them to the one word reduced_form writes
            r = reduced_form(t)
            counted = (hp, hm, up[1] if up else 0, down[1] if down else 0)
            if counted != (r.count(PLUS), r.count(MINUS), r.rfind(PLUS) + 1, r.find(MINUS) + 1):
                yield {"word": t, "violated": "reduced form"}
            yield None


def _verify_confluence(
    n: int = 10, trials: int = 100, seed: int = 0, ceiling: int = DEFAULT_NODE_CEILING
):
    # the budget counts each word of length 0..n once per trial, and at
    # least once; past the ceiling's bit length, a huge n never forms 2**n
    runs = max(trials, 1)
    rewrites = ((1 << max(n + 1, 0)) - 1) * runs if n <= ceiling.bit_length() else ceiling + 1
    message = (
        "confluence would rewrite every word up to length {} x {} trials, above the "
        "ceiling {ceiling}; raise it explicitly to proceed"
    )
    Budget(ceiling, message, n, runs).charge(rewrites)
    from . import naive

    rng = random.Random(seed)
    for length in range(n + 1):
        for t in iter_words(length):
            expected = reduced_form(t)
            # range first: zip stops before it pulls a reduction past the last trial
            for _, got in zip(range(trials), naive.reductions(t, rng)):
                if got != expected:
                    yield {"word": t, "expected": expected, "got": got}
                yield None


def _verify_comb_lemma(n: int = 12, ceiling: int = DEFAULT_WORD_CEILING):
    _check_word_budget(n, ceiling)
    for length in range(1, n + 1):
        for t in iter_words(length):
            hs = [suffix_h_minus(t, k) for k in range(1, length + 2)]
            for a, b in zip(hs, hs[1:]):
                if a < b:
                    yield {"word": t, "l": None, "violated": "suffix monotonicity"}
            for l in range(1, length + 1):
                if hs[l - 1] <= hs[l]:
                    continue
                tbar = t[: l - 1] + PLUS + t[l:]
                flips = plus_flips(tbar)
                for (_, u), (_, v) in zip(flips, flips[1:]):
                    if succ_compare(v, u) != 1:
                        yield {"word": t, "l": l, "violated": "flip order"}
                j = next((idx for idx, (pos, _) in enumerate(flips) if pos == l), None)
                if j is None or flips[j][1] != t:
                    yield {"word": t, "l": l, "violated": "flip identification"}
                if hs[l] + 1 != hs[l - 1]:
                    yield {"word": t, "l": l, "violated": "claim 1"}
                for idx in range(j):
                    if suffix_h_minus(flips[idx][1], l + 1) != hs[l]:
                        yield {"word": t, "l": l, "violated": "claim 2"}
                for idx in range(j + 1, len(flips)):
                    if suffix_h_minus(flips[idx][1], l + 1) < hs[l - 1] + 1:
                        yield {"word": t, "l": l, "violated": "claim 3"}
            yield None


def _verify_boundary_invariance(
    params: Params, max_boxes: int = 8, ceiling: int = DEFAULT_NODE_CEILING
):
    # each check merges a boundary over all of the label's corners, so a
    # label costs its checks times its corners against the ceiling
    kind = params.class_kind
    work = Budget(
        ceiling,
        "boundary_invariance would rebuild more than {ceiling} boundary corners; "
        "raise the ceiling to proceed",
    )
    corner_table: dict = {}
    for m in multipartitions_up_to(params.ell, max_boxes):
        merged = _merge(params, m, corner_table, None)
        corners = sum(len(boxes) for _, boxes, _ in merged)
        work.charge(corners * sum(sign.count(PLUS) for _, _, sign in merged))
        for value, boxes, sign in merged:
            for k, sym in enumerate(sign):
                if sym != PLUS:
                    continue
                x = boxes[k]
                after = _merge(params, m.add_box(x), corner_table, (value,))
                expected = sign[:k] + MINUS + sign[k + 1 :]
                if after != [(value, boxes, expected)]:
                    yield {
                        "multipartition": m.to_lists(),
                        "box": list(x),
                        "class": [kind, value],
                    }
                yield None


def _verify_realization_consistency(
    params: Params, max_boxes: int = 8, ceiling: int = DEFAULT_NODE_CEILING
):
    from . import naive

    # naive builds the label's cells once; for each class it filters all of
    # them, insertion-sorts the class and reduces its word pair by pair, so
    # each class costs the label's corners plus its box count squared
    # against the ceiling
    kappa = params.kappa if params.is_rational else None
    kind = params.class_kind
    work = Budget(
        ceiling,
        "realization_consistency would compare more than {ceiling} boundary entries; "
        "raise the ceiling to proceed",
    )
    corner_table: dict = {}
    for m in multipartitions_up_to(params.ell, max_boxes):
        merged = _merge(params, m, corner_table, None)
        corners = sum(len(boxes) for _, boxes, _ in merged)
        work.charge(sum(corners + len(boxes) ** 2 for _, boxes, _ in merged))
        steps = naive.crystal_steps(params.ell, kappa, params.charges, m.components)
        classes = {(kind, value) for value, _, _ in merged}
        if steps.keys() != classes:
            yield {
                "multipartition": m.to_lists(),
                "classes": [list(z) for z in sorted(steps.keys() ^ classes)],
            }
        for value, boxes, sign in merged:
            add, remove = steps[kind, value]
            if not (
                _same_step(_step(m, boxes, sign, raising=True), add)
                and _same_step(_step(m, boxes, sign, raising=False), remove)
            ):
                yield {"multipartition": m.to_lists(), "class": [kind, value]}
            yield None


def _same_step(production, reference) -> bool:
    if production is None or reference is None:
        return production is None and reference is None
    mp, box = production
    return mp.components == reference[0] and tuple(box) == reference[1]


def _verify_gl_realization(
    n: int = 3, p: int = 3, entry_bound: int = 6, ceiling: int = DEFAULT_NODE_CEILING
):
    if n < 0:
        raise ValidationError("gl_realization needs n >= 0, got {}", n)
    _check_characteristic(p)
    i_values = range(p) if p else range(-1, entry_bound + 1)
    # closed forms, not len(i_values), which overflows for a huge p or
    # entry_bound; past the ceiling's bit length, C(top, k) >= 2**k alone
    # passes the ceiling
    top = max(entry_bound + 1, 0)
    k = min(n, top - n)
    weights = math.comb(top, n) if k <= ceiling.bit_length() else ceiling + 1
    Budget(
        ceiling, "gl_realization would run more than {ceiling} checks; raise the ceiling to proceed"
    ).charge(weights * (p or max(entry_bound + 2, 0)))
    if n > top:
        # no weight, and combinations would first fill an n-entry index array
        return
    from . import naive

    # p is checked once, above, so every word goes through the unchecked
    # _gl_read.  Each case reads its weight's word once and takes both steps
    # from it; only the inverse checks read a stepped weight's word
    for w in itertools.combinations(range(entry_bound, -1, -1), n):
        for i in i_values:
            _, positions, sign = _gl_read(w, i, p)
            if (positions, sign) != naive.gl_sign(w, i, p):
                yield {"weight": list(w), "i": i, "violated": "sign word"}
            up = _gl_step(w, positions, sign, True)
            if up != naive.gl_add(w, i, p):
                yield {"weight": list(w), "i": i, "violated": "raise"}
            down = _gl_step(w, positions, sign, False)
            if down != naive.gl_remove(w, i, p):
                yield {"weight": list(w), "i": i, "violated": "lower"}
            if up is not None and _gl_step(*_gl_read(up, i, p), False) != w:
                yield {"weight": list(w), "i": i, "violated": "raise/lower inverse"}
            if down is not None and _gl_step(*_gl_read(down, i, p), True) != w:
                yield {"weight": list(w), "i": i, "violated": "lower/raise inverse"}
            yield None


def _verify_depth_irrational(max_boxes: int = 8, ceiling: int = DEFAULT_NODE_CEILING):
    params = Params(1, IRRATIONAL, (0,))
    memo: dict = {}
    labels = Budget(
        ceiling,
        "depth_irrational would visit more than {ceiling} labels; raise the ceiling to proceed",
    )
    size = 0
    for m in multipartitions_up_to(1, max_boxes):
        labels.charge()
        if m.size != size:
            # every label one size down is in the memo, and a walk stops at
            # the first label it finds there: older sizes are never read again
            size = m.size
            memo = {label: d for label, d in memo.items() if label.size == size - 1}
        if depth(params, m, memo) != m.size:
            yield {"multipartition": m.to_lists()}
        yield None


# name -> runner; `verify`, the CLI's --suite choices and the tests read it
SUITES = {
    "axioms": _verify_axioms,
    "confluence": _verify_confluence,
    "comb_lemma": _verify_comb_lemma,
    "boundary_invariance": _verify_boundary_invariance,
    "realization_consistency": _verify_realization_consistency,
    "gl_realization": _verify_gl_realization,
    "depth_irrational": _verify_depth_irrational,
}
