"""End-to-end acceptance battery.

Each test prints one pass/fail line; run them verbosely with

    pytest tests/test_acceptance.py -v -s

The multipartition sweep behind criteria 4-9 covers ell in {1,2,3},
kappa in {1/2, 1/3, 2/3, irrational}, charges all-zero and 0..ell-1,
and every multipartition with at most 8 boxes.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache, partial

import oracles
from signcrystal.engine import build_graph, depth, string_decomposition, verify
from signcrystal.params import IRRATIONAL, Params, ZClass, cyclotomic_c, hecke_parameters
from signcrystal.realizations import boundaries, boundary, crystal_add, crystal_remove
from signcrystal.signstrings import iter_words, reduced_form
from signcrystal.young import Multipartition, multipartitions_up_to

SWEEP_MAX_BOXES = 8
KAPPAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), IRRATIONAL)


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {status} {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}"


def sweep_params() -> list[Params]:
    out = []
    for ell in (1, 2, 3):
        for kappa in KAPPAS:
            for charges in ((0,) * ell, tuple(range(ell))):
                p = Params(ell, kappa, charges)
                if p not in out:
                    out.append(p)
    return out


@lru_cache(maxsize=None)
def nodes(ell: int) -> tuple[Multipartition, ...]:
    return tuple(multipartitions_up_to(ell, SWEEP_MAX_BOXES))


def test_c01_crystal_axioms():
    started = time.monotonic()
    report = verify("axioms", n=14)
    elapsed = time.monotonic() - started
    ok = report.passed and elapsed < 10.0
    _report(1, "crystal axioms on all sign words, n <= 14", ok,
            f"checked {report.checked} words in {elapsed:.2f}s")


def test_c02_confluence():
    rng = random.Random(0)
    mismatches = 0
    words = 0
    for length in range(11):
        for t in iter_words(length):
            words += 1
            expected = reduced_form(t)
            for _ in range(100):
                if oracles.reduce_random(t, rng) != expected:
                    mismatches += 1
    _report(2, "random rewriting orders agree with the stack reduction", mismatches == 0,
            f"{words} words x 100 seeded orders, {mismatches} mismatches")


def test_c03_combinatorial_lemma():
    report = verify("comb_lemma", n=12)
    _report(3, "suffix-statistic lemma, claims (1)-(3), n <= 12", report.passed,
            f"checked {report.checked} words")


def test_c04_boundary_invariance():
    total = 0
    for p in sweep_params():
        report = verify("boundary_invariance", params=p, max_boxes=SWEEP_MAX_BOXES)
        if not report.passed:
            _report(4, "boundary invariance under adding a class box", False,
                    str(report.counterexample))
        total += report.checked
    _report(4, "boundary invariance under adding a class box", True,
            f"{total} additions over the parameter sweep")


def test_c05_d_separation():
    pairs = 0
    for p in sweep_params():
        kappa = p.kappa if p.is_rational else None
        d = partial(oracles.oracle_d, kappa, p.ell, p.charges)
        for m in nodes(p.ell):
            for z in sorted(boundaries(p, m)):
                # no tie: the oracle's Fraction d separates every pair
                b = boundary(p, m, z)
                for x, y in itertools.combinations(b.boxes, 2):
                    pairs += 1
                    if kappa is None:
                        # one content, so d differs by the component alone
                        separated = x.comp != y.comp
                    else:
                        gap = d(x) - d(y)
                        separated = gap != 0 and gap.denominator == 1
                    if not separated:
                        _report(5, "d-separation inside class boundaries", False,
                                f"{m.to_lists()} {z}")
    _report(5, "d-separation inside class boundaries", True,
            f"{pairs} box pairs, no tie and no non-integer gap")


def test_c06_differential_oracle():
    checked = 0
    for p in sweep_params():
        kappa = p.kappa if p.is_rational else None
        for m in nodes(p.ell):
            for z in sorted(boundaries(p, m)):
                zp = (z.kind, z.value)
                for production, reference in (
                    (crystal_add(p, m, z), oracles.oracle_add(kappa, p.ell, p.charges, m.components, zp)),
                    (crystal_remove(p, m, z), oracles.oracle_remove(kappa, p.ell, p.charges, m.components, zp)),
                ):
                    checked += 1
                    if production is None or reference is None:
                        same = production is None and reference is None
                    else:
                        same = (
                            production[0].components == reference[0]
                            and tuple(production[1]) == reference[1]
                        )
                    if not same:
                        _report(6, "operators agree with the independent transcription", False,
                                f"{m.to_lists()} {z}")
    _report(6, "operators agree with the independent transcription", True,
            f"{checked} operator applications compared")


def test_c07_depth_law_irrational():
    p = Params(1, IRRATIONAL, (0,))
    memo = {}
    for m in nodes(1):
        if depth(p, m, memo) != m.size:
            _report(7, "depth equals box count for ell=1, irrational kappa", False,
                    str(m.to_lists()))
    _report(7, "depth equals box count for ell=1, irrational kappa", True,
            f"{len(nodes(1))} partitions")


def test_c08_inverse_pairing():
    checked = 0
    for p in sweep_params():
        for m in nodes(p.ell):
            for z in sorted(boundaries(p, m)):
                up = crystal_add(p, m, z)
                if up is not None:
                    checked += 1
                    if crystal_remove(p, up[0], z) != (m, up[1]):
                        _report(8, "add/remove are mutually inverse", False,
                                f"{m.to_lists()} {z}")
                down = crystal_remove(p, m, z)
                if down is not None:
                    checked += 1
                    if crystal_add(p, down[0], z) != (m, down[1]):
                        _report(8, "add/remove are mutually inverse", False,
                                f"{m.to_lists()} {z}")
    _report(8, "add/remove are mutually inverse", True, f"{checked} defined compositions")


def _shift_class(p: Params, z: ZClass, sigma: int) -> ZClass:
    if p.is_rational:
        return ZClass("residue", (z.value + sigma) % p.e)
    return ZClass("content", z.value + sigma)


def test_c09_charge_shift_invariance():
    compared = 0
    depths = 0
    for p in sweep_params():
        base_depth: dict = {}
        base_boundaries: dict = {}
        for sigma in (-2, -1, 0, 1, 2):
            shifted = Params(p.ell, p.kappa, tuple(s + sigma for s in p.charges))
            if shifted == p:
                continue  # identical parameters, nothing to compare
            shifted_memo: dict = {}
            for m in nodes(p.ell):
                zs = sorted(boundaries(p, m))
                relabelled = [_shift_class(p, z, sigma) for z in zs]
                if sorted(boundaries(shifted, m)) != sorted(relabelled):
                    _report(9, "charge shifts relabel classes bijectively", False,
                            f"{m.to_lists()} sigma={sigma}")
                for z, z_new in zip(zs, relabelled):
                    key = (m, z)
                    if key not in base_boundaries:
                        b = boundary(p, m, z)
                        base_boundaries[key] = (b.boxes, b.sign)
                    after = boundary(shifted, m, z_new)
                    compared += 1
                    # equal boundaries force equal operator results
                    if (after.boxes, after.sign) != base_boundaries[key]:
                        _report(9, "charge shifts preserve operator results", False,
                                f"{m.to_lists()} {z} sigma={sigma}")
                depths += 1
                if depth(p, m, base_depth) != depth(shifted, m, shifted_memo):
                    _report(9, "charge shifts preserve depth", False,
                            f"{m.to_lists()} sigma={sigma}")
    _report(9, "charge shifts relabel classes and preserve operators and depth", True,
            f"{compared} boundaries and {depths} depth values compared")


def test_c10_graph_structure_and_determinism():
    p = Params(1, Fraction(1, 2), (0,))
    first = build_graph(p, 10)
    again = build_graph(p, 10)
    deterministic = first.nodes == again.nodes and first.edges == again.edges
    paths_ok = True
    classes = sorted({e.z for e in first.edges})
    for z in classes:
        out_deg: dict = {}
        in_deg: dict = {}
        for e in first.edges:
            if e.z != z:
                continue
            out_deg[e.source] = out_deg.get(e.source, 0) + 1
            in_deg[e.target] = in_deg.get(e.target, 0) + 1
        if out_deg and max(out_deg.values()) > 1:
            paths_ok = False
        if in_deg and max(in_deg.values()) > 1:
            paths_ok = False
        chains = string_decomposition(first, z)
        covered = [node for chain in chains for node in chain]
        if sorted(covered, key=lambda m: (m.size, m.components)) != list(first.nodes):
            paths_ok = False
        if len(covered) != len(set(covered)):
            paths_ok = False
    _report(10, "per-class edges decompose into disjoint paths; runs are deterministic",
            deterministic and paths_ok,
            f"{len(first.nodes)} nodes, {len(first.edges)} edges, {len(classes)} classes")


def test_c11_parameter_conversions():
    checked = 0
    ok = True
    for ell in (1, 2, 3):
        for kappa in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 5)):
            for charges in ((0,) * ell, tuple(range(ell)), tuple(2 * k - 1 for k in range(ell))):
                p = Params(ell, kappa, charges)
                q, qs = hecke_parameters(p)
                c0, rest = cyclotomic_c(p)
                checked += 1
                if abs(abs(q) - 1) >= 1e-12 or any(abs(abs(x) - 1) >= 1e-12 for x in qs):
                    ok = False
                if c0 != -kappa:
                    ok = False
                shifted = Params(ell, kappa, tuple(s + 3 for s in charges))
                _, rest_shifted = cyclotomic_c(shifted)
                if any(abs(a - b) >= 1e-12 for a, b in zip(rest, rest_shifted)):
                    ok = False
    _report(11, "unit-circle hecke values, exact c0, shift-invariant c_i", ok,
            f"{checked} parameter sets")
