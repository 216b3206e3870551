import itertools
import time
from dataclasses import fields
from fractions import Fraction
from functools import partial
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from signcrystal.engine import build_graph, verify
from signcrystal.errors import ResourceCeilingError, ValidationError
from signcrystal.params import IRRATIONAL, Params, ZClass
from signcrystal.realizations import (
    ZBoundary,
    boundaries,
    boundary,
    check_dominant_weight,
    class_member,
    class_representative,
    crystal_add,
    crystal_remove,
    gl_crystal_add,
    gl_crystal_remove,
    gl_word,
    kgroup_induction,
    kgroup_restriction,
)
from signcrystal import realizations
from signcrystal.signstrings import e_tilde, f_tilde, weight
from signcrystal.young import BoxRef, Multipartition, multipartitions_up_to
from test_young import corner_boxes

def count_gl_reads(monkeypatch, *modules):
    """Route every `_gl_read` call, in realizations and in `modules`, through
    a counter; returns the list that gets one entry per word read."""
    reads, entry = [], realizations._gl_read

    def counting(*args):
        reads.append(args)
        return entry(*args)

    for module in (realizations, *modules):
        monkeypatch.setattr(module, "_gl_read", counting)
    return reads


HALF = Fraction(1, 2)
P_HALF = Params(1, HALF, (0,))
ROW2 = Multipartition(((2,),))
RES0 = ZClass("residue", 0)
RES1 = ZClass("residue", 1)


def small_param_sets():
    for ell in (1, 2):
        for kappa in (HALF, Fraction(1, 3), IRRATIONAL):
            yield Params(ell, kappa, tuple(range(ell)))


def compare(a, b) -> int:
    """The sign of a - b: -1, 0 or 1."""
    return (a > b) - (a < b)


def wide_param_sets():
    """ell 1-3, numerators other than 1, negative kappa, and charges out of
    order or repeated: where an integer d-key could go wrong."""
    kappas = (HALF, Fraction(1, 3), Fraction(2, 5), Fraction(-1, 2), Fraction(5, 3), Fraction(-2, 3))
    for ell, charge_sets in ((1, [(0,)]), (2, [(0, 1)]), (3, [(0, 1, 2), (1, 0, 2), (0, 0, -1)])):
        for kappa in kappas + (IRRATIONAL,):
            for charges in charge_sets:
                yield Params(ell, kappa, charges)


_charges = st.one_of(st.integers(-3, 3), st.integers(-(10**30), 10**30))
_partitions = st.lists(st.integers(1, 8), max_size=5).map(lambda rows: tuple(sorted(rows, reverse=True)))


@st.composite
def wide_params(draw, max_ell=6):
    """Params of ell 1..max_ell, charges up to 10^30 in size, and kappa =
    a/e with e up to 10^6 and |a| <= 3e, or irrational: where huge charges
    and large denominators meet the integer class key."""
    ell = draw(st.integers(1, max_ell))
    charges = tuple(draw(st.lists(_charges, min_size=ell, max_size=ell)))
    if draw(st.booleans()):
        return Params(ell, IRRATIONAL, charges)
    e = draw(st.one_of(st.integers(2, 7), st.integers(2, 10**6)))
    kappa = draw(st.integers(-3 * e, 3 * e).map(lambda a: Fraction(a, e)).filter(lambda k: k.denominator > 1))
    return Params(ell, kappa, charges)


@st.composite
def wide_labels(draw, max_ell=6, max_boxes=None):
    """(params, label) from `wide_params`.  Given max_boxes, the label keeps
    only its first max_boxes boxes, row by row and component by component."""
    p = draw(wide_params(max_ell))
    left = float("inf") if max_boxes is None else max_boxes
    components = []
    for rows in draw(st.lists(_partitions, min_size=p.ell, max_size=p.ell)):
        kept = []
        for row in rows:
            if left:
                kept.append(min(row, left))
                left -= kept[-1]
        components.append(tuple(kept))
    return p, Multipartition(tuple(components))


def assert_keys_order_as_d(p, m):
    """Every two corners of one class of m have distinct keys, ordered as
    the oracle's d orders the boxes."""
    kappa = p.kappa if p.is_rational else None
    d = partial(oracles.oracle_d, kappa, p.ell, p.charges)
    by_class = {}
    for comp, part in enumerate(m.components):
        for key, value, box, _ in realizations._corners(p, comp, part):
            by_class.setdefault(value, []).append((key, tuple(box)))
    for corners in by_class.values():
        for (kx, x), (ky, y) in itertools.combinations(corners, 2):
            assert compare(kx, ky) == compare(d(x), d(y)) != 0


_GL_PRIMES = (0, 2, 3, 5, 7, 2**61 - 1)


def assert_gl_matches_oracle(w, i, p):
    """The word and both steps agree with the oracle, and a stepped weight
    is strictly decreasing."""
    assert gl_word(w, i, p) == oracles.oracle_gl_sign(w, i, p)
    up, down = gl_crystal_add(w, i, p), gl_crystal_remove(w, i, p)
    assert up == oracles.oracle_gl_add(w, i, p)
    assert down == oracles.oracle_gl_remove(w, i, p)
    for stepped in (up, down):
        assert stepped is None or all(a > b for a, b in zip(stepped, stepped[1:]))


@st.composite
def wide_gl_cases(draw):
    """(weight, i, p): a strictly decreasing weight of at most 6 entries up
    to 10^30 in size, p among `_GL_PRIMES`, and any integer i.  Entries and
    i cluster near one base, shifted by multiples of p, so that they meet
    in the word."""
    huge = st.one_of(st.integers(10**29, 10**30), st.integers(-(10**30), -(10**29)))
    base = draw(st.one_of(st.integers(-(10**30), 10**30), huge))
    p = draw(st.sampled_from(_GL_PRIMES))
    near = st.builds(lambda d, t: base + d + p * t, st.integers(-3, 3), st.integers(-(10**12), 10**12))
    entries = draw(st.sets(st.one_of(near, st.integers(-(10**30), 10**30)), max_size=6))
    i = draw(st.one_of(near, st.integers()))
    return tuple(sorted(entries, reverse=True)), i, p


class TestBoundary:
    def test_row2_class1(self):
        b = boundary(P_HALF, ROW2, RES1)
        assert b.boxes == (BoxRef(0, 2, 1), BoxRef(0, 1, 2))
        assert b.sign == "+-"

    def test_fields(self):
        # the sign word is the one record of which boxes are addable
        assert [f.name for f in fields(ZBoundary)] == ["z", "boxes", "sign"]

    def test_row2_class0(self):
        b = boundary(P_HALF, ROW2, RES0)
        assert b.boxes == (BoxRef(0, 1, 3),)
        assert b.sign == "+"

    def test_empty_multipartition(self):
        b = boundary(P_HALF, Multipartition(((),)), RES0)
        assert b.boxes == (BoxRef(0, 1, 1),)
        assert b.sign == "+"

    def test_matches_oracle(self):
        for p in wide_param_sets():
            kappa = p.kappa if p.is_rational else None
            d = partial(oracles.oracle_d, kappa, p.ell, p.charges)
            for m in multipartitions_up_to(p.ell, 5):
                table = boundaries(p, m)
                assert [(z.kind, z.value) for z in table] == oracles.oracle_classes(
                    kappa, p.charges, m.components
                )
                for z, b in table.items():
                    assert b == boundary(p, m, z)
                    expected = oracles.oracle_boundary(
                        kappa, p.ell, p.charges, m.components, (z.kind, z.value)
                    )
                    assert [tuple(box) for box in b.boxes] == [box for box, _ in expected]
                    assert b.sign == oracles.oracle_sign(expected)
                    for x, y in zip(b.boxes, b.boxes[1:]):
                        assert d(y) > d(x)

    def test_corner_keys_match_oracle(self):
        # the kernel's values: the class value is the content mod e, or the
        # content itself; the key is not d, but any two corners of one class
        # of a label compare by key as they compare by d
        for p in wide_param_sets():
            kappa = p.kappa if p.is_rational else None
            for m in multipartitions_up_to(p.ell, 5):
                for comp, part in enumerate(m.components):
                    found = realizations._corners(p, comp, part)
                    expected = [((comp, r, c), "+") for r, c in oracles.oracle_addable(part)]
                    expected += [((comp, r, c), "-") for r, c in oracles.oracle_removable(part)]
                    assert sorted((tuple(box), sym) for _, _, box, sym in found) == sorted(expected)
                    for _, value, box, _ in found:
                        cont = oracles.oracle_content(p.charges, box)
                        assert value == (cont if kappa is None else cont % p.e)
                assert_keys_order_as_d(p, m)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(wide_labels())
    def test_wide_parameters_match_oracle(self, drawn):
        # every class word of the label, and both operators on every class;
        # the corner keys of one class are pairwise distinct and compare as d
        p, m = drawn
        kappa = p.kappa if p.is_rational else None
        assert_keys_order_as_d(p, m)
        table = boundaries(p, m)
        assert [(z.kind, z.value) for z in table] == oracles.oracle_classes(kappa, p.charges, m.components)
        for z, b in table.items():
            zp = (z.kind, z.value)
            expected = oracles.oracle_boundary(kappa, p.ell, p.charges, m.components, zp)
            assert [tuple(box) for box in b.boxes] == [box for box, _ in expected]
            assert b.sign == oracles.oracle_sign(expected)
            for op, oracle_op in ((crystal_add, oracles.oracle_add), (crystal_remove, oracles.oracle_remove)):
                got = op(p, m, z)
                assert oracle_op(kappa, p.ell, p.charges, m.components, zp) == (
                    None if got is None else (got[0].components, tuple(got[1]))
                )

    def test_shared_table_matches_fresh_and_oracle(self):
        # one corner table serves a whole sweep, in either order
        for p in wide_param_sets():
            kappa = p.kappa if p.is_rational else None
            labels = list(multipartitions_up_to(p.ell, 5))
            for order in (labels, labels[::-1]):
                shared = {}
                for m in order:
                    merged = realizations._merge(p, m, shared, None)
                    fresh = boundaries(p, m)
                    assert merged == [(z.value, b.boxes, b.sign) for z, b in fresh.items()]
                    assert [(z.kind, z.value) for z in fresh] == oracles.oracle_classes(
                        kappa, p.charges, m.components
                    )
                    for z, (_, boxes, sign) in zip(fresh, merged):
                        expected = oracles.oracle_boundary(
                            kappa, p.ell, p.charges, m.components, (z.kind, z.value)
                        )
                        assert [tuple(box) for box in boxes] == [box for box, _ in expected]
                        assert sign == oracles.oracle_sign(expected)
                pairs = {(c, part) for m in labels for c, part in enumerate(m.components)}
                assert len(shared) == len(pairs)

    def test_wrong_class_kind(self):
        with pytest.raises(ValidationError):
            boundary(P_HALF, ROW2, ZClass("content", 0))

    def test_class_kind_names_every_class(self):
        # Params.class_kind is the one statement of the class-kind rule: the
        # boundary keys, the graph's edge classes and coerce_class follow it
        for p in wide_param_sets():
            kind = p.class_kind
            assert kind == ("residue" if p.is_rational else "content")
            for m in multipartitions_up_to(p.ell, 4):
                assert {z.kind for z in boundaries(p, m)} == {kind}
            g = build_graph(p, 3)
            assert {edge.z.kind for edge in g.edges} == {kind}
            assert p.coerce_class(ZClass(kind, 1)).kind == kind
            other, message = (
                ("content", "rational kappa indexes classes by residue, not content")
                if p.is_rational
                else ("residue", "irrational kappa indexes classes by exact content")
            )
            with pytest.raises(ValidationError, match=f"^{message}$"):
                p.coerce_class(ZClass(other, 1))

    def test_component_count_mismatch(self):
        with pytest.raises(ValidationError):
            boundary(P_HALF, Multipartition(((), ())), RES0)

    def test_weight_counts_kinds(self):
        for p in small_param_sets():
            kappa = p.kappa if p.is_rational else None
            for m in multipartitions_up_to(p.ell, 5):
                for z in sorted(boundaries(p, m)):
                    b = boundary(p, m, z)
                    expected = oracles.oracle_boundary(
                        kappa, p.ell, p.charges, m.components, (z.kind, z.value)
                    )
                    removable = sum(1 for _, kind in expected if kind == "removable")
                    addable = len(expected) - removable
                    assert weight(b.sign) == removable - addable

    def test_one_class_matches_table(self):
        # boundary builds only class z; it must agree with the full table,
        # and be empty for a class m does not meet
        for p in wide_param_sets():
            if p.is_rational:
                classes = [ZClass("residue", r) for r in range(p.e)]
            else:
                low, high = min(p.charges) - 6, max(p.charges) + 6
                classes = [ZClass("content", c) for c in range(low, high + 1)]
            for m in multipartitions_up_to(p.ell, 5):
                table = boundaries(p, m)
                for z in classes:
                    assert boundary(p, m, z) == table.get(z, ZBoundary(z, (), ""))


class TestClassRepresentative:
    def test_row2(self):
        assert class_representative(P_HALF, ROW2, RES1) == Multipartition(((1,),))

    def test_no_removable_boxes(self):
        assert class_representative(P_HALF, ROW2, RES0) == ROW2

    def test_idempotent(self):
        for p in small_param_sets():
            limit = 7 if p.ell == 1 else 5
            for m in multipartitions_up_to(p.ell, limit):
                for z in sorted(boundaries(p, m)):
                    rep = class_representative(p, m, z)
                    assert class_representative(p, rep, z) == rep

    def test_matches_z_class_reference(self):
        # the representative drops exactly the removable boxes that the
        # oracle puts in class z
        for p in small_param_sets():
            kappa = p.kappa if p.is_rational else None
            for m in multipartitions_up_to(p.ell, 5):
                for z in sorted(boundaries(p, m)):
                    rep = m
                    for box in sorted(corner_boxes(m)[1], key=lambda b: (b.comp, -b.row)):
                        if oracles.oracle_in_class(kappa, p.charges, box, (z.kind, z.value)):
                            rep = rep.remove_box(box)
                    assert class_representative(p, m, z) == rep


class TestClassMember:
    def test_identity(self):
        b = boundary(P_HALF, ROW2, RES1)
        assert class_member(P_HALF, ROW2, RES1, b.sign) == ROW2

    def test_fill_both(self):
        assert class_member(P_HALF, ROW2, RES1, "--") == Multipartition(((2, 1),))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            class_member(P_HALF, ROW2, RES1, "-")

    def test_builds_one_boundary(self, monkeypatch):
        calls = []
        kernel = realizations._merge

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(realizations, "_merge", counting)
        assert class_member(P_HALF, ROW2, RES1, "--") == Multipartition(((2, 1),))
        assert len(calls) == 1

    def test_wide_member_in_one_pass(self, monkeypatch):
        # the member is built from its word over row lists, never box by box
        def no_add_box(self, box):
            raise AssertionError("class_member called add_box")

        monkeypatch.setattr(Multipartition, "add_box", no_add_box)
        ell = 20_000
        p = Params(ell, IRRATIONAL, (0,) * ell)
        start = time.perf_counter()
        member = class_member(p, Multipartition(((),) * ell), ZClass("content", 0), "-" * ell)
        assert time.perf_counter() - start < 1.0
        assert member == Multipartition(((1,),) * ell)

    def test_checks_only_the_components_the_class_touches(self, monkeypatch):
        # distinct charges put content 0 on component 0 alone
        calls, check = [], realizations.check_partition
        monkeypatch.setattr(realizations, "check_partition", lambda rows: calls.append(rows) or check(rows))
        ell = 20_000
        p = Params(ell, IRRATIONAL, tuple(range(ell)))
        empty = Multipartition(((),) * ell)
        one = Multipartition(((1,),) + ((),) * (ell - 1))
        z = ZClass("content", 0)
        assert class_member(p, empty, z, "-") == one
        assert class_representative(p, one, z) == empty
        assert calls == [[1], [0]]

    def test_members_match_the_oracle(self):
        # each word's member is m with every flipped class box added or
        # removed by the oracle; the representative is the all-'+' member
        from signcrystal.signstrings import iter_words

        for p in wide_param_sets():
            for m in multipartitions_up_to(p.ell, 3):
                for z in sorted(boundaries(p, m)):
                    b = boundary(p, m, z)
                    for word in iter_words(len(b)):
                        comps = m.components
                        for box, was, now in zip(b.boxes, b.sign, word):
                            if was != now:
                                apply = oracles.apply_add if now == "-" else oracles.apply_remove
                                comps = apply(comps, tuple(box))
                        assert class_member(p, m, z, word).components == comps
                        if word == "+" * len(b):
                            assert class_representative(p, m, z).components == comps

    def test_bijection_small(self):
        from signcrystal.signstrings import iter_words

        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 4):
                for z in sorted(boundaries(p, m)):
                    b = boundary(p, m, z)
                    members = {}
                    for word in iter_words(len(b)):
                        member = class_member(p, m, z, word)
                        assert boundary(p, member, z).sign == word
                        members[word] = member
                    assert len(set(members.values())) == 2 ** len(b)


class TestCrystalOperators:
    def test_add_row2_class1(self):
        assert crystal_add(P_HALF, ROW2, RES1) == (
            Multipartition(((2, 1),)),
            BoxRef(0, 2, 1),
        )

    def test_add_row2_class0(self):
        assert crystal_add(P_HALF, ROW2, RES0) == (
            Multipartition(((3,),)),
            BoxRef(0, 1, 3),
        )

    def test_add_absent_on_cancelled_boundary(self):
        assert crystal_add(P_HALF, Multipartition(((1, 1),)), RES1) is None

    def test_remove_row2_class1(self):
        assert crystal_remove(P_HALF, ROW2, RES1) == (
            Multipartition(((1,),)),
            BoxRef(0, 1, 2),
        )

    def test_remove_empty_always_absent(self):
        empty = Multipartition(((),))
        for z in (RES0, RES1):
            assert crystal_remove(P_HALF, empty, z) is None

    def test_inverse_pairing(self):
        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 5):
                for z in sorted(boundaries(p, m)):
                    up = crystal_add(p, m, z)
                    if up is not None:
                        assert crystal_remove(p, up[0], z) == (m, up[1])
                    down = crystal_remove(p, m, z)
                    if down is not None:
                        assert crystal_add(p, down[0], z) == (m, down[1])

    def test_weight_shift_under_add(self):
        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 4):
                for z in sorted(boundaries(p, m)):
                    before = weight(boundary(p, m, z).sign)
                    up = crystal_add(p, m, z)
                    if up is not None:
                        assert weight(boundary(p, up[0], z).sign) == before + 2

    def test_commutes_with_class_member(self):
        # the operators are the word flips transported through class_member
        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 4):
                for z in sorted(boundaries(p, m)):
                    sign = boundary(p, m, z).sign
                    up = e_tilde(sign)
                    got = crystal_add(p, m, z)
                    if up is None:
                        assert got is None
                    else:
                        assert got[0] == class_member(p, m, z, up[0])
                    down = f_tilde(sign)
                    got = crystal_remove(p, m, z)
                    if down is None:
                        assert got is None
                    else:
                        assert got[0] == class_member(p, m, z, down[0])


class TestNoBoundaryRecords:
    def test_calls_and_suites_read_merged_words(self, monkeypatch):
        # only boundary and boundaries pack ZBoundary records: the operators,
        # the induction/restriction lists, the class calls and the two
        # boundary suites give the same values with ZBoundary unusable
        cases = []
        for p in small_param_sets():
            if p.is_rational:
                classes = [ZClass("residue", r) for r in range(p.e)]
            else:
                classes = [ZClass("content", c) for c in range(-5, 6)]
            for m in multipartitions_up_to(p.ell, 4):
                for z in classes:
                    for op in (crystal_add, crystal_remove, kgroup_induction, kgroup_restriction,
                               class_representative):
                        cases.append(partial(op, p, m, z))
                    cases.append(partial(class_member, p, m, z, boundary(p, m, z).sign[::-1]))
        suites = [
            partial(verify, "boundary_invariance", params=Params(2, Fraction(1, 3), (0, 1)), max_boxes=5),
            partial(verify, "realization_consistency", params=Params(3, IRRATIONAL, (0, 1, 2)), max_boxes=5),
        ]
        expected = [case() for case in cases]
        reports = [suite() for suite in suites]
        assert [(r.passed, r.checked) for r in reports] == [(True, 284), (True, 992)]

        def forbidden(*args, **kwargs):
            raise AssertionError("only boundary and boundaries build ZBoundary")

        monkeypatch.setattr(realizations, "ZBoundary", forbidden)
        assert [case() for case in cases] == expected
        assert [suite() for suite in suites] == reports
        with pytest.raises(AssertionError, match="only boundary"):
            boundary(P_HALF, ROW2, RES1)


class TestBoundaryStability:
    def test_adding_a_class_box_fixes_its_boundary(self):
        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 5):
                for x in corner_boxes(m)[0]:
                    cont = oracles.oracle_content(p.charges, x)
                    z = ZClass("residue", cont % p.e) if p.is_rational else ZClass("content", cont)
                    before = boundary(p, m, z)
                    after = boundary(p, m.add_box(x), z)
                    assert after.boxes == before.boxes
                    assert after.sign == "".join(
                        "-" if box == x else sym for box, sym in zip(before.boxes, before.sign)
                    )

    def test_distant_classes_unchanged(self):
        for p in small_param_sets():
            if p.is_rational and p.e == 2:
                continue  # every class is within 1 of every other
            for m in multipartitions_up_to(p.ell, 5):
                for x in corner_boxes(m)[0]:
                    cx = oracles.oracle_content(p.charges, x)
                    grown = m.add_box(x)
                    labels = set(boundaries(p, m)) | set(boundaries(p, grown))
                    for z in labels:
                        delta = z.value - cx
                        if p.is_rational:
                            if delta % p.e in (0, 1, p.e - 1):
                                continue
                        elif delta in (-1, 0, 1):
                            continue
                        assert boundary(p, m, z) == boundary(p, grown, z)


class TestKGroup:
    def test_induction(self):
        assert kgroup_induction(P_HALF, ROW2, RES1) == [Multipartition(((2, 1),))]
        assert kgroup_induction(P_HALF, ROW2, RES0) == [Multipartition(((3,),))]

    def test_restriction_empty(self):
        assert kgroup_restriction(P_HALF, ROW2, RES0) == []

    def test_sizes_partition_boundary(self):
        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 5):
                for z in sorted(boundaries(p, m)):
                    b = boundary(p, m, z)
                    total = len(kgroup_induction(p, m, z)) + len(kgroup_restriction(p, m, z))
                    assert total == len(b)


class TestDominantWeights:
    def test_validation(self):
        with pytest.raises(ValidationError):
            check_dominant_weight((2, 2))
        with pytest.raises(ValidationError):
            gl_word((3, 2), 0, 4)
        with pytest.raises(ValidationError):
            gl_word((3, 2), 0, 1)
        # the class index i is an integer, never a float, bool or string
        for fn in (gl_word, gl_crystal_add, gl_crystal_remove):
            for i in (1.0, True, 1.5, "1"):
                with pytest.raises(ValidationError) as err:
                    fn((5, 4, 2), i, 3)
                assert err.value.message == f"class index must be an integer, got {i!r}"

    def test_non_iterable_weight(self):
        # a weight that is no sequence at all is a ValidationError naming it
        for fn in (gl_word, gl_crystal_add, gl_crystal_remove):
            for bad in (5, None):
                with pytest.raises(ValidationError) as err:
                    fn(bad, 1, 3)
                assert err.value.message == f"weight must be a sequence of integers, got {bad!r}"

    def test_positions_and_sign_modular(self):
        assert gl_word((5, 4, 2), 1, 3) == ([1, 2, 3], "-+-")

    def test_char_zero(self):
        assert gl_word((9, 7, 3), 7, 0) == ([2], "+")

    def test_no_matching_entries(self):
        assert gl_word((9, 7, 3), 100, 0)[1] == ""

    def test_remove_example(self):
        assert gl_crystal_remove((5, 4, 2), 1, 3) == (5, 4, 1)

    def test_add_absent(self):
        assert gl_crystal_add((5, 4, 2), 1, 3) is None

    def test_cancelled_pair(self):
        assert gl_word((1, 0), 0, 3)[1] == "-+"
        assert gl_crystal_add((1, 0), 0, 3) is None
        assert gl_crystal_remove((1, 0), 0, 3) is None

    def test_matches_oracle_small(self):
        import itertools

        # negative entries and i outside 0..p-1 exercise both the exact and
        # the modular gap
        for n in (1, 2, 3, 4):
            for w in itertools.combinations(range(6, -4, -1), n):
                for p in (0, 2, 3, 5, 7):
                    for i in range(-4, 9):
                        assert_gl_matches_oracle(w, i, p)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(wide_gl_cases())
    def test_wide_entries_match_oracle(self, drawn):
        # entries up to 10^30 in size, stepped exactly or mod p
        assert_gl_matches_oracle(*drawn)

    def test_one_word_read_per_call(self, monkeypatch):
        reads = count_gl_reads(monkeypatch)
        for fn in (gl_word, gl_crystal_add, gl_crystal_remove):
            reads.clear()
            fn((5, 4, 2), 1, 3)
            assert len(reads) == 1, fn.__name__


class TestPrimality:
    def test_matches_trial_division(self):
        for n in range(10**5):
            expected = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
            assert realizations._is_prime(n) == expected, n

    @pytest.mark.parametrize(
        "n", [2047, 3215031751, 3825123056546413051, 318665857834031151167461]
    )
    def test_strong_pseudoprimes_rejected(self, n):
        assert not realizations._is_prime(n)

    def test_large_prime_fast(self):
        start = time.perf_counter()
        assert gl_crystal_add((5, 4, 2), 1, 2**61 - 1) is None
        assert time.perf_counter() - start < 0.5

    def test_above_cap(self):
        with pytest.raises(ResourceCeilingError):
            realizations._is_prime(3_317_044_064_679_887_385_961_981)
        with pytest.raises(ResourceCeilingError):
            gl_word((3, 2), 0, 10**25)
