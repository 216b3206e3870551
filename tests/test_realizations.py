from fractions import Fraction

import pytest

import oracles
from signcrystal.errors import DegenerateClassError, DTieError, ValidationError
from signcrystal.params import IRRATIONAL, Params, ZClass
from signcrystal.realizations import (
    ADDABLE,
    REMOVABLE,
    boundaries,
    boundary,
    check_dominant_weight,
    class_member,
    class_representative,
    crystal_add,
    crystal_remove,
    gl_crystal_add,
    gl_crystal_remove,
    gl_positions,
    gl_sign_string,
    kgroup_induction,
    kgroup_restriction,
)
from signcrystal import realizations
from signcrystal.signstrings import e_tilde, f_tilde, weight
from signcrystal.young import BoxRef, Multipartition, multipartitions_up_to

HALF = Fraction(1, 2)
P_HALF = Params(1, HALF, (0,))
ROW2 = Multipartition(((2,),))
RES0 = ZClass("residue", 0)
RES1 = ZClass("residue", 1)


def small_param_sets():
    for ell in (1, 2):
        for kappa in (HALF, Fraction(1, 3), IRRATIONAL):
            yield Params(ell, kappa, tuple(range(ell)))


class TestBoundary:
    def test_row2_class1(self):
        b = boundary(P_HALF, ROW2, RES1)
        assert b.boxes == (BoxRef(0, 2, 1), BoxRef(0, 1, 2))
        assert b.kinds == (ADDABLE, REMOVABLE)
        assert b.sign == "+-"

    def test_row2_class0(self):
        b = boundary(P_HALF, ROW2, RES0)
        assert b.boxes == (BoxRef(0, 1, 3),)
        assert b.sign == "+"

    def test_empty_multipartition(self):
        b = boundary(P_HALF, Multipartition(((),)), RES0)
        assert b.boxes == (BoxRef(0, 1, 1),)
        assert b.sign == "+"

    def test_matches_oracle(self):
        for p in small_param_sets():
            kappa = p.kappa if p.is_rational else None
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
                    assert list(b.kinds) == [kind for _, kind in expected]

    def test_d_tie_guard(self, monkeypatch):
        # only corrupt parameters can tie; force one on a two-entry class
        monkeypatch.setattr(Params, "d_diff", lambda self, x, y: 0)
        with pytest.raises(DTieError):
            boundary(P_HALF, ROW2, RES1)
        with pytest.raises(DTieError):
            boundaries(P_HALF, ROW2)

    def test_wrong_class_kind(self):
        with pytest.raises(ValidationError):
            boundary(P_HALF, ROW2, ZClass("content", 0))

    def test_component_count_mismatch(self):
        with pytest.raises(ValidationError):
            boundary(P_HALF, Multipartition(((), ())), RES0)

    def test_weight_counts_kinds(self):
        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 5):
                for z in sorted(boundaries(p, m)):
                    b = boundary(p, m, z)
                    removable = sum(1 for k in b.kinds if k == REMOVABLE)
                    addable = len(b.kinds) - removable
                    assert weight(b.sign) == removable - addable


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


class TestClassMember:
    def test_identity(self):
        b = boundary(P_HALF, ROW2, RES1)
        assert class_member(P_HALF, ROW2, RES1, b.sign) == ROW2

    def test_fill_both(self):
        assert class_member(P_HALF, ROW2, RES1, "--") == Multipartition(((2, 1),))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            class_member(P_HALF, ROW2, RES1, "-")

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


class TestBoundaryStability:
    def test_adding_a_class_box_fixes_its_boundary(self):
        for p in small_param_sets():
            for m in multipartitions_up_to(p.ell, 5):
                for x in m.addable_boxes:
                    z = p.z_class(x)
                    before = boundary(p, m, z)
                    after = boundary(p, m.add_box(x), z)
                    assert after.boxes == before.boxes
                    assert after.kinds == tuple(
                        REMOVABLE if box == x else kind for box, kind in before.entries()
                    )

    def test_distant_classes_unchanged(self):
        for p in small_param_sets():
            if p.is_rational and p.e == 2:
                continue  # every class is within 1 of every other
            for m in multipartitions_up_to(p.ell, 5):
                for x in m.addable_boxes:
                    cx = p.shifted_content(x)
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
            gl_positions((3, 2), 0, 4)
        with pytest.raises(ValidationError):
            gl_positions((3, 2), 0, 1)

    def test_positions_and_sign_modular(self):
        assert gl_positions((5, 4, 2), 1, 3) == [1, 2, 3]
        assert gl_sign_string((5, 4, 2), 1, 3) == "-+-"

    def test_char_zero(self):
        assert gl_positions((9, 7, 3), 7, 0) == [2]
        assert gl_sign_string((9, 7, 3), 7, 0) == "+"

    def test_no_matching_entries(self):
        assert gl_sign_string((9, 7, 3), 100, 0) == ""

    def test_remove_example(self):
        assert gl_crystal_remove((5, 4, 2), 1, 3) == (5, 4, 1)

    def test_add_absent(self):
        assert gl_crystal_add((5, 4, 2), 1, 3) is None

    def test_cancelled_pair(self):
        assert gl_sign_string((1, 0), 0, 3) == "-+"
        assert gl_crystal_add((1, 0), 0, 3) is None
        assert gl_crystal_remove((1, 0), 0, 3) is None

    def test_matches_oracle_small(self):
        import itertools

        for n in (1, 2, 3):
            for w in itertools.combinations(range(5, -1, -1), n):
                for p in (0, 2, 3):
                    i_values = range(p) if p else range(-1, 6)
                    for i in i_values:
                        assert (gl_positions(w, i, p), gl_sign_string(w, i, p)) == oracles.oracle_gl_sign(w, i, p)
                        assert gl_crystal_add(w, i, p) == oracles.oracle_gl_add(w, i, p)
                        assert gl_crystal_remove(w, i, p) == oracles.oracle_gl_remove(w, i, p)

    def test_dominance_guard(self, monkeypatch):
        # force a flip at a position the reduction would never choose
        monkeypatch.setattr(realizations, "e_tilde", lambda sign: (sign, 2))
        with pytest.raises(DegenerateClassError):
            gl_crystal_add((2, 1), 1, 3)
