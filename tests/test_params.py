from fractions import Fraction

import pytest

from signcrystal.errors import ValidationError
from signcrystal.params import (
    IRRATIONAL,
    CValue,
    Params,
    ZClass,
    cyclotomic_c,
    hecke_parameters,
)
from signcrystal.young import BoxRef, Multipartition, multipartitions_up_to

HALF = Fraction(1, 2)


class TestConstruction:
    def test_rejects_zero_kappa(self):
        with pytest.raises(ValidationError, match="kappa != 0"):
            Params(1, Fraction(0), (0,))

    def test_rejects_integer_kappa(self):
        with pytest.raises(ValidationError, match="not integral"):
            Params(1, Fraction(2, 1), (0,))

    def test_rejects_charge_mismatch(self):
        with pytest.raises(ValidationError):
            Params(2, HALF, (0,))

    def test_rejects_bad_ell(self):
        with pytest.raises(ValidationError):
            Params(0, HALF, ())

    def test_rejects_non_integer_charges(self):
        with pytest.raises(ValidationError):
            Params(1, HALF, (0.5,))

    def test_quantum_characteristic(self):
        assert Params(1, Fraction(2, 3), (0,)).e == 3
        assert Params(1, IRRATIONAL, (0,)).e is None


class TestShiftedContent:
    def test_examples(self):
        assert Params(2, Fraction(1, 3), (0, 1)).shifted_content(BoxRef(1, 1, 1)) == 1
        assert Params(1, HALF, (0,)).shifted_content(BoxRef(0, 2, 1)) == -1
        assert Params(1, HALF, (3,)).shifted_content(BoxRef(0, 1, 3)) == 5

    def test_component_range(self):
        with pytest.raises(ValidationError):
            Params(1, HALF, (0,)).shifted_content(BoxRef(1, 1, 1))


class TestZClass:
    def test_rational_congruence(self):
        p = Params(1, HALF, (0,))
        assert p.class_of_content(0) == p.class_of_content(2)
        assert p.class_of_content(0) != p.class_of_content(1)

    def test_irrational_equality(self):
        p = Params(1, IRRATIONAL, (0,))
        assert p.class_of_content(0) != p.class_of_content(2)
        assert p.class_of_content(2) == ZClass("content", 2)

    def test_two_thirds(self):
        p = Params(1, Fraction(2, 3), (0,))
        assert p.class_of_content(1) == p.class_of_content(4)

    def test_soundness_window(self):
        # same class exactly when kappa * (difference) is an integer
        for e in range(2, 13):
            for num in range(1, e):
                if Fraction(num, e).denominator != e:
                    continue
                kappa = Fraction(num, e)
                p = Params(1, kappa, (0,))
                for c1 in range(-20, 21):
                    for c2 in range(-20, 21):
                        same = (kappa * (c1 - c2)).denominator == 1
                        assert (p.class_of_content(c1) == p.class_of_content(c2)) == same

    def test_coerce_normalizes_residue(self):
        p = Params(1, HALF, (0,))
        assert p.coerce_class(ZClass("residue", -1)) == ZClass("residue", 1)

    def test_coerce_rejects_wrong_kind(self):
        with pytest.raises(ValidationError):
            Params(1, HALF, (0,)).coerce_class(ZClass("content", 0))
        with pytest.raises(ValidationError):
            Params(1, IRRATIONAL, (0,)).coerce_class(ZClass("residue", 0))


class TestDValue:
    def test_worked_example(self):
        p = Params(2, Fraction(1, 3), (0, 1))
        d = p.d_value(BoxRef(1, 1, 1))
        assert d == CValue(1, -1)
        assert d.value(p.kappa) == Fraction(-2, 3)

    def test_trivial(self):
        assert Params(1, HALF, (0,)).d_value(BoxRef(0, 1, 1)) == CValue(0, 0)

    def test_charge_shift_invariance(self):
        for sigma in (-2, -1, 1, 2):
            base = Params(2, Fraction(1, 3), (0, 1))
            shifted = Params(2, Fraction(1, 3), (sigma, 1 + sigma))
            for m in multipartitions_up_to(2, 4):
                for box in m.boxes():
                    assert base.d_value(box) == shifted.d_value(box)


class TestDDiff:
    def test_rational(self):
        p = Params(1, HALF, (0,))
        x, y = BoxRef(0, 1, 2), BoxRef(0, 2, 1)  # contents 1 and -1
        assert p.d_diff(x, y) == 1

    def test_zero_on_equal_box(self):
        p = Params(1, HALF, (0,))
        assert p.d_diff(BoxRef(0, 1, 2), BoxRef(0, 1, 2)) == 0

    def test_irrational_component_difference(self):
        p = Params(2, IRRATIONAL, (0, 0))
        x, y = BoxRef(0, 1, 1), BoxRef(1, 1, 1)  # equal contents
        assert p.d_diff(x, y) == 1

    def test_rejects_different_classes(self):
        p = Params(1, HALF, (0,))
        with pytest.raises(ValidationError):
            p.d_diff(BoxRef(0, 1, 1), BoxRef(0, 1, 2))


class TestCFunction:
    def test_empty(self):
        p = Params(2, HALF, (0, 0))
        assert p.c_function(Multipartition(((), ()))) == CValue(0, 0)

    def test_row_of_two(self):
        p = Params(1, HALF, (0,))
        assert p.c_function(Multipartition(((2,),))) == CValue(1, 0)

    def test_additive_under_add_box(self):
        for ell, kappa in ((1, HALF), (2, Fraction(1, 3)), (2, IRRATIONAL)):
            p = Params(ell, kappa, tuple(range(ell)))
            for m in multipartitions_up_to(ell, 5):
                base = p.c_function(m)
                for box in m.addable_boxes:
                    assert p.c_function(m.add_box(box)) - base == p.d_value(box)

    def test_charge_shift_invariance(self):
        base = Params(2, Fraction(1, 3), (0, 1))
        shifted = Params(2, Fraction(1, 3), (2, 3))
        for m in multipartitions_up_to(2, 4):
            assert base.c_function(m) == shifted.c_function(m)


class TestCValue:
    def test_integer_difference(self):
        assert CValue(2, 5).integer_difference(CValue(2, 3)) == 2
        assert CValue(2, 5).integer_difference(CValue(1, 3)) is None


class TestNumericConverters:
    def test_hecke_half(self):
        q, qs = hecke_parameters(Params(1, HALF, (0,)))
        assert abs(q - (-1)) < 1e-12
        assert abs(qs[0] - 1) < 1e-12

    def test_hecke_quarter(self):
        q, qs = hecke_parameters(Params(1, Fraction(1, 4), (2,)))
        assert abs(q - 1j) < 1e-12
        assert abs(qs[0] - (-1)) < 1e-12

    def test_hecke_huge_charges(self):
        # kappa * s must be reduced mod 1 exactly before it becomes a float
        _, qs = hecke_parameters(Params(2, HALF, (10**17 + 1, 10**26)))
        assert abs(qs[0] - (-1)) < 1e-12
        assert abs(qs[1] - 1) < 1e-12

    def test_unit_modulus(self):
        for ell, kappa, charges in (
            (1, HALF, (0,)),
            (2, Fraction(1, 3), (0, 1)),
            (3, Fraction(2, 3), (4, -1, 3)),
        ):
            q, qs = hecke_parameters(Params(ell, kappa, charges))
            assert abs(abs(q) - 1) < 1e-12
            assert all(abs(abs(x) - 1) < 1e-12 for x in qs)

    def test_hecke_rejects_irrational(self):
        with pytest.raises(ValidationError):
            hecke_parameters(Params(1, IRRATIONAL, (0,)))

    def test_c0_is_minus_kappa(self):
        c0, _ = cyclotomic_c(Params(2, Fraction(1, 3), (0, 1)))
        assert c0 == Fraction(-1, 3)

    def test_equal_charges_give_minus_half(self):
        _, rest = cyclotomic_c(Params(3, Fraction(1, 3), (2, 2, 2)))
        assert all(abs(c - (-0.5)) < 1e-12 for c in rest)

    def test_charge_shift_invariance(self):
        _, rest = cyclotomic_c(Params(3, Fraction(1, 3), (0, 1, 3)))
        _, shifted = cyclotomic_c(Params(3, Fraction(1, 3), (2, 3, 5)))
        assert all(abs(a - b) < 1e-12 for a, b in zip(rest, shifted))

    def test_cyclotomic_rejects_irrational(self):
        with pytest.raises(ValidationError):
            cyclotomic_c(Params(1, IRRATIONAL, (0,)))
