import math
from fractions import Fraction

import pytest

from signcrystal.errors import CrystalError, ResourceCeilingError, ValidationError
from signcrystal.params import (
    IRRATIONAL,
    Params,
    ZClass,
    cyclotomic_c,
    hecke_parameters,
)
from signcrystal import realizations
from signcrystal.engine import build_graph, verify
from signcrystal.realizations import boundaries, boundary, check_dominant_weight, crystal_add, gl_word
from signcrystal.serialize import complex_to_json, params_from_json, zclass_from_json
from signcrystal.signstrings import suffix_h_minus
from signcrystal.young import BoxRef, Multipartition, check_partition

HALF = Fraction(1, 2)
EMPTY = Multipartition(((),))


def kernel_class(kappa, c) -> ZClass:
    """The production kernel's class of content c: the empty label's one
    addable box under charge c has content c."""
    (z,) = boundaries(Params(1, kappa, (c,)), EMPTY)
    return z


def kernel_corners(p: Params, m: Multipartition) -> dict:
    """box -> (d-key, class value) for every corner of m, from the
    production kernel."""
    found = {}
    for comp, part in enumerate(m.components):
        corners = realizations._corners(p, comp, part)
        for key, value, box, _ in corners:
            found[box] = (key, value)
    return found


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
        # irrational kappa: the class value is the shifted content itself
        for charges, rows, box, cont in (
            ((0, 1), ((), ()), BoxRef(1, 1, 1), 1),
            ((0,), ((1,),), BoxRef(0, 2, 1), -1),
            ((3,), ((2,),), BoxRef(0, 1, 3), 5),
        ):
            p = Params(len(charges), IRRATIONAL, charges)
            assert kernel_corners(p, Multipartition(rows))[box][1] == cont


class TestZClass:
    def test_rational_congruence(self):
        assert kernel_class(HALF, 0) == kernel_class(HALF, 2)
        assert kernel_class(HALF, 0) != kernel_class(HALF, 1)

    def test_irrational_equality(self):
        assert kernel_class(IRRATIONAL, 0) != kernel_class(IRRATIONAL, 2)
        assert kernel_class(IRRATIONAL, 2) == ZClass("content", 2)

    def test_two_thirds(self):
        assert kernel_class(Fraction(2, 3), 1) == kernel_class(Fraction(2, 3), 4)

    def test_soundness_window(self):
        # same class exactly when kappa * (difference) is an integer, read off
        # the production kernel
        contents = range(-20, 21)
        for e in range(2, 13):
            for num in range(1 - e, e):
                if num == 0 or Fraction(num, e).denominator != e:
                    continue
                kappa = Fraction(num, e)
                classes = {c: kernel_class(kappa, c) for c in contents}
                for c1 in contents:
                    assert classes[c1] == ZClass("residue", c1 % e)
                    for c2 in contents:
                        same = (kappa * (c1 - c2)).denominator == 1
                        assert (classes[c1] == classes[c2]) == same
        for c in contents:
            assert kernel_class(IRRATIONAL, c) == ZClass("content", c)

    def test_coerce_normalizes_residue(self):
        p = Params(1, HALF, (0,))
        assert p.coerce_class(ZClass("residue", -1)) == ZClass("residue", 1)

    def test_coerce_rejects_wrong_kind(self):
        with pytest.raises(ValidationError):
            Params(1, HALF, (0,)).coerce_class(ZClass("content", 0))
        with pytest.raises(ValidationError):
            Params(1, IRRATIONAL, (0,)).coerce_class(ZClass("residue", 0))

    @pytest.mark.parametrize("value", [1.0, True, 1.5])
    @pytest.mark.parametrize("kappa", [HALF, IRRATIONAL], ids=["residue", "content"])
    def test_coerce_rejects_non_integer_value(self, kappa, value):
        # a float or bool class value never reaches a boundary label
        p = Params(1, kappa, (0,))
        z = ZClass(p.class_kind, value)
        for call in (
            lambda: p.coerce_class(z),
            lambda: boundary(p, Multipartition(((2,),)), z),
            lambda: crystal_add(p, Multipartition(((2,),)), z),
            lambda: build_graph(p, 2, classes=[z]),
        ):
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.message == f"class value must be an integer, got {value!r}"


P = Params(1, HALF, (0,))
KAPPA = {"num": 1, "den": 2}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Params(True, HALF, (0,)), "ell must be a positive integer, got True"),
        (lambda: Params(1, HALF, (True,)), "charges must be integers, got True"),
        (lambda: check_partition([True]), "partition rows must be integers, got True"),
        (lambda: check_dominant_weight((True, 0)), "weight entries must be integers, got True"),
        (lambda: gl_word((3, 2), 0, True), "characteristic must be 0 or a prime, got True"),
        (lambda: build_graph(P, True), "max_boxes must be a nonnegative integer, got True"),
        (lambda: build_graph(P, 1, node_ceiling=True), "node_ceiling must be a nonnegative integer, got True"),
        (
            lambda: params_from_json({"kappa": {"num": True, "den": 2}, "charges": [0]}),
            "kappa needs integer num and nonzero integer den",
        ),
        (
            lambda: params_from_json({"kappa": {"num": 1, "den": True}, "charges": [0]}),
            "kappa needs integer num and nonzero integer den",
        ),
        (lambda: params_from_json({"kappa": KAPPA, "charges": [False]}), "charges must be a list of integers"),
        (lambda: params_from_json({"ell": True, "kappa": KAPPA, "charges": [0]}), "ell must be an integer"),
        (
            lambda: zclass_from_json({"residue": True}, P),
            'class must be {"residue": r} or {"content": c} with an integer value',
        ),
    ],
    ids=[
        "params_ell", "params_charge", "partition_row", "weight_entry", "characteristic",
        "max_boxes", "node_ceiling", "json_num", "json_den", "json_charge", "json_ell", "json_class",
    ],
)
def test_bool_is_not_an_integer(call, message):
    # every integer input site says no to a bool with its own message; verify's
    # bounds are covered by test_engine's ("axioms", {"n": True}) case
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.message == message


# an int past Python's 4,300-digit str limit; its digits are written out,
# since str(H) itself would raise
H = 10**5000
H_DIGITS = "1" + "0" * 5000
ONE_BOX = Multipartition(((1,),))


@pytest.mark.parametrize(
    "call",
    [
        lambda: Params(H, HALF, (0,)),
        lambda: Params(-H, HALF, (0,)),
        lambda: Params(1, HALF, H),
        lambda: check_partition([1, -H]),
        lambda: check_partition([1, H]),
        lambda: Multipartition(((1, -H),)),
        lambda: suffix_h_minus("+-", H),
        lambda: ONE_BOX.add_box(BoxRef(0, H, 1)),
        lambda: ONE_BOX.add_box(BoxRef(H, 1, 1)),
        lambda: ONE_BOX.remove_box(BoxRef(0, H, 1)),
        lambda: build_graph(P, -H),
        lambda: build_graph(P, 1, node_ceiling=-H),
        lambda: gl_word((3, 2, 1), 0, -H),
        lambda: gl_word((1, H), 0, 3),
        lambda: gl_word((3, 2, 1), 0, H),
        lambda: verify("axioms", n=3, ceiling=-H),
        lambda: verify("axioms", n=-H),
        lambda: verify("comb_lemma", n=-H),
        lambda: verify("gl_realization", n=-H),
        lambda: verify("gl_realization", p=-H),
        lambda: verify("gl_realization", n=H),
        lambda: verify("depth_irrational", max_boxes=-H),
    ],
    ids=[
        "params_ell", "params_negative_ell", "params_charges", "partition_sign", "partition_order",
        "multipartition", "suffix_start", "add_box_row", "add_box_component", "remove_box_row",
        "max_boxes", "node_ceiling", "characteristic", "weight_order", "primality",
        "suite_ceiling", "axioms_n", "comb_lemma_n", "gl_realization_n", "gl_realization_p",
        "gl_realization_empty", "depth_irrational_empty",
    ],
)
def test_huge_int_is_printed_in_full(call):
    # a message prints every int it names in full, past the str limit
    with pytest.raises(CrystalError) as err:
        call()
    assert H_DIGITS in err.value.message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Params(1, HALF, 0), "charges must be a sequence of integers, got 0"),
        (lambda: build_graph(P, 2, classes=5), "classes must be a sequence of ZClass labels, got 5"),
        (lambda: Multipartition(5), "multipartition components must be a sequence of partitions, got 5"),
        (lambda: Multipartition((5,)), "partition rows must be a sequence of integers, got 5"),
    ],
    ids=["params_charges", "graph_classes", "multipartition", "partition_rows"],
)
def test_non_iterable_is_a_validation_error(call, message):
    # a value that is no sequence where one is expected is a ValidationError
    # naming it, never a TypeError; test_realizations covers the weight
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.message == message


class TestDDiff:
    """d-differences read off the kernel's keys: a key difference has the
    sign of the d-difference, and for irrational kappa it is the
    d-difference, -component."""

    def test_rational(self):
        x, y = BoxRef(0, 1, 2), BoxRef(0, 2, 1)  # contents 1 and -1
        for kappa in (HALF, Fraction(3, 2), Fraction(-1, 2), Fraction(-5, 2)):
            keys = kernel_corners(Params(1, kappa, (0,)), Multipartition(((1,),)))
            assert keys[x][1] == keys[y][1]
            # d(x) - d(y) = kappa * ell * (1 - (-1)), of kappa's sign
            assert (keys[x][0] > keys[y][0]) == (kappa > 0)
            assert keys[x][0] != keys[y][0]

    def test_zero_on_equal_box(self):
        # a box's key is its own: addable in one label, removable in the next
        p = Params(1, HALF, (0,))
        box = BoxRef(0, 1, 2)
        added = kernel_corners(p, Multipartition(((1,),)))[box]
        assert kernel_corners(p, Multipartition(((2,),)))[box] == added

    def test_irrational_component_difference(self):
        p = Params(2, IRRATIONAL, (0, 0))
        keys = kernel_corners(p, Multipartition(((), ())))
        x, y = BoxRef(0, 1, 1), BoxRef(1, 1, 1)  # equal contents
        assert keys[x][1] == keys[y][1]
        assert keys[x][0] - keys[y][0] == 1

    def test_rejects_different_classes(self):
        # boxes of two classes never share a class value, so no d-difference
        # between them is ever taken
        keys = kernel_corners(Params(1, HALF, (0,)), Multipartition(((1,),)))
        assert keys[BoxRef(0, 1, 1)][1] != keys[BoxRef(0, 1, 2)][1]  # contents 0 and 1


class TestNumericConverters:
    def test_hecke_half(self):
        q, qs = hecke_parameters(Params(1, HALF, (0,)))
        assert q == -1
        assert qs[0] == 1

    def test_hecke_quarter(self):
        q, qs = hecke_parameters(Params(1, Fraction(1, 4), (2,)))
        assert q == 1j
        assert qs[0] == -1

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

    @pytest.mark.parametrize(
        "kappa, charges, pinned",
        [
            # every root of unity is a quarter turn
            (
                Fraction(2, 5),
                (0, 3, -1, 7),
                "((0.10000000000000009-1j), (3.9000000000000004-0j), (0.10000000000000009+1j))",
            ),
            (
                Fraction(-3, 7),
                (5, 0, 2, -4, 9, 1),
                "((-1.3571428571428568+1.4846149779161808j), "
                "(-1.1428571428571443-2.5980762113533156j), (7.642857142857142-0j), "
                "(-1.1428571428571417+2.5980762113533156j), "
                "(-1.3571428571428588-1.4846149779161797j))",
            ),
        ],
    )
    def test_cyclotomic_pinned_floats(self, kappa, charges, pinned):
        # to the last bit: tabling the roots of unity changes no float
        _, rest = cyclotomic_c(Params(len(charges), kappa, charges))
        assert repr(rest) == pinned

    def test_charge_shift_invariance(self):
        _, rest = cyclotomic_c(Params(3, Fraction(1, 3), (0, 1, 3)))
        _, shifted = cyclotomic_c(Params(3, Fraction(1, 3), (2, 3, 5)))
        assert all(abs(a - b) < 1e-12 for a, b in zip(rest, shifted))

    def test_cyclotomic_half_turn_is_real(self):
        kappa = Fraction(1, 3)
        _, (c1,) = cyclotomic_c(Params(2, kappa, (0, 10**30)))
        assert c1.imag == 0.0
        want = float(-(1 + kappa * (-2) * 10**30) / 2)
        assert abs(c1.real - want) <= 1e-15 * abs(want)

    def test_json_has_no_negative_zero(self):
        _, (c1,) = cyclotomic_c(Params(2, Fraction(1, 3), (0, 10**30)))
        out = complex_to_json(c1)
        assert out["im"] == 0.0 and math.copysign(1.0, out["im"]) == 1.0
        out = complex_to_json(complex(-0.0, -0.0))
        assert all(math.copysign(1.0, v) == 1.0 for v in out.values())

    def test_cyclotomic_quarter_turns_exact(self):
        kappa = Fraction(1, 3)
        _, (c1, c2, c3) = cyclotomic_c(Params(4, kappa, (0, 0, 0, 10**30)))
        # only j=3 contributes: c_k = -(1 + kappa * (w^(3k) - 1) * 10^30) / 2, w = -i
        for c, (re_coeff, im_coeff) in ((c1, (-1, 1)), (c2, (-2, 0)), (c3, (-1, -1))):
            want_re = float(-(1 + kappa * re_coeff * 10**30) / 2)
            want_im = float(-kappa * im_coeff * 10**30 / 2)
            assert abs(c.real - want_re) <= 1e-15 * abs(want_re)
            assert abs(c.imag - want_im) <= 1e-15 * abs(want_im)
        assert c3 == c1.conjugate()

    def test_cyclotomic_ceiling(self):
        # (ell - 1)^2 terms: 1415 is the largest ell within the ceiling
        with pytest.raises(ResourceCeilingError, match="ell=1416 sums 2002225 terms"):
            cyclotomic_c(Params(1416, HALF, (0,) * 1416))
        _, rest = cyclotomic_c(Params(1415, HALF, (0,) * 1415))
        assert len(rest) == 1414

    def test_cyclotomic_rejects_irrational(self):
        with pytest.raises(ValidationError):
            cyclotomic_c(Params(1, IRRATIONAL, (0,)))

    @pytest.mark.parametrize(
        "kappa, charges",
        [
            (Fraction(10**400, 3), (0, 1)),
            (Fraction(1, 3), (0, 10**400)),
            (Fraction(10**300, 3), (0, 10**300)),  # finite factors, infinite product
        ],
    )
    def test_cyclotomic_beyond_double_range(self, kappa, charges):
        with pytest.raises(ValidationError):
            cyclotomic_c(Params(2, kappa, charges))
