"""Charged parameter sets and the exact class/ordering arithmetic.

kappa is a reduced nonzero non-integer fraction, or the IRRATIONAL
sentinel standing for a formal transcendental.  Two boxes share a z-class
exactly when kappa times their shifted-content difference is an integer:
for kappa = a/e in lowest terms that is congruence of contents mod e, for
irrational kappa equality of contents.  The d-function

    d(box) = kappa * (ell * cont(box) - sum(charges)) - component

is kept exact as an integer pair (kappa coefficient, constant), so class
membership and d-comparisons never touch floating point.  Floats appear
only in the numeric converters at the bottom of this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolationError, ValidationError
from .young import BoxRef, Multipartition


class _IrrationalKappa:
    """Singleton marker for a formally transcendental kappa."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "IRRATIONAL"


IRRATIONAL = _IrrationalKappa()


@dataclass(frozen=True, order=True)
class ZClass:
    """Label of one z-class: a content residue mod e, or an exact content."""

    kind: str  # "residue" | "content"
    value: int


@dataclass(frozen=True)
class CValue:
    """The exact number kappa_coeff * kappa + const."""

    kappa_coeff: int
    const: int

    def __add__(self, other: "CValue") -> "CValue":
        return CValue(self.kappa_coeff + other.kappa_coeff, self.const + other.const)

    def __sub__(self, other: "CValue") -> "CValue":
        return CValue(self.kappa_coeff - other.kappa_coeff, self.const - other.const)

    def integer_difference(self, other: "CValue") -> int | None:
        """self - other when formally an integer (equal kappa parts), else None."""
        if self.kappa_coeff != other.kappa_coeff:
            return None
        return self.const - other.const

    def value(self, kappa: Fraction) -> Fraction:
        return kappa * self.kappa_coeff + self.const


ZERO_C = CValue(0, 0)


@dataclass(frozen=True)
class Params:
    ell: int
    kappa: Fraction | _IrrationalKappa
    charges: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.ell, int) or isinstance(self.ell, bool) or self.ell < 1:
            raise ValidationError(f"ell must be a positive integer, got {self.ell!r}")
        charges = tuple(self.charges)
        for s in charges:
            if not isinstance(s, int) or isinstance(s, bool):
                raise ValidationError(f"charges must be integers, got {s!r}")
        if len(charges) != self.ell:
            raise ValidationError(f"expected {self.ell} charges, got {len(charges)}")
        object.__setattr__(self, "charges", charges)
        k = self.kappa
        if isinstance(k, _IrrationalKappa):
            return
        if not isinstance(k, Fraction):
            raise ValidationError("kappa must be a Fraction or the IRRATIONAL sentinel")
        if k == 0:
            raise ValidationError("kappa = 0 is rejected: the construction assumes kappa != 0")
        if k.denominator == 1:
            raise ValidationError(
                "integer kappa is rejected: the construction assumes kappa is not integral"
            )

    @property
    def is_rational(self) -> bool:
        return not isinstance(self.kappa, _IrrationalKappa)

    @property
    def e(self) -> int | None:
        """Quantum characteristic: denominator of kappa, None for infinity."""
        return self.kappa.denominator if self.is_rational else None

    @property
    def charge_sum(self) -> int:
        return sum(self.charges)

    def shifted_content(self, box: BoxRef) -> int:
        if not 0 <= box.comp < self.ell:
            raise ValidationError(f"component {box.comp} out of range for ell={self.ell}")
        return self.charges[box.comp] + box.col - box.row

    def class_of_content(self, cont: int) -> ZClass:
        if self.is_rational:
            return ZClass("residue", cont % self.kappa.denominator)
        return ZClass("content", cont)

    def z_class(self, box: BoxRef) -> ZClass:
        return self.class_of_content(self.shifted_content(box))

    def coerce_class(self, z: ZClass) -> ZClass:
        """Check the class label matches the mode; normalize residues."""
        if not isinstance(z, ZClass):
            raise ValidationError(f"expected a ZClass, got {type(z).__name__}")
        if self.is_rational:
            if z.kind != "residue":
                raise ValidationError("rational kappa indexes classes by residue, not content")
            return ZClass("residue", z.value % self.kappa.denominator)
        if z.kind != "content":
            raise ValidationError("irrational kappa indexes classes by exact content")
        return z

    def d_value(self, box: BoxRef) -> CValue:
        cont = self.shifted_content(box)
        return CValue(self.ell * cont - self.charge_sum, -box.comp)

    def d_sort_key(self, box: BoxRef):
        """Orderable key agreeing with the d-function inside one class.

        Rational mode: the integer e * d(box).  Irrational mode: a pair
        whose first entry is constant on a class, leaving -component.
        """
        coeff = self.ell * self.shifted_content(box) - self.charge_sum
        if self.is_rational:
            k = self.kappa
            return k.numerator * coeff - k.denominator * box.comp
        return (coeff, -box.comp)

    def d_diff(self, x: BoxRef, y: BoxRef) -> int:
        """Exact integer d(x) - d(y) for two boxes of one class."""
        zx, zy = self.z_class(x), self.z_class(y)
        if zx != zy:
            raise ValidationError(f"d_diff needs boxes of one class, got {zx} and {zy}")
        if self.is_rational:
            den = self.kappa.denominator
            num = self.d_sort_key(x) - self.d_sort_key(y)
            q, r = divmod(num, den)
            if r:
                raise InvariantViolationError(
                    f"d-values of {tuple(x)} and {tuple(y)} differ by the non-integer {num}/{den}",
                    code="NON_INTEGER_D_DIFF",
                )
            return q
        return y.comp - x.comp

    def c_function(self, m: Multipartition) -> CValue:
        """Sum of the d-function over all boxes."""
        total = ZERO_C
        for box in m.boxes():
            total = total + self.d_value(box)
        return total


def hecke_parameters(params: Params) -> tuple[complex, tuple[complex, ...]]:
    """(q, (Q_0..Q_{ell-1})): unit exponentials of kappa and kappa*charge.

    Needs a numeric (rational) kappa; values are double precision and
    therefore approximate.
    """
    if not params.is_rational:
        raise ValidationError(
            "hecke parameters need rational kappa; a formal transcendental has no numeric exponential"
        )
    q = _unit_exp(params.kappa)
    qs = tuple(_unit_exp(params.kappa * s) for s in params.charges)
    return q, qs


def cyclotomic_c(params: Params) -> tuple[Fraction, tuple[complex, ...]]:
    """(c_0, (c_1..c_{ell-1})): c_0 = -kappa exactly, the rest double precision.

    c_i depends on the charges only through consecutive differences, so a
    global charge shift leaves every c_i unchanged.
    """
    if not params.is_rational:
        raise ValidationError(
            "cyclotomic parameters need rational kappa; a formal transcendental has no numeric value"
        )
    c0 = -params.kappa
    ell = params.ell
    kf = float(params.kappa)
    rest = []
    for i in range(1, ell):
        acc = 0j
        for j in range(1, ell):
            root = cmath.exp(-2j * math.pi * i * j / ell)
            acc += (root - 1) * (params.charges[j] - params.charges[j - 1])
        rest.append(-0.5 * (1 + kf * acc))
    return c0, tuple(rest)


def _unit_exp(x: Fraction) -> complex:
    # reduce exactly first: float(x) of a huge x has no fractional digits left
    return cmath.exp(2j * math.pi * float(x % 1))
