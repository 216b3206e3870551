"""Charged parameter sets, their z-class labels and the numeric converters.

kappa is a reduced nonzero non-integer fraction, or the IRRATIONAL
sentinel standing for a formal transcendental.  Two boxes share a z-class
exactly when kappa times their shifted-content difference is an integer:
for kappa = a/e in lowest terms that is congruence of contents mod e, for
irrational kappa equality of contents.  A `ZClass` names a class by that
residue or content.  The d-function

    d(box) = kappa * (ell * cont(box) - sum(charges)) - component

orders the boxes of one class.  `realizations` compares it through the
integer key sign(kappa) * ell * cont - component, with sign 0 for
irrational kappa, so the order on a class is lexicographic: sign(kappa) *
content first, then -component.  Take boxes x and y of components j and
k in one class, kappa = a/e.  Their contents differ by e * t, so d(x) -
d(y) = a * ell * t - (j - k) and the keys differ by sign(a) * ell * e * t -
(j - k).  If t != 0 both first terms outweigh |j - k| < ell, and both
differences have the sign of a * t; if t = 0 both are k - j.  For
irrational kappa one class is one content and both differences are k - j.
One diagonal of one component holds at most one corner, so two boxes of
one class never share a key; the tests, not each merge, check this
against the paper's Fraction d.  Neither |kappa| nor the charge sum
enters the order, and class membership and d-comparisons never touch
floating point.  Floats appear only in the numeric converters at the
bottom of this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_NODE_CEILING, Budget, ValidationError, as_tuple, is_int


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
class Params:
    ell: int
    kappa: Fraction | _IrrationalKappa
    charges: tuple[int, ...]

    def __post_init__(self):
        if not is_int(self.ell) or self.ell < 1:
            raise ValidationError("ell must be a positive integer, got {!r}", self.ell)
        charges = as_tuple(self.charges, "charges must be a sequence of integers")
        for s in charges:
            if not is_int(s):
                raise ValidationError("charges must be integers, got {!r}", s)
        if len(charges) != self.ell:
            raise ValidationError("expected {} charges, got {}", self.ell, len(charges))
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
    def class_kind(self) -> str:
        """The ZClass kind: "residue" (content mod e) for rational kappa, else "content"."""
        return "residue" if self.is_rational else "content"

    def coerce_class(self, z: ZClass) -> ZClass:
        """Check the class label's kind and integer value; normalize residues."""
        if not isinstance(z, ZClass):
            raise ValidationError(f"expected a ZClass, got {type(z).__name__}")
        if z.kind != self.class_kind:
            raise ValidationError(
                "rational kappa indexes classes by residue, not content"
                if self.is_rational
                else "irrational kappa indexes classes by exact content"
            )
        if not is_int(z.value):
            raise ValidationError("class value must be an integer, got {!r}", z.value)
        return ZClass("residue", z.value % self.e) if self.is_rational else z


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
    global charge shift leaves every c_i unchanged.  The sums take
    (ell - 1)^2 terms; above DEFAULT_NODE_CEILING that raises
    ResourceCeilingError.
    """
    if not params.is_rational:
        raise ValidationError(
            "cyclotomic parameters need rational kappa; a formal transcendental has no numeric value"
        )
    ell = params.ell
    Budget(
        DEFAULT_NODE_CEILING,
        "cyclotomic_c at ell={} sums {spent} terms, above the ceiling {ceiling}",
        ell,
    ).charge((ell - 1) ** 2)
    c0 = -params.kappa
    # exp(-2 pi i * ij / ell) depends on ij mod ell only
    roots = [_unit_exp(Fraction(-k, ell)) for k in range(ell)]
    try:
        rest = []
        for i in range(1, ell):
            acc = 0j
            for j in range(1, ell):
                root = roots[i * j % ell]
                acc += (root - 1) * (params.charges[j] - params.charges[j - 1])
            rest.append(-0.5 * (1 + float(params.kappa) * acc))
        if all(cmath.isfinite(c) for c in rest):
            return c0, tuple(rest)
    except OverflowError:
        pass
    raise ValidationError(
        "cyclotomic parameters of this kappa and these charges exceed double precision range",
        location="params",
    )


def _unit_exp(x: Fraction) -> complex:
    # reduce exactly first: float(x) of a huge x has no fractional digits left
    turn = x % 1
    # quarter turns are exact: cmath.exp leaves a 1e-16 residue there (say,
    # an imaginary part at a half turn), which a huge charge multiplies
    if (4 * turn).denominator == 1:
        return (1 + 0j, 1j, -1 + 0j, -1j)[int(4 * turn)]
    return cmath.exp(2j * math.pi * float(turn))
