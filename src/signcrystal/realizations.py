"""Class boundaries of multipartitions, their sign words, the box-adding
and box-removing crystal operators, and the dominant-weight realization.

The boundary of a multipartition in one z-class lists its addable and
removable boxes of that class by increasing d-value.  Writing '+' for
addable and '-' for removable turns the boundary into a sign word; the
raising flip of that word adds a box, the lowering flip removes one.
Adding a box of the class permutes kinds but never the box list, so the
words coordinatize the whole class.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateClassError, DTieError, ValidationError
from .params import Params, ZClass
from .signstrings import MINUS, PLUS, check_sign_string, e_tilde, f_tilde
from .young import BoxRef, Multipartition

ADDABLE = "addable"
REMOVABLE = "removable"


@dataclass(frozen=True)
class ZBoundary:
    z: ZClass
    boxes: tuple[BoxRef, ...]
    kinds: tuple[str, ...]
    sign: str

    def entries(self) -> tuple[tuple[BoxRef, str], ...]:
        return tuple(zip(self.boxes, self.kinds))

    def __len__(self) -> int:
        return len(self.boxes)


def _check_pair(params: Params, m: Multipartition) -> None:
    if m.ell != params.ell:
        raise ValidationError(
            f"multipartition has {m.ell} components, parameters expect {params.ell}"
        )


def boundary(params: Params, m: Multipartition, z: ZClass) -> ZBoundary:
    """Addable and removable z-boxes sorted by increasing d-value.

    Consecutive entries must differ by a positive integer in d; a tie is an
    invariant violation and unreachable for valid parameters.
    """
    _check_pair(params, m)
    z = params.coerce_class(z)
    found = [(box, ADDABLE) for box in m.addable_boxes if params.z_class(box) == z]
    found += [(box, REMOVABLE) for box in m.removable_boxes if params.z_class(box) == z]
    return _sorted_boundary(params, z, found)


def boundaries(params: Params, m: Multipartition) -> dict[ZClass, ZBoundary]:
    """Every nonempty class boundary of m, in class order: one pass buckets
    the addable and removable boxes, so the keys are the classes m meets."""
    _check_pair(params, m)
    found: dict[ZClass, list[tuple[BoxRef, str]]] = {}
    for box in m.addable_boxes:
        found.setdefault(params.z_class(box), []).append((box, ADDABLE))
    for box in m.removable_boxes:
        found.setdefault(params.z_class(box), []).append((box, REMOVABLE))
    return {z: _sorted_boundary(params, z, found[z]) for z in sorted(found)}


def _sorted_boundary(params: Params, z: ZClass, found: list[tuple[BoxRef, str]]) -> ZBoundary:
    if len(found) > 1:
        found.sort(key=lambda entry: params.d_sort_key(entry[0]))
        for (x, _), (y, _) in zip(found, found[1:]):
            if params.d_diff(y, x) <= 0:
                raise DTieError(f"boxes {tuple(x)} and {tuple(y)} share a d-value in class {z}")
    boxes = tuple(box for box, _ in found)
    kinds = tuple(kind for _, kind in found)
    sign = "".join(PLUS if kind == ADDABLE else MINUS for kind in kinds)
    return ZBoundary(z, boxes, kinds, sign)


def class_representative(params: Params, m: Multipartition, z: ZClass) -> Multipartition:
    """Drop every removable z-box simultaneously; constant on the class.

    Removable boxes occupy pairwise distinct rows, so the simultaneous
    deletion always yields a partition.
    """
    _check_pair(params, m)
    z = params.coerce_class(z)
    comps = []
    for ci, part in enumerate(m.components):
        rows = list(part)
        for box in m.removable_boxes:
            if box.comp == ci and params.z_class(box) == z:
                rows[box.row - 1] -= 1
        while rows and rows[-1] == 0:
            rows.pop()
        comps.append(tuple(rows))
    return Multipartition(tuple(comps))


def class_member(params: Params, m: Multipartition, z: ZClass, word: str) -> Multipartition:
    """The member of m's class whose boundary sign word equals `word`."""
    check_sign_string(word)
    b = boundary(params, m, z)
    if len(word) != len(b):
        raise ValidationError(
            f"word length {len(word)} does not match boundary size {len(b)}"
        )
    member = class_representative(params, m, z)
    for sym, box in zip(word, b.boxes):
        if sym == MINUS:
            member = member.add_box(box)
    return member


def crystal_add(params: Params, m: Multipartition, z: ZClass) -> tuple[Multipartition, BoxRef] | None:
    """Add the box at the raising flip of the boundary word; None if h_plus = 0."""
    return apply_flip(m, boundary(params, m, z), raising=True)


def crystal_remove(params: Params, m: Multipartition, z: ZClass) -> tuple[Multipartition, BoxRef] | None:
    """Remove the box at the lowering flip of the boundary word; None if h_minus = 0."""
    return apply_flip(m, boundary(params, m, z), raising=False)


def apply_flip(m: Multipartition, b: ZBoundary, raising: bool) -> tuple[Multipartition, BoxRef] | None:
    """Apply the raising (box-adding) or lowering (box-removing) flip of
    m's boundary b; None when the word has no such flip."""
    step = e_tilde(b.sign) if raising else f_tilde(b.sign)
    if step is None:
        return None
    box = b.boxes[step[1] - 1]
    return (m.add_box(box) if raising else m.remove_box(box)), box


def kgroup_induction(params: Params, m: Multipartition, z: ZClass) -> list[Multipartition]:
    """All single additions of an addable z-box, by increasing d-value."""
    b = boundary(params, m, z)
    return [m.add_box(box) for box, kind in b.entries() if kind == ADDABLE]


def kgroup_restriction(params: Params, m: Multipartition, z: ZClass) -> list[Multipartition]:
    """All single removals of a removable z-box, by increasing d-value."""
    b = boundary(params, m, z)
    return [m.remove_box(box) for box, kind in b.entries() if kind == REMOVABLE]


# --- dominant weight realization ---------------------------------------


def check_dominant_weight(entries) -> tuple[int, ...]:
    w = tuple(entries)
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValidationError(f"weight entries must be integers, got {x!r}")
    for a, b in zip(w, w[1:]):
        if a <= b:
            raise ValidationError(f"weight must be strictly decreasing, got {w}")
    return w


def _check_characteristic(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ValidationError(f"characteristic must be 0 or a prime, got {p!r}")
    if p == 0:
        return
    if p == 1 or not _is_prime(p):
        raise ValidationError(f"characteristic must be 0 or a prime, got {p}")


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _entry_symbol(value: int, i: int, p: int) -> str | None:
    """'+' when the entry matches i, '-' when it matches i+1, else None."""
    if p == 0:
        if value == i:
            return PLUS
        if value == i + 1:
            return MINUS
        return None
    r = value % p
    if r == i % p:
        return PLUS
    if r == (i + 1) % p:
        return MINUS
    return None


def gl_positions(weight, i: int, p: int) -> list[int]:
    """1-based indices whose entry matches i or i+1 (mod p, or exactly for p=0)."""
    w = check_dominant_weight(weight)
    _check_characteristic(p)
    return [j + 1 for j, v in enumerate(w) if _entry_symbol(v, i, p) is not None]


def gl_sign_string(weight, i: int, p: int) -> str:
    """'+' where the entry matches i, '-' where it matches i+1, by position."""
    w = check_dominant_weight(weight)
    _check_characteristic(p)
    parts = []
    for v in w:
        sym = _entry_symbol(v, i, p)
        if sym is not None:
            parts.append(sym)
    return "".join(parts)


def gl_crystal_add(weight, i: int, p: int) -> tuple[int, ...] | None:
    """Bump the entry at the raising flip by one; None when h_plus = 0."""
    return _gl_step(weight, i, p, raising=True)


def gl_crystal_remove(weight, i: int, p: int) -> tuple[int, ...] | None:
    """Drop the entry at the lowering flip by one; None when h_minus = 0."""
    return _gl_step(weight, i, p, raising=False)


def _gl_step(weight, i: int, p: int, raising: bool) -> tuple[int, ...] | None:
    w = check_dominant_weight(weight)
    _check_characteristic(p)
    positions = gl_positions(w, i, p)
    sign = gl_sign_string(w, i, p)
    step = e_tilde(sign) if raising else f_tilde(sign)
    if step is None:
        return None
    j = positions[step[1] - 1]
    changed = list(w)
    changed[j - 1] += 1 if raising else -1
    for a, b in zip(changed, changed[1:]):
        if a <= b:
            raise DegenerateClassError(
                f"flip at position {j} leaves the non-dominant sequence {tuple(changed)}"
            )
    return tuple(changed)
