"""Class boundaries of multipartitions, their sign words, the box-adding
and box-removing crystal operators, and the dominant-weight realization.

The boundary of a multipartition in one z-class lists its addable and
removable boxes of that class by increasing d-value.  Writing '+' for
addable and '-' for removable turns the boundary into a sign word; the
raising flip of that word adds a box, the lowering flip removes one.
Adding a box of the class turns its '+' into '-' but never changes the
box list, so the words coordinatize the whole class.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .errors import (
    DEFAULT_NODE_CEILING,
    Budget,
    ResourceCeilingError,
    ValidationError,
    as_tuple,
    is_int,
)
from .params import Params, ZClass
from .signstrings import MINUS, PLUS, _flip_at, check_sign_string
from .young import BoxRef, Multipartition, Partition, check_partition, corners


@dataclass(frozen=True)
class ZBoundary:
    """Boxes of one class by increasing d-value, and the sign word that
    marks each box '+' (addable) or '-' (removable), symbol for box."""

    z: ZClass
    boxes: tuple[BoxRef, ...]
    sign: str

    def __len__(self) -> int:
        return len(self.boxes)


def _check_pair(params: Params, m: Multipartition) -> None:
    if m.ell != params.ell:
        raise ValidationError(
            "multipartition has {} components, parameters expect {}", m.ell, params.ell
        )


def boundary(params: Params, m: Multipartition, z: ZClass) -> ZBoundary:
    """Addable and removable z-boxes sorted by increasing d-value; empty
    when m has no boundary box in class z.  See `boundaries`."""
    return ZBoundary(*_class_word(params, m, z))


def _class_word(params: Params, m: Multipartition, z: ZClass) -> tuple:
    """(z, boxes, sign word) of the one class z: `_merge` of that class
    alone, with no boxes and an empty word when m does not meet it."""
    z = params.coerce_class(z)
    merged = _merge(params, m, {}, (z.value,))
    return (z,) + merged[0][1:] if merged else (z, (), "")


def boundaries(params: Params, m: Multipartition) -> dict[ZClass, ZBoundary]:
    """Every nonempty class boundary of m, in class order; the keys are the
    classes m meets.

    Each component's addable and removable boxes get their class and the
    integer key sign(kappa) * ell * cont - component (`_corners`); the
    boundary merges those corners class by class and sorts each class by
    key.  The key orders a class as d does, and no two boxes of one class
    share it (see `params`); `naive.d_comes_before` and the tests' oracle,
    which keep the paper's Fraction d, check both.
    """
    table = {}
    for value, boxes, sign in _merge(params, m, {}, None):
        z = ZClass(params.class_kind, value)
        table[z] = ZBoundary(z, boxes, sign)
    return table


def _corners(params: Params, comp: int, rows: Partition) -> list:
    """(key, class value, box, symbol) for each addable, then each
    removable, box of component `comp` with rows `rows`.  The key is
    scale * cont - comp with scale = sign(kappa) * ell, and 0 for
    irrational kappa; the class value is cont mod e, or cont itself."""
    charge, den = params.charges[comp], params.e
    scale = 0 if den is None else ((params.kappa > 0) - (params.kappa < 0)) * params.ell
    addable, removable = corners(rows)
    found, make_box = [], BoxRef._make
    for sym, boxes in ((PLUS, addable), (MINUS, removable)):
        for row, col in boxes:
            cont = charge + col - row
            value = cont if den is None else cont % den
            found.append((scale * cont - comp, value, make_box((comp, row, col)), sym))
    return found


def _merge(params: Params, m: Multipartition, corner_table: dict, only) -> list:
    """The kernel of `boundaries`: merge the corners of m's components class
    by class into (class value, boxes, sign word) tuples, in class order.
    `corner_table` maps (component, rows) to `_corners` and may be shared
    by calls with the same params; `only`, when not None, holds the class
    values (residues, or contents for irrational kappa) to build."""
    _check_pair(params, m)
    found: dict[int, list] = defaultdict(list)
    for comp, part in enumerate(m.components):
        key = (comp, part)
        own = corner_table.get(key)
        if own is None:
            own = corner_table[key] = _corners(params, comp, part)
        for corner in own:
            if only is None or corner[1] in only:
                found[corner[1]].append(corner)
    merged = []
    for value in sorted(found):
        entries = found[value]
        entries.sort()
        _, _, boxes, signs = zip(*entries)
        merged.append((value, boxes, "".join(signs)))
    return merged


def class_representative(params: Params, m: Multipartition, z: ZClass) -> Multipartition:
    """Drop every removable z-box simultaneously; constant on the class.

    Removable boxes occupy pairwise distinct rows, so the simultaneous
    deletion always yields a partition: the member whose word is all '+'.
    """
    _, boxes, _ = _class_word(params, m, z)
    return _member(m, boxes, PLUS * len(boxes))


def class_member(params: Params, m: Multipartition, z: ZClass, word: str) -> Multipartition:
    """The member of m's class whose boundary sign word equals `word`."""
    check_sign_string(word)
    _, boxes, _ = _class_word(params, m, z)
    if len(word) != len(boxes):
        raise ValidationError(
            "word length {} does not match boundary size {}", len(word), len(boxes)
        )
    return _member(m, boxes, word)


def _member(m: Multipartition, boxes: tuple, word: str) -> Multipartition:
    """m's class member whose word on the class boxes `boxes` is `word`, in one
    pass: the boxes lie in distinct rows, and a row through a box ends at it
    when the word marks it '-' and just before it when '+'.  Only the
    components the boxes lie in are rebuilt and checked; the others are m's."""
    comps = list(m.components)
    changed: dict[int, list] = {}
    for box, sym in zip(boxes, word):
        row = changed.get(box.comp)
        if row is None:
            row = changed[box.comp] = list(comps[box.comp])
        if box.row > len(row):  # an addable box opening a new row
            row.append(0)
        row[box.row - 1] = box.col if sym == MINUS else box.col - 1
    for comp, row in changed.items():
        comps[comp] = check_partition(row)
    return Multipartition._from_canonical(tuple(comps))


def crystal_add(params: Params, m: Multipartition, z: ZClass) -> tuple[Multipartition, BoxRef] | None:
    """Add the box at the raising flip of the boundary word; None if h_plus = 0."""
    _, boxes, sign = _class_word(params, m, z)
    return _step(m, boxes, sign, raising=True)


def crystal_remove(params: Params, m: Multipartition, z: ZClass) -> tuple[Multipartition, BoxRef] | None:
    """Remove the box at the lowering flip of the boundary word; None if h_minus = 0."""
    _, boxes, sign = _class_word(params, m, z)
    return _step(m, boxes, sign, raising=False)


def _step(m: Multipartition, boxes: tuple, sign: str, raising: bool) -> tuple[Multipartition, BoxRef] | None:
    """Add the box at the raising flip of one class's word, or remove the
    box at its lowering flip; None when the word has no such flip."""
    i = _flip_at(sign, raising)
    if i < 0:
        return None
    box = boxes[i]
    return (m.add_box(box) if raising else m.remove_box(box)), box


def kgroup_induction(params: Params, m: Multipartition, z: ZClass) -> list[Multipartition]:
    """All single additions of an addable z-box, by increasing d-value."""
    return _kgroup(params, m, z, PLUS)


def kgroup_restriction(params: Params, m: Multipartition, z: ZClass) -> list[Multipartition]:
    """All single removals of a removable z-box, by increasing d-value."""
    return _kgroup(params, m, z, MINUS)


def _kgroup(params: Params, m: Multipartition, z: ZClass, sym: str) -> list[Multipartition]:
    # each result holds m's ell components, all built at once
    _, boxes, sign = _class_word(params, m, z)
    op = "induction" if sym == PLUS else "restriction"
    Budget(
        DEFAULT_NODE_CEILING,
        "kgroup {} would build {spent} components (results x ell), above the ceiling {ceiling}",
        op,
    ).charge(sign.count(sym) * m.ell)
    step = m.add_box if sym == PLUS else m.remove_box
    return [step(box) for box, s in zip(boxes, sign) if s == sym]


# --- dominant weight realization ---------------------------------------


def check_dominant_weight(entries) -> tuple[int, ...]:
    w = as_tuple(entries, "weight must be a sequence of integers")
    for x in w:
        if not is_int(x):
            raise ValidationError("weight entries must be integers, got {!r}", x)
    if not all(a > b for a, b in zip(w, w[1:])):
        raise ValidationError("weight must be strictly decreasing, got {}", w)
    return w


def _check_characteristic(p: int) -> None:
    if not is_int(p) or p < 0 or (p != 0 and not _is_prime(p)):
        raise ValidationError("characteristic must be 0 or a prime, got {!r}", p)


# Miller-Rabin with the first 13 prime bases is exact below psi_13
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    if n >= _MR_LIMIT:
        raise ResourceCeilingError("primality of {} is only decided below {}", n, _MR_LIMIT)
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gl_word(weight, i: int, p: int) -> tuple[list[int], str]:
    """(positions, sign): the 1-based indices whose entry matches i or i+1
    (mod p, or exactly for p=0), and their word, '+' where the entry
    matches i and '-' where it matches i+1."""
    return _gl_word(weight, i, p)[1:]


def _gl_word(weight, i: int, p: int) -> tuple[tuple[int, ...], list[int], str]:
    """The one checked entry of the dominant-weight side: check the weight,
    then p, then i, and return `_gl_read` of them."""
    w = check_dominant_weight(weight)
    _check_characteristic(p)
    if not is_int(i):
        raise ValidationError("class index must be an integer, got {!r}", i)
    return _gl_read(w, i, p)


def _gl_read(w: tuple, i: int, p: int) -> tuple[tuple[int, ...], list[int], str]:
    """(w, matching positions, their sign word) of a checked weight, class
    index and characteristic.  An entry v is '+' when v - i is 0 and '-'
    when it is 1, mod p for p > 0."""
    positions, parts = [], []
    for j, v in enumerate(w, 1):
        gap = v - i if p == 0 else (v - i) % p
        if gap == 0 or gap == 1:
            positions.append(j)
            parts.append(PLUS if gap == 0 else MINUS)
    return w, positions, "".join(parts)


def gl_crystal_add(weight, i: int, p: int) -> tuple[int, ...] | None:
    """Bump the entry at the raising flip by one; None when h_plus = 0."""
    return _gl_step(*_gl_word(weight, i, p), raising=True)


def gl_crystal_remove(weight, i: int, p: int) -> tuple[int, ...] | None:
    """Drop the entry at the lowering flip by one; None when h_minus = 0."""
    return _gl_step(*_gl_word(weight, i, p), raising=False)


def _gl_step(w: tuple, positions: list, sign: str, raising: bool) -> tuple[int, ...] | None:
    """Bump the entry at the raising flip of a checked weight's word, or
    drop the entry at its lowering flip; None when the word has no such flip.

    The result stays strictly decreasing: raising w_j can only collide with
    w_{j-1} = w_j + 1, which is then the '-' just before that '+' in the
    word, and lowering w_j with w_{j+1} = w_j - 1, the '+' just after that
    '-'; either pair cancels in the reduction, so the flip is never there."""
    k = _flip_at(sign, raising)
    if k < 0:
        return None
    changed = list(w)
    changed[positions[k] - 1] += 1 if raising else -1
    return tuple(changed)
