"""Partitions, multipartitions and the addable/removable box calculus.

Components are 0-based, rows and columns 1-based.  Partitions are kept in
canonical form: weakly decreasing positive rows with trailing zeros
trimmed, so structural equality is mathematical equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .errors import ValidationError, as_tuple, is_int

Partition = tuple[int, ...]


class BoxRef(NamedTuple):
    comp: int
    row: int
    col: int


def check_partition(rows: Iterable[int]) -> Partition:
    """Canonicalize a row-length sequence; trailing zeros are trimmed."""
    parts = as_tuple(rows, "partition rows must be a sequence of integers")
    for r in parts:
        if not is_int(r):
            raise ValidationError("partition rows must be integers, got {!r}", r)
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    for a, b in zip(parts, parts[1:]):
        if a < b:
            raise ValidationError("partition rows must be weakly decreasing, got {}", parts)
    if parts and parts[-1] < 0:
        raise ValidationError("partition rows must be nonnegative, got {}", parts)
    return parts


def _width(p: Partition, j: int) -> int:
    return p[j] if j < len(p) else 0


def _addable_row(p: Partition, j: int) -> bool:
    """Whether a box fits at the end of 0-based row j, for 0 <= j <= len(p)."""
    return j == 0 or j == len(p) or p[j] < p[j - 1]


def _removable_row(p: Partition, j: int) -> bool:
    """Whether the last box of 0-based row j comes off, for 0 <= j < len(p)."""
    return j + 1 == len(p) or p[j + 1] < p[j]


def corners(p: Partition) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(addable, removable) corners of p as (row, col), each by row, in one
    pass: a row longer than the next ends in a removable box and the row
    below it takes an addable one; row 1 always takes one."""
    addable, removable = [(1, p[0] + 1 if p else 1)], []
    for row, (width, below) in enumerate(zip(p, p[1:] + (0,)), 1):
        if below < width:
            removable.append((row, width))
            addable.append((row + 1, below + 1))
    return addable, removable


@dataclass(frozen=True, slots=True)
class Multipartition:
    """An ell-tuple of partitions.

    `Multipartition(...)` and `from_lists` validate and canonicalize every
    component.  `add_box`, `remove_box` and `multipartitions_of` build
    their results through `_from_canonical`, which skips that check: the
    rows they produce are canonical by construction.  The rows are the
    only state: the size is computed from them on each read.
    """

    components: tuple[Partition, ...]

    def __post_init__(self):
        must = "multipartition components must be a sequence of partitions"
        comps = tuple(check_partition(c) for c in as_tuple(self.components, must))
        object.__setattr__(self, "components", comps)

    @classmethod
    def _from_canonical(cls, components: tuple[Partition, ...]) -> "Multipartition":
        m = object.__new__(cls)
        object.__setattr__(m, "components", components)
        return m

    @classmethod
    def from_lists(cls, data) -> "Multipartition":
        """Accepts [[3,1],[]] or {"components": [[3,1],[]]}."""
        if isinstance(data, dict):
            if set(data) != {"components"}:
                raise ValidationError('multipartition object must have a single "components" key')
            data = data["components"]
        if not isinstance(data, (list, tuple)):
            raise ValidationError("multipartition must be a list of row-length lists")
        for rows in data:
            if not isinstance(rows, (list, tuple)):
                raise ValidationError("each component must be a list of row lengths")
        return cls(tuple(data))

    def to_lists(self) -> list[list[int]]:
        return [list(c) for c in self.components]

    @property
    def ell(self) -> int:
        return len(self.components)

    @property
    def size(self) -> int:
        return sum(sum(c) for c in self.components)

    def add_box(self, box: BoxRef) -> "Multipartition":
        part = self._component(box.comp)
        j = box.row - 1
        if not (0 <= j <= len(part) and box.col == _width(part, j) + 1 and _addable_row(part, j)):
            raise ValidationError("box {} is not addable in component {}", tuple(box), box.comp)
        return self._replace_component(box.comp, part[:j] + (_width(part, j) + 1,) + part[j + 1:])

    def remove_box(self, box: BoxRef) -> "Multipartition":
        part = self._component(box.comp)
        j = box.row - 1
        if not (0 <= j < len(part) and box.col == part[j] and _removable_row(part, j)):
            raise ValidationError("box {} is not removable in component {}", tuple(box), box.comp)
        # only a last row of length 1 empties, and it is dropped
        rest = part[j + 1:] if part[j] == 1 else (part[j] - 1,) + part[j + 1:]
        return self._replace_component(box.comp, part[:j] + rest)

    def _component(self, ci: int) -> Partition:
        if not 0 <= ci < len(self.components):
            raise ValidationError("component {} out of range for ell={}", ci, len(self.components))
        return self.components[ci]

    def _replace_component(self, ci: int, part: Partition) -> "Multipartition":
        comps = self.components
        return Multipartition._from_canonical(comps[:ci] + (part,) + comps[ci + 1:])

    def __str__(self) -> str:
        return "|".join("(" + ",".join(map(str, c)) + ")" for c in self.components)


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Partitions of n, largest first part first."""
    if n < 0:
        raise ValidationError("partition size must be nonnegative")
    if n == 0:
        yield ()
        return
    cap = n if max_part is None else min(max_part, n)
    for first in range(cap, 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _compositions(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Compositions of n into k parts, first part ascending: stars and bars."""
    for bars in itertools.combinations(range(n + k - 1), k - 1):
        cuts = (-1,) + bars + (n + k - 1,)
        yield tuple(b - a - 1 for a, b in zip(cuts, cuts[1:]))


def multipartitions_of(ell: int, n: int) -> Iterator[Multipartition]:
    """All ell-multipartitions with exactly n boxes."""
    if ell < 1:
        raise ValidationError("need at least one component")
    for sizes in _compositions(n, ell):
        pools = [tuple(partitions_of(s)) for s in sizes]
        for combo in itertools.product(*pools):
            yield Multipartition._from_canonical(combo)


def multipartitions_up_to(ell: int, max_boxes: int) -> Iterator[Multipartition]:
    """All ell-multipartitions with at most max_boxes boxes, by size."""
    for n in range(max_boxes + 1):
        yield from multipartitions_of(ell, n)
