"""Sign words over '+'/'-' and their crystal combinatorics.

The reduced form of a word repeatedly cancels a '-' together with a later
'+' once everything strictly between them is already cancelled.
Equivalently, in a single left-to-right pass, each '+' cancels the nearest
uncancelled '-' to its left.  Surviving symbols drive the statistics and
the partial raising/lowering maps.  Positions are 1-based throughout.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import DEFAULT_NODE_CEILING, Budget, ValidationError

PLUS = "+"
MINUS = "-"
CANCELLED = "0"

_ALPHABET = frozenset(PLUS + MINUS)


def check_sign_string(t: str) -> str:
    """Validate a word over '+'/'-' (empty allowed) and return it."""
    if not isinstance(t, str):
        raise ValidationError(f"sign string must be a str, got {type(t).__name__}")
    if not _ALPHABET.issuperset(t):
        raise ValidationError(
            "sign string may contain only '+' and '-', found "
            + ", ".join(repr(c) for c in sorted(set(t) - _ALPHABET))
        )
    return t


def reduced_form(t: str) -> str:
    check_sign_string(t)
    return _reduce(t)


def _reduce(t: str) -> str:
    """`reduced_form` of a word already known to be over '+'/'-'."""
    out = list(t)
    open_minus: list[int] = []
    for i, sym in enumerate(t):
        if sym == MINUS:
            open_minus.append(i)
        elif open_minus:
            out[open_minus.pop()] = CANCELLED
            out[i] = CANCELLED
    return "".join(out)


def statistics(t: str) -> tuple[int, int]:
    """(h_plus, h_minus): counts of surviving '+' and '-'."""
    r = reduced_form(t)
    return r.count(PLUS), r.count(MINUS)


def h_plus(t: str) -> int:
    return statistics(t)[0]


def h_minus(t: str) -> int:
    return statistics(t)[1]


def weight(t: str) -> int:
    """h_minus - h_plus, which is #'-' - #'+' since cancellation is pairwise."""
    check_sign_string(t)
    return t.count(MINUS) - t.count(PLUS)


def e_tilde(t: str) -> tuple[str, int] | None:
    """Flip the rightmost surviving '+' to '-'; None when none survives.

    Returns the new word together with the 1-based flip position.
    """
    i = _flip_at(check_sign_string(t), raising=True)
    if i < 0:
        return None
    return t[:i] + MINUS + t[i + 1:], i + 1


def f_tilde(t: str) -> tuple[str, int] | None:
    """Flip the leftmost surviving '-' to '+'; None when none survives."""
    i = _flip_at(check_sign_string(t), raising=False)
    if i < 0:
        return None
    return t[:i] + PLUS + t[i + 1:], i + 1


def _flip_at(t: str, raising: bool) -> int:
    """0-based position of the raising flip (the rightmost '+' that survives
    reduction) or of the lowering flip (the leftmost surviving '-'), or -1
    when the word has none; `t` must already be over '+'/'-'."""
    if raising:
        return _reduce(t).rfind(PLUS) if PLUS in t else -1
    return _reduce(t).find(MINUS) if MINUS in t else -1


def suffix_h_minus(t: str, k: int) -> int:
    """h_minus of the suffix starting at position k; k = n+1 gives 0."""
    check_sign_string(t)
    if not 1 <= k <= len(t) + 1:
        raise ValidationError("suffix start {} out of range 1..{}", k, len(t) + 1)
    return _reduce(t[k - 1:]).count(MINUS)


def succ_compare(a: str, b: str) -> int:
    """Total order on equal-length words: judged at the largest differing
    position, '-' above '+'.  Returns +1 when a is greater, -1 when b is,
    0 on equality."""
    check_sign_string(a)
    check_sign_string(b)
    if len(a) != len(b):
        raise ValidationError("cannot compare words of lengths {} and {}", len(a), len(b))
    # read from the right, '-' sorts above '+' in ASCII
    ra, rb = a[::-1], b[::-1]
    return (ra > rb) - (ra < rb)


def plus_flips(t: str) -> list[tuple[int, str]]:
    """All single flips '+' -> '-', by ascending flip position.

    Ascending position agrees with ascending succ_compare order of the
    flipped words.
    """
    return _flips(t, PLUS, MINUS)


def minus_flips(t: str) -> list[tuple[int, str]]:
    """All single flips '-' -> '+', by ascending flip position."""
    return _flips(t, MINUS, PLUS)


def _flips(t: str, old: str, new: str) -> list[tuple[int, str]]:
    # the flipped words hold len(t) symbols per `old` in t, all built at once
    check_sign_string(t)
    Budget(
        DEFAULT_NODE_CEILING,
        "flips of a word of length {} would write {spent} symbols, above the ceiling {ceiling}",
        len(t),
    ).charge(len(t) * t.count(old))
    return [(i + 1, t[:i] + new + t[i + 1:]) for i, s in enumerate(t) if s == old]


def iter_words(n: int) -> Iterator[str]:
    """All words of length n, '+' before '-' at every position."""
    for symbols in itertools.product(PLUS + MINUS, repeat=n):
        yield "".join(symbols)
