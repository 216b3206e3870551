"""Second, deliberately literal transcription of the combinatorial rules.

The verification suites compare the production operators against this
module, so everything here recomputes results from first principles:
explicit step-by-step rewriting for word reduction, cell-set arithmetic
for diagrams, direct Fraction comparisons for the d-ordering.  It works
on plain data (strings, nested tuples, Fractions) and must never be
imported by the operator modules it double-checks.

`crystal_steps` builds a label's addable and removable cells once and
answers every class the label meets from them; `crystal_add` and
`crystal_remove` answer one class through the same entry and step code.
Nothing is kept between calls, except that a `reductions` generator keeps
one word's rewrites for that word's trials.
"""

from __future__ import annotations

import re

_SITE = re.compile(r"-0*\+")


def rewrite_sites(word: str) -> list[tuple[int, int]]:
    """0-based (a, b) where a '-' and a later '+' see only '0' between."""
    return [(site.start(), site.end() - 1) for site in _SITE.finditer(word)]


def reduce_by_rewriting(t: str, rng=None) -> str:
    """Apply the cancellation rule until stuck; rng picks the site if given."""
    word = t
    while True:
        sites = rewrite_sites(word)
        if not sites:
            return word
        a, b = sites[0] if rng is None else rng.choice(sites)
        word = word[:a] + "0" + word[a + 1:b] + "0" + word[b + 1:]


def reductions(t: str, rng):
    """Yield random-order reductions of t without end, each drawing its sites
    as `reduce_by_rewriting(t, rng)` does; every word met is scanned once,
    and each of its [a, b, rewrite] sites rewritten the first time it is drawn."""
    sites_of = {}
    while True:
        word = t
        while True:
            sites = sites_of.get(word)
            if sites is None:
                sites = sites_of[word] = [[m.start(), m.end() - 1, None] for m in _SITE.finditer(word)]
            if not sites:
                break
            site = rng.choice(sites)
            if site[2] is None:
                a, b, _ = site
                site[2] = word[:a] + "0" + word[a + 1:b] + "0" + word[b + 1:]
            word = site[2]
        yield word


def raise_word(t: str) -> tuple[str, int] | None:
    reduced = reduce_by_rewriting(t)
    pos = None
    for k, sym in enumerate(reduced):
        if sym == "+":
            pos = k
    if pos is None:
        return None
    return t[:pos] + "-" + t[pos + 1:], pos + 1


def lower_word(t: str) -> tuple[str, int] | None:
    reduced = reduce_by_rewriting(t)
    for k, sym in enumerate(reduced):
        if sym == "-":
            return t[:k] + "+" + t[k + 1:], k + 1
    return None


def cells_of(rows) -> set[tuple[int, int]]:
    return {(r + 1, c + 1) for r, width in enumerate(rows) for c in range(width)}


def is_diagram(cells) -> bool:
    for (r, c) in cells:
        if r < 1 or c < 1:
            return False
        if r > 1 and (r - 1, c) not in cells:
            return False
        if c > 1 and (r, c - 1) not in cells:
            return False
    return True


def rows_of(cells) -> tuple[int, ...]:
    if not cells:
        return ()
    height = max(r for r, _ in cells)
    return tuple(sum(1 for (rr, _) in cells if rr == r) for r in range(1, height + 1))


def addable_cells(rows) -> list[tuple[int, int]]:
    cells = cells_of(rows)
    height = len(rows)
    width = rows[0] if rows else 0
    found = []
    for r in range(1, height + 2):
        for c in range(1, width + 2):
            if (r, c) not in cells and is_diagram(cells | {(r, c)}):
                found.append((r, c))
    return found


def removable_cells(rows) -> list[tuple[int, int]]:
    cells = cells_of(rows)
    return [cell for cell in sorted(cells) if is_diagram(cells - {cell})]


def shifted_content(charges, comp, row, col) -> int:
    return charges[comp] + col - row


def in_class(kappa, charges, comp, row, col, z) -> bool:
    """z is ("residue", v) for rational kappa or ("content", v) otherwise."""
    kind, value = z
    cont = shifted_content(charges, comp, row, col)
    if kind == "content":
        return cont == value
    return (cont - value) % kappa.denominator == 0


def d_comes_before(kappa, ell, charges, box1, box2) -> bool:
    """Strict d-order between boxes of one class; boxes are (comp, row, col)."""
    c1, r1, k1 = box1
    c2, r2, k2 = box2
    cont1 = shifted_content(charges, c1, r1, k1)
    cont2 = shifted_content(charges, c2, r2, k2)
    if kappa is None:
        # one class means equal contents; the d-gap is comp2 - comp1
        return c1 > c2
    d1 = kappa * (ell * cont1 - sum(charges)) - c1
    d2 = kappa * (ell * cont2 - sum(charges)) - c2
    return d1 < d2


def boundary_cells(ell, components):
    """((comp, row, col), kind) for each addable, then each removable cell,
    component by component."""
    cells = []
    for comp in range(ell):
        rows = components[comp]
        cells += [((comp, r, c), "addable") for (r, c) in addable_cells(rows)]
        cells += [((comp, r, c), "removable") for (r, c) in removable_cells(rows)]
    return cells


def class_of(kappa, charges, comp, row, col):
    cont = shifted_content(charges, comp, row, col)
    if kappa is None:
        return ("content", cont)
    return ("residue", cont % kappa.denominator)


def class_entries(ell, kappa, charges, cells, z):
    """The ((comp, row, col), kind) cells of class z, insertion-sorted by d."""
    ordered = []
    for entry in cells:
        if not in_class(kappa, charges, *entry[0], z):
            continue
        k = 0
        while k < len(ordered) and d_comes_before(kappa, ell, charges, ordered[k][0], entry[0]):
            k += 1
        ordered.insert(k, entry)
    return ordered


def sign_of(entries) -> str:
    return "".join("+" if kind == "addable" else "-" for _, kind in entries)


def class_step(components, entries, grow):
    """Add the cell at the raising flip of the class's word (grow), or
    remove the cell at its lowering flip; None when there is no flip."""
    word = sign_of(entries)
    step = raise_word(word) if grow else lower_word(word)
    if step is None:
        return None
    (comp, r, c), _ = entries[step[1] - 1]
    cells = cells_of(components[comp])
    new_rows = rows_of(cells | {(r, c)} if grow else cells - {(r, c)})
    comps = components[:comp] + (new_rows,) + components[comp + 1:]
    return comps, (comp, r, c)


def crystal_add(ell, kappa, charges, components, z):
    entries = class_entries(ell, kappa, charges, boundary_cells(ell, components), z)
    return class_step(components, entries, True)


def crystal_remove(ell, kappa, charges, components, z):
    entries = class_entries(ell, kappa, charges, boundary_cells(ell, components), z)
    return class_step(components, entries, False)


def crystal_steps(ell, kappa, charges, components):
    """{class: (crystal_add, crystal_remove)} for every class that one of
    the label's cells meets, from one build of its cells."""
    cells = boundary_cells(ell, components)
    steps = {}
    for (comp, r, c), _ in cells:
        z = class_of(kappa, charges, comp, r, c)
        if z not in steps:
            entries = class_entries(ell, kappa, charges, cells, z)
            steps[z] = (class_step(components, entries, True), class_step(components, entries, False))
    return steps


def gl_sign(weight, i, p):
    positions = []
    word = ""
    for idx, value in enumerate(weight):
        if p == 0:
            plus, minus = value == i, value == i + 1
        else:
            plus = value % p == i % p
            minus = value % p == (i + 1) % p
        if plus:
            positions.append(idx + 1)
            word += "+"
        elif minus:
            positions.append(idx + 1)
            word += "-"
    return positions, word


def gl_add(weight, i, p):
    positions, word = gl_sign(weight, i, p)
    step = raise_word(word)
    if step is None:
        return None
    out = list(weight)
    out[positions[step[1] - 1] - 1] += 1
    if any(a <= b for a, b in zip(out, out[1:])):
        return "degenerate"
    return tuple(out)


def gl_remove(weight, i, p):
    positions, word = gl_sign(weight, i, p)
    step = lower_word(word)
    if step is None:
        return None
    out = list(weight)
    out[positions[step[1] - 1] - 1] -= 1
    if any(a <= b for a, b in zip(out, out[1:])):
        return "degenerate"
    return tuple(out)
