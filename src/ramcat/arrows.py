"""Deciding the Ramsey arrow on category fragments.

The arrow ``C -> (B)^A_k`` holds when every k-coloring of hom(A, C) admits a
morphism ``w`` in hom(B, C) whose translated copy ``w . hom(A, B)`` is
monochromatic.  Two engines are provided:

* an exhaustive engine iterating the colorings directly, and
* a backtracking engine searching for a counterexample coloring with
  forward pruning: a partial coloring is abandoned exactly when some copy is
  already completely colored in one color.  Positions are colored in index
  order, so each copy is checked once, when its last position is colored,
  against a bitmask of the positions holding the color just tried.

Both engines canonicalize colors by first use, which quotients out the k!
color permutations without affecting the verdict.  Copies are hoisted into
index sets over hom(A, C) once per instance, so the search never composes
morphisms in its inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .category import CategoryFragment, Morphism
from .errors import BudgetExceeded, ValidationError

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_COLORING_BUDGET = 1_000_000


@dataclass(frozen=True)
class Coloring:
    a: object
    c: object
    k: int
    colors: tuple[int, ...]  # indexed by the canonical order of hom(A, C)


@dataclass
class ArrowVerdict:
    holds: bool
    counterexample: Coloring | None
    witnesses: list[int] | None
    stats: dict = field(default_factory=dict)


@dataclass
class _Copies:
    hom_ac: tuple[Morphism, ...]
    sets: list[tuple[int, ...]]          # deduplicated index sets
    representatives: list[Morphism]      # one w per distinct set


def _prepare(fragment: CategoryFragment, a, b, c) -> _Copies:
    hom_ab = fragment.hom(a, b)
    hom_bc = fragment.hom(b, c)
    if not hom_ab or not hom_bc:
        raise ValidationError("precondition_arrow_missing",
                              f"need nonempty hom({a},{b}) and hom({b},{c})", A=a, B=b, C=c)
    hom_ac = fragment.hom(a, c)
    index = {m: i for i, m in enumerate(hom_ac)}
    sets: list[tuple[int, ...]] = []
    reps: list[Morphism] = []
    seen: set[tuple[int, ...]] = set()
    for w in hom_bc:
        copy = tuple(sorted({index[fragment.compose(w, f)] for f in hom_ab}))
        if copy not in seen:
            seen.add(copy)
            sets.append(copy)
            reps.append(w)
    return _Copies(hom_ac, sets, reps)


def _canonical_colorings(h: int, k: int):
    """Colorings of h positions in first-use canonical form (position i may
    only use colors 0..min(max_used+1, k-1))."""
    colors = [0] * h

    def rec(pos: int, used: int):
        if pos == h:
            yield tuple(colors)
            return
        limit = min(used + 1, k)
        for c in range(limit):
            colors[pos] = c
            yield from rec(pos + 1, max(used, c + 1))

    yield from rec(0, 0)


def check_arrow_exhaustive(fragment: CategoryFragment, a, b, c, k: int,
                           coloring_budget: int = DEFAULT_COLORING_BUDGET,
                           keep_witnesses: bool = False) -> ArrowVerdict:
    """Iterate every coloring (one per color-permutation class); the arrow
    holds iff each one admits a monochromatic copy."""
    if k < 1:
        raise ValidationError("bad_colors", f"need at least one color, got {k}")
    copies = _prepare(fragment, a, b, c)
    h = len(copies.hom_ac)
    if k ** h > coloring_budget:
        raise BudgetExceeded("colorings", coloring_budget,
                             f"{k}^{h} colorings exceed the budget of {coloring_budget}")
    order = list(range(len(copies.sets)))
    witnesses: list[int] | None = [] if keep_witnesses else None
    examined = 0
    for coloring in _canonical_colorings(h, k):
        examined += 1
        found = None
        for pos, ci in enumerate(order):
            copy = copies.sets[ci]
            first = coloring[copy[0]]
            if all(coloring[i] == first for i in copy):
                found = ci
                if pos:
                    order.insert(0, order.pop(pos))
                break
        if found is None:
            return ArrowVerdict(False, Coloring(a, c, k, coloring), None,
                                {"colorings": examined, "hom_ac": h, "copies": len(copies.sets)})
        if witnesses is not None:
            witnesses.append(found)
    return ArrowVerdict(True, None, witnesses,
                        {"colorings": examined, "hom_ac": h, "copies": len(copies.sets)})


def find_bad_coloring(fragment: CategoryFragment, a, b, c, k: int,
                      node_budget: int | None = None,
                      stats_out: dict | None = None) -> Coloring | None:
    """Depth-first search for a coloring defeating every copy; returns None
    when the complete search finds none (which certifies the arrow).
    Positions are colored in index order, so each copy is checked once, when
    its last position is colored: that color is dead there iff the copy's
    other positions all hold it already, a test against one bitmask per
    color.  A budget overrun raises, and is never reported as none-found.
    Pass a dict as ``stats_out`` to receive the number of nodes expanded; on
    an overrun it also receives ``prefix``, the number of positions colored
    when the budget ran out, and the exception carries both as ``stats``."""
    if k < 1:
        raise ValidationError("bad_colors", f"need at least one color, got {k}")
    budget = node_budget if node_budget is not None else DEFAULT_NODE_BUDGET
    copies = _prepare(fragment, a, b, c)
    if k == 1:
        if stats_out is not None:
            stats_out["nodes"] = 0
        return None  # a single color makes every copy monochromatic
    h = len(copies.hom_ac)
    closing: list[list[int]] = [[] for _ in range(h)]  # other positions of each copy ending here
    for copy in copies.sets:
        closing[copy[-1]].append(sum(1 << i for i in copy[:-1]))
    masks = [0] * k  # the positions holding each color
    colors = [-1] * h
    limit = [1] * h  # colors open at each position: those used before it and one more
    nodes = 0
    found = None
    # depth-first over positions with an explicit stack, so hom(A, C) may
    # hold more positions than Python's recursion limit
    pos = color = 0
    while True:
        if color < limit[pos]:
            if nodes >= budget:
                progress = {"nodes": nodes, "prefix": pos}
                if stats_out is not None:
                    stats_out.update(progress)
                raise BudgetExceeded("nodes", budget, stats=progress)
            nodes += 1
            mask = masks[color]
            for rest in closing[pos]:
                if rest & mask == rest:
                    break  # this copy would be monochromatic for good
            else:
                colors[pos] = color
                masks[color] = mask | 1 << pos
                if pos + 1 == h:
                    found = tuple(colors)
                    break
                lim = limit[pos]
                pos += 1
                limit[pos] = lim + 1 if color + 1 == lim < k else lim
                color = 0
                continue
            color += 1
            continue
        pos -= 1
        if pos < 0:
            break
        # retract the color at pos, then try the next one there
        color = colors[pos]
        masks[color] ^= 1 << pos
        color += 1
    if stats_out is not None:
        stats_out["nodes"] = nodes
    if found is None:
        return None
    return Coloring(a, c, k, found)


def certify_bad_coloring(fragment: CategoryFragment, a, b, c, coloring: Coloring) -> bool:
    """Re-check a counterexample by direct enumeration: every w gets a copy
    showing at least two colors."""
    hom_ac = fragment.hom(a, c)
    index = {m: i for i, m in enumerate(hom_ac)}
    for w in fragment.hom(b, c):
        seen = {coloring.colors[index[fragment.compose(w, f)]] for f in fragment.hom(a, b)}
        if len(seen) <= 1:
            return False
    return True


def min_ramsey_witness(family: Callable[[int], CategoryFragment], a, b, k: int,
                       n_max: int, node_budget: int | None = None) -> tuple[int, list[dict]]:
    """Smallest n <= n_max whose fragment object n satisfies the arrow, found
    by running the counterexample search per candidate.  Returns the witness
    and a per-candidate log."""
    log: list[dict] = []
    for n in range(1, n_max + 1):
        fragment = family(n)
        if not (fragment.has_object(a) and fragment.has_object(b) and fragment.has_object(n)):
            continue
        if not (fragment.arrow(a, b) and fragment.arrow(b, n)):
            log.append({"n": n, "skipped": "arrow precondition missing"})
            continue
        bad = find_bad_coloring(fragment, a, b, n, k, node_budget)
        if bad is None:
            log.append({"n": n, "holds": True})
            return n, log
        if not certify_bad_coloring(fragment, a, b, n, bad):
            raise ValidationError("uncertified_counterexample",
                                  f"search returned a coloring that does not defeat every copy at n={n}", n=n)
        log.append({"n": n, "holds": False, "counterexample": list(bad.colors)})
    raise ValidationError("not_found_within_bound",
                          f"no witness at or below {n_max}", n_max=n_max)
