"""Deciding the Ramsey arrow on category fragments.

The arrow ``C -> (B)^A_k`` holds when every k-coloring of hom(A, C) admits a
morphism ``w`` in hom(B, C) whose translated copy ``w . hom(A, B)`` is
monochromatic.  With hom(A, C) as positions 0..h-1 and each copy as the
sorted tuple of its positions, that asks for a k-coloring of the positions
that leaves no copy monochromatic.  Two engines answer it from h and the
copies alone:

* ``exhaustive_coloring`` tests the colorings bit-sliced, 4,096 at a time:
  one bit of a Python integer per coloring, and one AND per copy position
  decides a copy for all of them at once (Biham, "A Fast New DES
  Implementation in Software", FSE 1997), and
* ``search_coloring`` propagates: unit propagation over the copies, one
  bitmask of positions per color, branching on the tightest copy that can
  still become monochromatic, with chronological backtracking through a
  trail.  The propagation is GRASP's (Marques-Silva & Sakallah 1999); no
  clauses are learned.  Its docstring gives the rules.

Both engines canonicalize colors by first use, which quotients out the k!
color permutations without affecting the verdict: a position takes only
the colors used before it plus one new color, since unused colors are
interchangeable.  ``check_arrow_exhaustive`` and ``find_bad_coloring`` run
them on the copies of (A, B, C), which ``_prepare`` lists once per
(fragment, A, B, C); no morphism is built per pair: within one hom-set
the payload names the morphism.  The composites come from
``CategoryFragment.columns``, which ``verify_pa`` reads too: where the
builder gives a spelling (``CategoryFragment.spelling``: ``gr`` and
``dram-op``) they are read by character substitution on spelled payloads
and looked up by spelling; otherwise they come from the payload rule and
the index of hom(A, C) (``CategoryFragment.hom_index``).  They are kept
with the fragment, so both engines share them and the search never
composes morphisms.  ``certify_bad_coloring`` is the independent re-check, whatever
the listing read: it composes afresh through the payload rule
(``CategoryFragment.rule``), never the spelling, finds each composite in the
index of hom(A, C), and stops each copy at its second color.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

from .category import CategoryFragment
from .errors import BudgetExceeded, ValidationError

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_COLORING_BUDGET = 1_000_000
BLOCK = 4096  # colorings the exhaustive engine tests at once, one bit each


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
    stats: dict = field(default_factory=dict)


@dataclass
class _Copies:
    sets: list[tuple[int, ...]]  # deduplicated index sets over hom(A, C), in listing order


def _prepare(fragment: CategoryFragment, a, b, c) -> _Copies:
    """The copies of (A, B, C): for each w in hom(B, C), the positions in
    hom(A, C) of w after each f in hom(A, B), read one column per f by
    ``CategoryFragment.columns``."""
    hom_ab = fragment.hom(a, b)
    hom_bc = fragment.hom(b, c)
    if not hom_ab or not hom_bc:
        raise ValidationError("precondition_arrow_missing",
                              f"need nonempty hom({a},{b}) and hom({b},{c})", A=a, B=b, C=c)
    columns = fragment.columns(a, b, c, range(len(hom_bc)), hom_ab)
    sets = dict.fromkeys(tuple(sorted(set(row))) for row in zip(*columns))
    return _Copies(list(sets))


def _copies(fragment: CategoryFragment, a, b, c) -> _Copies:
    """The copies of (A, B, C), listed by ``_prepare`` on the first request
    and kept with the fragment, so both engines share one listing."""
    copies = fragment.copies.get((a, b, c))
    if copies is None:
        copies = fragment.copies[a, b, c] = _prepare(fragment, a, b, c)
    return copies


def _lane_masks(k: int, j: int) -> tuple[list[list[int]], list[int], int]:
    """``(tables, canon, full)`` for j lane positions over k colors, in
    O(j·k) shifts, ORs and subtractions of k^j-bit integers.  ``full`` sets
    all k^j lanes.  ``tables[t][c]`` sets lane x when x, read in base k with
    lane position 0 as its most significant digit, gives position t the
    color c: one run of k^(j-1-t) ones in every k runs, shifted by c runs.
    ``canon[u]``, for u in 0..k, sets the lanes whose digits continue a
    prefix that used u colors canonically, each digit a color used before it
    or the next new one.  It is ``full`` for u >= k - 1; below that,
    position t keeps a lane whose digit c < u leaves u colors used, or whose
    c = u opens one more."""
    full = (1 << k ** j) - 1
    tables = []
    rep = 1  # one bit at the first lane of each block of k runs of position t
    for t in range(j):
        run = k ** (j - 1 - t)  # lanes in a row that share digit t
        ones = (rep << run) - rep
        tables.append([ones << shift for shift in range(0, k * run, run)])
        span = run  # double rep onto every run: its bits for position t + 1
        while span < k * run:
            rep |= rep << span
            span <<= 1
        rep &= full
    canon = [full] * (k + 1)
    for table in reversed(tables):
        after, canon, below = canon, [full] * (k + 1), 0  # below: the lanes of the colors < u here
        for u in range(k - 1):
            canon[u] = below & after[u] | table[u] & after[u + 1]
            below |= table[u]
    return tables, canon, full


def check_arrow_exhaustive(fragment: CategoryFragment, a, b, c, k: int,
                           coloring_budget: int = DEFAULT_COLORING_BUDGET) -> ArrowVerdict:
    """The arrow holds iff ``exhaustive_coloring`` finds no bad coloring of hom(A, C)."""
    colors, stats = exhaustive_coloring(fragment.hom_size(a, c), _copies(fragment, a, b, c).sets, k, coloring_budget)
    return ArrowVerdict(colors is None, None if colors is None else Coloring(a, c, k, colors), stats)


def exhaustive_coloring(h: int, copies: list[tuple[int, ...]], k: int,
                        coloring_budget: int = DEFAULT_COLORING_BUDGET) -> tuple[tuple[int, ...] | None, dict]:
    """Test every k-coloring of positions 0..h-1, one per color-permutation
    class, against ``copies`` (non-empty sorted tuples of positions).  Returns
    the first bad coloring or None, with the stats ``colorings``, ``hom_ac``
    (h) and ``copies`` (their number).

    Coloring x gives position i the i-th base-k digit of x, position 0 the
    most significant, so integer order is lexicographic order.  The last j
    positions, with k^j <= BLOCK, are lanes: bit x of a k^j-bit integer
    stands for lane coloring x, and one AND of per-position tables decides a
    copy for all lanes at once.  An odometer steps the other positions
    through their first-use canonical prefixes in lexicographic order; after
    a prefix using u colors, ``canon[u]`` marks the lanes that complete a
    canonical coloring.  ``_lane_masks`` builds the tables and ``canon`` on
    each call, in O(j·k) big-integer operations; nothing outlives the call.
    The coloring returned is the lexicographically first bad coloring, which
    is canonical, as it is the least of its class.
    ``stats["colorings"]`` counts the canonical colorings up to and including
    it, or all of them when none is bad.  A budget overrun raises with
    ``hom_ac`` and ``copies`` as its stats."""
    if k < 1:
        raise ValidationError("bad_colors", f"need at least one color, got {k}")
    sizes = {"hom_ac": h, "copies": len(copies)}
    if k ** h > coloring_budget:
        raise BudgetExceeded("colorings", coloring_budget,
                             f"{k}^{h} colorings exceed the budget of {coloring_budget}", stats=sizes)
    j = 0
    while j < h and k ** (j + 1) <= BLOCK:
        j += 1
    p = h - j  # positions stepped by the odometer
    tables, canon, full = _lane_masks(k, j)
    mono_lanes = 0  # lanes where a copy with no stepped position is monochromatic
    stepped = []  # (stepped positions, lane tables) of the other copies
    for copy in copies:
        cut = bisect_left(copy, p)
        lanes = [tables[i - p] for i in copy[cut:]]
        if cut:
            stepped.append((copy[:cut], lanes))
            continue
        for color in range(k):
            mask = full
            for table in lanes:
                mask &= table[color]
            mono_lanes |= mask
    digits = [0] * p
    used = [min(i, 1) for i in range(p + 1)]  # used[i]: colors in digits[:i]
    examined = 0
    while True:
        mono = mono_lanes
        for positions, lanes in stepped:
            color = digits[positions[0]]
            if all(digits[i] == color for i in positions):
                mask = full
                for table in lanes:
                    mask &= table[color]
                mono |= mask
        u = used[p]
        bad = canon[u] & ~mono
        if bad:
            x = (bad & -bad).bit_length() - 1
            examined += (canon[u] & ((2 << x) - 1)).bit_count()
            lane_digits = tuple(x // k ** (j - 1 - t) % k for t in range(j))
            return tuple(digits) + lane_digits, {"colorings": examined, **sizes}
        examined += canon[u].bit_count()
        i = p - 1
        while i >= 0 and digits[i] >= min(used[i], k - 1):
            i -= 1
        if i < 0:
            return None, {"colorings": examined, **sizes}
        digits[i] += 1
        digits[i + 1:] = [0] * (p - 1 - i)
        for q in range(i, p):
            used[q + 1] = max(used[q], digits[q] + 1)


def find_bad_coloring(fragment: CategoryFragment, a, b, c, k: int,
                      node_budget: int | None = None,
                      stats_out: dict | None = None) -> Coloring | None:
    """``search_coloring`` on the copies of (A, B, C); None certifies the arrow."""
    colors = search_coloring(fragment.hom_size(a, c), _copies(fragment, a, b, c).sets, k, node_budget, stats_out)
    return None if colors is None else Coloring(a, c, k, colors)


def search_coloring(h: int, copies: list[tuple[int, ...]], k: int, node_budget: int | None = None,
                    stats_out: dict | None = None) -> tuple[int, ...] | None:
    """Search for a k-coloring of positions 0..h-1 that leaves none of
    ``copies`` (non-empty sorted tuples of positions) monochromatic; None
    when the complete search finds none.

    Coloring a position p with color c tests every copy through p against
    the bitmask of the positions holding c: if none of the copy is left the
    copy is monochromatic (a conflict); if one uncolored position is left it
    loses c, and is forced when one color remains for it (a conflict when
    none does).  The search branches on an uncolored position of the
    still-one-colored copy with the fewest uncolored positions among those
    touched since the last decision, or else on the first uncolored
    position, and tries the colors used so far plus one new color there.
    Choices and the colorings they force are undone through a trail on an
    explicit stack.

    A budget overrun raises, and is never reported as none-found.  Pass a
    dict as ``stats_out`` to receive ``nodes`` (colors tried at branch
    positions) and ``forced`` (positions colored by propagation); on an
    overrun it also receives ``prefix``, the number of positions colored
    when the budget ran out, and the exception carries all three as
    ``stats``."""
    if k < 1:
        raise ValidationError("bad_colors", f"need at least one color, got {k}")
    budget = node_budget if node_budget is not None else DEFAULT_NODE_BUDGET
    nodes = forced = 0
    if not copies or k == 1 or min(map(len, copies)) == 1:
        # with no copy, all 0 is bad; one color, or a copy of one position,
        # makes some copy monochromatic
        if stats_out is not None:
            stats_out.update(nodes=0, forced=0)
        return None if copies else (0,) * h
    through: list[list[int]] = [[] for _ in range(h)]  # the masks of the copies through each position
    for copy in copies:
        mask = 0
        for i in copy:
            mask |= 1 << i
        for i in copy:
            through[i].append(mask)
    masks = [0] * k  # the positions holding each color
    colors = [-1] * h
    allowed = [(1 << k) - 1] * h  # the colors each position may still take
    trail: list[int] = []  # colored positions p, and ~(q * k + color) for a color q lost
    touched: list[tuple[int, list[int]]] = []  # (color, through[p]) of each p colored since the last decision
    frames = [[0, [0], 0]]  # decisions: position, colors left to try, trail length
    found = None
    while frames:
        pos, options, mark = frames[-1]
        while len(trail) > mark:
            entry = trail.pop()
            if entry >= 0:
                masks[colors[entry]] ^= 1 << entry
                colors[entry] = -1
            else:
                entry = ~entry
                allowed[entry // k] |= 1 << entry % k
        if not options:
            frames.pop()
            continue
        if nodes >= budget:
            progress = {"nodes": nodes, "forced": forced, "prefix": h - colors.count(-1)}
            if stats_out is not None:
                stats_out.update(progress)
            raise BudgetExceeded("nodes", budget, stats=progress)
        nodes += 1
        touched.clear()
        p, color = pos, options.pop(0)
        queue: list[tuple[int, int]] = []  # positions forced, with their one color left
        conflict = False
        while True:
            mask = masks[color] | 1 << p
            masks[color] = mask
            colors[p] = color
            trail.append(p)
            touched.append((color, through[p]))
            keep = ~mask
            for copy in through[p]:
                rest = copy & keep
                if not rest:
                    conflict = True  # the copy is monochromatic
                    break
                if rest & (rest - 1):
                    continue
                q = rest.bit_length() - 1
                domain = allowed[q]
                if colors[q] < 0 and domain >> color & 1:
                    domain ^= 1 << color
                    if not domain:
                        conflict = True
                        break
                    allowed[q] = domain
                    trail.append(~(q * k + color))
                    if not domain & (domain - 1):
                        queue.append((q, domain.bit_length() - 1))
            if conflict or not queue:
                break
            p, color = queue.pop()
            forced += 1
        if conflict:
            continue
        colored = 0
        for mask in masks:
            colored |= mask
        best, best_free = 0, h + 1
        for color, group in touched:
            keep = ~masks[color]
            for copy in group:
                rest = copy & keep  # never 0: that is a conflict
                if not rest & colored:  # the copy is still one-colored
                    free = rest.bit_count()
                    if free < best_free:
                        best, best_free = rest, free
                        if free == 1:
                            break
            if best_free == 1:
                break
        if best:
            pos = (best & -best).bit_length() - 1
        else:
            pos = (~colored & (colored + 1)).bit_length() - 1
            if pos == h:
                found = tuple(colors)
                break
        opened = min(sum(1 for mask in masks if mask) + 1, k)
        frames.append([pos, [col for col in range(opened) if allowed[pos] >> col & 1], len(trail)])
    if stats_out is not None:
        stats_out.update(nodes=nodes, forced=forced)
    return found


def certify_bad_coloring(fragment: CategoryFragment, a, b, c, coloring: Coloring) -> bool:
    """Re-check a counterexample by direct enumeration: every w gets a copy
    showing at least two colors.  Each copy is composed afresh through the
    payload rule ``fragment.rule``, never the spelling, until it shows its
    second color; the f that showed it moves to the front of this call's
    order of hom(A, B), where the next w's copy is likely to show two colors
    early.  The verdict does not depend on that order."""
    find, color_at = fragment.hom_index(a, c).__getitem__, coloring.colors.__getitem__
    rule, by = fragment.rule, [f.payload for f in fragment.hom(a, b)]
    for w in fragment.hom(b, c):
        colors = map(color_at, map(find, map(rule, repeat(w.payload), by)))
        first = next(colors, None)
        for i, color in enumerate(colors, 1):
            if color != first:
                by.insert(0, by.pop(i))
                break
        else:
            return False
    return True


def min_ramsey_witness(family: Callable[[int], CategoryFragment], a, b, k: int,
                       n_max: int, node_budget: int | None = None) -> tuple[int, list[dict]]:
    """Smallest n <= n_max whose fragment object n satisfies the arrow, found
    by running the counterexample search per candidate.  Returns the witness
    and a per-candidate log; when no candidate holds, the
    ``not_found_within_bound`` error carries the log as its ``log``."""
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
                          f"no witness at or below {n_max}", n_max=n_max, log=log)
