from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcat import (
    BudgetExceeded,
    CategoryFragment,
    ValidationError,
    WordContext,
    certify_bad_coloring,
    check_arrow_exhaustive,
    cycle_action,
    cyclic_group,
    dram_fragment,
    dram_op_fragment,
    exhaustive_coloring,
    explicit_fragment,
    find_bad_coloring,
    gr_fragment,
    min_ramsey_witness,
    opposite,
    ram_fragment,
    search_coloring,
    skeleton,
    trivial_action,
    vec_fragment,
)
from ramcat.arrows import BLOCK, DEFAULT_NODE_BUDGET, Coloring, _lane_masks, _prepare

from conftest import tabulate


def as_copy_system(fragment, a, b, c):
    """(h, copies) of the instance (A, B, C), as the adaptors pass them to
    the cores."""
    return fragment.hom_size(a, c), _prepare(fragment, a, b, c).sets


def dfs_find_bad_coloring(h, copies, k):
    """Oracle: the fixed-order depth-first search the propagating engine
    replaced.  Positions are colored in index order, with colors by first
    use, and each copy is checked once, when its last position is colored."""
    closing = [[] for _ in range(h)]  # other positions of each copy ending here
    for copy in copies:
        closing[copy[-1]].append(sum(1 << i for i in copy[:-1]))
    masks = [0] * k
    colors = [-1] * h
    limit = [1] * h  # colors open at each position: those used before it and one more
    pos = color = 0
    while True:
        if color < limit[pos]:
            mask = masks[color]
            if all(rest & mask != rest for rest in closing[pos]):
                colors[pos] = color
                masks[color] = mask | 1 << pos
                if pos + 1 == h:
                    return tuple(colors)
                lim = limit[pos]
                pos += 1
                limit[pos] = lim + 1 if color + 1 == lim < k else lim
                color = 0
                continue
            color += 1
            continue
        pos -= 1
        if pos < 0:
            return None
        color = colors[pos]
        masks[color] ^= 1 << pos
        color += 1


def enumerating_check_arrow(h, copies, k):
    """Oracle: the exhaustive engine the bit-sliced one replaced.  One
    recursive generator yields the first-use canonical colorings in
    lexicographic order, and each is scanned copy by copy, the copy found
    last kept in front.  Returns (bad coloring or None, stats) as
    ``exhaustive_coloring`` reports them."""
    colors = [0] * h

    def canonical(pos, used):
        if pos == h:
            yield tuple(colors)
            return
        for color in range(min(used + 1, k)):
            colors[pos] = color
            yield from canonical(pos + 1, max(used, color + 1))

    order = list(copies)
    examined = 0
    for coloring in canonical(0, 0):
        examined += 1
        for pos, copy in enumerate(order):
            if all(coloring[i] == coloring[copy[0]] for i in copy):
                order.insert(0, order.pop(pos))
                break
        else:
            return coloring, {"colorings": examined, "hom_ac": h, "copies": len(copies)}
    return None, {"colorings": examined, "hom_ac": h, "copies": len(copies)}


def first_bad_coloring(h, copies, k):
    """Oracle: the lexicographically first of all k^h colorings that leaves
    no copy monochromatic, by a plain product."""
    for colors in product(range(k), repeat=h):
        if not any(len({colors[i] for i in copy}) == 1 for copy in copies):
            return colors
    return None


def brute_force_arrow(fragment, a, b, c, k):
    """Independent oracle: iterate all k^|hom(A,C)| colorings directly."""
    hom_ac = fragment.hom(a, c)
    index = {m: i for i, m in enumerate(hom_ac)}
    copies = [
        [index[fragment.compose(w, f)] for f in fragment.hom(a, b)]
        for w in fragment.hom(b, c)
    ]
    for colors in product(range(k), repeat=len(hom_ac)):
        if not any(len({colors[i] for i in copy}) == 1 for copy in copies):
            return False
    return True


def composing_prepare(fragment, a, b, c):
    """Oracle: the copy listing that composed every pair through
    ``fragment.compose`` and looked the typed composite up in hom(A, C).
    Returns the index sets as ``_prepare`` lists them, in order."""
    index = {m: i for i, m in enumerate(fragment.hom(a, c))}
    sets, seen = [], set()
    for w in fragment.hom(b, c):
        copy = tuple(sorted({index[fragment.compose(w, f)] for f in fragment.hom(a, b)}))
        if copy not in seen:
            seen.add(copy)
            sets.append(copy)
    return sets


def all_pairs_certify(fragment, a, b, c, coloring):
    """Oracle: the re-check that composed every member of every copy."""
    index = {m: i for i, m in enumerate(fragment.hom(a, c))}
    for w in fragment.hom(b, c):
        seen = {coloring.colors[index[fragment.compose(w, f)]] for f in fragment.hom(a, b)}
        if len(seen) <= 1:
            return False
    return True


@st.composite
def copy_systems(draw):
    """(k, h, copies): k of 1 to 5 colors, and up to 12 distinct copies of 1
    to 4 positions in 0..h-1, with k^h <= 20,000 so the oracles stay quick.
    Half the systems have no copy of one position, which alone decides."""
    k = draw(st.integers(1, 5))
    h = draw(st.integers(1, {4: 7, 5: 6}.get(k, 9)))
    smallest = min(draw(st.integers(1, 2)), h)
    copy = st.sets(st.integers(0, h - 1), min_size=smallest, max_size=4).map(lambda s: tuple(sorted(s)))
    return k, h, draw(st.lists(copy, max_size=12, unique=True))


@settings(max_examples=300, deadline=None)
@given(copy_systems())
def test_cores_agree_with_the_oracles_on_drawn_copy_systems(system):
    k, h, copies = system
    expected = first_bad_coloring(h, copies, k)
    colors, stats = exhaustive_coloring(h, copies, k)
    assert colors == expected  # the lexicographically first bad coloring, which is canonical
    assert (colors, stats) == enumerating_check_arrow(h, copies, k)
    found = search_coloring(h, copies, k)
    assert (found is None) == (expected is None) == (dfs_find_bad_coloring(h, copies, k) is None)
    if found is not None:
        assert len(found) == h and set(found) <= set(range(k))
        assert not any(len({found[i] for i in copy}) == 1 for copy in copies)


@settings(max_examples=200, deadline=None)
@given(copy_systems())
def test_search_answers_alike_for_every_color_count_above_h(system):
    # h positions open h colors at most, so any k >= h + 1 leaves every
    # uncolored position two colors at least: the coloring and the stats
    # are those of k = h + 1
    _, h, copies = system

    def search(k):
        stats = {}
        return search_coloring(h, copies, k, stats_out=stats), stats

    first = search(h + 1)
    for k in (h + 1, h + 7, 10 ** 9):
        assert search(k) == first, k


def test_search_with_more_colors_than_positions_forces_nothing():
    # with k = h = 3 the search forces position 2 (nodes 2, forced 1); with
    # any k above h no position is forced
    copies = [(0, 1), (0, 1, 2), (0, 2), (1, 2)]
    for k in (4, 10, 10 ** 9):
        stats = {}
        assert search_coloring(3, copies, k, stats_out=stats) == (0, 1, 2)
        assert stats == {"nodes": 3, "forced": 0}
    stats = {}
    assert search_coloring(3, copies, 3, stats_out=stats) == (0, 1, 2)
    assert stats == {"nodes": 2, "forced": 1}


def brute_force_lane_masks(k, j):
    """Oracle: (tables, canon, full) set bit by bit from the base-k digits
    of each lane coloring x < k^j, the most significant digit first."""
    tables, canon = [[0] * k for _ in range(j)], [0] * (k + 1)
    for x in range(k ** j):
        digits = [x // k ** (j - 1 - t) % k for t in range(j)]
        for t, c in enumerate(digits):
            tables[t][c] |= 1 << x
        for u in range(k + 1):
            used = u
            for c in digits:
                if c > used:
                    break
                used = max(used, c + 1)
            else:
                canon[u] |= 1 << x
    return tables, canon, (1 << k ** j) - 1


def test_lane_masks_match_the_brute_force_oracle():
    # every (k, j) with k <= 6 and k^j <= 4,096, j = 0 included; with one
    # color k^j is always 1, so j stops at 12 there
    for k in range(1, 7):
        j = 0
        while k ** j <= BLOCK and j <= 12:
            assert _lane_masks(k, j) == brute_force_lane_masks(k, j), (k, j)
            j += 1


def test_lane_masks_at_one_position_of_4096_colors():
    # lane coloring x gives its one position color x, and after u < k - 1
    # colors it is canonical when it is one of them or the next new one
    k = 4096
    tables, canon, full = _lane_masks(k, 1)
    assert full == (1 << k) - 1 and len(tables) == 1 and len(canon) == k + 1
    assert tables[0] == [1 << c for c in range(k)]
    assert canon[:k - 1] == [(1 << (u + 1)) - 1 for u in range(k - 1)]
    assert canon[k - 1:] == [full, full]


# the Fano plane: its points are the nonzero vectors of F2^3, read as the
# integers 1..7 at positions 0..6, and three points form a line when they
# sum to 0
FANO = sorted({tuple(sorted((x - 1, y - 1, (x ^ y) - 1))) for x in range(1, 8) for y in range(1, 8) if x != y})


def test_cores_on_the_fano_plane():
    assert len(FANO) == 7
    # every 2-coloring of the plane has a monochromatic line
    stats = {}
    assert search_coloring(7, FANO, 2, stats_out=stats) is None
    assert stats["nodes"] == 7
    assert exhaustive_coloring(7, FANO, 2) == (None, {"colorings": 64, "hom_ac": 7, "copies": 7})
    # drop the line of the points 3, 5, 6 (positions 2, 4, 5): the four
    # points off it take color 0 and the line color 1
    open_plane = [line for line in FANO if line != (2, 4, 5)]
    assert search_coloring(7, open_plane, 2) == exhaustive_coloring(7, open_plane, 2)[0] == (0, 0, 1, 0, 1, 1, 0)


def test_cores_without_copies_return_the_all_0_coloring():
    for h in (0, 1, 5):
        for k in (1, 2):
            assert search_coloring(h, [], k) == exhaustive_coloring(h, [], k)[0] == (0,) * h


def test_cores_need_a_color():
    for core in (search_coloring, exhaustive_coloring):
        with pytest.raises(ValidationError) as err:
            core(3, [(0, 1)], 0)
        assert err.value.code == "bad_colors"


def test_pigeonhole_holds():
    f = ram_fragment(3)
    verdict = check_arrow_exhaustive(f, 1, 2, 3, 2)
    assert verdict.holds and verdict.counterexample is None


def test_two_points_two_colors_fails():
    f = ram_fragment(2)
    verdict = check_arrow_exhaustive(f, 1, 2, 2, 2)
    assert not verdict.holds
    assert certify_bad_coloring(f, 1, 2, 2, verdict.counterexample)


def test_single_color_always_holds():
    f = ram_fragment(4)
    for a, b in [(1, 2), (2, 3), (1, 4)]:
        assert check_arrow_exhaustive(f, a, b, 4, 1).holds
        assert find_bad_coloring(f, a, b, 4, 1) is None


def test_exhaustive_agrees_with_brute_force_oracle():
    for n in range(2, 6):
        f = ram_fragment(n)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                if comb(n, a) > 10:
                    continue
                expected = brute_force_arrow(f, a, b, n, 2)
                assert check_arrow_exhaustive(f, a, b, n, 2).holds == expected
                assert (find_bad_coloring(f, a, b, n, 2) is None) == expected


def test_engines_agree_three_colors():
    f = ram_fragment(5)
    for a, b in [(1, 2), (1, 3), (2, 3), (3, 4)]:
        ex = check_arrow_exhaustive(f, a, b, 5, 3)
        bt = find_bad_coloring(f, a, b, 5, 3)
        assert ex.holds == (bt is None)
        assert brute_force_arrow(f, a, b, 5, 3) == ex.holds


def test_counterexample_search_on_pentagon_instance():
    f = ram_fragment(5)
    bad = find_bad_coloring(f, 2, 3, 5, 2)
    assert bad is not None
    assert certify_bad_coloring(f, 2, 3, 5, bad)


def test_none_found_certifies_arrow_at_six():
    f = ram_fragment(6)
    assert find_bad_coloring(f, 2, 3, 6, 2) is None


def test_min_witness_classic_diagonal():
    n, log = min_ramsey_witness(lambda k: ram_fragment(k), 2, 3, 2, 8)
    assert n == 6
    assert [entry["n"] for entry in log if "holds" in entry][-1] == 6
    assert all(not e["holds"] for e in log[:-1] if "holds" in e)


@pytest.mark.parametrize("m,k", [(2, 2), (3, 2), (2, 3), (4, 2), (3, 3)])
def test_min_witness_pigeonhole(m, k):
    n, _ = min_ramsey_witness(lambda c: ram_fragment(c), 1, m, k, 12)
    assert n == k * (m - 1) + 1


def test_min_witness_k1_is_smallest_target():
    n, _ = min_ramsey_witness(lambda c: ram_fragment(c), 1, 3, 1, 8)
    assert n == 3


def test_min_witness_not_found_within_bound():
    with pytest.raises(ValidationError) as err:
        min_ramsey_witness(lambda c: ram_fragment(c), 2, 3, 2, 5)
    assert err.value.code == "not_found_within_bound"
    # the log of every candidate tried travels with the error
    assert err.value.data["n_max"] == 5
    assert [(e["n"], e["holds"]) for e in err.value.data["log"]] == [(3, False), (4, False), (5, False)]


def test_monotonicity_within_family():
    # once the arrow holds it keeps holding upward in the chain family
    first, _ = min_ramsey_witness(lambda c: ram_fragment(c), 1, 2, 2, 8)
    for n in range(first, first + 3):
        f = ram_fragment(n)
        assert find_bad_coloring(f, 1, 2, n, 2) is None
    for n in (6, 7, 8):
        assert find_bad_coloring(ram_fragment(n), 2, 3, n, 2) is None


def test_arrow_precondition_missing():
    f = ram_fragment(3)
    with pytest.raises(ValidationError) as err:
        check_arrow_exhaustive(f, 2, 1, 3, 2)
    assert err.value.code == "precondition_arrow_missing"


def test_coloring_budget_exceeded():
    f = ram_fragment(6)
    with pytest.raises(BudgetExceeded):
        check_arrow_exhaustive(f, 2, 3, 6, 2, coloring_budget=100)
    # k^h colorings fit a budget of k^h; an overrun reports the sizes it saw
    f = ram_fragment(5)
    assert not check_arrow_exhaustive(f, 2, 3, 5, 2, coloring_budget=2 ** 10).holds
    with pytest.raises(BudgetExceeded) as err:
        check_arrow_exhaustive(f, 2, 3, 5, 2, coloring_budget=2 ** 10 - 1)
    assert err.value.stats == {"hom_ac": 10, "copies": 10}


def test_node_budget_exceeded_distinct_from_none_found():
    f = ram_fragment(6)
    stats = {}
    with pytest.raises(BudgetExceeded) as err:
        find_bad_coloring(f, 2, 3, 6, 2, node_budget=10, stats_out=stats)
    # an overrun reports how far the search got, in stats_out and on the error
    assert stats == err.value.stats == {"nodes": 10, "forced": 7, "prefix": 4}


# the positions propagation colors on each pinned search, keyed by its
# instance (family, A, B, C, k)
PINNED_FORCED = {("ram", 2, 3, 6, 2): 16, ("ram", 2, 4, 9, 2): 13, ("ram", 3, 4, 7, 2): 17,
                 ("ram", 2, 3, 8, 3): 4, ("gr-plain-z3", 1, 2, 5, 2): 74, ("gr-plain-z3", 1, 3, 6, 2): 100,
                 ("gr-plain-z2", 1, 3, 6, 2): 115, ("dram-op", 2, 4, 7, 2): 21}
PINNED_FAMILIES = {"ram": ram_fragment, "dram-op": dram_op_fragment,
                   "gr-plain-z2": lambda n: gr_fragment(WordContext(trivial_action(cyclic_group(2))), n),
                   "gr-plain-z3": lambda n: gr_fragment(WordContext(trivial_action(cyclic_group(3))), n)}


@pytest.mark.parametrize("family, a, b, c, k, holds, nodes", [
    ("ram", 2, 3, 6, 2, True, 19),
    ("ram", 2, 4, 9, 2, False, 35),
    ("ram", 3, 4, 7, 2, False, 26),
    ("ram", 2, 3, 8, 3, False, 28),
    ("gr-plain-z3", 1, 2, 5, 2, True, 27),
    # the gr and dram-op copies have mixed sizes once deduplicated, so ties
    # in the tightest-copy scan decide the branch positions
    ("gr-plain-z3", 1, 3, 6, 2, False, 143),
    ("gr-plain-z2", 1, 3, 6, 2, True, 95),
    ("dram-op", 2, 4, 7, 2, False, 42),
])
def test_search_node_counts_pinned(family, a, b, c, k, holds, nodes):
    # the search order is part of the contract: same colors first, same nodes
    f = PINNED_FAMILIES[family](c)
    stats = {}
    bad = find_bad_coloring(f, a, b, c, k, stats_out=stats)
    assert (bad is None) == holds
    assert stats == {"nodes": nodes, "forced": PINNED_FORCED[family, a, b, c, k]}
    if bad is not None:
        assert certify_bad_coloring(f, a, b, c, bad)


def test_search_returns_first_bad_coloring_in_color_order():
    bad = find_bad_coloring(ram_fragment(5), 2, 3, 5, 2)
    assert bad.colors == (0, 0, 1, 1, 1, 0, 1, 1, 0, 0)


def test_search_deeper_than_recursion_limit():
    # gr over plain Z3: hom(2, 6) has 2,511 positions, more than Python's
    # default recursion limit, so the search must not recurse per position
    f = gr_fragment(WordContext(trivial_action(cyclic_group(3))), 6)
    assert len(f.hom(2, 6)) == 2511
    bad = find_bad_coloring(f, 2, 3, 6, 2, node_budget=50_000)
    assert len(bad.colors) == 2511
    assert certify_bad_coloring(f, 2, 3, 6, bad)


def test_copy_of_one_position_holds_at_zero_nodes():
    # A = B: every copy is the single position w . id, so any coloring
    # makes it monochromatic
    f = ram_fragment(5)
    stats = {}
    assert find_bad_coloring(f, 2, 2, 5, 2, stats_out=stats) is None
    assert stats == {"nodes": 0, "forced": 0}
    assert check_arrow_exhaustive(f, 2, 2, 5, 2).holds


def test_engines_prepare_each_instance_once(monkeypatch):
    import ramcat.arrows

    calls = []
    monkeypatch.setattr(ramcat.arrows, "_prepare", lambda *args: calls.append(args) or _prepare(*args))
    f = ram_fragment(5)
    assert not check_arrow_exhaustive(f, 2, 3, 5, 2).holds
    bad = find_bad_coloring(f, 2, 3, 5, 2)
    assert find_bad_coloring(f, 2, 3, 5, 3) is not None  # another k, the same copies
    assert calls == [(f, 2, 3, 5)]
    # the re-check composes afresh, so it does not read the kept copies
    assert certify_bad_coloring(f, 2, 3, 5, bad)
    assert len(calls) == 1


CRITERION_4_GRID = [(a, b, c) for c in range(1, 11) for a in range(1, c + 1) if comb(c, a) <= 16
                    for b in range(a, c + 1)]


def test_search_agrees_with_dfs_on_the_criterion_4_grid():
    f = ram_fragment(10)
    assert len(CRITERION_4_GRID) == 98
    for a, b, c in CRITERION_4_GRID:
        bad = find_bad_coloring(f, a, b, c, 2)
        assert (bad is None) == (dfs_find_bad_coloring(*as_copy_system(f, a, b, c), 2) is None), (a, b, c)
        assert bad is None or certify_bad_coloring(f, a, b, c, bad)


def _families():
    plain_z2 = WordContext(trivial_action(cyclic_group(2)))
    swap = WordContext(cycle_action(cyclic_group(2), "ab", [1, 0]))
    return {
        "ram": ram_fragment,
        "dram-op": dram_op_fragment,
        "gr-plain-z2": lambda n: gr_fragment(plain_z2, n),
        "gr-swap": lambda n: gr_fragment(swap, n),
    }


FAMILIES = _families()


def _instances(bounds, ks, limit):
    """Every (family, A, B, C, k) with A <= B <= C <= bounds[family], k in
    ks and at most ``limit`` colorings of hom(A, C)."""
    out = []
    for name, c_max in bounds.items():
        f = FAMILIES[name](c_max)
        for c in range(1, c_max + 1):
            for a in range(1, c + 1):
                for b in range(a, c + 1):
                    if f.arrow(a, b) and f.arrow(b, c):
                        out += [(name, a, b, c, k) for k in ks if k ** f.hom_size(a, c) <= limit]
    return out


SWEEP_BOUNDS = {"ram": 7, "dram-op": 6, "gr-plain-z2": 4, "gr-swap": 4}
SWEEP = _instances(SWEEP_BOUNDS, (1, 2, 3), 10 ** 5)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SWEEP), st.integers(0, 3))
def test_search_agrees_with_exhaustive_sweep(instance, extra):
    name, a, b, c, k = instance
    # the instance inside a fragment of its own size or larger
    f = FAMILIES[name](min(c + extra, SWEEP_BOUNDS[name]))
    expected = check_arrow_exhaustive(f, a, b, c, k, coloring_budget=10 ** 5).holds
    bad = find_bad_coloring(f, a, b, c, k)
    assert (bad is None) == expected
    assert bad is None or certify_bad_coloring(f, a, b, c, bad)


def _agrees_with_enumerating_oracle(f, a, b, c, k):
    verdict = check_arrow_exhaustive(f, a, b, c, k)
    colors, stats = enumerating_check_arrow(*as_copy_system(f, a, b, c), k)
    expected = (colors is None, None if colors is None else Coloring(a, c, k, colors), stats)
    assert (verdict.holds, verdict.counterexample, verdict.stats) == expected, (f, a, b, c, k)
    return verdict


def test_exhaustive_agrees_with_enumerating_oracle_on_the_criterion_4_grid():
    f = ram_fragment(10)
    for a, b, c in CRITERION_4_GRID:
        _agrees_with_enumerating_oracle(f, a, b, c, 2)
    # hom(2, 6) has 15 positions: 2^15 colorings take several blocks
    assert max(f.hom_size(a, c) for a, _, c in CRITERION_4_GRID) == 15


def test_exhaustive_agrees_with_enumerating_oracle_on_small_families():
    bounds = {"ram": 7, "dram-op": 6, "gr-plain-z2": 4, "gr-swap": 3}
    grid = _instances(bounds, (1, 2, 3, 4), 2 * 10 ** 5)
    assert len(grid) == 506
    fragments = {name: FAMILIES[name](c_max) for name, c_max in bounds.items()}
    for name, a, b, c, k in grid:
        _agrees_with_enumerating_oracle(fragments[name], a, b, c, k)


@pytest.mark.parametrize("family, a, b, c, k, holds", [
    ("ram", 1, 4, 10, 3, True),  # 3^10 colorings: five canonical blocks of 3^7 lanes
    ("dram-op", 2, 3, 5, 2, False),
])
def test_exhaustive_spans_several_blocks(family, a, b, c, k, holds):
    f = FAMILIES[family](c)
    assert k ** f.hom_size(a, c) > BLOCK
    verdict = _agrees_with_enumerating_oracle(f, a, b, c, k)
    assert verdict.holds == holds
    # one block holds at most BLOCK colorings, so these reach past the first
    assert verdict.stats["colorings"] > BLOCK


@pytest.mark.parametrize("family, a, b, c, k, nodes", [
    ("ram", 2, 4, 13, 2, 67),  # R(4,4) = 18
    ("ram", 2, 3, 12, 3, 52),  # R(3,3,3) = 17
    ("ram", 3, 4, 8, 2, 35),  # R^(3)(4,4) = 13
    ("dram-op", 3, 4, 7, 2, 172),
    ("ram", 2, 4, 17, 2, 14_417),  # the Paley graph P17 is one answer
])
def test_search_decides_former_overruns(family, a, b, c, k, nodes):
    # the fixed-order search ran out of 3M nodes on the first four
    f = ram_fragment(c) if family == "ram" else dram_op_fragment(c)
    stats = {}
    bad = find_bad_coloring(f, a, b, c, k, stats_out=stats)
    assert bad is not None and stats["nodes"] == nodes < DEFAULT_NODE_BUDGET
    assert certify_bad_coloring(f, a, b, c, bad)


def test_dram_op_micro_instances():
    f = dram_op_fragment(4)
    # single morphism at A=1 makes every coloring monochromatic
    assert check_arrow_exhaustive(f, 1, 2, 4, 2).holds
    ex = check_arrow_exhaustive(f, 2, 3, 4, 2)
    bt = find_bad_coloring(f, 2, 3, 4, 2)
    assert ex.holds == (bt is None)
    assert brute_force_arrow(f, 2, 3, 4, 2) == ex.holds


def test_dual_family_minimal_witness():
    # pinned by the brute-force oracle at 3..5 and complete search at 6
    for n in (3, 4, 5):
        f = dram_op_fragment(n)
        assert not brute_force_arrow(f, 2, 3, n, 2)
    n, _ = min_ramsey_witness(lambda c: dram_op_fragment(c), 2, 3, 2, 7)
    assert n == 6
    # monotone upward within the family
    assert find_bad_coloring(dram_op_fragment(7), 2, 3, 7, 2) is None


def test_isomorphic_families_share_minimal_witnesses():
    # words with substitution and opposite rigid surjections are isomorphic
    # fragments, so the two independent code paths must agree
    from ramcat import plain_context

    pc = plain_context()
    n_words, _ = min_ramsey_witness(lambda c: gr_fragment(pc, c), 2, 3, 2, 7)
    n_surj, _ = min_ramsey_witness(lambda c: dram_op_fragment(c), 2, 3, 2, 7)
    assert n_words == n_surj == 6


def test_gr_family_micro_instance(plain_z2_context):
    f = gr_fragment(plain_z2_context, 3)
    ex = check_arrow_exhaustive(f, 1, 2, 3, 2)
    bt = find_bad_coloring(f, 1, 2, 3, 2)
    assert ex.holds == (bt is None)
    assert brute_force_arrow(f, 1, 2, 3, 2) == ex.holds


def test_gr_family_minimal_witnesses(plain_z2_context):
    # brute-confirmed: 2 fails, 3 holds over the 2-element group
    f2 = gr_fragment(plain_z2_context, 2)
    assert not brute_force_arrow(f2, 1, 2, 2, 2)
    n, _ = min_ramsey_witness(lambda k: gr_fragment(plain_z2_context, k), 1, 2, 2, 5)
    assert n == 3
    from ramcat import plain_context

    pc = plain_context()
    n, _ = min_ramsey_witness(lambda k: gr_fragment(pc, k), 1, 2, 2, 5)
    assert n == 2


def _payload_fragments():
    z3 = WordContext(trivial_action(cyclic_group(3)))
    swap = WordContext(cycle_action(cyclic_group(2), "ab", [1, 0]))
    plain_z2 = WordContext(trivial_action(cyclic_group(2)))
    return [
        ram_fragment(7),
        dram_op_fragment(6),
        gr_fragment(z3, 5),
        gr_fragment(swap, 4),
        vec_fragment(2, 3),
        opposite(opposite(dram_fragment(5))),
        skeleton(gr_fragment(plain_z2, 4)).fragment,
        explicit_fragment(range(1, 5), *tabulate(dram_fragment(4))),
    ]


def test_payload_copies_match_the_composing_oracle():
    # gr, dram-op and a gr skeleton list by spelling; the rest by the rule
    spelled = [f.spelling is not None for f in _payload_fragments()]
    assert spelled == [False, True, True, True, False, False, True, False]
    instances = 0
    for f in _payload_fragments():
        for a, b, c in product(f.objects, repeat=3):
            if f.arrow(a, b) and f.arrow(b, c):
                copies = _prepare(f, a, b, c)
                assert copies.sets == composing_prepare(f, a, b, c), (f, a, b, c)
                instances += 1
    assert instances == 240 + 20 + 20  # the six builders, then the skeleton and dram(4), four objects each


def test_payload_copies_build_no_morphism(monkeypatch):
    # the listing reads the rule on payloads; compose would type a morphism
    f = ram_fragment(6)
    expected = composing_prepare(f, 2, 3, 6)
    monkeypatch.setattr(CategoryFragment, "compose", None)
    copies = _prepare(f, 2, 3, 6)
    assert copies.sets == expected


def _spelled_fragments():
    z3 = WordContext(trivial_action(cyclic_group(3)))
    swap = WordContext(cycle_action(cyclic_group(2), "ab", [1, 0]))
    plain_z2 = WordContext(trivial_action(cyclic_group(2)))
    return [gr_fragment(z3, 5), gr_fragment(swap, 5), gr_fragment(plain_z2, 5), dram_op_fragment(6)]


def test_spelling_follows_the_rule():
    pairs = 0
    for f in _spelled_fragments():
        spell, substitution = f.spelling
        for a, b in product(f.objects, repeat=2):
            hom = f.hom(a, b)
            assert len({spell(m.payload) for m in hom}) == len(hom), (f, a, b)  # injective
            for x in hom:
                table = substitution(x.payload)
                for c in f.objects:
                    for y in f.hom(b, c):
                        assert spell(f.rule(y.payload, x.payload)) == spell(y.payload).translate(table), (x, y)
                        pairs += 1
    assert pairs == 10790 + 26981 + 3025 + 2905


def test_spelled_copies_compose_nothing(monkeypatch):
    # neither the rule nor compose is called when the fragment has a spelling
    def refuse(g, f):
        raise AssertionError("the spelled listing called the rule")

    z3 = WordContext(trivial_action(cyclic_group(3)))
    for f, (a, b, c) in [(gr_fragment(z3, 6), (1, 3, 6)), (dram_op_fragment(7), (2, 4, 7))]:
        expected = composing_prepare(f, a, b, c)
        f.rule = refuse
        with monkeypatch.context() as patched:
            patched.setattr(CategoryFragment, "compose", None)
            assert _prepare(f, a, b, c).sets == expected


def test_certify_agrees_with_all_pairs_oracle_on_every_coloring():
    # ram(5) at (2, 3, 5): every one of the 2^10 colorings of hom(2, 5)
    f = ram_fragment(5)
    verdicts = set()
    for colors in product(range(2), repeat=f.hom_size(2, 5)):
        coloring = Coloring(2, 5, 2, colors)
        verdict = certify_bad_coloring(f, 2, 3, 5, coloring)
        assert verdict == all_pairs_certify(f, 2, 3, 5, coloring), colors
        verdicts.add(verdict)
    assert verdicts == {True, False}
    # gr(swap) at (1, 2, 2): one copy of all six positions; at (1, 2, 3) the
    # 2^28 colorings are left to the drawn test below
    swap = WordContext(cycle_action(cyclic_group(2), "ab", [1, 0]))
    g = gr_fragment(swap, 3)
    verdicts = set()
    for colors in product(range(2), repeat=g.hom_size(1, 2)):
        coloring = Coloring(1, 2, 2, colors)
        verdict = certify_bad_coloring(g, 1, 2, 2, coloring)
        assert verdict == all_pairs_certify(g, 1, 2, 2, coloring), colors
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _certify_instances():
    """(fragment, A, B, C, k, the bad colorings the engines return): the
    search's, and the exhaustive engine's where its 2^16 colorings suffice."""
    swap = WordContext(cycle_action(cyclic_group(2), "ab", [1, 0]))
    z2 = WordContext(trivial_action(cyclic_group(2)))
    z3 = WordContext(trivial_action(cyclic_group(3)))
    out = []
    for f, a, b, c, k in [
        (ram_fragment(5), 2, 3, 5, 2),
        (ram_fragment(7), 2, 3, 7, 3),
        (dram_op_fragment(5), 2, 3, 5, 2),
        (dram_op_fragment(6), 3, 4, 6, 2),
        (gr_fragment(z2, 4), 1, 3, 4, 2),
        (gr_fragment(z2, 5), 1, 4, 5, 2),
        (gr_fragment(z2, 5), 2, 3, 5, 3),
        (gr_fragment(z3, 3), 1, 2, 3, 2),
        (gr_fragment(z3, 5), 2, 3, 5, 2),
        (gr_fragment(swap, 3), 1, 2, 3, 2),
        (gr_fragment(swap, 4), 2, 3, 4, 2),
        (vec_fragment(2, 3), 1, 2, 3, 3),
        (opposite(opposite(dram_fragment(5))), 5, 4, 3, 2),
    ]:
        bads = [find_bad_coloring(f, a, b, c, k)]
        if k ** f.hom_size(a, c) <= 2 ** 16:
            bads.append(check_arrow_exhaustive(f, a, b, c, k).counterexample)
        assert None not in bads, (f, a, b, c, k)
        out.append((f, a, b, c, k, bads))
    return out


CERTIFY_INSTANCES = _certify_instances()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_certify_agrees_with_all_pairs_oracle_on_drawn_colorings(data):
    f, a, b, c, k, bads = data.draw(st.sampled_from(CERTIFY_INSTANCES))
    h = f.hom_size(a, c)
    start = data.draw(st.sampled_from(["bad", "random"]))
    if start == "bad":  # an engine's bad coloring with up to three positions recolored
        colors = list(data.draw(st.sampled_from(bads)).colors)
        for i in data.draw(st.lists(st.integers(0, h - 1), max_size=3)):
            colors[i] = data.draw(st.integers(0, k - 1))
    else:
        colors = data.draw(st.lists(st.integers(0, k - 1), min_size=h, max_size=h))
    good = data.draw(st.booleans())
    if good:  # one copy made monochromatic
        copy = data.draw(st.sampled_from(_prepare(f, a, b, c).sets))
        color = data.draw(st.integers(0, k - 1))
        for i in copy:
            colors[i] = color
    coloring = Coloring(a, c, k, tuple(colors))
    verdict = certify_bad_coloring(f, a, b, c, coloring)
    assert verdict == all_pairs_certify(f, a, b, c, coloring)
    assert not (good and verdict)
    # the order the re-check tries hom(A, B) in lives in one call only
    assert certify_bad_coloring(f, a, b, c, coloring) == verdict


def test_certify_accepts_both_engines_colorings():
    for f, a, b, c, k, bads in CERTIFY_INSTANCES:
        for bad in bads:
            assert certify_bad_coloring(f, a, b, c, bad) and all_pairs_certify(f, a, b, c, bad)
