from itertools import product
from math import comb

import pytest

from ramcat import (
    BudgetExceeded,
    ValidationError,
    WordContext,
    certify_bad_coloring,
    check_arrow_exhaustive,
    cyclic_group,
    dram_op_fragment,
    find_bad_coloring,
    gr_fragment,
    min_ramsey_witness,
    ram_fragment,
    trivial_action,
)


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


def test_node_budget_exceeded_distinct_from_none_found():
    f = ram_fragment(6)
    stats = {}
    with pytest.raises(BudgetExceeded) as err:
        find_bad_coloring(f, 2, 3, 6, 2, node_budget=10, stats_out=stats)
    # an overrun reports how far the search got, in stats_out and on the error
    assert stats == err.value.stats == {"nodes": 10, "prefix": 7}


@pytest.mark.parametrize("family, a, b, c, k, holds, nodes", [
    ("ram", 2, 3, 6, 2, True, 987),
    ("ram", 2, 4, 9, 2, False, 12_474),
    ("ram", 3, 4, 7, 2, False, 22_647),
    ("ram", 2, 3, 8, 3, False, 87_726),
    ("gr-plain-z3", 1, 2, 5, 2, True, 10_119),
])
def test_search_node_counts_pinned(family, a, b, c, k, holds, nodes):
    # the search order is part of the contract: same colors first, same nodes
    if family == "ram":
        f = ram_fragment(c)
    else:  # copies of mixed sizes, deduplicated
        f = gr_fragment(WordContext(trivial_action(cyclic_group(3))), c)
    stats = {}
    bad = find_bad_coloring(f, a, b, c, k, stats_out=stats)
    assert (bad is None) == holds
    assert stats["nodes"] == nodes
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
    with pytest.raises(BudgetExceeded):
        find_bad_coloring(f, 2, 3, 6, 2, node_budget=50_000)


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


def test_witness_lists_kept_on_request():
    f = ram_fragment(3)
    verdict = check_arrow_exhaustive(f, 1, 2, 3, 2, keep_witnesses=True)
    assert verdict.holds
    assert len(verdict.witnesses) == verdict.stats["colorings"]
