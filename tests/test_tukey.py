import random
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcat import (
    GeneratedPreorder,
    ValidationError,
    antichain_preorder,
    chain_preorder,
    cofinal_companion,
    is_cofinal_map,
    is_tukey_map,
    monotonize,
    omega,
    omega_squared,
    preorder_from_pairs,
    preorder_predicates,
    validate_preorder,
    verify_trace,
)
from ramcat.tukey import MapVerdict


def locate_block(x, trace, a):
    """Membership procedure: the least round index ``i`` with ``x <= s_i``."""
    for i, si in enumerate(trace.s):
        if a.leq(x, si):
            return i
    return None


def brute_bounded(p, subset):
    return any(all(p.le(x, b) for x in subset) for b in range(p.size))


def brute_cofinal(p, subset):
    return all(any(p.le(a, x) for x in subset) for a in range(p.size))


@cache
def down_sets(p):
    """The mask of the elements below b, for each b."""
    return tuple(sum(1 << x for x in range(p.size) if p.le(x, b)) for b in range(p.size))


@cache
def up_sets(p):
    """The mask of the elements above a, for each a."""
    return tuple(sum(1 << x for x in range(p.size) if p.le(a, x)) for a in range(p.size))


def subset_bounded(p, mask):
    """Some element lies above every element of ``mask``."""
    return any(mask & below == mask for below in down_sets(p))


def subset_cofinal(p, mask):
    """Every element lies below some element of ``mask``."""
    return all(above & mask for above in up_sets(p))


def elements(mask, n):
    return tuple(x for x in range(n) if mask >> x & 1)


def image_mask(f, mask, n):
    return sum({1 << f[x] for x in elements(mask, n)})


def per_subset_tukey(f, a, b):
    """The Tukey check subset by subset: the first unbounded subset in
    ascending mask order whose image is bounded is the witness."""
    for mask in range(1, 1 << a.size):
        if not subset_bounded(a, mask) and subset_bounded(b, image_mask(f, mask, a.size)):
            return MapVerdict(False, elements(mask, a.size))
    return MapVerdict(True)


def per_subset_cofinal(g, dom, cod):
    for mask in range(1, 1 << dom.size):
        if subset_cofinal(dom, mask) and not subset_cofinal(cod, image_mask(g, mask, dom.size)):
            return MapVerdict(False, elements(mask, dom.size))
    return MapVerdict(True)


def per_subset_directed(p):
    return all(subset_bounded(p, 1 << a | 1 << b) for a in range(p.size) for b in range(a, p.size))


@st.composite
def preorders(draw, min_size=1, max_size=8):
    """The reflexive-transitive closure of random pairs: cycles give
    equivalence classes of several elements."""
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return preorder_from_pairs(n, pairs)


def top_class(p):
    rep = preorder_predicates(p)
    return {x for cls in rep.equivalence_classes for x in cls
            if all(any(p.le(a, y) for y in cls) for a in range(p.size))}


def test_validate_preorder():
    validate_preorder([[True, True], [False, True]])
    with pytest.raises(ValidationError):
        validate_preorder([[False, True], [False, True]])
    with pytest.raises(ValidationError):
        validate_preorder([[True, True, False], [False, True, True], [False, False, True]])


def test_antichain_predicates():
    rep = preorder_predicates(antichain_preorder(2))
    assert not rep.directed
    assert len(rep.equivalence_classes) == 2


def test_chain_predicates():
    p = chain_preorder(3)
    rep = preorder_predicates(p)
    assert rep.directed
    assert len(rep.equivalence_classes) == 3


def test_quotient_collapses_equivalent_elements():
    p = preorder_from_pairs(3, [(0, 1), (1, 0), (1, 2)])
    rep = preorder_predicates(p)
    assert len(rep.equivalence_classes) == 2
    assert rep.quotient.size == 2
    assert rep.class_of[0] == rep.class_of[1] != rep.class_of[2]
    q = rep.quotient
    # the quotient is a partial order: antisymmetric
    assert not any(q.le(a, b) and q.le(b, a) and a != b for a in range(2) for b in range(2))


def test_checks_run_past_fifteen_elements():
    """No subset scan bounds the size: these forty-element checks each
    read one region per codomain element."""
    verdict = is_tukey_map([0] * 40, antichain_preorder(40), chain_preorder(1))
    assert not verdict.ok and verdict.witness == (0, 1)
    chain = chain_preorder(40)
    assert is_tukey_map(list(range(40)), chain, chain) == MapVerdict(True)
    assert is_cofinal_map(list(range(40)), chain, chain) == MapVerdict(True)
    assert is_cofinal_map([0] * 40, chain, chain) == MapVerdict(False, (39,))
    assert preorder_predicates(chain).directed and not preorder_predicates(antichain_preorder(40)).directed


def test_tukey_collapse_of_antichain_fails():
    verdict = is_tukey_map([0, 0], antichain_preorder(2), chain_preorder(1))
    assert not verdict.ok and verdict.witness == (0, 1)


def test_tukey_identity_holds():
    p = preorder_from_pairs(4, [(0, 1), (2, 3)])
    assert is_tukey_map(list(range(4)), p, p).ok


def test_every_map_between_directed_finite_preorders_is_tukey():
    rng = random.Random(7)
    directed = [chain_preorder(n) for n in (1, 2, 3, 4, 5)]
    directed.append(preorder_from_pairs(4, [(0, 2), (1, 2), (2, 3)]))
    directed.append(preorder_from_pairs(5, [(0, 2), (1, 2), (2, 4), (3, 4)]))
    checked = 0
    for a in directed:
        for b in directed:
            for _ in range(40):
                f = [rng.randrange(b.size) for _ in range(a.size)]
                assert is_tukey_map(f, a, b).ok
                checked += 1
    assert checked <= 100_000


def test_cofinal_iff_top_class_lands_in_top_class():
    rng = random.Random(11)
    pres = [chain_preorder(3), preorder_from_pairs(4, [(0, 2), (1, 2), (2, 3)]),
            preorder_from_pairs(4, [(0, 1), (1, 0), (0, 2), (2, 3)])]
    for a in pres:
        for b in pres:
            tops_a, tops_b = top_class(a), top_class(b)
            for _ in range(60):
                g = [rng.randrange(b.size) for _ in range(a.size)]
                expected = all(g[x] in tops_b for x in tops_a)
                assert is_cofinal_map(g, a, b).ok == expected, (g, tops_a, tops_b)


def test_cofinal_examples():
    assert is_cofinal_map([0, 1, 2], chain_preorder(3), chain_preorder(3)).ok
    verdict = is_cofinal_map([0, 0, 0], chain_preorder(3), chain_preorder(2))
    assert not verdict.ok and verdict.witness == (2,)
    assert is_cofinal_map([0, 0, 0], chain_preorder(3), chain_preorder(1)).ok


def test_companion_identity():
    om = omega()
    res = cofinal_companion(lambda n: n, om, om, 10)
    assert res.g == list(range(10))


def test_companion_doubling():
    om = omega()
    res = cofinal_companion(lambda n: 2 * n, om, om, 20)
    assert res.g == [b // 2 for b in range(20)]
    assert res.checked_pairs > 0


def test_companion_constant_map_warns():
    om = omega()
    res = cofinal_companion(lambda n: 0, om, om, 10)
    assert res.g == [9] * 10
    assert any("untestable" in w for w in res.warnings)


def test_monotonize_identity():
    om = omega()
    trace = monotonize(lambda n: n, om, om, steps=12)
    check = verify_trace(trace, om, om)
    assert check.ok
    assert trace.s == list(range(12))
    assert trace.b == list(range(12))


def test_monotonize_nonmonotone_map():
    om = omega()

    def f(n):
        return n + 10 if n % 2 == 0 else n // 2

    trace = monotonize(f, om, om, steps=30, prefix_size=30)
    check = verify_trace(trace, om, om)
    assert check.ok
    assert len(trace.fhat) == 30
    # literal monotonicity on the prefix
    keys = list(trace.fhat)
    for x in keys:
        for y in keys:
            if x <= y:
                assert trace.fhat[x] <= trace.fhat[y]


def test_monotonize_on_product_order():
    om2, om = omega_squared(), omega()
    trace = monotonize(lambda p: p[0] + p[1], om2, om, steps=10, prefix_size=30)
    check = verify_trace(trace, om2, om)
    assert check.ok
    # blocks are nonempty and the spine dominates its block
    for sn, block in zip(trace.s, trace.big_s):
        assert block
        assert all(om2.leq(x, sn) for x in block)


def test_membership_procedure_agrees_with_partition():
    om2 = omega_squared()
    trace = monotonize(lambda p: p[0] * p[1], om2, omega(), steps=8, prefix_size=20)
    for i, block in enumerate(trace.big_s):
        for x in block:
            assert locate_block(x, trace, om2) == i


def test_monotonize_rejects_bounded_input():
    bounded = GeneratedPreorder("flat", lambda i: 0, lambda x, y: True, lambda x, y: 0,
                                globally_bounded=True)
    with pytest.raises(ValidationError) as err:
        monotonize(lambda n: n, bounded, omega(), steps=3)
    assert err.value.code == "globally_bounded_input"


def test_broken_upper_bound_oracle_detected():
    broken = GeneratedPreorder("broken", lambda i: i, lambda x, y: x <= y, lambda x, y: 0,
                               globally_bounded=False)
    with pytest.raises(ValidationError) as err:
        monotonize(lambda n: n, broken, omega(), steps=5)
    assert err.value.code == "oracle_failure"


def test_cantor_enumeration_is_injective_and_total():
    om2 = omega_squared()
    prefix = om2.prefix(50)
    assert len(set(prefix)) == 50
    assert (0, 0) in prefix and (1, 0) in prefix and (0, 1) in prefix


def test_subset_helpers_match_definitions():
    p = preorder_from_pairs(3, [(0, 1)])
    for mask in range(1, 8):
        subset = [x for x in range(3) if mask >> x & 1]
        assert subset_bounded(p, mask) == brute_bounded(p, subset)
        assert subset_cofinal(p, mask) == brute_cofinal(p, subset)


@settings(max_examples=150, deadline=None)
@given(preorders())
def test_predicates_match_per_subset_definitions(p):
    assert preorder_predicates(p).directed == per_subset_directed(p)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_map_checks_match_per_subset_definitions(data):
    a = data.draw(preorders())
    b = data.draw(preorders())
    f = data.draw(st.lists(st.integers(0, b.size - 1), min_size=a.size, max_size=a.size))
    assert is_tukey_map(f, a, b) == per_subset_tukey(f, a, b)
    assert is_cofinal_map(f, a, b) == per_subset_cofinal(f, a, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_map_checks_into_a_codomain_wider_than_16(data):
    a = data.draw(preorders(max_size=6))
    b = data.draw(preorders(min_size=17, max_size=24))
    f = data.draw(st.lists(st.integers(0, b.size - 1), min_size=a.size, max_size=a.size))
    assert is_tukey_map(f, a, b) == per_subset_tukey(f, a, b)
    assert is_cofinal_map(f, a, b) == per_subset_cofinal(f, a, b)


def test_map_checks_into_20_elements():
    # 17 and 18 are incomparable, and 19 lies above both only in `joined`
    apart = preorder_from_pairs(20, [(x, x + 1) for x in range(16)])
    joined = preorder_from_pairs(20, [(x, x + 1) for x in range(16)] + [(17, 19), (18, 19)])
    anti = antichain_preorder(2)
    assert is_tukey_map([17, 18], anti, apart).ok
    assert is_tukey_map([17, 18], anti, joined) == MapVerdict(False, (0, 1))
    chain = chain_preorder(20)
    assert is_cofinal_map([0, 5, 19], chain_preorder(3), chain).ok
    assert is_cofinal_map([0, 5, 18], chain_preorder(3), chain) == MapVerdict(False, (2,))
    wide = chain_preorder(70)  # past 64 bits the image masks are Python ints
    assert is_cofinal_map([3, 69], chain_preorder(2), wide).ok
    assert is_tukey_map([68, 69], anti, wide) == MapVerdict(False, (0, 1))


def test_map_checks_from_the_empty_domain_hold():
    # the empty region is unbounded and cofinal in the empty order, but the
    # empty subset is never an offending subset
    empty = preorder_from_pairs(0, [])
    for cod in (empty, chain_preorder(1), antichain_preorder(2), preorder_from_pairs(3, [(0, 1), (1, 0)])):
        assert is_tukey_map([], empty, cod) == MapVerdict(True)
        assert is_cofinal_map([], empty, cod) == MapVerdict(True)


def workload_shaped_preorder(rng, n):
    """The shape of the benchmark's drawn order: a random partial order in
    which n-2 and n-1 are maximal and incomparable, so there is no top."""
    pairs = [(a, b) for a in range(n - 2) for b in range(a + 1, n) if rng.random() < 0.2]
    return preorder_from_pairs(n, pairs)


def test_map_checks_match_per_subset_definitions_on_workload_shaped_orders():
    rng = random.Random(13)
    deep = 0
    for n in (12, 13):
        p = workload_shaped_preorder(rng, n)
        sigma = list(range(n))
        rng.shuffle(sigma)
        q = preorder_from_pairs(n, [(sigma[a], sigma[b]) for a in range(n) for b in range(n) if p.le(a, b)])
        maps = [(sigma, p, q), ([rng.randrange(n)] * n, p, q)]
        maps += [([rng.randrange(n) for _ in range(n)], p, p) for _ in range(3)]
        for f, a, b in maps:
            for check, oracle in ((is_tukey_map, per_subset_tukey), (is_cofinal_map, per_subset_cofinal)):
                verdict = check(f, a, b)
                assert verdict == oracle(f, a, b), (check.__name__, f)
                deep += not verdict.ok and sum(1 << x for x in verdict.witness) >= 1 << (n - 2)
    # a cofinal subset holds both maximal elements, so a cofinal witness lies
    # past every subset of the other elements in mask order
    assert deep >= 2


def test_map_checks_reject_maps_that_do_not_fit():
    for f in ([0], [0, 1, 0], [0, 2], [-1, 0], [0, "1"], [True, 0], [0, False], [0, 1.0]):
        for check in (is_tukey_map, is_cofinal_map):
            with pytest.raises(ValidationError) as err:
                check(f, antichain_preorder(2), chain_preorder(2))
            assert err.value.code == "bad_map"
