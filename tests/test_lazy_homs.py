"""Hom-sets are sized in closed form at construction, held as their sizes
and listed on first read, by the builders and by the opposite and skeleton
constructions.  The oracle is an eager copy of the builders as they were
when every hom-set was listed up front."""

from itertools import combinations, product

import pytest

import ramcat.category
from ramcat import (
    ResourceBound,
    WordContext,
    chain_preorder,
    cyclic_group,
    dram_fragment,
    dram_op_fragment,
    enumerate_rsurj,
    gr_fragment,
    opposite,
    plain_context,
    ram_fragment,
    skeleton,
    thin_from_preorder,
    trivial_action,
    vec_fragment,
)
from ramcat.category import Morphism, gf, validate_fragment
from test_words import recursive_words


# --- the eager oracle -----------------------------------------------------------

def eager_ram(n):
    return {(a, b): tuple(Morphism(a, b, c) for c in combinations(range(1, b + 1), a))
            for a in range(1, n + 1) for b in range(a, n + 1)}


def eager_dram(n):
    hom = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ms = tuple(Morphism(a, b, r) for r in enumerate_rsurj(a, b))
            if ms:
                hom[a, b] = ms
    return hom


def eager_opposite(hom):
    return {(b, a): tuple(Morphism(b, a, m.payload) for m in ms) for (a, b), ms in hom.items()}


def eager_dram_op(n):
    return eager_opposite(eager_dram(n))


def eager_gr(context, n):
    return {(k, m): tuple(Morphism(k, m, w) for w in recursive_words(k, m, context))
            for k in range(1, n + 1) for m in range(k, n + 1)}


def alex_less(u, v):
    """Anti-lexicographic comparison: the highest differing coordinate
    decides."""
    return tuple(reversed(u)) < tuple(reversed(v))


def apply_matrix(field, rows, v):
    out = []
    for row in rows:
        acc = 0
        for c, x in zip(row, v):
            acc = field.add[acc][field.mul[c][x]]
        out.append(acc)
    return tuple(out)


def eager_vec(q, n):
    """The vec builder as a scan: hom-sets grown one column at a time, each
    prefix kept while the images of the sorted domain vectors increase."""
    field = gf(q)

    def domain_vectors(m):
        return sorted(product(range(field.size), repeat=m), key=lambda v: tuple(reversed(v)))

    def increasing(rows, vecs):
        images = [apply_matrix(field, rows, v) for v in vecs]
        return all(alex_less(images[i], images[i + 1]) for i in range(len(images) - 1))

    hom = {}
    for m in range(1, n + 1):
        for d in range(m, n + 1):
            columns = list(product(range(field.size), repeat=d))
            prefixes = [()]
            for j in range(1, m + 1):
                vecs = domain_vectors(j)
                survivors = []
                for cols in prefixes:
                    top = apply_matrix(field, tuple(zip(*cols)), vecs[-1][:-1]) if cols else (0,) * d
                    for col in columns:
                        if alex_less(top, col) and increasing(tuple(zip(*cols, col)), vecs):
                            survivors.append(cols + (col,))
                prefixes = survivors
            hom[m, d] = tuple(sorted((Morphism(m, d, tuple(zip(*cols))) for cols in prefixes),
                                     key=lambda f: f.payload))
    return hom


def eager_thin_chain(n):
    return {(a, b): (Morphism(a, b, None),) for a in range(n) for b in range(a, n)}


def plain(order):
    return WordContext(trivial_action(cyclic_group(order)))


def cases(swap_context):
    """(fragment builder, eager hom table) for every builder and size the
    laziness tests cover, and for opposites and skeletons of builders (no
    two objects of a builder are isomorphic, so a skeleton keeps them
    all)."""
    out = [
        (lambda: ram_fragment(7), eager_ram(7)),
        (lambda: dram_fragment(6), eager_dram(6)),
        (lambda: dram_op_fragment(6), eager_dram_op(6)),
        (lambda: vec_fragment(2, 4), eager_vec(2, 4)),
        (lambda: vec_fragment(3, 3), eager_vec(3, 3)),
        (lambda: opposite(ram_fragment(6)), eager_opposite(eager_ram(6))),
        (lambda: opposite(gr_fragment(swap_context, 4)), eager_opposite(eager_gr(swap_context, 4))),
        (lambda: opposite(dram_op_fragment(5)), eager_dram(5)),
        (lambda: skeleton(dram_op_fragment(5)).fragment, eager_dram_op(5)),
        (lambda: skeleton(opposite(vec_fragment(2, 3))).fragment, eager_opposite(eager_vec(2, 3))),
    ]
    for ctx in (plain_context(), plain(2), plain(3), swap_context):
        for n in range(1, 7):
            out.append((lambda ctx=ctx, n=n: gr_fragment(ctx, n), eager_gr(ctx, n)))
    return out


@pytest.fixture(scope="module")
def lazy_cases(swap_context):
    return cases(swap_context)


def test_declared_sizes_match_built_hom_sets(lazy_cases):
    for build, eager in lazy_cases + [(lambda: thin_from_preorder(chain_preorder(5)), eager_thin_chain(5))]:
        frag = build()
        pairs = list(product(frag.objects, repeat=2))
        declared = {pair: frag.hom_size(*pair) for pair in pairs}
        total = frag.total_morphisms()
        assert {pair: len(frag.hom(*pair)) for pair in pairs} == declared, frag.name
        assert total == sum(declared.values()) == sum(len(ms) for ms in eager.values()), frag.name


def test_hom_sets_equal_the_eager_builders_in_order(lazy_cases):
    for build, eager in lazy_cases:
        frag = build()
        for a, b in product(frag.objects, repeat=2):
            assert frag.hom(a, b) == eager.get((a, b), ()), (frag.name, a, b)
        assert list(frag.morphisms()) == [m for pair in sorted(eager) for m in eager[pair]], frag.name


def test_cap_is_checked_at_construction_from_the_sizes(lazy_cases, monkeypatch):
    # the cap is fixed; patching it puts each fragment exactly at the cap and
    # one morphism over it
    for build, eager in lazy_cases:
        total = sum(len(ms) for ms in eager.values())
        monkeypatch.setattr(ramcat.category, "DEFAULT_HOM_CAP", total)
        assert build().total_morphisms() == total
        monkeypatch.setattr(ramcat.category, "DEFAULT_HOM_CAP", total - 1)
        with pytest.raises(ResourceBound):
            build()


def test_unlisted_fragments_answer_from_sizes_without_building(lazy_cases, monkeypatch):
    # sizes, arrows, the total, repr and the checks' triple bound read the
    # sizes alone; the first hom(a, b) read calls build once, for (a, b)
    monkeypatch.setattr(ramcat.category, "LAW_TRIPLE_CAP", 0)
    for build, eager in lazy_cases:
        frag = build()
        calls, listing = [], frag._build
        frag._build = lambda a, b: calls.append((a, b)) or listing(a, b)
        sizes = {pair: len(ms) for pair, ms in eager.items() if ms}
        pairs = list(product(frag.objects, repeat=2))
        assert [frag.hom_size(*pair) for pair in pairs] == [sizes.get(pair, 0) for pair in pairs], frag.name
        assert [frag.arrow(*pair) for pair in pairs] == [pair in sizes for pair in pairs], frag.name
        total = sum(sizes.values())
        assert frag.total_morphisms() == total
        assert repr(frag) == f"<fragment {frag.name}: {len(frag.objects)} objects, {total} morphisms>"
        with pytest.raises(ResourceBound, match="composable triples"):
            validate_fragment(frag)
        assert calls == [], frag.name
        pair = max(sizes)
        assert frag.hom(*pair) == eager[pair] and frag.hom(*pair) is frag.hom(*pair)
        assert calls == [pair], frag.name


def counting(monkeypatch, name):
    """Replace ``ramcat.category.<name>`` by a wrapper that records the
    arguments of each call and the number of items it yields."""
    calls, items = [], [0]
    original = getattr(ramcat.category, name)

    def wrapper(*args):
        calls.append(args[:2])
        for item in original(*args):
            items[0] += 1
            yield item

    monkeypatch.setattr(ramcat.category, name, wrapper)
    return calls, items


def test_gr_totals_are_sized_without_enumerating(monkeypatch, swap_context):
    calls, _ = counting(monkeypatch, "enumerate_words")
    totals = [gr_fragment(ctx, 6).total_morphisms() for ctx in (plain_context(), plain(2), plain(3), swap_context)]
    assert totals == [278, 1860, 6690, 12032]
    assert calls == []


def test_reading_one_hom_set_lists_only_that_pair(monkeypatch, swap_context):
    calls, items = counting(monkeypatch, "enumerate_words")
    frag = gr_fragment(swap_context, 6)
    assert repr(frag) == "<fragment gr(ab,|G|=2,6): 6 objects, 12032 morphisms>"
    assert frag.arrow(1, 2) and not frag.arrow(2, 1) and frag.hom_size(1, 6) == 2016
    assert calls == [] and items == [0]
    ms = frag.hom(1, 2)
    assert calls == [(1, 2)] and items == [len(ms)] == [frag.hom_size(1, 2)]
    assert frag.hom(1, 2) is ms and frag.in_hom(ms[0], 1, 2)
    assert calls == [(1, 2)]


def test_opposite_and_skeleton_list_through_their_base(monkeypatch):
    calls, _ = counting(monkeypatch, "enumerate_rsurj")
    base = dram_fragment(6)
    op = opposite(base)
    assert op.total_morphisms() == base.total_morphisms() == 278
    assert calls == []
    assert len(op.hom(2, 4)) == 7 and calls == [(4, 2)]
    assert base.hom(4, 2) == tuple(Morphism(4, 2, m.payload) for m in op.hom(2, 4))
    assert calls == [(4, 2)]
    skel = skeleton(ram_fragment(5)).fragment
    assert skel.total_morphisms() == 57 and skel.hom(2, 4) == ram_fragment(5).hom(2, 4)


@pytest.mark.parametrize("build", [
    lambda: ram_fragment(10**6),
    lambda: dram_fragment(10**6),
    lambda: dram_op_fragment(10**6),
    lambda: gr_fragment(plain_context(), 10**6),
    lambda: vec_fragment(2, 10**6),
])
def test_oversized_fragments_are_refused_after_sizing_a_few_pairs(build):
    with pytest.raises(ResourceBound):
        build()
