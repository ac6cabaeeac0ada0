import time
from collections import Counter
from itertools import product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramcat.category
from ramcat import (
    ResourceBound,
    ValidationError,
    WordContext,
    chain_preorder,
    check_fragment_isomorphism,
    cycle_action,
    cyclic_group,
    dram_fragment,
    dram_op_fragment,
    dramop_word_functor,
    explicit_fragment,
    fragment_equal,
    fragment_from_spec,
    gr_fragment,
    opposite,
    pa_gr_decorated_to_plain,
    plain_context,
    preorder_from_pairs,
    ram_fragment,
    skeleton,
    structural_checks,
    thin_from_preorder,
    trivial_action,
    validate_fragment,
    vec_fragment,
    verify_pa,
)
from ramcat.arrows import certify_bad_coloring, find_bad_coloring
from ramcat.category import CategoryFragment, FragmentLawReport, Morphism, is_mono
from ramcat.surjections import RigidSurjection, word_to_rsurj
from ramcat.words import DecoratedWord, identity_word, parse_word
from conftest import first_occurrences_swapped, stirling, tabulate


# one morphism a -> b besides the identities; payloads are the integer ids
INT_IDS = explicit_fragment(["a", "b"], {0: ("a", "a"), 1: ("b", "b"), 2: ("a", "b")}, {"a": 0, "b": 1},
                            {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}, name="int-ids")


def misplaced_identity_fragment():
    """The identity of b is f: a -> b, a morphism of another hom-set."""
    morphs = {"id_a": ("a", "a"), "id_b": ("b", "b"), "f": ("a", "b")}
    compose = {("id_a", "id_a"): "id_a", ("f", "id_a"): "f", ("id_b", "f"): "f", ("id_b", "id_b"): "id_b"}
    return explicit_fragment(["a", "b"], morphs, {"a": "id_a", "b": "f"}, compose, name="misplaced-identity")


def twin_fragment():
    """Two mutually isomorphic objects, each rigid."""
    morphs = {"id_a": ("a", "a"), "id_b": ("b", "b"), "f": ("a", "b"), "g": ("b", "a")}
    compose = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
        ("f", "id_a"): "f", ("id_b", "f"): "f",
        ("g", "id_b"): "g", ("id_a", "g"): "g",
        ("g", "f"): "id_a", ("f", "g"): "id_b",
    }
    return explicit_fragment(["a", "b"], morphs, {"a": "id_a", "b": "id_b"}, compose, name="twin")


def test_builders_pass_law_checks(swap_context, plain_z2_context):
    for frag in [
        ram_fragment(4),
        dram_fragment(4),
        dram_op_fragment(4),
        gr_fragment(plain_z2_context, 3),
        gr_fragment(swap_context, 3),
        vec_fragment(2, 3),
        thin_from_preorder(chain_preorder(3)),
    ]:
        assert validate_fragment(frag).ok, frag.name


def test_hom_counts():
    f = ram_fragment(8)
    for m in range(1, 9):
        for n in range(m, 9):
            assert len(f.hom(m, n)) == comb(n, m)
    d = dram_fragment(6)
    for n in range(1, 7):
        for m in range(1, n + 1):
            assert len(d.hom(n, m)) == stirling(n, m)
    g = gr_fragment(plain_context(), 6)
    for m in range(1, 7):
        for n in range(m, 7):
            assert len(g.hom(m, n)) == stirling(n, m)


def test_gr_z2_hom_count(plain_z2_context):
    g = gr_fragment(plain_z2_context, 2)
    assert len(g.hom(1, 2)) == 2


def test_gr_fragment_laws_with_non_abelian_group(s3_context):
    frag = gr_fragment(s3_context, 2)
    assert validate_fragment(frag).ok
    rep = structural_checks(frag)
    assert rep.all_mono and rep.hom_self_is_identity


def test_vec_f2_counts():
    v = vec_fragment(2, 3)
    assert len(v.hom(1, 2)) == 3
    assert len(v.hom(1, 1)) == 1
    assert len(v.hom(2, 2)) == 1  # rigidity under the vector order
    assert all(len(v.hom(n, n)) == 1 for n in (1, 2, 3))
    # one-dimensional domain: any nonzero image vector works, zero is least
    assert len(v.hom(1, 3)) == 7


def test_vec_f2_hom_count_against_function_oracle():
    """Independent oracle: enumerate maps on the four domain vectors as raw
    function tables, keep those that are additive, injective and order
    preserving, and identify them by their values on the basis."""
    from itertools import product as iproduct

    def add(u, w):
        return tuple((a + b) % 2 for a, b in zip(u, w))

    def alex_key(u):
        return tuple(reversed(u))

    dom = sorted(iproduct(range(2), repeat=2), key=alex_key)
    cod = list(iproduct(range(2), repeat=3))
    valid = set()
    for images in iproduct(cod, repeat=4):
        table = dict(zip(dom, images))
        if any(table[add(u, w)] != add(table[u], table[w]) for u in dom for w in dom):
            continue
        if len(set(images)) != 4:
            continue
        ordered = [table[u] for u in dom]
        if all(alex_key(ordered[i]) < alex_key(ordered[i + 1]) for i in range(3)):
            valid.add((table[(1, 0)], table[(0, 1)]))

    v = vec_fragment(2, 3)
    by_basis = {
        (tuple(row[0] for row in m.payload), tuple(row[1] for row in m.payload))
        for m in v.hom(2, 3)
    }
    assert by_basis == valid


def gf4():
    """GF(4) as an explicit ordered field: addition is coefficient XOR and
    multiplication follows x^2 = x + 1 on {0, 1, x, x+1}."""
    from ramcat.category import OrderedField

    return OrderedField(
        4,
        tuple(tuple(a ^ b for b in range(4)) for a in range(4)),
        ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2)),
    )


def gaussian_binomial(d, m, q):
    """[d choose m]_q, the number of m-dimensional subspaces of F_q^d."""
    num = den = 1
    for i in range(m):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("q,n,total", [(2, 4, 86), (3, 3, 33), (5, 2, 8), ("gf4", 2, 7)])
def test_vec_hom_counts_are_gaussian_binomials(q, n, total):
    """A monotone injective linear map m -> d is the unique order-respecting
    basis of its image, so hom(m, d) has one morphism per subspace."""
    field = gf4() if q == "gf4" else q
    size = 4 if q == "gf4" else q
    v = vec_fragment(field, n)
    for m in range(1, n + 1):
        for d in range(m, n + 1):
            assert len(v.hom(m, d)) == gaussian_binomial(d, m, size), (m, d)
    assert v.total_morphisms() == total


def brute_force_vec_hom(field, m, d):
    """Every q^(d*m) matrix, kept when the images of the anti-lexicographically
    sorted domain vectors are strictly increasing; row-major product order."""
    from itertools import product as iproduct

    from ramcat.category import Morphism

    def alex_key(u):
        return tuple(reversed(u))

    def apply(rows, v):
        out = []
        for row in rows:
            acc = 0
            for c, x in zip(row, v):
                acc = field.add[acc][field.mul[c][x]]
            out.append(acc)
        return tuple(out)

    dom_sorted = sorted(iproduct(range(field.size), repeat=m), key=alex_key)
    ms = []
    for entries in iproduct(range(field.size), repeat=d * m):
        rows = tuple(tuple(entries[r * m:(r + 1) * m]) for r in range(d))
        keys = [alex_key(apply(rows, v)) for v in dom_sorted]
        if all(keys[i] < keys[i + 1] for i in range(len(keys) - 1)):
            ms.append(Morphism(m, d, rows))
    return tuple(ms)


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (5, 2), ("gf4", 2)])
def test_vec_builder_matches_brute_force_scan(q, n):
    """Every hom-set whose scan has at most 4096 matrices, order included;
    F2 hom(2, 4) is the first whose column-major generation order differs
    from the row-major order."""
    from ramcat.category import gf

    field = gf4() if q == "gf4" else gf(q)
    v = vec_fragment(field, n)
    pairs = [(m, d) for m in range(1, n + 1) for d in range(m, n + 1) if field.size ** (d * m) <= 4096]
    if q == 2:
        assert (2, 4) in pairs
    for m, d in pairs:
        assert v.hom(m, d) == brute_force_vec_hom(field, m, d), (m, d)


def test_vec_requires_prime_size():
    with pytest.raises(ValidationError):
        vec_fragment(4, 2)


def test_vec_accepts_explicit_field_tables():
    frag = vec_fragment(gf4(), 2)
    assert validate_fragment(frag).ok
    assert len(frag.hom(1, 1)) == 1  # only scaling by 1 preserves the order
    rep = structural_checks(frag)
    assert rep.all_mono and rep.hom_self_is_identity


def test_gr_fragments_of_equal_contexts_are_equal():
    """A word holds no context, so two separately built but equal contexts
    give equal fragments."""
    def swap():
        return WordContext(cycle_action(cyclic_group(2), "ab", [1, 0]))

    first, second = swap(), swap()
    assert first == second and first is not second
    assert fragment_equal(gr_fragment(first, 4), gr_fragment(second, 4))


def test_opposite_involution_and_counts():
    d = dram_fragment(4)
    op = opposite(d)
    assert len(op.hom(2, 4)) == stirling(4, 2) == 7
    assert fragment_equal(opposite(op), d)
    thin = thin_from_preorder(chain_preorder(3))
    assert structural_checks(opposite(thin)).is_thin


def flipped(compose):
    """Oracle: composition in the opposite of a fragment composing by
    ``compose``, by flipping both morphisms, composing them the other way
    round and flipping the result back."""
    def op_compose(g, f):
        h = compose(Morphism(f.cod, f.dom, f.payload), Morphism(g.cod, g.dom, g.payload))
        return Morphism(f.dom, g.cod, h.payload)

    return op_compose


def test_opposite_composes_like_flipped_morphisms(swap_context):
    for base in [ram_fragment(5), dram_fragment(5), gr_fragment(swap_context, 3), vec_fragment(2, 3),
                 thin_from_preorder(chain_preorder(4))]:
        op = opposite(base)
        for frag, oracle in [(op, flipped(base.compose)), (opposite(op), flipped(flipped(base.compose)))]:
            pairs = 0
            for a, b, c in product(frag.objects, repeat=3):
                for f in frag.hom(a, b):
                    for g in frag.hom(b, c):
                        assert frag.compose(g, f) == oracle(g, f), (frag.name, g, f)
                        pairs += 1
            assert pairs, frag.name


def test_opposite_composes_without_its_base(monkeypatch):
    # one call of the base fragment's rule per composable pair, at any depth
    # of opposites; the isomorphism check makes no compose call, and the law
    # check two per morphism, for the identity laws
    calls = {"rule": 0, "compose": 0}

    def counted(key, fn):
        def counting(*args):
            calls[key] += 1
            return fn(*args)

        return counting

    monkeypatch.setattr(ramcat.category, "compose_rigid", counted("rule", ramcat.category.compose_rigid))
    monkeypatch.setattr(ramcat.category, "substitute", counted("rule", ramcat.category.substitute))
    monkeypatch.setattr(CategoryFragment, "compose", counted("compose", CategoryFragment.compose))
    grf, dop, on_m = dramop_word_functor(6, plain_context())
    runs = [
        lambda: fragment_equal(opposite(opposite(dram_fragment(6))), dram_fragment(6)),
        lambda: check_fragment_isomorphism(grf, dop, on_m)["ok"],
        lambda: validate_fragment(dram_op_fragment(6)).ok,
    ]
    counts = []
    for run in runs:
        calls.update(rule=0, compose=0)
        assert run()
        counts.append((calls["rule"], calls["compose"]))
    assert counts == [(5810, 0), (5810, 0), (3461, 2 * dram_fragment(6).total_morphisms())]


def test_thin_from_preorder():
    two_chain = thin_from_preorder(chain_preorder(2))
    assert two_chain.total_morphisms() == 3
    from ramcat import antichain_preorder

    anti = thin_from_preorder(antichain_preorder(2))
    assert anti.total_morphisms() == 2
    p = preorder_from_pairs(3, [(0, 1), (1, 2)])
    frag = thin_from_preorder(p)
    assert validate_fragment(frag).ok
    assert structural_checks(frag).is_thin


@pytest.mark.parametrize("fragment, a, b, impostor", [
    (ram_fragment(3), 2, 3, tuple),  # a plain tuple
    (ram_fragment(3), 2, 3, lambda m: RigidSurjection(*m)),  # a value of another class
    (dram_fragment(3), 3, 2, lambda m: Morphism(m.dom, m.cod, tuple(m.payload))),  # another payload class
    (gr_fragment(plain_context(), 3), 2, 3, lambda m: Morphism(m.dom, m.cod, tuple(m.payload))),
    (opposite(dram_fragment(3)), 2, 3, lambda m: Morphism(m.dom, m.cod, tuple(m.payload))),
    (vec_fragment(2, 3), 2, 3, tuple),
    (thin_from_preorder(chain_preorder(3)), 0, 2, tuple),
    (INT_IDS, "a", "b", lambda m: Morphism(m.dom, m.cod, float(m.payload))),  # 2.0 == 2
    # a listed morphism of another hom-set whose payload hom(a, b) also lists
    (thin_from_preorder(chain_preorder(3)), 0, 2, lambda m: Morphism(0, 1, m.payload)),
    (thin_from_preorder(chain_preorder(3)), 1, 2, lambda m: Morphism(0, 2, m.payload)),
])
def test_in_hom_refuses_a_value_equal_to_a_member(fragment, a, b, impostor):
    for m in fragment.hom(a, b):
        value = impostor(m)
        # equal payloads, so the value finds m's position in hom(a, b)'s index
        assert value[2] == m.payload and hash(value[2]) == hash(m.payload)
        assert fragment.in_hom(m, a, b) and not fragment.in_hom(value, a, b)


WORD_CONTEXTS = {
    "plain": plain_context(),
    "plain Z2": WordContext(trivial_action(cyclic_group(2))),
    "plain Z3": WordContext(trivial_action(cyclic_group(3))),
    "swap": WordContext(cycle_action(cyclic_group(2), "ab", [1, 0])),
    "Z2 fixing a": WordContext(trivial_action(cyclic_group(2), "a")),
}


def listing_only(frag):
    """``frag`` with membership read from its listing, as every fragment
    without a ``member`` test reads it."""
    return CategoryFragment(frag.name, frag.objects, {pair: frag.hom(*pair) for pair in frag._hom},
                            {a: frag.identity(a) for a in frag.objects}, frag.rule)


@pytest.mark.parametrize("name", WORD_CONTEXTS)
def test_word_membership_agrees_with_the_listing(name):
    # a gr fragment decides membership from the word: every listed word is a
    # member of its own hom-set and of no other, as the listing says
    frag = gr_fragment(WORD_CONTEXTS[name], 4)
    listed = listing_only(frag)
    pairs = list(product(frag.objects, repeat=2))
    for k, m in pairs:
        for w in frag.hom(k, m):
            for pair in pairs:
                value = Morphism(*pair, w.payload)
                assert frag.in_hom(value, *pair) == listed.in_hom(value, *pair) == (pair == (k, m)), (w, pair)
    # a word longer than the fragment's objects is in no hom-set of it
    for w in gr_fragment(WORD_CONTEXTS[name], 5).hom(1, 5):
        assert not frag.in_hom(Morphism(1, 5, w.payload), 1, 5)


def with_token(word, i, token):
    return DecoratedWord(word.tokens[:i] + (token,) + word.tokens[i + 1:], word.m)


# impostors of x1 a x2 x1^g in hom(2, 4) of gr(swap, 4), none of them a member
WORD_IMPOSTORS = {
    "plain tuple payload": lambda w: tuple(w),
    "tokens as lists": lambda w: DecoratedWord(tuple(map(list, w.tokens)), w.m),
    "token tuple as a list": lambda w: DecoratedWord(list(w.tokens), w.m),
    "string exponent": lambda w: with_token(w, 3, (0, 1, "1")),
    "exponent out of range": lambda w: with_token(w, 3, (0, 1, 2)),
    "letter out of range": lambda w: with_token(w, 1, (1, 2, 0)),
    "fractional variable": lambda w: with_token(w, 3, (0, 1.5, 0)),
    "wrong m": lambda w: DecoratedWord(w.tokens, 3),
    "first occurrences out of order": first_occurrences_swapped,
}


@pytest.mark.parametrize("impostor", WORD_IMPOSTORS.values(), ids=WORD_IMPOSTORS)
def test_word_membership_refuses_impostors_without_raising(swap_context, impostor):
    frag = gr_fragment(swap_context, 4)
    word = parse_word("x1 a x2 x1^g", swap_context)
    assert frag.in_hom(Morphism(2, 4, word), 2, 4)
    value = impostor(word)
    assert repr(value) != repr(word)
    assert not frag.in_hom(Morphism(2, 4, value), 2, 4)
    assert not frag.in_hom(Morphism(3, 4, value), 3, 4)


def test_word_membership_takes_equal_values_as_the_listing_does(swap_context):
    # 1.0 and True equal 1 and hash alike, so the listing's index finds them
    frag = gr_fragment(swap_context, 4)
    word = parse_word("x1 a x2 x1^g", swap_context)
    for token in [(0, 1.0, 1), (0, 1, True), (False, 1, 1)]:
        value = Morphism(2, 4, with_token(word, 3, token))
        assert listing_only(frag).in_hom(value, 2, 4) and frag.in_hom(value, 2, 4)


def test_transport_check_lists_no_source_word_for_phi(swap_context, monkeypatch):
    # the landing check asks the gr source whether phi(B, C, u) is in
    # hom(B, H(C)); the only source hom-sets listed are the hom(A, B) of f
    listed = Counter()
    enumerate_words = ramcat.category.enumerate_words

    def counted(k, m, context):
        for word in enumerate_words(k, m, context):
            if context is swap_context:
                listed[k, m] += 1
            yield word

    monkeypatch.setattr(ramcat.category, "enumerate_words", counted)
    pa = pa_gr_decorated_to_plain(swap_context, 6)
    report = verify_pa(pa, [1, 2], range(1, 7))
    assert report.ok and report.instances == 2800
    assert listed == {(1, 1): 1, (1, 2): 6, (2, 2): 1}


def test_hom_index_is_the_listing_position_and_is_kept():
    for frag in (ram_fragment(4), dram_fragment(4), dram_op_fragment(4), gr_fragment(plain_context(), 3),
                 vec_fragment(2, 3), thin_from_preorder(chain_preorder(3)), INT_IDS,
                 explicit_fragment(range(1, 4), *tabulate(dram_fragment(3)))):
        for a, b in product(frag.objects, repeat=2):
            ms = frag.hom(a, b)
            assert frag.hom_index(a, b) == {m.payload: ms.index(m) for m in ms}, (frag.name, a, b)
    # the copy listing, the re-check and the law check read one index per pair
    frag = ram_fragment(5)
    bad = find_bad_coloring(frag, 2, 3, 5, 2)
    assert frag.copies and bad is not None
    kept = dict(frag._index)
    assert certify_bad_coloring(frag, 2, 3, 5, bad) and validate_fragment(frag).ok
    assert set(frag._index) <= set(product(frag.objects, repeat=2))
    assert all(frag._index[pair] is index for pair, index in kept.items())
    assert all(frag.hom_index(*pair) is index for pair, index in frag._index.items())


@pytest.mark.parametrize("value, field", [
    (Morphism(1, 2, (2,)), "cod"),
    (RigidSurjection(2, 1, (1, 1)), "image"),
    (identity_word(2), "m"),
])
def test_values_are_immutable(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)


def mutated_ram4():
    """ram(4) as explicit tables with two differing 1->3 composites swapped:
    later composition with any 3->4 morphism (mono) then separates the two
    association orders."""
    morphisms, identities, compose = tabulate(ram_fragment(4))
    keys = [
        k for k, v in compose.items()
        if morphisms[k[1]] == (1, 2) and morphisms[k[0]] == (2, 3)
    ]
    k1, k2 = next(
        (k1, k2)
        for i, k1 in enumerate(keys) for k2 in keys[i + 1:]
        if compose[k1] != compose[k2]
    )
    compose[k1], compose[k2] = compose[k2], compose[k1]
    return explicit_fragment([1, 2, 3, 4], morphisms, identities, compose, name="mutated")


def mutated_dram5():
    """dram(5) as explicit tables with two differing 5->3 composites of a
    4->3 after a 5->4 swapped: later composition with some 3->2 morphism then
    separates the two association orders.  dram(4) has no such pair: its one
    chain of three morphisms that are not identities, 4->3->2->1, lands in
    hom(4, 1), which has one member."""
    morphisms, identities, compose = tabulate(dram_fragment(5))
    keys = [k for k in compose if morphisms[k[1]] == (5, 4) and morphisms[k[0]] == (4, 3)]
    k1, k2 = next(
        (k1, k2)
        for i, k1 in enumerate(keys) for k2 in keys[i + 1:]
        if compose[k1] != compose[k2]
    )
    compose[k1], compose[k2] = compose[k2], compose[k1]
    return explicit_fragment([1, 2, 3, 4, 5], morphisms, identities, compose, name="mutated-dram")


def test_mutated_compose_table_fails_laws():
    report = validate_fragment(mutated_ram4())
    assert not report.ok
    assert report.associativity_violations


def triple_loop_validate(fragment, max_violations=5):
    """The law check as three loops that compose afresh every time; the
    oracle for ``validate_fragment``."""
    report = FragmentLawReport()
    objs = fragment.objects

    def recorded(g, f):
        try:
            return fragment.compose(g, f)
        except ValidationError as exc:
            if exc.code != "not_closed":
                raise
            return None

    # an identity outside hom(a, a) is never composed: its side reads None
    ids = {a: fragment.identity(a) if fragment.in_hom(fragment.identity(a), a, a) else None for a in objs}
    for a in objs:
        if ids[a] is None:
            report.identity_violations.append({"object": a, "reason": "identity missing from hom-set"})
    for a in objs:
        for b in objs:
            for f in fragment.hom(a, b):
                left = None if ids[b] is None else recorded(ids[b], f)
                right = None if ids[a] is None else recorded(f, ids[a])
                if left != f or right != f:
                    report.identity_violations.append({"morphism": f, "left": left, "right": right})
                    if len(report.identity_violations) >= max_violations:
                        return report
    for a, b in product(objs, repeat=2):
        for f in fragment.hom(a, b):
            for c in objs:
                for g in fragment.hom(b, c):
                    gf = recorded(g, f)
                    if not fragment.in_hom(gf, a, c):
                        report.closure_violations.append({"g": g, "f": f, "composite": gf})
                        if len(report.closure_violations) >= max_violations:
                            return report
    if report.closure_violations:
        return report
    for a, b in product(objs, repeat=2):
        for f in fragment.hom(a, b):
            for c in objs:
                for g in fragment.hom(b, c):
                    gf = fragment.compose(g, f)
                    for d in objs:
                        for h in fragment.hom(c, d):
                            hg = fragment.compose(h, g)
                            if fragment.compose(h, gf) != fragment.compose(hg, f):
                                report.associativity_violations.append({"h": h, "g": g, "f": f})
                                if len(report.associativity_violations) >= max_violations:
                                    return report
    return report


def outcome(check, fragment, max_violations):
    try:
        return check(fragment, max_violations)
    except ValidationError as exc:
        return (type(exc), exc.code, str(exc))


def perturbed_ram(n, removed=(), rule=None, name="perturbed"):
    """ram(n) without the ``removed`` morphisms, composing payloads by
    ``rule(g, f)`` where it gives a payload and by the ram rule elsewhere.
    The perturbation is made in the rule, which the law check reads, so
    ``compose`` agrees with it."""
    base = ram_fragment(n)
    hom = {(a, b): tuple(m for m in base.hom(a, b) if m not in removed)
           for a in base.objects for b in base.objects if base.hom(a, b)}

    def perturbed(g, f):
        return (rule and rule(g, f)) or base.rule(g, f)

    return CategoryFragment(name, base.objects, hom, {a: base.identity(a) for a in base.objects}, perturbed)


GONE = Morphism(1, 4, (4,))


def after_gone(g, f):
    """Whether the payloads g, f are a pair g after GONE: a payload (4,)
    followed by one with domain 4 runs 1 -> 4."""
    return f == GONE.payload and len(g) == 4


def wrong_identity(g, f):
    """Composing an initial segment 1..k, such as an identity, after a
    morphism out of 1 lands on 1."""
    if len(f) == 1 and g == tuple(range(1, len(g) + 1)):
        return (1,)
    return None


def wrong_after_gone(g, f):
    """Composition after the removed GONE lands on 1."""
    return (1,) if after_gone(g, f) else None


def raise_after_gone(g, f):
    if after_gone(g, f):
        raise ValidationError("not_closed", f"no composite recorded for {g} after {f}")
    return None


def plain_composites(n, dom):
    """dram(n) whose rule gives the composites out of ``dom`` as plain
    tuples: each equals a listed morphism but has another class, so
    ``in_hom`` refuses it."""
    base = dram_fragment(n)

    def rule(g, f):
        h = base.rule(g, f)
        return tuple(h) if f.dom == dom else h

    return CategoryFragment("plain-composites", base.objects, {pair: base.hom(*pair) for pair in base._hom},
                            {a: base.identity(a) for a in base.objects}, rule)


def law_fragments():
    missing_identity = {"id_a": ("a", "a"), "f": ("a", "a")}
    return [
        mutated_ram4(),
        # composites leave the hom-set: closure violations, and no
        # associativity is checked through them
        perturbed_ram(5, removed={GONE}, rule=wrong_after_gone, name="closure"),
        perturbed_ram(5, removed={GONE, *ram_fragment(5).hom(1, 5)}, rule=wrong_after_gone, name="outside"),
        perturbed_ram(5, rule=wrong_identity, name="identity"),
        # composing after the missing GONE would raise, but the check never
        # composes through a composite outside the fragment
        perturbed_ram(5, removed={GONE}, rule=raise_after_gone, name="raising"),
        explicit_fragment(["a"], missing_identity, {"a": "id_a"}, {("id_a", "id_a"): "id_a"}),
        explicit_fragment(["a"], missing_identity, {"a": "id_a"},
                          {("id_a", "id_a"): "id_a", ("f", "id_a"): "f", ("id_a", "f"): "f"}),
        twin_fragment(),
        ram_fragment(4),
        dram_fragment(4),
        dram_op_fragment(4),
        gr_fragment(WordContext(cycle_action(cyclic_group(2), "ab", [1, 0])), 3),
        vec_fragment(2, 3),
        thin_from_preorder(chain_preorder(4)),
        mutated_dram5(),
        misplaced_identity_fragment(),
        plain_composites(4, 4),
    ]


def test_validate_fragment_matches_triple_loops():
    for frag in law_fragments():
        for max_violations in (1, 5, 6, 10**6):
            expected = outcome(triple_loop_validate, frag, max_violations)
            assert isinstance(expected, FragmentLawReport), (frag.name, max_violations)
            assert outcome(validate_fragment, frag, max_violations) == expected, (frag.name, max_violations)
    full = [triple_loop_validate(frag, 10**6) for frag in law_fragments()[:4]]
    assert len(full[0].associativity_violations) > 5
    for report in full[1:3]:
        assert len(report.closure_violations) > 5 and not report.associativity_violations
    assert len(full[3].identity_violations) > 5
    # the closure report is cut at five before any associativity is checked
    cut = validate_fragment(law_fragments()[1])
    assert len(cut.closure_violations) == 5 and not cut.associativity_violations


def test_mutated_dram_table_fails_associativity_alone():
    report = triple_loop_validate(mutated_dram5(), 10**6)
    assert report.associativity_violations
    assert not report.identity_violations and not report.closure_violations


def test_validate_fragment_reports_composites_outside_the_fragment():
    # a composite outside the fragment, or one it does not record, is a
    # closure violation, and then no associativity is checked
    raising, *explicit = law_fragments()[4:7]
    for max_violations in (1, 5, 6, 10**6):
        report = validate_fragment(raising, max_violations)
        assert report == triple_loop_validate(raising, max_violations)
        assert report.closure_violations and not report.associativity_violations
        assert {v["composite"] for v in report.closure_violations} == {GONE}
    for frag in explicit:
        report = validate_fragment(frag, 10**6)
        assert report.closure_violations and not report.associativity_violations
        assert all(v["composite"] is None for v in report.closure_violations)


def counted_calls(frag):
    """Count the calls of ``frag``'s rule and of its ``compose``."""
    calls = {"rule": 0, "compose": 0}
    rule, compose = frag.rule, frag.compose

    def counting_rule(g, f):
        calls["rule"] += 1
        return rule(g, f)

    def counting_compose(g, f):
        calls["compose"] += 1
        return compose(g, f)

    frag.rule, frag.compose = counting_rule, counting_compose
    return calls


def test_validate_fragment_composes_each_pair_once(swap_context):
    # one rule call per composable pair, and two compose calls per morphism
    # for the identity laws
    for frag in [dram_fragment(6), ram_fragment(5), gr_fragment(swap_context, 3), mutated_ram4()]:
        objs = frag.objects
        pairs = sum(len(frag.hom(a, b)) * len(frag.hom(b, c)) for a, b, c in product(objs, repeat=3))
        calls = counted_calls(frag)
        assert validate_fragment(frag).ok == (frag.name != "mutated")
        identity_laws = 2 * frag.total_morphisms()
        assert calls == {"rule": identity_laws + pairs, "compose": identity_laws}, frag.name
    frag = dram_fragment(6)
    calls = counted_calls(frag)
    validate_fragment(frag)
    assert calls == {"rule": 3461, "compose": 556}


def test_explicit_fragment_missing_composite():
    morphs = {"id_a": ("a", "a"), "f": ("a", "a")}
    compose = {("id_a", "id_a"): "id_a"}
    frag = explicit_fragment(["a"], morphs, {"a": "id_a"}, compose)
    f = next(m for m in frag.hom("a", "a") if m.payload == "f")
    with pytest.raises(ValidationError) as err:
        frag.compose(f, f)
    assert err.value.code == "not_closed"


def test_explicit_fragment_composite_in_another_hom_set():
    # id_b after f: a -> b is recorded as id_a, a morphism of hom(a, a)
    morphs = {"id_a": ("a", "a"), "id_b": ("b", "b"), "f": ("a", "b")}
    compose = {("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b", ("f", "id_a"): "f", ("id_b", "f"): "id_a"}
    frag = explicit_fragment(["a", "b"], morphs, {"a": "id_a", "b": "id_b"}, compose)
    with pytest.raises(ValidationError) as err:
        frag.compose(frag.identity("b"), frag.hom("a", "b")[0])
    assert err.value.code == "not_closed" and "is not in hom(a, b)" in str(err.value)
    # the law check records it as a closure violation, and fails the left
    # identity law on f, instead of raising
    report = validate_fragment(frag)
    f = frag.hom("a", "b")[0]
    assert report.identity_violations == [{"morphism": f, "left": None, "right": f}]
    assert report.closure_violations == [{"g": frag.identity("b"), "f": f, "composite": None}]
    assert not report.associativity_violations
    with pytest.raises(KeyError):
        explicit_fragment(["a", "b"], morphs, {"a": "id_a", "b": "id_b"}, {("f", "id_a"): "h"})


def test_validate_fragment_does_not_compose_a_misplaced_identity():
    # composing f after f would raise compose_mismatch; the law check
    # reports the identity of b as missing and its side of each law as None
    frag = misplaced_identity_fragment()
    f, id_b = frag.hom("a", "b")[0], frag.hom("b", "b")[0]
    report = validate_fragment(frag)
    assert report.identity_violations == [
        {"object": "b", "reason": "identity missing from hom-set"},
        {"morphism": f, "left": None, "right": f},
        {"morphism": id_b, "left": None, "right": None},
    ]
    assert not report.closure_violations and not report.associativity_violations


def test_skeleton_collapses_isomorphic_objects():
    frag = twin_fragment()
    result = skeleton(frag)
    assert result.fragment.objects == ("a",)
    assert result.representative == {"a": "a", "b": "a"}
    eta_b = result.eta["b"]
    assert eta_b.dom == "b" and eta_b.cod == "a"
    # the chosen isomorphisms are two-sided inverses
    for obj in frag.objects:
        eta, inv = result.eta[obj], result.eta_inv[obj]
        assert frag.compose(inv, eta) == frag.identity(obj)
        assert frag.compose(eta, inv) == frag.identity(result.representative[obj])
    # skeleton of a skeleton is itself
    again = skeleton(result.fragment)
    assert fragment_equal(again.fragment, result.fragment)


def test_skeleton_preserves_hom_sizes():
    f = ram_fragment(4)
    result = skeleton(f)
    assert result.fragment.objects == f.objects  # chains are pairwise non-isomorphic
    for a in f.objects:
        for b in f.objects:
            assert len(result.fragment.hom(a, b)) == len(f.hom(a, b))


def test_structural_checks_on_ram():
    rep = structural_checks(ram_fragment(4))
    assert rep.all_mono
    assert not rep.is_thin
    assert rep.is_directed
    assert rep.hom_self_is_identity
    assert rep.iso_homs_match
    assert "is_directed" in rep.fragment_relative


def test_structural_checks_on_gr(swap_context):
    rep = structural_checks(gr_fragment(swap_context, 3))
    assert rep.all_mono
    assert rep.hom_self_is_identity


def test_dram_morphisms_epi_in_dram_iff_mono_in_op():
    from ramcat.category import is_mono

    d = dram_fragment(4)
    op = opposite(d)

    def is_epi(frag, f):
        for c in frag.objects:
            ms = frag.hom(f.cod, c)
            for i, g in enumerate(ms):
                for h in ms[i + 1:]:
                    if frag.compose(g, f) == frag.compose(h, f):
                        return False
        return True

    for m in d.morphisms():
        mirrored = next(x for x in op.hom(m.cod, m.dom) if x.payload == m.payload)
        assert is_epi(d, m) == is_mono(op, mirrored)


def pairwise_mono(frag, f):
    """Left cancellability by definition: no two distinct g, h in any
    hom(a, f.dom) with f.g = f.h."""
    for a in frag.objects:
        ms = frag.hom(a, f.dom)
        for i, g in enumerate(ms):
            for h in ms[i + 1:]:
                if frag.compose(f, g) == frag.compose(f, h):
                    return False
    return True


def idempotent_twins():
    """Two isomorphic objects over the monoid {1, e} with e.e = e: every
    hom(x, y) is {(x, y, 1), (x, y, e)}, composing multiplies the labels.
    The e-labelled morphisms are neither mono nor iso."""
    morphs = {f"{x}{y}{t}": (x, y) for x in "ab" for y in "ab" for t in "1e"}
    compose = {
        (f"{y}{z}{s}", f"{x}{y}{t}"): f"{x}{z}{'1' if s == t == '1' else 'e'}"
        for x in "ab" for y in "ab" for z in "ab" for s in "1e" for t in "1e"
    }
    return explicit_fragment(["a", "b"], morphs, {"a": "aa1", "b": "bb1"}, compose, name="twins")


def test_is_mono_matches_pairwise_definition(swap_context):
    from ramcat.category import is_mono

    frags = [
        dram_fragment(4),
        opposite(dram_fragment(4)),
        ram_fragment(4),
        gr_fragment(swap_context, 2),
        thin_from_preorder(chain_preorder(4)),
        idempotent_twins(),
    ]
    for frag in frags:
        monos = [is_mono(frag, m) for m in frag.morphisms()]
        assert monos == [pairwise_mono(frag, m) for m in frag.morphisms()], frag.name
    twins = idempotent_twins()
    assert {m.payload for m in twins.morphisms() if not is_mono(twins, m)} == {"aae", "abe", "bae", "bbe"}


def test_structural_checks_pins_non_mono_and_iso_witnesses():
    rep = structural_checks(dram_fragment(4))
    assert not rep.all_mono
    assert str(rep.non_mono_witness) == "2->1:(1,1)"
    assert validate_fragment(idempotent_twins()).ok
    rep = structural_checks(idempotent_twins())
    assert not rep.all_mono and not rep.is_thin
    assert str(rep.non_mono_witness) == "a->a:aae"
    assert not rep.iso_homs_match  # hom(a, b) holds the iso ab1 and the non-iso abe
    assert structural_checks(twin_fragment()).iso_homs_match


def test_structural_checks_read_each_hom_set_once(monkeypatch):
    # the mono test of every morphism reads the payloads of the hom-sets into
    # its domain, listed once per call for each domain, not once per morphism
    cases = [dram_op_fragment(6), dram_fragment(5), idempotent_twins(), gr_fragment(plain_context(), 4)]
    wanted = [next((m for m in frag.morphisms() if not is_mono(frag, m)), None) for frag in cases]
    listed = Counter()
    payloads_into = ramcat.category._payloads_into
    monkeypatch.setattr(ramcat.category, "_payloads_into",
                        lambda fragment, b: listed.update([b]) or payloads_into(fragment, b))
    for frag, witness in zip(cases, wanted):
        listed.clear()
        rep = structural_checks(frag)
        assert rep.non_mono_witness == witness and rep.all_mono == (witness is None), frag.name
        assert listed == Counter(frag.objects), frag.name
    assert wanted[0] is None and wanted[1] is not None and wanted[2] is not None


def test_words_surjections_fragment_isomorphism():
    grf, dop, on_m = dramop_word_functor(4, plain_context())
    result = check_fragment_isomorphism(grf, dop, on_m)
    assert result["ok"], result["failures"][:3]


def triple_loop_isomorphism(src, dst, on_morphism):
    """Oracle: the isomorphism check that maps g, f and g . f afresh for
    every composable pair."""
    failures = []
    bijective = True
    for a in src.objects:
        for b in src.objects:
            imgs = [on_morphism(m) for m in src.hom(a, b)]
            if len(set(imgs)) != len(imgs) or set(imgs) != set(dst.hom(a, b)):
                bijective = False
                failures.append({"pair": (a, b), "reason": "hom-set image is not a bijection"})
    identities = all(on_morphism(src.identity(a)) == dst.identity(a) for a in src.objects)
    comp_ok = True
    for a, b, c in product(src.objects, repeat=3):
        for f in src.hom(a, b):
            for g in src.hom(b, c):
                if on_morphism(src.compose(g, f)) != dst.compose(on_morphism(g), on_morphism(f)):
                    comp_ok = False
                    failures.append({"pair": (a, b, c), "f": f, "g": g})
    return {"bijective": bijective, "identities": identities, "composition": comp_ok,
            "ok": bijective and identities and comp_ok, "failures": failures}


def test_isomorphism_check_matches_triple_loop():
    # golden criterion 9's instance, and two broken maps on hom(2, 4): two
    # images swapped (still a bijection) and two images merged (not one)
    grf, dop, on_m = dramop_word_functor(5, plain_context())
    first, second = grf.hom(2, 4)[:2]
    maps = [on_m,
            lambda m: on_m(second if m == first else first if m == second else m),
            lambda m: on_m(first if m == second else m)]
    for on_morphism in maps:
        assert check_fragment_isomorphism(grf, dop, on_morphism) == triple_loop_isomorphism(grf, dop, on_morphism)
    assert check_fragment_isomorphism(grf, dop, maps[0])["ok"]
    assert not any(check_fragment_isomorphism(grf, dop, broken)["ok"] for broken in maps[1:])


def test_isomorphism_check_refuses_look_alike_images():
    # an image with a plain tuple payload equals a target morphism as a
    # tuple but is not one: a failed check, and no pair with it is composed
    grf, dop, on_m = dramop_word_functor(3, plain_context())

    def look_alike(m):
        return Morphism(m.dom, m.cod, tuple(word_to_rsurj(m.payload)))

    report = check_fragment_isomorphism(grf, dop, look_alike)
    assert not (report["ok"] or report["bijective"] or report["identities"] or report["composition"])
    stray = {"pair": (2, 3), "reason": "an image is not a morphism of the target hom-set"}
    assert stray in report["failures"]
    # one look-alike image: the pairs with it as a factor or as the composite fail
    impostor = grf.hom(2, 3)[1]
    report = check_fragment_isomorphism(grf, dop, lambda m: look_alike(m) if m == impostor else on_m(m))
    assert report["identities"] and not (report["ok"] or report["bijective"] or report["composition"])
    pairs = [{"pair": (a, b, c), "f": f, "g": g} for a, b, c in product(grf.objects, repeat=3)
             for f in grf.hom(a, b) for g in grf.hom(b, c) if impostor in (f, g, grf.compose(g, f))]
    assert report["failures"] == [stray] + pairs and len(pairs) == 3


def test_isomorphism_check_fails_composites_outside_the_target():
    # h is missing from the target: its image is not a target morphism, and
    # the target composes onto a payload it does not list; every pair with
    # h as a factor or as its composite fails
    src = ram_fragment(3)
    h = src.hom(1, 3)[1]
    report = check_fragment_isomorphism(src, perturbed_ram(3, removed={h}), lambda m: m)
    pairs = [{"pair": (a, b, c), "f": f, "g": g} for a, b, c in product(src.objects, repeat=3)
             for f in src.hom(a, b) for g in src.hom(b, c) if h in (f, g, src.compose(g, f))]
    stray = {"pair": (1, 3), "reason": "an image is not a morphism of the target hom-set"}
    assert report["failures"] == [stray] + pairs
    assert len(pairs) == 4


def test_skeleton_matches_no_identity_outside_its_hom_set():
    # 0 and 1 are isomorphic in the thin category of 0 <= 1 <= 0, but the
    # identity of 1 is given as the morphism 1 -> 0, which no composite
    # g∘f of f: 1 -> 0 and g: 0 -> 1 equals
    frag = thin_from_preorder(preorder_from_pairs(2, [(0, 1), (1, 0)]))
    assert skeleton(frag).representative == {0: 0, 1: 0}
    frag._identity[1] = frag.hom(1, 0)[0]
    assert skeleton(frag).representative == {0: 0, 1: 1}


def test_isomorphism_check_maps_each_morphism_once():
    grf, dop, on_m = dramop_word_functor(6, plain_context())
    calls = []
    report = check_fragment_isomorphism(grf, dop, lambda m: calls.append(m) or on_m(m))
    assert report["ok"]
    assert len(calls) == len(set(calls)) == grf.total_morphisms() == 278


def test_checks_read_the_rule_not_the_spelling():
    # two composites of g: 4 -> 5 after f: 3 -> 4 trade places in the rule of
    # dram-op(5); its spelling, which only the copy listing and verify_pa
    # read, still lists the true composites
    frag, fresh = dram_op_fragment(5), dram_op_fragment(5)
    rule = frag.rule
    pairs = [(g.payload, f.payload) for f in frag.hom(3, 4) for g in frag.hom(4, 5)]
    first, second = next((p, q) for i, p in enumerate(pairs) for q in pairs[i + 1:] if rule(*p) != rule(*q))
    swapped = {first: rule(*second), second: rule(*first)}
    frag.rule = lambda g, f: swapped[g, f] if (g, f) in swapped else rule(g, f)
    assert frag.spelling is not None
    every = range(frag.hom_size(4, 5))
    assert frag.columns(3, 4, 5, every, frag.hom(3, 4)) == fresh.columns(3, 4, 5, every, fresh.hom(3, 4))
    report = validate_fragment(frag)
    assert report.associativity_violations
    assert not (report.identity_violations or report.closure_violations)
    assert not fragment_equal(frag, fresh)
    assert fragment_equal(dram_op_fragment(5), fresh)


TABLES = {"ram(3)": tabulate(ram_fragment(3)), "dram(4)": tabulate(dram_fragment(4)),
          "twins": tabulate(idempotent_twins())}


@st.composite
def mutated_tables(draw):
    """A tabulated fragment, and a copy with one composite redirected to any
    morphism, or removed."""
    name = draw(st.sampled_from(sorted(TABLES)))
    morphisms, identities, compose = TABLES[name]
    objects = sorted({dom for dom, _ in morphisms.values()} | {cod for _, cod in morphisms.values()})
    mutated = dict(compose)
    key = draw(st.sampled_from(sorted(compose)))
    target = draw(st.none() | st.sampled_from(sorted(morphisms)))
    if target is None:
        del mutated[key]
    else:
        mutated[key] = target
    return (explicit_fragment(objects, morphisms, identities, compose, name=name),
            explicit_fragment(objects, morphisms, identities, mutated, name=name + "*"))


@settings(max_examples=200, deadline=None)
@given(mutated_tables(), st.sampled_from([1, 5, 10**6]))
def test_checks_match_the_triple_loops_on_mutated_tables(tables, max_violations):
    # the column readings report what the loops that compose every pair
    # afresh report, violation for violation, and raise where they raise
    table, mutated = tables
    for frag in tables:
        expected = outcome(triple_loop_validate, frag, max_violations)
        assert outcome(validate_fragment, frag, max_violations) == expected
    for src, dst in [(table, mutated), (mutated, table), (mutated, mutated)]:
        def same_id(m, dst=dst):
            return next(x for x in dst.hom(m.dom, m.cod) if x.payload == m.payload)

        expected = outcome(lambda s, d: triple_loop_isomorphism(s, d, same_id), src, dst)
        assert outcome(lambda s, d: check_fragment_isomorphism(s, d, same_id), src, dst) == expected


@pytest.mark.parametrize("check", [structural_checks, lambda frag: fragment_equal(frag, ram_fragment(12))],
                         ids=["structural_checks", "fragment_equal"])
def test_structure_and_equality_refuse_over_the_triple_cap(check):
    # ram(12)'s 21,572,460 composable triples are counted from hom-set sizes
    # and refused before any pair is composed
    started = time.perf_counter()
    with pytest.raises(ResourceBound, match="21572460 composable triples"):
        check(ram_fragment(12))
    assert time.perf_counter() - started < 1.0


def test_hom_cap_resource_bound(plain_z2_context, monkeypatch):
    monkeypatch.setattr(ramcat.category, "DEFAULT_HOM_CAP", 100)
    with pytest.raises(ResourceBound):
        gr_fragment(plain_z2_context, 8)


def test_fragment_from_spec_builders(swap_context):
    frag = fragment_from_spec({"builder": "ram", "params": {"n": 3}})
    assert frag.objects == (1, 2, 3)
    frag = fragment_from_spec({"builder": "gr", "params": {"n": 2}}, swap_context)
    assert frag.total_morphisms() > 0
    with pytest.raises(ValidationError):
        fragment_from_spec({"builder": "nope"})
    with pytest.raises(ValidationError):
        fragment_from_spec({"builder": "gr", "params": {"n": 2}})


def test_fragment_from_spec_explicit_tables():
    spec = {
        "objects": ["a"],
        "morphisms": {"id_a": {"dom": "a", "cod": "a"}},
        "identities": {"a": "id_a"},
        "compose": [["id_a", "id_a", "id_a"]],
    }
    frag = fragment_from_spec(spec)
    assert validate_fragment(frag).ok
