from collections import Counter

import pytest

from ramcat import (
    Morphism,
    PreAdjunction,
    ValidationError,
    WordContext,
    build_nonthin_sequence,
    chain_preorder,
    check_card_inequality,
    compose_pa,
    cyclic_group,
    dram_op_fragment,
    dual,
    format_word,
    identity_pa,
    pa_from_functor,
    pa_from_monotone_tukey,
    pa_gr_decorated_to_plain,
    pa_gr_plain_to_decorated,
    pa_gr_to_dramop,
    pa_omega_to_nonthin,
    pa_ram_to_dramop,
    parse_word,
    ram_fragment,
    recheck_failures,
    skeleton,
    thin_from_preorder,
    trivial_action,
    validate_word,
    verify_pa,
)
from ramcat.category import explicit_fragment


def twin_fragment():
    morphs = {"id_a": ("a", "a"), "id_b": ("b", "b"), "f": ("a", "b"), "g": ("b", "a")}
    compose = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
        ("f", "id_a"): "f", ("id_b", "f"): "f",
        ("g", "id_b"): "g", ("id_a", "g"): "g",
        ("g", "f"): "id_a", ("f", "g"): "id_b",
    }
    return explicit_fragment(["a", "b"], morphs, {"a": "id_a", "b": "id_b"}, compose, name="twin")


def broken_phi_pa():
    f3 = ram_fragment(3)
    return PreAdjunction("broken-phi", f3, f3, lambda x: x, lambda y: y,
                         lambda x, y, u: f3.hom(x, y)[0])


# --- verifier basics -----------------------------------------------------------

def test_identity_pa_verifies():
    pa = identity_pa(ram_fragment(3))
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    assert report.ok and report.instances == 25
    assert report.suggested_hits == report.suggested_tried == report.instances


def test_broken_phi_fails_and_failures_are_rechecked():
    pa = broken_phi_pa()
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    assert report.failures
    assert recheck_failures(pa, report)


def test_witnesses_satisfy_transport_equation():
    pa = pa_ram_to_dramop(3)
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3, 4])
    assert report.ok
    src, tgt = pa.source, pa.target
    for w in report.witnesses:
        lhs = src.compose(pa.phi(w["B"], w["C"], w["u"]), w["f"])
        rhs = pa.phi(w["A"], w["C"], tgt.compose(w["u"], w["v"]))
        assert lhs == rhs


def test_object_not_in_fragment_raises():
    pa = pa_ram_to_dramop(3)
    with pytest.raises(ValidationError) as err:
        verify_pa(pa, [1, 2, 3], [1, 2, 3, 4, 9])
    assert err.value.code == "object_not_in_fragment"


def test_phi_off_its_hom_set_is_a_landing_failure():
    f3 = ram_fragment(3)
    # the right payload under the wrong codomain is not in hom(X, H(Y))
    pa = PreAdjunction("off-by-one-cod", f3, f3, lambda x: x, lambda y: y,
                       lambda x, y, u: Morphism(x, y + 1, u.payload))
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    assert not report.ok and not report.failures and report.instances == 0
    assert len(report.phi_landing_failures) == 33
    first = report.phi_landing_failures[0]
    assert first["phi"] == Morphism(1, 2, first["u"].payload)


@pytest.mark.parametrize("wrong_v", [
    lambda a, b, f: Morphism(0, b, None),  # a member of hom(0, B), not of hom(A, B)
    lambda a, b, f: Morphism(a, b, "foreign"),  # right ends, not a member
])
def test_suggested_witness_off_its_hom_set_is_not_accepted(wrong_v):
    # thin composition ignores payloads and this phi ignores u, so either
    # suggestion would satisfy the transport equation if it were accepted
    thin = thin_from_preorder(chain_preorder(4))
    pa = PreAdjunction("thin-identity", thin, thin, lambda x: x, lambda y: y,
                       lambda x, y, u: Morphism(x, y, None), suggested_v=wrong_v)
    report = verify_pa(pa, range(1, 4), range(4))
    assert report.ok and report.instances > 0
    assert report.suggested_tried == report.instances and report.suggested_hits == 0
    for w in report.witnesses:
        assert not w["suggested"] and w["v"] == Morphism(w["A"], w["B"], None)


@pytest.mark.parametrize("make_pa", [
    lambda ctx: pa_gr_plain_to_decorated(ctx, 3),
    lambda ctx: broken_phi_pa(),  # no suggested witness: every instance scans
])
def test_phi_evaluated_once_per_argument(make_pa, swap_context):
    pa = make_pa(swap_context)
    plain = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    calls = Counter()
    phi = pa.phi

    def counting_phi(x, y, u):
        calls[(x, y, u)] += 1
        return phi(x, y, u)

    pa.phi = counting_phi
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    assert calls and max(calls.values()) == 1
    assert (report.instances, report.failures, report.witnesses) == (
        plain.instances, plain.failures, plain.witnesses)


# --- word-category reductions ----------------------------------------------------

def test_plain_to_decorated_phi_strips(swap_context):
    pa = pa_gr_plain_to_decorated(swap_context, 3)
    u = parse_word("a x1 b x1^g", swap_context)
    stripped = pa.phi(1, 4, Morphism(1, 4, u))
    assert format_word(stripped.payload) == "x1 x1 x1 x1"


def test_plain_to_decorated_strip_is_identity_on_plain_words():
    z2 = cyclic_group(2)
    ctx = WordContext(trivial_action(z2))
    pa = pa_gr_plain_to_decorated(ctx, 3)
    for k, n in [(1, 2), (2, 3)]:
        for m in pa.target.hom(k, n):
            if all(exp == 0 for _, _, exp in m.payload.tokens):
                assert pa.phi(k, n, m).payload.tokens == m.payload.tokens


def test_plain_to_decorated_verifies(swap_context):
    pa = pa_gr_plain_to_decorated(swap_context, 3)
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    assert report.ok and report.instances > 0
    assert report.suggested_hits == report.suggested_tried


def test_decorated_to_plain_phi_normalizes_letters(swap_context):
    from ramcat.words import LETTER

    pa = pa_gr_decorated_to_plain(swap_context, 4)
    # pick a target word decorating an alphabet variable with the swap element
    target_word = next(
        m for m in pa.target.hom(3, 4)
        if any(idx <= 2 and exp != 0 for _, idx, exp in m.payload.tokens)
    )
    decorated_pos = next(
        i for i, (_, idx, exp) in enumerate(target_word.payload.tokens)
        if idx <= 2 and exp != 0
    )
    image = pa.phi(1, 4, target_word)
    tokens = image.payload.tokens
    assert any(tok[0] == LETTER for tok in tokens)
    assert all(exp == 0 for kind, _, exp in tokens if kind == LETTER)
    # the decorated occurrence resolved through the action: a^g = b, b^g = a
    kind, letter_idx, _ = tokens[decorated_pos]
    src_idx = target_word.payload.tokens[decorated_pos][1] - 1
    assert kind == LETTER and letter_idx == 1 - src_idx


def test_decorated_to_plain_suggested_witness_shape(one_letter_context):
    pa = pa_gr_decorated_to_plain(one_letter_context, 4)
    f = next(m for m in pa.source.hom(1, 2))
    v = pa.suggested_v(1, 2, f)
    assert v.payload.tokens[0] == (0, 1, 0)  # the alphabet block leads
    assert v.payload.m == 2 and v.payload.n == 3


def test_decorated_to_plain_verifies(swap_context):
    pa = pa_gr_decorated_to_plain(swap_context, 5)
    report = verify_pa(pa, [1, 2], [1, 2, 3, 4, 5])
    assert report.ok and report.instances > 0


def test_gr_to_dramop_worked_witness():
    z3 = cyclic_group(3)
    ctx = WordContext(trivial_action(z3))
    pa = pa_gr_to_dramop(ctx, 5, 6)
    f = parse_word("x1 x1^g2 x2 x1^g x2^g2", ctx)
    v = pa.suggested_v(2, 5, Morphism(2, 5, f))
    surj = v.payload
    assert surj.dom == 15 and surj.cod == 6

    def pos(i, g):
        return (i - 1) * 3 + g + 1

    assert surj.image[pos(2, 0) - 1] == pos(1, 2)
    assert surj.image[pos(2, 1) - 1] == pos(1, 0)
    assert surj.image[pos(2, 2) - 1] == pos(1, 1)
    assert surj.image[pos(4, 0) - 1] == pos(1, 1)
    assert surj.image[pos(5, 1) - 1] == pos(2, 0)


def test_gr_to_dramop_phi_outputs_valid_words(plain_z2_context):
    pa = pa_gr_to_dramop(plain_z2_context, 4, 4)
    for c_obj in [2, 3, 4]:
        for u in pa.target.hom(2, c_obj):
            w = pa.phi(1, c_obj, u)
            assert w.payload.m == 1
            assert validate_word(w.payload.tokens, w.payload.m, plain_z2_context) == w.payload


def test_gr_to_dramop_verifies(plain_z2_context):
    pa = pa_gr_to_dramop(plain_z2_context, 6, 6)
    report = verify_pa(pa, [1, 2], [1, 2, 3, 4, 5, 6])
    assert report.ok and report.instances > 0
    assert report.suggested_hits == report.suggested_tried


def test_gr_to_dramop_rejects_alphabets(swap_context):
    with pytest.raises(ValidationError):
        pa_gr_to_dramop(swap_context, 3, 3)


def test_gr_to_dramop_with_z3_verifies():
    ctx = WordContext(trivial_action(cyclic_group(3)))
    pa = pa_gr_to_dramop(ctx, 6, 6)
    report = verify_pa(pa, [1, 2], list(range(1, 7)))
    assert report.ok and report.instances > 0
    assert report.suggested_hits == report.suggested_tried


def test_gr_to_dramop_respects_custom_element_order():
    from ramcat import validate_group

    # Z3 with the two non-neutral elements listed in reversed order; the
    # product-chain encoding must follow it
    z3 = validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]], element_order=(0, 2, 1))
    ctx = WordContext(trivial_action(z3))
    pa = pa_gr_to_dramop(ctx, 6, 6)
    report = verify_pa(pa, [1, 2], list(range(1, 7)))
    assert report.ok and report.instances > 0


def test_ram_to_dramop_verifies_and_counts():
    pa = pa_ram_to_dramop(4)
    report = verify_pa(pa, [1, 2, 3, 4], [1, 2, 3, 4, 5])
    assert report.ok and report.instances > 0
    card = check_card_inequality(pa, [1, 2, 3, 4])
    assert card.ok


def test_ram_to_dramop_phi_inverts_minima():
    pa = pa_ram_to_dramop(3)
    for u in pa.target.hom(3, 4):  # rigid surjections 4 -> 3
        image = pa.phi(2, 4, u)
        d = dual(u.payload)
        assert image.payload == tuple(v - 1 for v in d[1:])


# --- composition -------------------------------------------------------------------

def test_compose_with_identity_agrees_pointwise(swap_context):
    pa = pa_gr_plain_to_decorated(swap_context, 3)
    composed = compose_pa(identity_pa(pa.source), pa)
    for x in (1, 2, 3):
        assert composed.F(x) == pa.F(x)
        assert composed.H(x) == pa.H(x)
    for c_obj in (1, 2, 3):
        for u in pa.target.hom(2, c_obj):
            assert composed.phi(2, c_obj, u) == pa.phi(2, c_obj, u)


def test_compose_two_reductions(swap_context):
    pa1 = pa_gr_plain_to_decorated(swap_context, 5)
    pa2 = pa_gr_decorated_to_plain(swap_context, 5, source=pa1.target)
    comp = compose_pa(pa1, pa2)
    report = verify_pa(comp, [1, 2], [1, 2, 3, 4, 5])
    assert report.ok and report.instances > 0


def test_compose_three_reductions(one_letter_context_z2=None):
    z2 = cyclic_group(2)
    one = WordContext(trivial_action(z2, "a"))
    plain_z2 = WordContext(trivial_action(z2))
    pa1 = pa_gr_plain_to_decorated(one, 6)
    pa2 = pa_gr_decorated_to_plain(one, 6, source=pa1.target)
    chain2 = compose_pa(pa1, pa2)
    pa3 = pa_gr_to_dramop(plain_z2, 6, 6, source=chain2.target)
    full = compose_pa(chain2, pa3)
    report = verify_pa(full, [1, 2], list(range(1, 7)))
    assert report.ok and report.instances > 50


def test_compose_fragment_mismatch(swap_context):
    pa1 = pa_gr_plain_to_decorated(swap_context, 3)
    pa2 = pa_gr_decorated_to_plain(swap_context, 4)
    with pytest.raises(ValidationError) as err:
        compose_pa(pa1, pa2)
    assert err.value.code == "fragment_mismatch"


# --- functor-induced pre-adjunctions --------------------------------------------------

def test_identity_functor_gives_identity_like_pa():
    f3 = ram_fragment(3)
    pa = pa_from_functor(f3, f3, {x: x for x in f3.objects}, lambda m: m)
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    assert report.ok


def test_skeleton_inclusion_functor():
    frag = twin_fragment()
    sk = skeleton(frag)
    pa = pa_from_functor(frag, sk.fragment, {x: x for x in sk.fragment.objects}, lambda m: m)
    report = verify_pa(pa, ["a", "b"], list(sk.fragment.objects))
    assert report.ok and report.instances > 0


def test_minima_functor_is_not_full():
    """Reading minima of preimages always fixes the first point, so the
    point-shifting injections have no preimage; the identity-on-objects
    route is rejected and the shifted construction is the honest fix."""
    dop = dram_op_fragment(3)
    ram3 = ram_fragment(3)

    def dmor(m):
        return Morphism(m.dom, m.cod, dual(m.payload))

    with pytest.raises(ValidationError) as err:
        pa_from_functor(ram3, dop, {x: x for x in dop.objects}, dmor)
    assert err.value.code == "not_full"
    # the cardinality obstruction confirms no identity-object-map family exists
    bad = PreAdjunction("raw", ram3, dop, lambda x: x, lambda y: y,
                        lambda x, y, u: Morphism(x, y, dual(u.payload)))
    card = check_card_inequality(bad, [1, 2])
    assert not card.ok


def test_non_functor_rejected():
    f3 = ram_fragment(3)
    swapped = {f3.hom(1, 3)[0]: f3.hom(1, 3)[1], f3.hom(1, 3)[1]: f3.hom(1, 3)[0]}

    def transpose(m):
        return swapped.get(m, m)

    with pytest.raises(ValidationError) as err:
        pa_from_functor(f3, f3, {x: x for x in f3.objects}, transpose)
    assert err.value.code == "not_functor"


def test_collapse_functor_is_lawful_but_not_full():
    f3 = ram_fragment(3)

    def collapse(m):
        return f3.identity(m.dom) if m.dom == m.cod else f3.hom(m.dom, m.cod)[0]

    with pytest.raises(ValidationError) as err:
        pa_from_functor(f3, f3, {x: x for x in f3.objects}, collapse)
    assert err.value.code == "not_full"


# --- thin sources ---------------------------------------------------------------------

def test_build_nonthin_sequence_on_chains():
    seq = build_nonthin_sequence(ram_fragment(6), 3)
    assert seq.objects == [2, 3, 6]
    assert seq.seed == (1, 2)
    assert not seq.exhausted
    assert all(c["forward_at_least_two"] and c["reverse_empty"] for c in seq.certificates)


def test_build_nonthin_sequence_exhausts_fragment():
    seq = build_nonthin_sequence(ram_fragment(6), 5)
    assert seq.exhausted and seq.objects == [2, 3, 6]
    small = build_nonthin_sequence(ram_fragment(3), 3)
    assert small.exhausted and small.objects == [2, 3]


def test_build_nonthin_sequence_thin_fragment():
    with pytest.raises(ValidationError) as err:
        build_nonthin_sequence(thin_from_preorder(chain_preorder(4)), 3)
    assert err.value.code == "fragment_thin"


def test_omega_embedding_verifies():
    f6 = ram_fragment(6)
    pa = pa_omega_to_nonthin(f6, [2, 3, 4, 5, 6])
    report = verify_pa(pa, [0, 1, 2, 3, 4], list(range(1, 7)))
    assert report.ok
    assert pa.H(1) == 0  # nothing in the sequence maps into the 1-chain
    assert pa.H(5) == 3


def test_omega_embedding_rejects_slack_sequences():
    f6 = ram_fragment(6)
    with pytest.raises(ValidationError) as err:
        pa_omega_to_nonthin(f6, [2, 2, 3])
    assert err.value.code == "sequence_not_strict"
    with pytest.raises(ValidationError) as err:
        pa_omega_to_nonthin(f6, [3, 2])
    assert err.value.code == "sequence_not_strict"


def test_monotone_tukey_pa():
    p = chain_preorder(11)
    q = chain_preorder(21)
    f = [2 * x for x in range(11)]
    g = [y // 2 for y in range(21)]
    pa = pa_from_monotone_tukey(p, q, f, g)
    report = verify_pa(pa, list(range(11)), list(range(21)))
    assert report.ok

    ident = pa_from_monotone_tukey(p, p, list(range(11)), list(range(11)))
    assert verify_pa(ident, list(range(11)), list(range(11))).ok

    bad_f = list(f)
    bad_f[3], bad_f[4] = bad_f[4], bad_f[3]
    with pytest.raises(ValidationError) as err:
        pa_from_monotone_tukey(p, q, bad_f, g)
    assert err.value.code == "not_monotone"

    bad_g = [0] * 21
    with pytest.raises(ValidationError) as err:
        pa_from_monotone_tukey(p, q, f, bad_g)
    assert err.value.code == "implication_fails"


# --- cardinality diagnostic --------------------------------------------------------------

def test_cardinality_equality_for_identity():
    pa = identity_pa(ram_fragment(3))
    report = check_card_inequality(pa, [1, 2, 3])
    assert report.ok
    assert all(e["target_count"] == e["source_count"] for e in report.pairs)


def test_cardinality_counts_for_gr_to_dramop(plain_z2_context):
    pa = pa_gr_to_dramop(plain_z2_context, 4, 4)
    report = check_card_inequality(pa, [1, 2])
    entry = next(e for e in report.pairs if e["A"] == 1 and e["B"] == 2)
    assert entry["source_count"] == 2
    assert entry["target_count"] == 7


def test_cardinality_violation_flagged_and_pa_fails():
    src = ram_fragment(2)
    tgt = thin_from_preorder(chain_preorder(2))
    bad = PreAdjunction("broken-thin", src, tgt, lambda x: x - 1, lambda y: y + 1,
                        lambda x, y, u: src.hom(x, y + 1)[0])
    card = check_card_inequality(bad, [1, 2])
    assert not card.ok and card.violations
    report = verify_pa(bad, [1, 2], [0, 1])
    assert not report.ok
    assert recheck_failures(bad, report)


def test_cardinality_requires_mono_source():
    # a thin source with a collapsed composition keeps morphisms mono, so
    # build a genuinely non-mono source: two parallel arrows merged by a third
    morphs = {
        "id_a": ("a", "a"), "id_b": ("b", "b"), "id_c": ("c", "c"),
        "p": ("a", "b"), "q": ("a", "b"), "r": ("b", "c"),
        "rp": ("a", "c"),
    }
    compose = {
        ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b", ("id_c", "id_c"): "id_c",
        ("p", "id_a"): "p", ("id_b", "p"): "p",
        ("q", "id_a"): "q", ("id_b", "q"): "q",
        ("r", "id_b"): "r", ("id_c", "r"): "r",
        ("rp", "id_a"): "rp", ("id_c", "rp"): "rp",
        ("r", "p"): "rp", ("r", "q"): "rp",
    }
    frag = explicit_fragment(["a", "b", "c"], morphs,
                             {"a": "id_a", "b": "id_b", "c": "id_c"}, compose, name="merge")
    pa = identity_pa(frag)
    with pytest.raises(ValidationError) as err:
        check_card_inequality(pa, ["a", "b", "c"])
    assert err.value.code == "source_not_mono"
