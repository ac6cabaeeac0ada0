from collections import Counter
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcat import (
    BudgetExceeded,
    Morphism,
    PAReport,
    PreAdjunction,
    RamcatError,
    ValidationError,
    WordContext,
    build_nonthin_sequence,
    chain_preorder,
    check_card_inequality,
    compose_pa,
    cycle_action,
    cyclic_group,
    dram_fragment,
    dram_op_fragment,
    dual,
    format_word,
    fragment_equal,
    gr_fragment,
    identity_pa,
    named_pa,
    pa_from_monotone_tukey,
    pa_gr_decorated_to_plain,
    pa_gr_plain_to_decorated,
    pa_gr_to_dramop,
    pa_omega_to_nonthin,
    pa_ram_to_dramop,
    parse_word,
    plain_context,
    ram_fragment,
    recheck_failures,
    thin_from_preorder,
    trivial_action,
    validate_word,
    verify_pa,
)
import ramcat.preadjunction
from ramcat.category import explicit_fragment
from ramcat.words import LETTER, PARAM, DecoratedWord
from conftest import first_occurrences_swapped


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


def swap():
    return WordContext(cycle_action(cyclic_group(2), "ab", [1, 0]))


def plain(order):
    return WordContext(trivial_action(cyclic_group(order)))


def composed_swap():
    pa1 = pa_gr_plain_to_decorated(swap(), 6)
    return compose_pa(pa1, pa_gr_decorated_to_plain(swap(), 6, source=pa1.target))


def composed_three():
    one_letter = WordContext(trivial_action(cyclic_group(2), "a"))
    q1 = pa_gr_plain_to_decorated(one_letter, 6)
    chain = compose_pa(q1, pa_gr_decorated_to_plain(one_letter, 6, source=q1.target))
    return compose_pa(chain, pa_gr_to_dramop(plain(2), 6, 6, source=chain.target))


CHAINS = list(range(1, 7))
# (name, construction, source objects, target objects): every shipped
# construction whose target has a spelling, at the benchmark's bounds
SPELLED = [
    ("gr-plain-to-decorated swap 3", lambda: pa_gr_plain_to_decorated(swap(), 3), [1, 2, 3], [1, 2, 3]),
    ("gr-plain-to-decorated swap 5", lambda: pa_gr_plain_to_decorated(swap(), 5), [1, 2, 3, 4, 5],
     [1, 2, 3, 4, 5]),
    ("gr-decorated-to-plain swap 6", lambda: pa_gr_decorated_to_plain(swap(), 6), [1, 2], CHAINS),
    ("gr-to-dram-op Z2 6", lambda: pa_gr_to_dramop(plain(2), 6, 6), [1, 2], CHAINS),
    ("gr-to-dram-op Z2 7", lambda: pa_gr_to_dramop(plain(2), 7, 7), [1, 2], list(range(1, 8))),
    ("gr-to-dram-op Z3 6", lambda: pa_gr_to_dramop(plain(3), 6, 6), [1, 2], CHAINS),
    ("ram-to-dram-op 4", lambda: pa_ram_to_dramop(4), [1, 2, 3, 4], [1, 2, 3, 4, 5]),
    ("ram-to-dram-op 6", lambda: pa_ram_to_dramop(5), [1, 2, 3, 4, 5], CHAINS),
    ("composed swap 6", composed_swap, [1, 2], CHAINS),
    ("composed three factors 6", composed_three, [1, 2], CHAINS),
]
# the shipped constructions whose target is read through its rule
RULED = [
    ("identity ram(3)", lambda: identity_pa(ram_fragment(3)), [1, 2, 3], [1, 2, 3]),
    ("omega-to-fragment", lambda: pa_omega_to_nonthin(ram_fragment(6), [2, 3, 4, 5, 6]), [0, 1, 2, 3, 4], CHAINS),
    ("from-monotone-tukey", lambda: pa_from_monotone_tukey(chain_preorder(11), chain_preorder(21),
                                                           [2 * x for x in range(11)],
                                                           [y // 2 for y in range(21)]),
     list(range(11)), list(range(21))),
]


def test_witnesses_satisfy_transport_equation():
    """Each witness, read from a column over the target's spelling, is
    recomposed through ``compose`` and phi is evaluated afresh."""
    for name, build, source_objects, target_objects in SPELLED:
        pa = build()
        assert pa.target.spelling is not None, name
        report = verify_pa(pa, source_objects, target_objects)
        assert report.ok and report.witnesses, name
        src, tgt = pa.source, pa.target
        for w in report.witnesses:
            lhs = src.compose(pa.phi(w["B"], w["C"], w["u"]), w["f"])
            rhs = pa.phi(w["A"], w["C"], tgt.compose(w["u"], w["v"]))
            assert lhs == rhs, (name, w)


# --- the per-instance oracle ---------------------------------------------------

def verify_pa_per_instance(pa, source_objects, target_objects, max_instances=2_000_000):
    """The transport check one instance at a time: per instance it composes
    phi(B, C, u) after f and u after each tried v through ``compose`` and
    looks phi up by its arguments.  ``verify_pa`` must give the same report,
    raise the same error and evaluate phi on the same arguments."""
    report = PAReport(pa.name, list(source_objects), list(target_objects))
    src, tgt = pa.source, pa.target
    phi = cache(pa.phi)
    for b_obj in source_objects:
        fb = pa.F(b_obj)
        landed: dict = {}
        for a_obj in source_objects:
            fa = pa.F(a_obj)
            candidates = tgt.hom(fa, fb)
            fs = src.hom(a_obj, b_obj)
            suggested: list = []
            for c_obj in target_objects:
                hc = pa.H(c_obj)
                phis = landed.setdefault(c_obj, [])
                for ui, u in enumerate(tgt.hom(fb, c_obj)):
                    if ui == len(phis):
                        phi_u = phi(b_obj, c_obj, u)
                        if not src.in_hom(phi_u, b_obj, hc):
                            report.phi_landing_failures.append({"X": b_obj, "Y": c_obj, "u": u, "phi": phi_u})
                            phi_u = None
                        phis.append(phi_u)
                    phi_u = phis[ui]
                    if phi_u is None:
                        continue
                    for fi, f in enumerate(fs):
                        report.instances += 1
                        if report.instances > max_instances:
                            raise BudgetExceeded("pa_instances", max_instances)
                        lhs = src.compose(phi_u, f)
                        witness = None
                        used_suggested = False
                        if pa.suggested_v is not None:
                            report.suggested_tried += 1
                            if fi == len(suggested):
                                v = pa.suggested_v(a_obj, b_obj, f)
                                suggested.append(v if tgt.in_hom(v, fa, fb) else None)
                            v = suggested[fi]
                            if v is not None and phi(a_obj, c_obj, tgt.compose(u, v)) == lhs:
                                witness = v
                                used_suggested = True
                                report.suggested_hits += 1
                        if witness is None:
                            for v in candidates:
                                if phi(a_obj, c_obj, tgt.compose(u, v)) == lhs:
                                    witness = v
                                    break
                        if witness is None:
                            report.failures.append({"A": a_obj, "B": b_obj, "C": c_obj, "u": u, "f": f})
                        else:
                            report.witnesses.append({"A": a_obj, "B": b_obj, "C": c_obj, "u": u, "f": f,
                                                     "v": witness, "suggested": used_suggested})
    return report


def outcome(verify, pa, source_objects, target_objects, **kwargs):
    """What ``verify`` answers, the phi arguments it evaluates with their
    counts, and the suggested-v arguments it draws with theirs.  An error
    counts as its class, message, code and data."""
    phi_calls, suggested_calls = Counter(), Counter()

    def counting_phi(x, y, u):
        phi_calls[x, y, u] += 1
        return pa.phi(x, y, u)

    def counting_suggested(a, b, f):
        suggested_calls[a, b, f] += 1
        return pa.suggested_v(a, b, f)

    counted = replace(pa, phi=counting_phi,
                      suggested_v=None if pa.suggested_v is None else counting_suggested)
    try:
        answer = verify(counted, source_objects, target_objects, **kwargs)
    except RamcatError as exc:
        answer = (type(exc), str(exc), getattr(exc, "code", None), getattr(exc, "data", None))
    return answer, phi_calls, suggested_calls


def assert_matches_oracle(pa, source_objects, target_objects, **kwargs):
    """``verify_pa`` agrees with the oracle, classes of the recorded values
    included (``repr`` tells a morphism from an equal tuple).  When both
    finish, it evaluates phi and the suggested v once per argument the
    oracle evaluates; before an error the two may have evaluated different
    arguments."""
    got = outcome(verify_pa, pa, source_objects, target_objects, **kwargs)
    want = outcome(verify_pa_per_instance, pa, source_objects, target_objects, **kwargs)
    assert got[0] == want[0] and repr(got[0]) == repr(want[0])
    if isinstance(got[0], PAReport):
        assert got[1].keys() == want[1].keys() and set(got[1].values()) <= {1}
        assert got[2].keys() == want[2].keys() and set(got[2].values()) <= {1}
    return got[0]


@pytest.mark.parametrize("build, source_objects, target_objects",
                         [case[1:] for case in SPELLED + RULED], ids=[case[0] for case in SPELLED + RULED])
def test_shipped_constructions_match_the_oracle(build, source_objects, target_objects):
    report = assert_matches_oracle(build(), source_objects, target_objects)
    assert report.ok and report.instances > 0


def collapsed(fragment, choice, name="collapsed", as_tuple=frozenset(), suggested_v=None):
    """The identity maps on ``fragment`` with phi collapsing each hom(X, Y)
    onto its member ``choice[X, Y]``, returned as a plain tuple for the pairs
    in ``as_tuple``."""
    def phi(x, y, u):
        m = fragment.hom(x, y)[choice[x, y]]
        return tuple(m) if (x, y) in as_tuple else m

    return PreAdjunction(name, fragment, fragment, lambda x: x, lambda y: y, phi, suggested_v=suggested_v)


def broken_thin_pa(choice):
    """ram(2) into the thin chain 0 <= 1, phi collapsing hom(1, 2) onto its
    member ``choice``: |hom(1, 2)| = 2 > 1, so the transport condition fails."""
    src = ram_fragment(2)
    tgt = thin_from_preorder(chain_preorder(2))
    return PreAdjunction("broken-thin", src, tgt, lambda x: x - 1, lambda y: y + 1,
                         lambda x, y, u: src.hom(x, y + 1)[choice if (x, y) == (1, 1) else 0])


@pytest.mark.parametrize("choice", [0, 1])
def test_broken_thin_matches_the_oracle(choice):
    report = assert_matches_oracle(broken_thin_pa(choice), [1, 2], [0, 1])
    assert report.failures and report.instances == 5


@pytest.mark.parametrize("picks", [{}, {(1, 2): 1, (1, 3): 2, (2, 3): 1}])
def test_broken_phi_matches_the_oracle(picks):
    f3 = ram_fragment(3)
    choice = {(x, y): picks.get((x, y), 0) for x in range(1, 4) for y in range(x, 4)}
    pa = collapsed(f3, choice, "broken-phi")
    report = assert_matches_oracle(pa, [1, 2, 3], [1, 2, 3])
    assert report.failures and report.instances == 25


def test_phi_returning_a_plain_tuple_matches_the_oracle():
    f3 = dram_fragment(3)
    pa = PreAdjunction("tuple-phi", f3, f3, lambda x: x, lambda y: y,
                       lambda x, y, u: tuple(u) if x > y else u,
                       suggested_v=lambda a, b, f: f)
    report = assert_matches_oracle(pa, [1, 2, 3], [1, 2, 3])
    assert report.phi_landing_failures and report.witnesses


@pytest.mark.parametrize("wrong_v", [
    lambda a, b, f: Morphism(0, b, None),
    lambda a, b, f: Morphism(a, b, "foreign"),
])
def test_suggested_witness_off_its_hom_set_matches_the_oracle(wrong_v):
    thin = thin_from_preorder(chain_preorder(4))
    pa = PreAdjunction("thin-identity", thin, thin, lambda x: x, lambda y: y,
                       lambda x, y, u: Morphism(x, y, None), suggested_v=wrong_v)
    report = assert_matches_oracle(pa, range(1, 4), range(4))
    assert report.suggested_tried == report.instances > 0 and report.suggested_hits == 0


def open_fragment(missing):
    """Objects a, b with an idempotent e on a and one arrow g: a -> b; every
    composite is recorded but ``missing``."""
    morphisms = {"id_a": ("a", "a"), "e": ("a", "a"), "id_b": ("b", "b"), "g": ("a", "b")}
    table = {("id_a", "id_a"): "id_a", ("id_a", "e"): "e", ("e", "id_a"): "e", ("e", "e"): "e",
             ("id_b", "id_b"): "id_b", ("id_b", "g"): "g", ("g", "id_a"): "g", ("g", "e"): "g"}
    del table[missing]
    return explicit_fragment(["a", "b"], morphisms, {"a": "id_a", "b": "id_b"}, table)


@pytest.mark.parametrize("missing", [("g", "e"), ("e", "e"), ("id_b", "g")])
def test_target_refusing_a_pair_raises_where_the_oracle_raises(missing):
    frag = open_fragment(missing)
    answer = assert_matches_oracle(identity_pa(frag), ["a", "b"], ["a", "b"])
    assert answer[0] is ValidationError and answer[2] == "not_closed"


def test_target_refusing_a_pair_no_instance_composes_matches_the_oracle():
    # the refused pair is g after e, and phi(a, b, g) does not land, so no
    # instance composes it
    frag = open_fragment(("g", "e"))
    pa = PreAdjunction("unlanded", frag, frag, lambda x: x, lambda y: y,
                       lambda x, y, u: Morphism(x, y, "foreign") if u.payload == "g" else u,
                       suggested_v=lambda a, b, f: f)
    report = assert_matches_oracle(pa, ["a", "b"], ["a", "b"])
    assert report.phi_landing_failures and report.instances > 0


def test_budget_threshold_matches_the_oracle():
    pa = pa_gr_to_dramop(plain(2), 6, 6)
    report = assert_matches_oracle(pa, [1, 2], CHAINS, max_instances=285)
    assert report.ok and report.instances == 285
    answer = assert_matches_oracle(pa, [1, 2], CHAINS, max_instances=284)
    assert answer[0] is BudgetExceeded


def test_budget_overrun_carries_how_far_the_check_got():
    # the blocks before (A, B, C) = (2, 2, 6) hold 220 instances, and that
    # block's 65 would take the count past 284
    with pytest.raises(BudgetExceeded) as err:
        verify_pa(pa_gr_to_dramop(plain(2), 6, 6), [1, 2], CHAINS, max_instances=284)
    assert err.value.stats == {"instances_checked": 220, "failures": 0, "phi_landing_failures": 0,
                               "block": {"A": 2, "B": 2, "C": 6}}
    with pytest.raises(BudgetExceeded) as err:
        verify_pa(broken_phi_pa(), [1, 2, 3], [1, 2, 3], max_instances=20)
    stats = err.value.stats
    assert stats["failures"] > 0 and stats["instances_checked"] <= 20


COLLAPSIBLE = [ram_fragment(3), gr_fragment(plain(2), 3), dram_op_fragment(4)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_collapsed_phis_match_the_oracle(data):
    fragment = data.draw(st.sampled_from(COLLAPSIBLE))
    pairs = [(x, y) for x in fragment.objects for y in fragment.objects if fragment.hom_size(x, y)]
    choice = {pair: data.draw(st.integers(0, fragment.hom_size(*pair) - 1)) for pair in pairs}
    as_tuple = frozenset(data.draw(st.lists(st.sampled_from(pairs), max_size=2)))
    mode = data.draw(st.sampled_from(["none", "f", "first"]))
    suggested = {"none": None, "f": lambda a, b, f: f,
                 "first": lambda a, b, f: fragment.hom(a, b)[0]}[mode]
    objects = list(fragment.objects)
    source_objects = data.draw(st.permutations(objects))[:data.draw(st.integers(1, len(objects)))]
    target_objects = data.draw(st.permutations(objects))[:data.draw(st.integers(1, len(objects)))]
    assert_matches_oracle(collapsed(fragment, choice, as_tuple=as_tuple, suggested_v=suggested),
                          source_objects, target_objects)


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
    # one entry per distinct (X, Y, u), not one per source object A as well
    assert len(report.phi_landing_failures) == 11
    assert len({(e["X"], e["Y"], e["u"]) for e in report.phi_landing_failures}) == 11
    first = report.phi_landing_failures[0]
    assert first["phi"] == Morphism(1, 2, first["u"].payload)


@pytest.mark.parametrize("foreign", [
    tuple,  # a bare (dom, cod, payload) tuple
    lambda u: Morphism(u.dom, u.cod, tuple(u.payload)),  # a morphism whose payload is a bare tuple
])
def test_phi_equal_to_a_member_but_not_a_morphism_is_a_landing_failure(foreign):
    # phi returns the identity's value under another class; tuple equality
    # alone would take it for a member of hom(X, H(Y))
    f3 = dram_fragment(3)
    pa = PreAdjunction("foreign-identity", f3, f3, lambda x: x, lambda y: y, lambda x, y, u: foreign(u))
    report = verify_pa(pa, [1, 2, 3], [1, 2, 3])
    assert not report.ok and not report.failures and report.instances == 0
    assert len(report.phi_landing_failures) == f3.total_morphisms() == 8
    assert all(e["phi"] == e["u"] for e in report.phi_landing_failures)


@pytest.mark.parametrize("mutate, landed_b", [
    (first_occurrences_swapped, [1]),  # x2 before x1: only the words of B = 2 are refused
    (lambda word: DecoratedWord(word.tokens, word.m + 1), []),  # a word under m + 1
])
def test_gr_phi_values_are_validated_by_the_landing_check(swap_context, mutate, landed_b):
    # the gr constructions' phi builds its word unchecked, so a phi that
    # builds a non-word is caught where its value lands
    pa = pa_gr_decorated_to_plain(swap_context, 5)
    phi = pa.phi
    mutated = replace(pa, phi=lambda x, y, u: Morphism(x, y, mutate(phi(x, y, u).payload)))
    report = assert_matches_oracle(mutated, [1, 2], [1, 2, 3, 4, 5])
    assert not report.ok and not report.failures
    unlanded = Counter(e["X"] for e in report.phi_landing_failures)
    sizes = {b: sum(pa.target.hom_size(pa.F(b), c) for c in range(1, 6)) for b in [1, 2]}
    assert unlanded == {b: size for b, size in sizes.items() if b not in landed_b}
    assert all(not pa.source.in_hom(e["phi"], e["X"], e["Y"]) for e in report.phi_landing_failures)
    assert report.instances == sum(sizes[b] * pa.source.hom_size(a, b) for b in landed_b for a in [1, 2])


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


@pytest.mark.parametrize("make_pa", [
    lambda ctx: pa_gr_plain_to_decorated(ctx, 3),
    lambda ctx: pa_gr_to_dramop(WordContext(trivial_action(cyclic_group(2))), 3, 6),
])
def test_suggested_v_evaluated_once_per_argument(make_pa, swap_context):
    pa = make_pa(swap_context)
    plain = verify_pa(pa, [1, 2], [1, 2, 3])
    calls = Counter()
    suggested = pa.suggested_v

    def counting_suggested(a, b, f):
        calls[(a, b, f)] += 1
        return suggested(a, b, f)

    pa.suggested_v = counting_suggested
    report = verify_pa(pa, [1, 2], [1, 2, 3])
    assert calls and max(calls.values()) == 1
    # tried and hit are still counted per instance
    assert report.suggested_tried == report.instances > len(calls)
    assert (report.instances, report.suggested_hits, report.failures, report.witnesses) == (
        plain.instances, plain.suggested_hits, plain.failures, plain.witnesses)


# --- word-category reductions ----------------------------------------------------

def test_plain_to_decorated_phi_strips(swap_context):
    pa = pa_gr_plain_to_decorated(swap_context, 3)
    u = parse_word("a x1 b x1^g", swap_context)
    stripped = pa.phi(1, 4, Morphism(1, 4, u))
    assert format_word(stripped.payload, plain_context()) == "x1 x1 x1 x1"


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


# each gr construction's token rule as its docstring states it, written out
# apart from its table: rule(context, X, u) is the word phi(X, Y, u) carries
def strip_rule(context, x, u):
    return DecoratedWord(tuple((PARAM, 1, 0) if kind == LETTER else (PARAM, idx, 0)
                               for kind, idx, exp in u.payload.tokens), u.payload.m)


def absorb_rule(context, x, u):
    t = len(context.alphabet)
    return DecoratedWord(tuple((LETTER, context.action.table[idx - 1][exp], 0) if idx <= t else (PARAM, idx - t, exp)
                               for kind, idx, exp in u.payload.tokens), x)


def chain_rule(context, x, u):
    order = context.group.order
    return DecoratedWord(tuple((PARAM, (p - 1) // order + 1, (p - 1) % order) for p in u.payload.image), x)


# (name, context, src, tgt) of the gr constructions golden verifies, with their rule
GR_GOLDEN = [("gr-plain-to-decorated", swap, 3, 3, strip_rule),
             ("gr-decorated-to-plain", swap, 2, 6, absorb_rule),
             ("gr-to-dram-op", lambda: plain(2), 2, 6, chain_rule)]


@pytest.mark.parametrize("name, context, src, tgt, rule", GR_GOLDEN, ids=[row[0] for row in GR_GOLDEN])
def test_table_phis_follow_their_token_rule(name, context, src, tgt, rule):
    ctx = context()
    pa, _, _ = named_pa(name, ctx, {"src": src, "tgt": tgt})
    read = 0
    for x in pa.source.objects:
        if pa.target.has_object(pa.object_map(x)):
            for y in pa.target.objects:
                for u in pa.target.hom(pa.F(x), y):
                    assert pa.phi(x, y, u) == Morphism(x, pa.H(y), rule(ctx, x, u)), (x, y, u)
                    read += 1
    assert read > 0


@pytest.mark.parametrize("pick", [0, -1], ids=["constant-phi", "last-member-phi"])
@pytest.mark.parametrize("name, context, src, tgt, rule", GR_GOLDEN, ids=[row[0] for row in GR_GOLDEN])
def test_mutated_table_phis_fail_and_failures_are_rechecked(name, context, src, tgt, rule, pick):
    # phi collapsed onto one member of each hom(X, H(Y)): the table phi is
    # gone, and each recorded failure is confirmed afresh
    pa, source_objects, target_objects = named_pa(name, context(), {"src": src, "tgt": tgt})
    broken = replace(pa, phi=lambda x, y, u: pa.source.hom(x, pa.H(y))[pick])
    report = verify_pa(broken, source_objects, target_objects)
    assert report.failures and not report.phi_landing_failures
    assert recheck_failures(broken, report)


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


def test_named_composite_is_sized_from_its_last_factor(swap_context):
    pa, src_objs, tgt_objs = named_pa("composed:gr-plain-to-decorated, gr-decorated-to-plain", swap_context,
                                      {"tgt": 5})
    assert pa.name == "composed:gr-plain-to-decorated,gr-decorated-to-plain"
    assert (src_objs, tgt_objs) == ([1, 2], [1, 2, 3, 4, 5])
    # the last factor's source gr(swap, 5) sizes the first factor: its words run up to 5
    assert pa.source.objects == (1, 2, 3, 4, 5)
    report = verify_pa(pa, src_objs, tgt_objs)
    assert report.ok and report.instances > 0
    with pytest.raises(ValueError):
        named_pa("composed:identity,nope", swap_context, {})


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


def test_compose_compares_interfaces_not_composition_rules(swap_context):
    """gr(swap, 5) and gr(trivial Z2 on "ab", 5) list the same words and
    identities but compose them differently, so ``compose_pa`` accepts them
    as a middle fragment; ``verify_pa`` then checks the composite itself."""
    trivial_ab = WordContext(trivial_action(cyclic_group(2), "ab"))
    pa1 = pa_gr_plain_to_decorated(swap_context, 5)
    pa2 = pa_gr_decorated_to_plain(trivial_ab, 5)
    assert not fragment_equal(pa1.target, pa2.source)
    report = verify_pa(compose_pa(pa1, pa2), [1, 2], [1, 2, 3, 4, 5])
    assert (report.ok, report.instances, report.suggested_hits) == (True, 155, 155)


def test_compose_fragment_mismatch(swap_context):
    pa1 = pa_gr_plain_to_decorated(swap_context, 3)
    pa2 = pa_gr_decorated_to_plain(swap_context, 4)
    with pytest.raises(ValidationError) as err:
        compose_pa(pa1, pa2)
    assert err.value.code == "fragment_mismatch"


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
    bad = broken_thin_pa(0)
    card = check_card_inequality(bad, [1, 2])
    assert not card.ok and card.violations
    report = verify_pa(bad, [1, 2], [0, 1])
    assert not report.ok
    assert recheck_failures(bad, report)


def test_cardinality_reads_each_hom_set_once(monkeypatch):
    # the mono test of each source morphism out of A reads the payloads of
    # the hom-sets into A, listed once per source object A, not once per
    # morphism; the report and the first non-mono morphism are unchanged
    listed = Counter()
    payloads_into = ramcat.preadjunction._payloads_into
    monkeypatch.setattr(ramcat.preadjunction, "_payloads_into",
                        lambda fragment, b: listed.update([b]) or payloads_into(fragment, b))
    card = check_card_inequality(pa_ram_to_dramop(4), [1, 2, 3, 4])
    assert card.ok and listed == Counter([1, 2, 3, 4])
    assert [(e["A"], e["B"], e["target_count"], e["source_count"]) for e in card.pairs][:6] == [
        (1, 1, 1, 1), (1, 2, 3, 2), (1, 3, 7, 3), (1, 4, 15, 4), (2, 1, 0, 0), (2, 2, 1, 1)]
    listed.clear()
    # in dram(4), 2 -> 1 merges the three rigid surjections 3 -> 2; objects
    # 1 and 2 are read before it is reached
    with pytest.raises(ValidationError) as err:
        check_card_inequality(identity_pa(dram_fragment(4)), [1, 2, 3, 4])
    assert err.value.code == "source_not_mono" and err.value.data == {"morphism": "2->1:(1,1)"}
    assert str(err.value) == "source morphism 2->1:(1,1) is not left cancellable"
    assert listed == Counter([1, 2])


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
