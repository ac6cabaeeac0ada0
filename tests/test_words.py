from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcat import (
    ValidationError,
    enumerate_words,
    format_word,
    identity_word,
    parse_word,
    plain_context,
    substitute,
    validate_word,
)
from conftest import stirling
from ramcat.words import LETTER, PARAM, letter, param

GOLDEN_WORD = "c a x1 a x1^g2 x2 d x3 x2^g2 x1^g a x3^g"
GOLDEN_V = "b x1 x1^g2"
GOLDEN_RESULT = "c a b a a x1 d x1^g2 x1^g2 c a x1"


def brute_force_words(m, n, context):
    """Independent oracle: all token sequences, filtered by a direct reading
    of the validity conditions."""
    group = context.group
    tokens = [param(j, g) for j in range(1, m + 1) for g in group.elements()]
    tokens += [letter(i) for i in range(len(context.alphabet))]
    out = []
    for seq in product(tokens, repeat=n):
        firsts = {}
        ok = True
        for pos, (kind, idx, exp) in enumerate(seq):
            if kind == LETTER and exp != 0:
                ok = False
            if kind == PARAM and idx not in firsts:
                firsts[idx] = pos
                if exp != 0:
                    ok = False
        if set(firsts) != set(range(1, m + 1)):
            ok = False
        if ok and any(firsts[j] > firsts[j + 1] for j in range(1, m)):
            ok = False
        if ok:
            out.append(seq)
    return out


def test_golden_word_is_valid(z3_context):
    w = parse_word(GOLDEN_WORD, z3_context)
    assert w.m == 3 and w.n == 12


def test_identity_word_is_valid(z3_context):
    w = identity_word(3, z3_context)
    assert format_word(w) == "x1 x2 x3"
    assert validate_word(w.tokens, 3, z3_context) == w


def test_first_occurrence_order_violation(z3_context):
    with pytest.raises(ValidationError) as err:
        parse_word("x2 x1", z3_context, m=2)
    assert err.value.code == "first_occurrence_order"


def test_first_occurrence_exponent_violation(z3_context):
    with pytest.raises(ValidationError) as err:
        parse_word("x1^g x1", z3_context, m=1)
    assert err.value.code == "first_occurrence_exponent"


def test_letter_exponent_violation(z3_context):
    with pytest.raises(ValidationError) as err:
        validate_word((letter(0), (LETTER, 1, 1)), 0, z3_context)
    assert err.value.code == "letter_exponent"


def test_missing_parameter(z3_context):
    with pytest.raises(ValidationError) as err:
        parse_word("x1 a", z3_context, m=2)
    assert err.value.code == "missing_parameter"


def test_golden_substitution(z3_context):
    u = parse_word(GOLDEN_WORD, z3_context)
    v = parse_word(GOLDEN_V, z3_context)
    assert format_word(substitute(u, v)) == GOLDEN_RESULT


def test_substitution_right_identity(z3_context):
    u = parse_word(GOLDEN_WORD, z3_context)
    assert substitute(u, identity_word(u.m, z3_context)) == u


def test_substitution_left_identity_exhaustive():
    pc = plain_context()
    for n in range(1, 5):
        for k in range(1, n + 1):
            for v in enumerate_words(k, n, pc):
                assert substitute(identity_word(n, pc), v) == v


def test_plain_substitution_example():
    pc = plain_context()
    u = parse_word("x1 x2 x1", pc)
    v = parse_word("x1 x1", pc)
    assert format_word(substitute(u, v)) == "x1 x1 x1"


def test_substitution_arity_and_context_mismatch(z3_context, swap_context):
    u = parse_word("x1 x2", z3_context)
    with pytest.raises(ValidationError) as err:
        substitute(u, parse_word("x1", z3_context))
    assert err.value.code == "arity_mismatch"
    with pytest.raises(ValidationError) as err:
        substitute(u, parse_word("x1 x2", swap_context))
    assert err.value.code == "context_mismatch"


def test_enumeration_against_brute_force(swap_context, one_letter_context):
    contexts = [plain_context(), one_letter_context, swap_context]
    for ctx in contexts:
        for n in range(1, 4):
            for m in range(0, n + 1):
                fast = [w.tokens for w in enumerate_words(m, n, ctx)]
                slow = brute_force_words(m, n, ctx)
                assert sorted(fast) == sorted(slow), (ctx.alphabet, m, n)
                assert len(set(fast)) == len(fast)


def test_enumeration_is_sorted(swap_context):
    from ramcat.words import token_sort_key

    key = token_sort_key(swap_context)
    for m, n in [(1, 3), (2, 3), (2, 4)]:
        words = [w.tokens for w in enumerate_words(m, n, swap_context)]
        assert words == sorted(words, key=lambda toks: tuple(key(t) for t in toks))


def test_plain_counts_match_stirling():
    pc = plain_context()
    for n in range(1, 8):
        for m in range(1, n + 1):
            assert sum(1 for _ in enumerate_words(m, n, pc)) == stirling(n, m)


def test_enumeration_empty_iff_m_exceeds_n(one_letter_context):
    assert list(enumerate_words(3, 2, one_letter_context)) == []
    assert list(enumerate_words(2, 2, one_letter_context)) != []


def test_single_letter_alphabet_counts(one_letter_context):
    words = [format_word(w) for w in enumerate_words(1, 2, one_letter_context)]
    assert words == ["x1 x1", "x1 a", "a x1"]


def test_gr_z2_hom_1_2(plain_z2_context):
    words = [format_word(w) for w in enumerate_words(1, 2, plain_z2_context)]
    assert words == ["x1 x1", "x1 x1^g"]


def test_substitution_outputs_validate(swap_context):
    for n in range(1, 4):
        for m in range(1, n + 1):
            for u in enumerate_words(m, n, swap_context):
                for k in range(1, m + 1):
                    for v in enumerate_words(k, m, swap_context):
                        w = substitute(u, v)
                        assert validate_word(w.tokens, w.m, swap_context) == w


def test_substitution_associativity_trivial_group(one_letter_context, plain_z2_context):
    for ctx in (plain_context(), one_letter_context, plain_z2_context):
        for n in range(1, 5):
            for m in range(1, n + 1):
                for k in range(1, m + 1):
                    for u in enumerate_words(m, n, ctx):
                        for v in enumerate_words(k, m, ctx):
                            vw_pairs = [
                                (w, substitute(v, w))
                                for ell in range(0 if ctx.alphabet else 1, k + 1)
                                for w in enumerate_words(ell, k, ctx)
                            ]
                            uv = substitute(u, v)
                            for w, vw in vw_pairs:
                                assert substitute(uv, w) == substitute(u, vw)


def test_substitution_associativity_non_abelian(s3_context):
    """Letter-only tails combined with decorated occurrences distinguish the
    two exponent-composition orders; only one is associative."""
    us = list(enumerate_words(2, 3, s3_context))
    vs = list(enumerate_words(1, 2, s3_context))
    ws = list(enumerate_words(0, 1, s3_context)) + list(enumerate_words(1, 1, s3_context))
    for u in us:
        for v in vs:
            uv = substitute(u, v)
            for w in ws:
                assert substitute(uv, w) == substitute(u, substitute(v, w))


def test_parse_format_round_trip(z3_context):
    for text in [GOLDEN_WORD, "x1", "x1 x2 x3", "a b x1 x1^g"]:
        word = parse_word(text, z3_context)
        assert format_word(word) == text
        assert parse_word(format_word(word), z3_context) == word


def test_parse_canonicalizes_spacing(z3_context):
    assert format_word(parse_word("x1  x2", z3_context)) == "x1 x2"


def test_parse_errors(z3_context):
    with pytest.raises(ValidationError) as err:
        parse_word("x1 ^g", z3_context)
    assert err.value.code in ("syntax", "unknown_symbol")
    with pytest.raises(ValidationError) as err:
        parse_word("x1 zz", z3_context)
    assert err.value.code == "unknown_symbol"
    with pytest.raises(ValidationError) as err:
        parse_word("x1^q", z3_context)
    assert err.value.code == "unknown_group_element"


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_round_trip_on_enumerated_words(swap_context, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=1, max_value=n))
    words = list(enumerate_words(m, n, swap_context))
    word = data.draw(st.sampled_from(words))
    assert parse_word(format_word(word), swap_context, m=m) == word


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_triple_associativity(swap_context, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    m = data.draw(st.integers(min_value=1, max_value=n))
    k = data.draw(st.integers(min_value=1, max_value=m))
    ell = data.draw(st.integers(min_value=0, max_value=k))
    u = data.draw(st.sampled_from(list(enumerate_words(m, n, swap_context))))
    v = data.draw(st.sampled_from(list(enumerate_words(k, m, swap_context))))
    ws = list(enumerate_words(ell, k, swap_context))
    if not ws:
        return
    w = data.draw(st.sampled_from(ws))
    assert substitute(substitute(u, v), w) == substitute(u, substitute(v, w))
