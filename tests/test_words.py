import functools
import inspect
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramcat import (
    ValidationError,
    WordContext,
    cyclic_group,
    enumerate_words,
    format_word,
    gr_fragment,
    identity_word,
    parse_word,
    plain_context,
    substitute,
    trivial_action,
    validate_word,
)
from conftest import stirling
from ramcat.words import LETTER, PARAM, DecoratedWord, letter, param, word_spelling, word_tokens

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
    w = identity_word(3)
    assert format_word(w, z3_context) == "x1 x2 x3"
    assert validate_word(w.tokens, 3, z3_context) == w


def test_a_word_is_its_tokens_and_m(z3_context, swap_context):
    word = parse_word("x1 a x1^g", swap_context)
    assert word == DecoratedWord(((PARAM, 1, 0), (LETTER, 0, 0), (PARAM, 1, 1)), 1)
    assert DecoratedWord._fields == ("tokens", "m")
    # the same tokens read against another context are the same word
    assert parse_word("x1 a x1^g", z3_context) == word


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


def test_accepting_scan_matches_the_listing(swap_context, plain_z2_context):
    # every token sequence of each length m over the tokens of words with up
    # to m + 1 parameters, and tokens off range: an exponent |G|, a letter
    # |A|, x0 and a letter under a non-neutral exponent
    for context, longest in [(plain_context(), 4), (plain_z2_context, 3), (swap_context, 3)]:
        order, letters = context.group.order, len(context.alphabet)
        member = gr_fragment(context, longest + 1).member
        off_range = [(PARAM, 1, order), (LETTER, letters, 0), (PARAM, 0, 0), (LETTER, 0, 1)]
        for m in range(longest + 1):
            tokens = word_tokens(context, m + 1) + off_range
            for k in range(m + 2):
                words = set(enumerate_words(k, m, context))
                for seq in product(tokens, repeat=m):
                    word = DecoratedWord(seq, k)
                    try:
                        got = validate_word(seq, k, context)
                    except ValidationError:
                        got = None
                    assert (got is not None) == (word in words), (context.alphabet, order, seq, k)
                    assert got is None or (type(got) is DecoratedWord and got == word)
                    assert member(word, k, m) == (word in words), (context.alphabet, order, seq, k)


def test_golden_substitution(z3_context):
    u = parse_word(GOLDEN_WORD, z3_context)
    v = parse_word(GOLDEN_V, z3_context)
    assert format_word(substitute(z3_context, u, v), z3_context) == GOLDEN_RESULT


def test_substitution_right_identity(z3_context):
    u = parse_word(GOLDEN_WORD, z3_context)
    assert substitute(z3_context, u, identity_word(u.m)) == u


def test_substitution_left_identity_exhaustive():
    pc = plain_context()
    for n in range(1, 5):
        for k in range(1, n + 1):
            for v in enumerate_words(k, n, pc):
                assert substitute(pc, identity_word(n), v) == v


def test_plain_substitution_example():
    pc = plain_context()
    u = parse_word("x1 x2 x1", pc)
    v = parse_word("x1 x1", pc)
    assert format_word(substitute(pc, u, v), pc) == "x1 x1 x1"


def method_call_substitute(context, u, v):
    """Substitution through ``FiniteGroup.multiply`` and the checked
    ``RightAction.act``, one call per token: the oracle for ``substitute``,
    which reads their tables directly."""
    if v.n != u.m:
        raise ValidationError("arity_mismatch", f"cannot substitute a {v.n}-letter word for {u.m} parameters")
    group, action = context.group, context.action
    out = []
    for kind, idx, occ_exp in u.tokens:
        if kind == LETTER:
            out.append((LETTER, idx, 0))
            continue
        vkind, vidx, vexp = v.tokens[idx - 1]
        exp = group.multiply(vexp, occ_exp)
        out.append((PARAM, vidx, exp) if vkind == PARAM else (LETTER, action.act(vidx, exp), 0))
    return DecoratedWord(tuple(out), v.m)


def test_substitution_matches_the_method_call_oracle(swap_context, z3_context):
    """Every composable pair of words with at most four letters, over plain
    Z3, Z2 swapping {a,b} and Z3 acting on {a,b,c,d}."""
    plain_z3 = WordContext(trivial_action(cyclic_group(3)))
    for ctx, expected_pairs in ((plain_z3, 802), (swap_context, 2994), (z3_context, 20774)):
        pairs = 0
        for n in range(1, 5):
            for m in range(1, n + 1):
                vs = [v for k in range(m + 1) for v in enumerate_words(k, m, ctx)]
                for u in enumerate_words(m, n, ctx):
                    for v in vs:
                        w = substitute(ctx, u, v)
                        assert type(w) is DecoratedWord and w == method_call_substitute(ctx, u, v), (u, v)
                        pairs += 1
        assert pairs == expected_pairs


def test_substitution_arity_mismatch(z3_context):
    u = parse_word("x1 x2", z3_context)
    with pytest.raises(ValidationError) as err:
        substitute(z3_context, u, parse_word("x1", z3_context))
    assert err.value.code == "arity_mismatch"


def test_enumeration_against_brute_force(swap_context, one_letter_context):
    contexts = [plain_context(), one_letter_context, swap_context]
    for ctx in contexts:
        for n in range(1, 4):
            for m in range(0, n + 1):
                fast = [w.tokens for w in enumerate_words(m, n, ctx)]
                slow = brute_force_words(m, n, ctx)
                assert sorted(fast) == sorted(slow), (ctx.alphabet, m, n)
                assert len(set(fast)) == len(fast)


def recursive_words(m, n, context):
    """The enumeration as a recursive generator over positions, one nested
    frame per token; the order oracle for ``enumerate_words``."""
    if m < 0 or n < 1 or m > n:
        return
    order = range(context.group.order)
    n_letters = len(context.alphabet)
    prefix = []

    def candidates(seen):
        for j in range(1, seen + 1):
            for g in order:
                yield (PARAM, j, g)
        if seen < m:
            yield (PARAM, seen + 1, 0)
        for a in range(n_letters):
            yield (LETTER, a, 0)

    def rec(pos, seen):
        if pos == n:
            if seen == m:
                yield DecoratedWord(tuple(prefix), m)
            return
        for token in candidates(seen):
            new_seen = seen + 1 if token[0] == PARAM and token[1] == seen + 1 else seen
            if m - new_seen > n - pos - 1:
                continue
            prefix.append(token)
            yield from rec(pos + 1, new_seen)
            prefix.pop()

    yield from rec(0, 0)


def test_enumeration_matches_recursive_order(swap_context, plain_z2_context, z3_context):
    plain_z3 = WordContext(trivial_action(cyclic_group(3)))
    for ctx in [plain_context(), plain_z2_context, plain_z3, swap_context, z3_context]:
        for n in range(1, 7):
            for m in range(0, n + 1):
                assert list(enumerate_words(m, n, ctx)) == list(recursive_words(m, n, ctx)), (ctx.alphabet, m, n)
    assert list(enumerate_words(3, 2, swap_context)) == list(enumerate_words(1, 0, swap_context)) == []
    # a generator, so a caller can step it with next()
    assert inspect.isgeneratorfunction(enumerate_words)


def test_enumeration_is_sorted(swap_context):
    # tokens compare as (kind, index, exponent): the canonical order
    for m, n in [(1, 3), (2, 3), (2, 4)]:
        words = [w.tokens for w in enumerate_words(m, n, swap_context)]
        assert words == sorted(words)


def test_plain_counts_match_stirling():
    pc = plain_context()
    for n in range(1, 8):
        for m in range(1, n + 1):
            assert sum(1 for _ in enumerate_words(m, n, pc)) == stirling(n, m)


def test_enumeration_empty_iff_m_exceeds_n(one_letter_context):
    assert list(enumerate_words(3, 2, one_letter_context)) == []
    assert list(enumerate_words(2, 2, one_letter_context)) != []


def test_single_letter_alphabet_counts(one_letter_context):
    words = [format_word(w, one_letter_context) for w in enumerate_words(1, 2, one_letter_context)]
    assert words == ["x1 x1", "x1 a", "a x1"]


def test_gr_z2_hom_1_2(plain_z2_context):
    words = [format_word(w, plain_z2_context) for w in enumerate_words(1, 2, plain_z2_context)]
    assert words == ["x1 x1", "x1 x1^g"]


def test_substitution_outputs_validate(swap_context):
    for n in range(1, 4):
        for m in range(1, n + 1):
            for u in enumerate_words(m, n, swap_context):
                for k in range(1, m + 1):
                    for v in enumerate_words(k, m, swap_context):
                        w = substitute(swap_context, u, v)
                        assert validate_word(w.tokens, w.m, swap_context) == w


def test_substitution_associativity_trivial_group(one_letter_context, plain_z2_context):
    for ctx in (plain_context(), one_letter_context, plain_z2_context):
        for n in range(1, 5):
            for m in range(1, n + 1):
                for k in range(1, m + 1):
                    for u in enumerate_words(m, n, ctx):
                        for v in enumerate_words(k, m, ctx):
                            vw_pairs = [
                                (w, substitute(ctx, v, w))
                                for ell in range(0 if ctx.alphabet else 1, k + 1)
                                for w in enumerate_words(ell, k, ctx)
                            ]
                            uv = substitute(ctx, u, v)
                            for w, vw in vw_pairs:
                                assert substitute(ctx, uv, w) == substitute(ctx, u, vw)


def test_substitution_associativity_non_abelian(s3_context):
    """Letter-only tails combined with decorated occurrences distinguish the
    two exponent-composition orders; only one is associative."""
    us = list(enumerate_words(2, 3, s3_context))
    vs = list(enumerate_words(1, 2, s3_context))
    ws = list(enumerate_words(0, 1, s3_context)) + list(enumerate_words(1, 1, s3_context))
    for u in us:
        for v in vs:
            uv = substitute(s3_context, u, v)
            for w in ws:
                assert substitute(s3_context, uv, w) == substitute(s3_context, u, substitute(s3_context, v, w))


def test_parse_format_round_trip(z3_context):
    for text in [GOLDEN_WORD, "x1", "x1 x2 x3", "a b x1 x1^g"]:
        word = parse_word(text, z3_context)
        assert format_word(word, z3_context) == text
        assert parse_word(format_word(word, z3_context), z3_context) == word


def test_parse_canonicalizes_spacing(z3_context):
    assert format_word(parse_word("x1  x2", z3_context), z3_context) == "x1 x2"


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
    assert parse_word(format_word(word, swap_context), swap_context, m=m) == word


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
    sub = functools.partial(substitute, swap_context)
    assert sub(sub(u, v), w) == sub(u, sub(v, w))


@st.composite
def drawn_words(draw, context, n, min_m=0):
    """A valid word of ``n`` tokens over ``context``, drawn position by
    position: a new variable, a variable seen before under any exponent, or
    a letter, with new variables forced once every position left must open
    one."""
    m = draw(st.integers(min_m, n))
    tokens, seen = [], 0
    for pos in range(n):
        if n - pos == m - seen:
            kinds = ["new"]
        else:
            kinds = ["new"] * (seen < m) + ["old"] * (seen > 0) + ["letter"] * bool(context.alphabet)
        kind = draw(st.sampled_from(kinds))
        if kind == "new":
            seen += 1
            tokens.append(param(seen))
        elif kind == "old":
            tokens.append(param(draw(st.integers(1, seen)), draw(st.integers(0, context.group.order - 1))))
        else:
            tokens.append(letter(draw(st.integers(0, len(context.alphabet) - 1))))
    return validate_word(tokens, m, context)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_spelled_substitution_equals_substitute(z3_context, data):
    u = data.draw(drawn_words(z3_context, data.draw(st.integers(1, 9)), min_m=1))
    v = data.draw(drawn_words(z3_context, u.m))
    spell, substitution = word_spelling(z3_context, max(u.n, v.n))
    assert spell(substitute(z3_context, u, v)) == spell(u).translate(substitution(v))


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(max_size=40), st.text("abcdxeg0123456789^ \t", max_size=40)),
       st.none() | st.integers(-1, 6))
@example("x" + "1" * 5000, None)  # an index int() refuses to read
def test_parse_word_returns_a_word_or_refuses(z3_context, text, m):
    try:
        word = parse_word(text, z3_context, m)
    except ValidationError:
        return
    assert validate_word(word.tokens, word.m, z3_context) == word
