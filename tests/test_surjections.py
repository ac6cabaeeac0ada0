from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcat import (
    ValidationError,
    compose_rigid,
    dual,
    enumerate_rsurj,
    enumerate_words,
    identity_rigid,
    parse_word,
    plain_context,
    rsurj_to_word,
    substitute,
    validate_rigid,
    word_to_rsurj,
)
from conftest import stirling


def brute_force_rsurj(n, m):
    """Independent oracle: all maps, filtered by a direct reading of
    surjectivity and the min-preimage condition."""
    out = []
    for image in product(range(1, m + 1), repeat=n):
        if set(image) != set(range(1, m + 1)):
            continue
        mins = {}
        for i, v in enumerate(image, start=1):
            mins.setdefault(v, i)
        if all(mins[b] < mins[b + 1] for b in range(1, m)):
            out.append(image)
    return sorted(out)


def test_validate_accepts_and_rejects():
    f = validate_rigid(3, 2, (1, 2, 1))
    assert f.image == (1, 2, 1)
    with pytest.raises(ValidationError) as err:
        validate_rigid(3, 2, (2, 1, 1))
    assert err.value.code == "min_preimage_order"
    with pytest.raises(ValidationError) as err:
        validate_rigid(3, 3, (1, 2, 2))
    assert err.value.code == "not_surjective"
    assert validate_rigid(4, 4, (1, 2, 3, 4)).image == (1, 2, 3, 4)


def test_compose_examples():
    f = validate_rigid(4, 2, (1, 1, 2, 2))
    g = validate_rigid(2, 1, (1, 1))
    assert compose_rigid(g, f).image == (1, 1, 1, 1)
    f = validate_rigid(3, 2, (1, 2, 1))
    assert compose_rigid(identity_rigid(2), f) == f
    f = validate_rigid(4, 3, (1, 2, 3, 2))
    g = validate_rigid(3, 2, (1, 1, 2))
    assert compose_rigid(g, f).image == (1, 1, 2, 1)


def test_compose_chain_mismatch():
    f = validate_rigid(3, 2, (1, 2, 1))
    g = validate_rigid(3, 2, (1, 2, 1))
    with pytest.raises(ValidationError) as err:
        compose_rigid(g, f)
    assert err.value.code == "chain_mismatch"


def test_enumeration_matches_brute_force_and_stirling():
    for n in range(1, 6):
        for m in range(1, n + 1):
            fast = [f.image for f in enumerate_rsurj(n, m)]
            assert fast == brute_force_rsurj(n, m)
            assert len(fast) == stirling(n, m)
    assert sum(1 for _ in enumerate_rsurj(3, 2)) == 3
    assert sum(1 for _ in enumerate_rsurj(4, 2)) == 7
    for n in range(1, 6):
        assert [f.image for f in enumerate_rsurj(n, n)] == [tuple(range(1, n + 1))]
    assert list(enumerate_rsurj(2, 3)) == []


def test_word_surjection_bijection_round_trip():
    pc = plain_context()
    for n in range(1, 7):
        for m in range(1, n + 1):
            words = list(enumerate_words(m, n, pc))
            surjs = list(enumerate_rsurj(n, m))
            assert [word_to_rsurj(w) for w in words] == surjs
            for w in words:
                assert rsurj_to_word(word_to_rsurj(w)) == w


def test_word_to_rsurj_examples():
    pc = plain_context()
    assert word_to_rsurj(parse_word("x1 x2 x1", pc)).image == (1, 2, 1)
    assert word_to_rsurj(parse_word("x1", pc)) == identity_rigid(1)


def test_word_to_rsurj_rejects_decorated(swap_context):
    with pytest.raises(ValidationError) as err:
        word_to_rsurj(parse_word("x1 a", swap_context))
    assert err.value.code == "not_plain_word"


def test_substitution_reverses_composition():
    pc = plain_context()
    for n in range(1, 7):
        for m in range(1, n + 1):
            for k in range(1, m + 1):
                for u in enumerate_words(m, n, pc):
                    fu = word_to_rsurj(u)
                    for v in enumerate_words(k, m, pc):
                        assert word_to_rsurj(substitute(u, v)) == compose_rigid(word_to_rsurj(v), fu)


def test_dual_examples():
    f = validate_rigid(5, 3, (1, 1, 2, 1, 3))
    assert dual(f) == (1, 3, 5)
    assert dual(identity_rigid(4)) == (1, 2, 3, 4)


def test_dual_is_strictly_increasing_section():
    for n in range(1, 7):
        for m in range(1, n + 1):
            for f in enumerate_rsurj(n, m):
                d = dual(f)
                assert all(d[i] < d[i + 1] for i in range(len(d) - 1))
                assert all(f.image[d[i] - 1] == i + 1 for i in range(len(d)))


def test_dual_contravariance():
    for n in range(1, 6):
        for m in range(1, n + 1):
            for k in range(1, m + 1):
                for f in enumerate_rsurj(n, m):
                    df = dual(f)
                    for g in enumerate_rsurj(m, k):
                        dg = dual(g)
                        assert dual(compose_rigid(g, f)) == tuple(df[i - 1] for i in dg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_composition_closure_property(data):
    n = data.draw(st.integers(min_value=2, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=n))
    k = data.draw(st.integers(min_value=1, max_value=m))
    f = data.draw(st.sampled_from(list(enumerate_rsurj(n, m))))
    g = data.draw(st.sampled_from(list(enumerate_rsurj(m, k))))
    h = compose_rigid(g, f)  # validates rigidity internally
    assert h.dom == n and h.cod == k
