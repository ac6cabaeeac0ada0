import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramcat import (
    ValidationError,
    cyclic_group,
    make_action,
    trivial_action,
    trivial_group,
    validate_action,
    validate_group,
)
from ramcat.groups import action_from_dict

from conftest import action_to_dict, symmetric_group


def klein_group():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    return validate_group(table, names=("e", "a", "b", "c"))


def brute_force_group_axioms(table):
    """Independent oracle: check the axioms by raw iteration."""
    t = len(table)
    assoc = all(
        table[table[g][h]][k] == table[g][table[h][k]]
        for g in range(t) for h in range(t) for k in range(t)
    )
    identity = all(table[0][g] == g == table[g][0] for g in range(t))
    inverses = all(any(table[g][h] == 0 == table[h][g] for h in range(t)) for g in range(t))
    return assoc and identity and inverses


def test_z3_table_is_valid():
    g = validate_group([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert g.order == 3
    assert g.multiply(1, 2) == 0
    assert brute_force_group_axioms(g.table)


def test_trivial_group():
    g = validate_group([[0]])
    assert g.order == 1


def test_corrupted_klein_table_reports_non_associativity():
    table = [list(r) for r in klein_group().table]
    table[2][3] = 2  # was 1
    assert not brute_force_group_axioms(table)
    with pytest.raises(ValidationError) as err:
        validate_group(table)
    assert err.value.code in ("non_associative", "no_inverse", "no_identity")
    if err.value.code == "non_associative":
        g, h, k = err.value.data["g"], err.value.data["h"], err.value.data["k"]
        assert table[table[g][h]][k] != table[g][table[h][k]]


# every group of order at most 5: the cyclic ones, and the Klein group of order 4
SMALL_GROUPS = [cyclic_group(t).table for t in range(1, 6)] + [klein_group().table]


@st.composite
def small_tables(draw):
    """A t x t table with t <= 5: a group's table relabelled, or random
    entries with 0 at times made neutral; at times one entry changed."""
    if draw(st.booleans()):
        group = draw(st.sampled_from(SMALL_GROUPS))
        t = len(group)
        label = [0] + draw(st.permutations(range(1, t)))
        table = [[0] * t for _ in range(t)]
        for g in range(t):
            for h in range(t):
                table[label[g]][label[h]] = label[group[g][h]]
    else:
        t = draw(st.integers(1, 5))
        table = [[draw(st.integers(0, t - 1)) for _ in range(t)] for _ in range(t)]
        if draw(st.booleans()):
            for g in range(t):
                table[0][g] = table[g][0] = g
    if draw(st.booleans()):
        table[draw(st.integers(0, t - 1))][draw(st.integers(0, t - 1))] = draw(st.integers(0, t - 1))
    return table


@settings(max_examples=500, deadline=None)
@given(small_tables())
def test_validate_group_accepts_exactly_what_the_oracle_accepts(table):
    try:
        validate_group(table)
    except ValidationError as err:
        assert not brute_force_group_axioms(table)
        if err.code == "non_associative":
            g, h, k = err.data["g"], err.data["h"], err.data["k"]
            assert table[table[g][h]][k] != table[g][table[h][k]]
    else:
        assert brute_force_group_axioms(table)


def test_table_whose_first_generator_associates_is_refused():
    # 1 associates with every pair and generates {0, 1}; the next generator, 2, does not
    table = [[0, 1, 2, 3], [1, 0, 2, 3], [2, 2, 0, 0], [3, 3, 0, 0]]
    with pytest.raises(ValidationError) as err:
        validate_group(table)
    assert err.value.code == "non_associative" and err.value.data["h"] == 2
    g, h, k = err.value.data["g"], err.value.data["h"], err.value.data["k"]
    assert table[table[g][h]][k] != table[g][table[h][k]]


def test_large_cyclic_table_validates_in_well_under_a_second():
    t = 300
    table = [[(g + h) % t for h in range(t)] for g in range(t)]
    started = time.perf_counter()
    assert validate_group(table).order == t
    assert time.perf_counter() - started < 0.5


def test_missing_identity_and_inverse():
    with pytest.raises(ValidationError) as err:
        validate_group([[1, 0], [0, 1]])
    assert err.value.code == "no_identity"
    # Z4's table with row/col 0 fine but an element made non-invertible
    with pytest.raises(ValidationError) as err:
        validate_group([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
    assert err.value.code in ("no_inverse", "non_associative")


@pytest.mark.parametrize("names, code", [
    (("e",), "element_names"), (("e", "g", "h"), "element_names"), (("e", "e"), "repeated_element"),
    (("e", "g h"), "bad_name"), (("e", "g^2"), "bad_name"), (("e", " "), "bad_name"), (("e", 1), "bad_name"),
])
def test_element_names_are_tokens_of_word_notation(names, code):
    with pytest.raises(ValidationError) as err:
        validate_group([[0, 1], [1, 0]], names=names)
    assert err.value.code == code
    assert validate_group([[0, 1], [1, 0]]).names == ("e", "g")


def test_worked_action_values(z3_context):
    act = z3_context.action
    a, b, c, d = (act.letter_by_name(x) for x in "abcd")
    e, g, g2 = 0, 1, 2
    assert act.act(b, g2) == a
    assert act.act(d, g) == d
    assert act.act(a, e) == a


def test_action_validation_catches_broken_compatibility():
    z3 = cyclic_group(3)
    # a^g=b but then force (a^g)^g != a^(g^2)
    table = [[0, 1, 1], [1, 2, 0], [2, 0, 1], [3, 3, 3]]
    with pytest.raises(ValidationError) as err:
        make_action(z3, "abcd", table)
    assert err.value.code == "not_right_action"
    a, g, h = err.value.data["a"], err.value.data["g"], err.value.data["h"]
    assert table[table[a][g]][h] != table[a][z3.multiply(g, h)]


def test_non_unital_action():
    z2 = cyclic_group(2)
    with pytest.raises(ValidationError) as err:
        make_action(z2, "ab", [[1, 0], [0, 1]])
    assert err.value.code == "not_unital"


def test_empty_alphabet_action_is_valid():
    act = trivial_action(cyclic_group(2))
    assert validate_action(act) is act
    assert act.alphabet == ()


def test_right_action_law_exhaustively(z3_context, s3_context):
    for ctx in (z3_context, s3_context):
        act = ctx.action
        group = act.group
        for a in range(len(act.alphabet)):
            for g in group.elements():
                for h in group.elements():
                    assert act.act(act.act(a, g), h) == act.act(a, group.multiply(g, h))


def test_symmetric_group_is_a_group():
    s3 = symmetric_group(3)
    assert s3.order == 6
    assert brute_force_group_axioms(s3.table)
    # non-abelian witness
    assert any(s3.multiply(g, h) != s3.multiply(h, g) for g in range(6) for h in range(6))


def test_group_inverse_property():
    for group in (trivial_group(), cyclic_group(4), klein_group(), symmetric_group(3)):
        for g in group.elements():
            assert any(group.multiply(g, h) == 0 == group.multiply(h, g) for h in group.elements())


def test_action_config_round_trip(z3_context):
    data = action_to_dict(z3_context.action)
    again = action_from_dict(data)
    assert again == z3_context.action


def test_config_rejects_reserved_letter_names():
    data = {"order": 2, "table": [0, 1, 1, 0], "alphabet": ["x1"], "action_table": [0, 0]}
    with pytest.raises(ValidationError) as err:
        action_from_dict(data)
    assert err.value.code == "reserved_letter"


@pytest.mark.parametrize("letters, code", [(("a", "x12"), "reserved_letter"), (("a", "b", "a"), "repeated_letter"),
                                           (("a", "b c"), "bad_name"), (("a", ""), "bad_name"),
                                           (("a^b",), "bad_name")])
def test_every_action_checks_its_letter_names(letters, code):
    with pytest.raises(ValidationError) as err:
        trivial_action(cyclic_group(2), letters)
    assert err.value.code == code
    data = {"order": 1, "table": [0], "alphabet": list(letters), "action_table": list(range(len(letters)))}
    with pytest.raises(ValidationError) as err:
        action_from_dict(data)
    assert err.value.code == code


def test_config_accepts_row_major_flat_tables():
    data = {
        "order": 2,
        "table": [0, 1, 1, 0],
        "element_names": ["e", "g"],
        "alphabet": ["a", "b"],
        "action_table": [0, 1, 1, 0],
    }
    act = action_from_dict(data)
    assert act.act(0, 1) == 1 and act.act(1, 1) == 0


SWAP = {"order": 2, "table": [0, 1, 1, 0], "element_names": ["e", "g"], "alphabet": ["a", "b"],
        "action_table": [0, 1, 1, 0]}


@pytest.mark.parametrize("key, value, code", [
    ("table", [0, 1, True, 0], "entry_range"), ("table", [0, 1, 1.0, 0], "entry_range"),
    ("table", [0, 1, "1", 0], "entry_range"), ("action_table", [0, True, 1, 0], "entry_range"),
    ("action_table", [0, 1.0, 1, 0], "entry_range"), ("action_table", [0, "1", 1, 0], "entry_range"),
    ("order", True, "bad_order"), ("order", 2.0, "bad_order"), ("order", "2", "bad_order"),
])
def test_config_refuses_indices_that_are_not_integers(key, value, code):
    # JSON true reads as the Python int 1, and 1.0 == 1: only an int is an index
    assert action_from_dict(SWAP).act(0, 1) == 1
    with pytest.raises(ValidationError) as err:
        action_from_dict({**SWAP, key: value})
    assert err.value.code == code
