from itertools import permutations, product

import pytest

from ramcat import WordContext, cycle_action, cyclic_group, make_action, trivial_action, validate_group
from ramcat.words import PARAM, DecoratedWord


def symmetric_group(n: int):
    """S_n with elements ordered so the identity permutation is index 0.

    The product ``g*h`` applies ``g`` first, then ``h``; this matches the
    right-action convention used throughout the package.
    """
    perms = sorted(permutations(range(n)), key=lambda p: (p != tuple(range(n)), p))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(h[g[i]] for i in range(n))] for h in perms]
        for g in perms
    ]
    names = tuple("e" if p == tuple(range(n)) else "s" + "".join(str(x) for x in p) for p in perms)
    return validate_group(table, names=names)


def action_to_dict(action) -> dict:
    """The JSON form of a group/action context file, as ``--context`` reads it:
    flat row-major tables."""
    return {
        "order": action.group.order,
        "table": [x for row in action.group.table for x in row],
        "element_names": list(action.group.names),
        "alphabet": list(action.alphabet),
        "action_table": [x for row in action.table for x in row],
    }


@pytest.fixture(scope="session")
def z3_context():
    """Z3 acting on {a,b,c,d}: a->b->c->a, d fixed."""
    z3 = cyclic_group(3)
    return WordContext(cycle_action(z3, "abcd", [1, 2, 0, 3]))


@pytest.fixture(scope="session")
def swap_context():
    """Z2 swapping {a,b}."""
    z2 = cyclic_group(2)
    return WordContext(cycle_action(z2, "ab", [1, 0]))


@pytest.fixture(scope="session")
def plain_z2_context():
    return WordContext(trivial_action(cyclic_group(2)))


@pytest.fixture(scope="session")
def one_letter_context():
    """{a} with trivial G: decorated words degenerate to parameter words
    with a single constant letter."""
    return WordContext(trivial_action(cyclic_group(1), "a"))


@pytest.fixture(scope="session")
def s3_context():
    """S3 acting naturally on three letters; non-abelian, so exponent
    bookkeeping order matters."""
    from itertools import permutations, product

    s3 = symmetric_group(3)
    perms = sorted(permutations(range(3)), key=lambda p: (p != (0, 1, 2), p))
    table = [[perms[g][i] for g in range(6)] for i in range(3)]
    return WordContext(make_action(s3, "pqr", table))


def stirling(n: int, m: int) -> int:
    """Independent oracle: the standard two-term recurrence."""
    if n == m:
        return 1
    if m < 1 or m > n:
        return 0
    return m * stirling(n - 1, m) + stirling(n - 1, m - 1)


def tabulate(fragment):
    """Snapshot a fragment into explicit tables: ids of its morphisms, of its
    identities, and the id of every composite."""
    ids = {}
    morphisms = {}
    for i, m in enumerate(fragment.morphisms()):
        mid = f"m{i}"
        ids[m] = mid
        morphisms[mid] = (m.dom, m.cod)
    identities = {a: ids[fragment.identity(a)] for a in fragment.objects}
    compose_table = {}
    for a, b, c in product(fragment.objects, repeat=3):
        for f in fragment.hom(a, b):
            for g in fragment.hom(b, c):
                compose_table[(ids[g], ids[f])] = ids[fragment.compose(g, f)]
    return morphisms, identities, compose_table


def first_occurrences_swapped(word):
    """``word`` with x1 and x2 trading names when it has both, so x2 first
    occurs before x1: not a word."""
    if word.m < 2:
        return word
    swap = {1: 2, 2: 1}
    return DecoratedWord(tuple((kind, swap.get(idx, idx) if kind == PARAM else idx, exp)
                               for kind, idx, exp in word.tokens), word.m)
