"""The benchmark's workloads: named lists of verdict queries.

A query is what one CLI command does, minus process start: it builds its own
fragments, runs the engine and re-certifies the result.  Every query carries
the verdict it must return and where that expectation comes from.  Every
budget is passed explicitly, so ``RAMCAT_BUDGET_NODES`` cannot change a
workload.

The seed fixes the query order and the drawn inputs (the 15-element
preorders and maps, the map monotonized on omega^2, and the morphisms the
mutated pre-adjunctions collapse onto).  The named mathematical instances
are the same for every seed, so every seed does comparable work.

Library functions are looked up on the ``ramcat`` package at call time, so a
tracer that rebinds them sees every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import ramcat as rc

NODE_BUDGET = 3_000_000
COLORING_BUDGET = 1_000_000
MAX_INSTANCES = 2_000_000

PREORDER_SIZE = 15
OMEGA2_PREFIX = 60

# Known values: Radziszowski, "Small Ramsey Numbers", EJC Dynamic Survey DS1.
KNOWN = "known Ramsey number"
SEED_PINNED = "certified result of the seed program, pinned"


class QueryFailure(Exception):
    """A result that its own re-certification rejects."""


@dataclass(frozen=True)
class Query:
    name: str
    run: Callable[[], object]  # returns the verdict
    expected: object
    source: str  # where the expected verdict comes from


def _swap():
    """The letters a, b swapped by the generator of Z2."""
    return rc.WordContext(rc.cycle_action(rc.cyclic_group(2), "ab", [1, 0]))


def _plain(order):
    """Z_order acting on the empty alphabet."""
    return rc.WordContext(rc.trivial_action(rc.cyclic_group(order)))


# --- arrow ------------------------------------------------------------------

def _ram(n):
    return rc.ram_fragment(n)


def _dram_op(n):
    return rc.dram_op_fragment(n)


def _gr(context):
    return lambda n: rc.gr_fragment(context, n)


def _ramsey_check(family, a, b, c, k) -> bool:
    """``ramsey check --engine both``: the exhaustive engine is the oracle of
    the search engine, and every bad coloring is re-certified."""
    frag = family(c)
    verdict = rc.check_arrow_exhaustive(frag, a, b, c, k, coloring_budget=COLORING_BUDGET)
    bad = rc.find_bad_coloring(frag, a, b, c, k, node_budget=NODE_BUDGET)
    if verdict.holds != (bad is None):
        raise QueryFailure("the exhaustive and search engines disagree")
    for coloring in (verdict.counterexample, bad):
        if coloring is not None and not rc.certify_bad_coloring(frag, a, b, c, coloring):
            raise QueryFailure("certify_bad_coloring rejects the returned coloring")
    return verdict.holds


def _ramsey_search(family, a, b, c, k) -> bool:
    """``ramsey check --engine search``."""
    frag = family(c)
    bad = rc.find_bad_coloring(frag, a, b, c, k, node_budget=NODE_BUDGET)
    if bad is not None and not rc.certify_bad_coloring(frag, a, b, c, bad):
        raise QueryFailure("certify_bad_coloring rejects the returned coloring")
    return bad is None


def _min_witness() -> int:
    """``ramsey search --family ram -A 2 -B 3 -k 2 --max-n 8``; the library
    certifies every counterexample on the way up."""
    n, _ = rc.min_ramsey_witness(_ram, 2, 3, 2, 8, node_budget=NODE_BUDGET)
    return n


# Verdicts of the criterion-4 grid in grid order, "H" holds and "F" fails.
GRID_VERDICTS = (
    "HHFHHHFHFHHHFFHFFHFHHHHFFHFFFHFFHFHHHHFFFHHFFFHFFHF"
    "HHHHHFFFHFHHHHHFFFFHFHHHHHHFFFFHFHHHHHHFFFFFHFH"
)


def _grid() -> list[tuple[int, int, int]]:
    """The (A, B, C) triples of golden criterion 4 on ram(10)."""
    return [(a, b, c)
            for c in range(1, 11)
            for a in range(1, c + 1) if comb(c, a) <= 16
            for b in range(a, c + 1)]


def arrow_queries(rng: random.Random) -> list[Query]:
    plain_z2, plain_z3, swap = _plain(2), _plain(3), _swap()
    queries = []
    for (a, b, c), mark in zip(_grid(), GRID_VERDICTS, strict=True):
        queries.append(Query(f"check ram A={a} B={b} C={c} k=2",
                             lambda a=a, b=b, c=c: _ramsey_check(_ram, a, b, c, 2),
                             mark == "H", "the two engines agree (golden criterion 4); " + SEED_PINNED))
    searches = [(f"ram (3)^2_2 C={c}", _ram, 2, 3, c, 2, True, KNOWN + " R(3,3)=6") for c in range(6, 12)]
    searches += [
        ("ram (4)^2_2 C=9", _ram, 2, 4, 9, 2, False, KNOWN + " R(4,4)=18"),
        ("ram (3)^2_3 C=8", _ram, 2, 3, 8, 3, False, KNOWN + " R(3,3,3)=17"),
        ("ram (4)^3_2 C=7", _ram, 3, 4, 7, 2, False, KNOWN + " R^(3)(4,4)=13"),
        ("dram-op (3)^2_2 C=7", _dram_op, 2, 3, 7, 2, True, SEED_PINNED),
        ("dram-op (4)^2_2 C=7", _dram_op, 2, 4, 7, 2, False, SEED_PINNED),
        ("gr Z2 (3)^1_2 C=5", _gr(plain_z2), 1, 3, 5, 2, True, SEED_PINNED),
        ("gr Z2 (3)^1_2 C=6", _gr(plain_z2), 1, 3, 6, 2, True, SEED_PINNED),
        ("gr Z3 (2)^1_2 C=5", _gr(plain_z3), 1, 2, 5, 2, True, SEED_PINNED),
        ("gr Z3 (2)^1_2 C=6", _gr(plain_z3), 1, 2, 6, 2, True, SEED_PINNED),
        ("gr Z3 (3)^1_2 C=6", _gr(plain_z3), 1, 3, 6, 2, False, SEED_PINNED),
        ("gr swap (2)^1_2 C=3", _gr(swap), 1, 2, 3, 2, False, SEED_PINNED),
    ]
    for name, family, a, b, c, k, holds, source in searches:
        queries.append(Query("search " + name,
                             lambda f=family, a=a, b=b, c=c, k=k: _ramsey_search(f, a, b, c, k),
                             holds, source))
    queries.append(Query("min witness ram (3)^2_2 up to 8", _min_witness, 6,
                         KNOWN + " R(3,3)=6; golden criterion 4"))
    rng.shuffle(queries)
    return queries


# --- transport --------------------------------------------------------------

def _transport(build, source_objects, target_objects) -> tuple:
    """``preadj verify`` with the cardinality check; every recorded failure
    is confirmed by ``recheck_failures``."""
    pa = build()
    report = rc.verify_pa(pa, source_objects, target_objects, max_instances=MAX_INSTANCES)
    if report.failures and not rc.recheck_failures(pa, report):
        raise QueryFailure("recheck_failures does not confirm a recorded failure")
    if not report.ok and not report.failures:
        raise QueryFailure("no transport failure recorded, only phi landing outside its hom-set")
    card = rc.check_card_inequality(pa, source_objects)
    return report.ok, report.instances, card.ok


def _composed_swap():
    swap = _swap()
    pa1 = rc.pa_gr_plain_to_decorated(swap, 6)
    pa2 = rc.pa_gr_decorated_to_plain(swap, 6, source=pa1.target)
    return rc.compose_pa(pa1, pa2)


def _composed_three():
    z2 = rc.cyclic_group(2)
    one_letter = rc.WordContext(rc.trivial_action(z2, "a"))
    q1 = rc.pa_gr_plain_to_decorated(one_letter, 6)
    q2 = rc.pa_gr_decorated_to_plain(one_letter, 6, source=q1.target)
    chain = rc.compose_pa(q1, q2)
    q3 = rc.pa_gr_to_dramop(_plain(2), 6, 6, source=chain.target)
    return rc.compose_pa(chain, q3)


def _broken_phi(choice: dict):
    """The identity on ram(3) with phi collapsed onto one drawn morphism per
    hom-set.  hom(1, 2) holds two morphisms, so the transport condition
    fails whatever the draw."""
    f3 = rc.ram_fragment(3)
    return rc.PreAdjunction("broken-phi", f3, f3, lambda x: x, lambda y: y,
                            lambda x, y, u: f3.hom(x, y)[choice[(x, y)]])


def _broken_thin(choice: int):
    """ram(2) into the thin chain 0 <= 1, phi collapsing hom(1, 2) onto one
    drawn morphism: the cardinality check and the verifier both flag it."""
    src = rc.ram_fragment(2)
    tgt = rc.thin_from_preorder(rc.chain_preorder(2))
    return rc.PreAdjunction("broken-thin", src, tgt, lambda x: x - 1, lambda y: y + 1,
                            lambda x, y, u: src.hom(x, y + 1)[choice if (x, y) == (1, 1) else 0])


def transport_queries(rng: random.Random) -> list[Query]:
    golden = "golden criteria 5 and 6; instance count " + SEED_PINNED
    chains = list(range(1, 7))
    specs = [
        ("identity ram(3)", lambda: rc.identity_pa(rc.ram_fragment(3)), [1, 2, 3], [1, 2, 3],
         (True, 25, True), golden),
        ("gr-plain-to-decorated swap 3", lambda: rc.pa_gr_plain_to_decorated(_swap(), 3), [1, 2, 3], [1, 2, 3],
         (True, 66, True), golden),
        ("gr-decorated-to-plain swap 6", lambda: rc.pa_gr_decorated_to_plain(_swap(), 6), [1, 2], chains,
         (True, 2800, True), golden),
        ("gr-to-dram-op Z2 6", lambda: rc.pa_gr_to_dramop(_plain(2), 6, 6), [1, 2], chains,
         (True, 285, True), golden),
        ("ram-to-dram-op 4", lambda: rc.pa_ram_to_dramop(4), [1, 2, 3, 4], [1, 2, 3, 4, 5],
         (True, 214, True), golden),
        ("composed plain-to-decorated, decorated-to-plain swap 6", _composed_swap, [1, 2], chains,
         (True, 1395, True), golden),
        ("composed three factors one letter 6", _composed_three, [1, 2], chains,
         (True, 78, True), golden),
        ("gr-to-dram-op Z2 7", lambda: rc.pa_gr_to_dramop(_plain(2), 7, 7), [1, 2], list(range(1, 8)),
         (True, 1398, True), SEED_PINNED),
        ("ram-to-dram-op 6", lambda: rc.pa_ram_to_dramop(5), [1, 2, 3, 4, 5], chains,
         (True, 1226, True), SEED_PINNED),
        ("gr-plain-to-decorated swap 5", lambda: rc.pa_gr_plain_to_decorated(_swap(), 5),
         [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], (True, 4239, True), SEED_PINNED),
        ("gr-to-dram-op Z3 6", lambda: rc.pa_gr_to_dramop(_plain(3), 6, 6), [1, 2], chains,
         (True, 126, True), SEED_PINNED),
    ]
    phi_choice = {(x, y): rng.randrange(comb(y, x)) for x in range(1, 4) for y in range(x, 4)}
    thin_choice = rng.randrange(2)
    specs += [
        ("mutated broken-phi", lambda: _broken_phi(phi_choice), [1, 2, 3], [1, 2, 3],
         (False, 25, True), "hom(1,2) has two morphisms; golden criterion 5"),
        ("mutated broken-thin", lambda: _broken_thin(thin_choice), [1, 2], [0, 1],
         (False, 5, False), "|hom(1,2)| = 2 > 1 in the thin chain; golden criterion 6"),
    ]
    queries = [Query("verify " + name,
                     lambda b=build, s=src, t=tgt: _transport(b, s, t), expected, source)
               for name, build, src, tgt, expected, source in specs]
    rng.shuffle(queries)
    return queries


# --- laws ---------------------------------------------------------------------

def _laws(build) -> bool:
    """``category check``: identity, closure and associativity laws."""
    return rc.validate_fragment(build()).ok


def _iso(n: int) -> bool:
    grf, dop, on_morphism = rc.dramop_word_functor(n, rc.plain_context())
    return rc.check_fragment_isomorphism(grf, dop, on_morphism)["ok"]


def _structure(build) -> tuple:
    """``category check`` structure report plus ``category skeleton``."""
    frag = build()
    report = rc.structural_checks(frag)
    skel = rc.skeleton(frag)
    return (report.is_thin, report.is_directed, report.all_mono, report.hom_self_is_identity,
            report.iso_homs_match, tuple(report.fan_in.values()), len(skel.fragment.objects))


def _op_round_trip(build) -> bool:
    frag = build()
    return rc.fragment_equal(rc.opposite(rc.opposite(frag)), frag)


def _random_preorder(rng: random.Random, n: int):
    """A random partial order on 0..n-1 in which nothing lies above n-2 but
    itself and nothing above n-1: both are maximal and incomparable, so the
    order has no top, is not directed, and {n-2, n-1} is unbounded."""
    pairs = [(a, b) for a in range(n - 2) for b in range(a + 1, n) if rng.random() < 0.2]
    return rc.preorder_from_pairs(n, pairs)


def _naive_bounded(p, subset) -> bool:
    return any(all(p.le(x, b) for x in subset) for b in range(p.size))


def _naive_cofinal(p, subset) -> bool:
    return all(any(p.le(a, x) for x in subset) for a in range(p.size))


def _map_check(kind: str, f, dom, cod) -> bool:
    """``tukey check``; a failing map's witness subset is re-certified from
    the definitions."""
    if kind == "tukey":
        verdict = rc.is_tukey_map(f, dom, cod)
    else:
        verdict = rc.is_cofinal_map(f, dom, cod)
    if not verdict.ok:
        image = sorted({f[x] for x in verdict.witness})
        if kind == "tukey":
            certified = not _naive_bounded(dom, verdict.witness) and _naive_bounded(cod, image)
        else:
            certified = _naive_cofinal(dom, verdict.witness) and not _naive_cofinal(cod, image)
        if not certified:
            raise QueryFailure(f"the {kind} witness {verdict.witness} does not refute the map")
    return verdict.ok


def _directed(p) -> bool:
    return rc.preorder_predicates(p).directed


def _monotonize(f) -> bool:
    """``tukey monotonize --preorder omega2``: the trace invariants hold and
    every prefix element gets a value."""
    o2 = rc.omega_squared()
    trace = rc.monotonize(f, o2, o2, steps=OMEGA2_PREFIX, prefix_size=OMEGA2_PREFIX)
    return rc.verify_trace(trace, o2, o2).ok and len(trace.fhat) == OMEGA2_PREFIX


def laws_queries(rng: random.Random) -> list[Query]:
    plain_z2, swap = _plain(2), _swap()
    theorem = "fragments of categories satisfy the laws; golden criterion 9 at smaller sizes"
    queries = [
        Query("laws ram(7)", lambda: _laws(lambda: rc.ram_fragment(7)), True, theorem),
        Query("laws dram(6)", lambda: _laws(lambda: rc.dram_fragment(6)), True, theorem),
        Query("laws gr(plain Z2, 5)", lambda: _laws(lambda: rc.gr_fragment(plain_z2, 5)), True, theorem),
        Query("laws gr(swap, 4)", lambda: _laws(lambda: rc.gr_fragment(swap, 4)), True, theorem),
        Query("laws vec(F2, 3)", lambda: _laws(lambda: rc.vec_fragment(2, 3)), True, theorem),
        Query("laws vec(F3, 3)", lambda: _laws(lambda: rc.vec_fragment(3, 3)), True, theorem),
        Query("iso words-rigid surjections 6", lambda: _iso(6), True,
              "plain words are dual to rigid surjections; golden criterion 9 at n=5"),
        Query("structure ram(6)", lambda: _structure(lambda: rc.ram_fragment(6)),
              (False, True, True, True, True, (1, 3, 7, 15, 31, 63), 6),
              "monotone injections: fan-in 2^b - 1, no isomorphisms between chains"),
        Query("structure dram-op(6)", lambda: _structure(lambda: rc.dram_op_fragment(6)),
              (False, True, True, True, True, (1, 2, 5, 15, 52, 203), 6),
              "rigid surjections are epi: fan-in in the opposite is the Bell number"),
        Query("structure gr(swap, 3)", lambda: _structure(lambda: rc.gr_fragment(swap, 3)),
              (False, True, True, True, True, (1, 7, 41), 3), SEED_PINNED),
        Query("opposite round trip dram(6)", lambda: _op_round_trip(lambda: rc.dram_fragment(6)), True,
              "opposite(opposite(F)) equals F (category.opposite docstring)"),
    ]
    n = PREORDER_SIZE
    p = _random_preorder(rng, n)
    sigma = list(range(n))
    rng.shuffle(sigma)
    inverse = [0] * n
    for x, y in enumerate(sigma):
        inverse[y] = x
    q = rc.FinitePreorder(tuple(tuple(p.le(inverse[a], inverse[b]) for b in range(n)) for a in range(n)))
    constant = [rng.randrange(n)] * n
    iso = "an order isomorphism is Tukey and cofinal"
    no_top = "the drawn order has no top, so a constant map is neither Tukey nor cofinal"
    queries += [
        Query("tukey isomorphism", lambda: _map_check("tukey", sigma, p, q), True, iso),
        Query("cofinal isomorphism", lambda: _map_check("cofinal", sigma, p, q), True, iso),
        Query("tukey constant map", lambda: _map_check("tukey", constant, p, q), False, no_top),
        Query("cofinal constant map", lambda: _map_check("cofinal", constant, p, q), False, no_top),
        Query("predicates directed", lambda: _directed(p), False, "two incomparable maximal elements"),
    ]
    a, b, m = rng.randrange(1, 7), rng.randrange(1, 7), rng.randrange(3, 9)
    queries.append(Query(f"monotonize omega^2 v -> (({a}x+y) % {m}, x+{b}y)",
                         lambda: _monotonize(lambda v: ((a * v[0] + v[1]) % m, v[0] + b * v[1])), True,
                         "the block construction is monotone (golden criterion 8)"))
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "arrow": arrow_queries,
    "transport": transport_queries,
    "laws": laws_queries,
}


def build(workload: str, seed: int) -> list[Query]:
    """The query list of a workload, drawn from ``seed``."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
