"""The golden acceptance suite.

``CRITERIA`` is the suite: one row ``(name, time limit, check)`` per
criterion.  A check returns ``(ok, detail)``, and ``run_criterion`` times
it and fails it when it goes over its limit in seconds.  Each check is
self-contained: expected values come from independent oracles (the Stirling
recurrence, binomial counts, direct re-enumeration), never from the code
paths under test.  Criteria 5 and 6 build their pre-adjunctions by name
through ``named_pa``, as ``preadj verify`` does.
"""

from __future__ import annotations

import time
from itertools import product
from math import comb

from .arrows import certify_bad_coloring, check_arrow_exhaustive, find_bad_coloring, min_ramsey_witness
from .category import (
    check_fragment_isomorphism,
    dram_fragment,
    dramop_word_functor,
    gr_fragment,
    ram_fragment,
    thin_from_preorder,
    validate_fragment,
    vec_fragment,
)
from .groups import cycle_action, cyclic_group, trivial_action
from .preadjunction import (
    PreAdjunction,
    build_nonthin_sequence,
    check_card_inequality,
    named_pa,
    pa_omega_to_nonthin,
    recheck_failures,
    verify_pa,
)
from .surjections import compose_rigid, dual, enumerate_rsurj, rsurj_to_word, stirling2, word_to_rsurj
from .tukey import chain_preorder, cofinal_companion, monotonize, omega, verify_trace
from .words import WordContext, enumerate_words, format_word, parse_word, plain_context, substitute

GOLDEN_WORD = "c a b a a x1 d x1^g2 x1^g2 c a x1"


def _z3_letters_context() -> WordContext:
    z3 = cyclic_group(3)
    return WordContext(cycle_action(z3, "abcd", [1, 2, 0, 3]))


def _swap_context() -> WordContext:
    z2 = cyclic_group(2)
    return WordContext(cycle_action(z2, "ab", [1, 0]))


def worked_substitution() -> tuple[bool, str]:
    """The worked example, with the substitution itself timed under 1 ms.
    The detail says only whether it was, so it is the same on every run."""
    ctx = _z3_letters_context()
    u = parse_word("c a x1 a x1^g2 x2 d x3 x2^g2 x1^g a x3^g", ctx)
    v = parse_word("b x1 x1^g2", ctx)
    best = min(_timed_substitution(ctx, u, v) for _ in range(3))
    got = format_word(substitute(ctx, u, v), ctx)
    fast = best < 0.001
    return got == GOLDEN_WORD and fast, f"result {got!r}, substitute {'under' if fast else 'over'} 1ms"


def _timed_substitution(ctx, u, v) -> float:
    t0 = time.perf_counter()
    substitute(ctx, u, v)
    return time.perf_counter() - t0


def counting_identities() -> tuple[bool, str]:
    pc = plain_context()
    for n in range(1, 7):
        for m in range(1, n + 1):
            # the definition read directly: onto 1..m, preimage minima increasing
            brute = [f for f in product(range(1, m + 1), repeat=n)
                     if set(f) == set(range(1, m + 1)) and all(f.index(b) < f.index(b + 1) for b in range(1, m))]
            if [f.image for f in enumerate_rsurj(n, m)] != brute:
                return False, f"rsurj({n}, {m}) differs from the brute-force list"
    for n in range(1, 8):
        for m in range(1, n + 1):
            ws = sum(1 for _ in enumerate_words(m, n, pc))
            if ws != stirling2(n, m):
                return False, f"mismatch at (n={n}, m={m}): words {ws}, S {stirling2(n, m)}"
    f8 = ram_fragment(8)
    for m in range(1, 9):
        for n in range(m, 9):
            if len(f8.hom(m, n)) != comb(n, m):
                return False, f"ram hom({m},{n}) != C({n},{m})"
    return True, ("rsurj lists match a brute-force filter of all maps (n<=6); plain word counts match "
                  "the Stirling recurrence (n<=7); ram homs binomial (n<=8)")


def duality_suite() -> tuple[bool, str]:
    pc = plain_context()
    for n in range(1, 7):
        for m in range(1, n + 1):
            for u in enumerate_words(m, n, pc):
                if rsurj_to_word(word_to_rsurj(u)) != u:
                    return False, f"round trip broke on {format_word(u, pc)}"
            for k in range(1, m + 1):
                for u in enumerate_words(m, n, pc):
                    fu = word_to_rsurj(u)
                    for v in enumerate_words(k, m, pc):
                        if word_to_rsurj(substitute(pc, u, v)) != compose_rigid(word_to_rsurj(v), fu):
                            return False, f"f_(u.v) != f_v o f_u at ({n},{m},{k})"
    for n in range(1, 6):
        for m in range(1, n + 1):
            for k in range(1, m + 1):
                for f in enumerate_rsurj(n, m):
                    df = dual(f)
                    for g in enumerate_rsurj(m, k):
                        dg = dual(g)
                        if dual(compose_rigid(g, f)) != tuple(df[i - 1] for i in dg):
                            return False, f"dual contravariance broke at ({n},{m},{k})"
    return True, "f_(u.v) = f_v o f_u and round trips (n<=6); dual contravariance (chains<=5)"


def ramsey_search() -> tuple[bool, str]:
    n, _ = min_ramsey_witness(lambda k: ram_fragment(k), 2, 3, 2, 8)
    if n != 6:
        return False, f"minimal n for (3)^2_2 is {n}, expected 6"
    f5 = ram_fragment(5)
    bad = find_bad_coloring(f5, 2, 3, 5, 2)
    if bad is None or not certify_bad_coloring(f5, 2, 3, 5, bad):
        return False, "n=5 counterexample missing or uncertified"
    f10 = ram_fragment(10)
    agreed = 0
    for c in range(1, 11):
        for a in range(1, c + 1):
            if comb(c, a) > 16:
                continue
            for b in range(a, c + 1):
                ex = check_arrow_exhaustive(f10, a, b, c, 2)
                bt = find_bad_coloring(f10, a, b, c, 2)
                if ex.holds != (bt is None):
                    return False, f"engines disagree at (A={a},B={b},C={c})"
                if bt is not None and not certify_bad_coloring(f10, a, b, c, bt):
                    return False, f"uncertified counterexample at (A={a},B={b},C={c})"
                agreed += 1
    return True, f"minimal n = 6; n=5 counterexample certified; engines agree on {agreed} instances"


def _verified_pas() -> list[tuple[PreAdjunction, list, list]]:
    """The pre-adjunctions criteria 5 and 6 verify, each a row of (name,
    context, src, tgt) built by ``named_pa``, with its objects."""
    z2 = cyclic_group(2)
    swap, plain_z2 = _swap_context(), WordContext(trivial_action(z2))
    one_letter = WordContext(trivial_action(z2, "a"))
    rows = (("identity", swap, 3, 3),
            ("gr-plain-to-decorated", swap, 3, 3),
            ("gr-decorated-to-plain", swap, 2, 6),
            ("gr-to-dram-op", plain_z2, 2, 6),
            ("ram-to-dram-op", swap, 4, 5),
            ("composed:gr-plain-to-decorated,gr-decorated-to-plain", swap, 2, 6),
            ("composed:gr-plain-to-decorated,gr-decorated-to-plain,gr-to-dram-op", one_letter, 2, 6))
    return [named_pa(name, context, {"src": src, "tgt": tgt}) for name, context, src, tgt in rows]


def _broken_phi_pa() -> PreAdjunction:
    f3 = ram_fragment(3)
    return PreAdjunction("broken-phi", f3, f3, lambda x: x, lambda y: y,
                         lambda x, y, u: f3.hom(x, y)[0])


def _broken_thin_pa() -> PreAdjunction:
    src = ram_fragment(2)
    tgt = thin_from_preorder(chain_preorder(2))
    return PreAdjunction("broken-thin", src, tgt, lambda x: x - 1, lambda y: y + 1,
                         lambda x, y, u: src.hom(x, y + 1)[0])


def transport_condition() -> tuple[bool, str]:
    details = []
    for pa, src_objs, tgt_objs in _verified_pas():
        report = verify_pa(pa, src_objs, tgt_objs)
        details.append(f"{pa.name}:{report.instances}")
        if not report.ok:
            return False, f"{pa.name} has {len(report.failures)} failures"
        if report.instances == 0:
            return False, f"{pa.name} checked nothing"
    broken = _broken_phi_pa()
    rep = verify_pa(broken, [1, 2, 3], [1, 2, 3])
    if not rep.failures or not recheck_failures(broken, rep):
        return False, "mutated family produced no certified failure"
    return True, "zero failures on " + ", ".join(details) + f"; mutation yields {len(rep.failures)} certified failures"


def cardinality() -> tuple[bool, str]:
    for pa, src_objs, _ in _verified_pas():
        card = check_card_inequality(pa, src_objs)
        if not card.ok:
            return False, f"{pa.name} violates the inequality: {card.violations[:1]}"
    broken = _broken_thin_pa()
    card = check_card_inequality(broken, [1, 2])
    vrep = verify_pa(broken, [1, 2], [0, 1])
    if card.ok or vrep.ok:
        return False, "the mutated thin-target family was not flagged"
    return True, "inequality holds on every verified family; thin-target mutation flagged by both checks"


def nonthin_pipeline() -> tuple[bool, str]:
    f6 = ram_fragment(6)
    seq = build_nonthin_sequence(f6, 3)
    if len(seq.objects) < 3:
        return False, f"sequence too short: {seq.objects}"
    if not all(c["forward_at_least_two"] and c["reverse_empty"] for c in seq.certificates):
        return False, f"certificates failed: {seq.certificates}"
    pa = pa_omega_to_nonthin(f6, [2, 3, 4, 5, 6])
    report = verify_pa(pa, [0, 1, 2, 3, 4], list(range(1, 7)))
    if not report.ok:
        return False, f"thin-chain embedding failed: {len(report.failures)} failures"
    return True, (f"sequence {seq.objects} certified; thin-chain embedding verified on 0..4 "
                  f"({report.instances} instances)")


def monotonization() -> tuple[bool, str]:
    om = omega()

    def f(v):
        return v + 10 if v % 2 == 0 else v // 2

    trace = monotonize(f, om, om, steps=30, prefix_size=30)
    check = verify_trace(trace, om, om)
    if not check.ok or len(trace.fhat) != 30:
        return False, f"trace invariants failed: {check}"
    companion = cofinal_companion(lambda v: 2 * v, om, om, 20)
    return True, (f"30-element trace monotone in {trace.rounds} rounds; companion implication checked on "
                  f"{companion.checked_pairs} pairs")


def fragment_laws() -> tuple[bool, str]:
    z2 = cyclic_group(2)
    fragments = [
        ram_fragment(5),
        dram_fragment(5),
        gr_fragment(WordContext(trivial_action(z2)), 4),
        gr_fragment(_swap_context(), 3),
        vec_fragment(2, 3),
    ]
    for frag in fragments:
        report = validate_fragment(frag)
        if not report.ok:
            return False, f"{frag.name} violates the laws"
    grf, dop, on_m = dramop_word_functor(5, plain_context())
    iso = check_fragment_isomorphism(grf, dop, on_m)
    if not iso["ok"]:
        return False, f"words/surjections correspondence broke: {iso['failures'][:1]}"
    return True, ("laws hold for ram(5), dram(5), gr(0,Z2,4), gr(ab,Z2,3), vec(F2,3); "
                  "the words/surjections fragment isomorphism preserves composition (n<=5)")


# (name, time limit in seconds, check)
CRITERIA = (
    ("1 worked substitution", 5.0, worked_substitution),  # the substitution itself must stay under 1ms
    ("2 counting identities", 5.0, counting_identities),
    ("3 duality suite", 10.0, duality_suite),
    ("4 ramsey search", 60.0, ramsey_search),
    ("5 transport condition", 300.0, transport_condition),
    ("6 cardinality diagnostic", 300.0, cardinality),
    ("7 growing-sequence pipeline", 60.0, nonthin_pipeline),
    ("8 monotonization", 1.0, monotonization),
    ("9 fragment laws", 60.0, fragment_laws),
)


def run_criterion(name: str, limit: float, check) -> dict:
    """``{name, ok, detail, seconds}`` of one timed run of ``check``; a run
    over ``limit`` seconds fails."""
    started = time.perf_counter()
    ok, detail = check()
    seconds = time.perf_counter() - started
    if seconds > limit:
        ok, detail = False, detail + f" (over the {limit:.0f}s budget)"
    return {"name": name, "ok": bool(ok), "detail": detail, "seconds": seconds}


def run_golden_suite() -> dict:
    criteria = [run_criterion(*row) for row in CRITERIA]
    return {"ok": all(c["ok"] for c in criteria), "criteria": criteria}
