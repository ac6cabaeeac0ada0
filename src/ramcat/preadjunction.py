"""Pre-adjunctions between category fragments and their exhaustive verifier.

A pre-adjunction from a source fragment to a target fragment is a pair of
object maps ``F`` (source to target) and ``H`` (target to source) together
with a family ``phi`` sending each morphism of hom(F(X), Y) to a morphism of
hom(X, H(Y)).  The defining transport condition is: for all objects A, B of
the source, C of the target, every u in hom(F(B), C) and f in hom(A, B)
there is a v in hom(F(A), F(B)) with

    phi(B, C, u) . f  ==  phi(A, C, u . v).

``verify_pa`` quantifies this exhaustively over explicit object bounds and
records a witness ``v`` per instance or a re-checkable failure.  Concrete
constructions cover the reductions between the parameter-word categories,
their collapse onto rigid surjections, chains into rigid surjections, the
thin case coming from monotone Tukey maps, and the embedding of a thin chain
into any fragment carrying a strictly growing object sequence.

``named_pa`` builds the shipped instances by their names in ``PA_NAMES``,
and composites of them, with their source and target objects; ``preadj
verify`` and the golden criteria read them there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import repeat
from operator import eq
from typing import Callable, Iterator, Sequence

from .arrows import find_bad_coloring
from .category import (
    CategoryFragment,
    Morphism,
    _injective,
    _payloads_into,
    dram_op_fragment,
    gr_fragment,
    omega_truncation,
    ram_fragment,
    same_interface,
    thin_from_preorder,
)
from .errors import BudgetExceeded, ValidationError
from .groups import trivial_action
from .surjections import RigidSurjection, dual, validate_rigid
from .tukey import FinitePreorder, chain_preorder
from .words import (
    LETTER,
    PARAM,
    DecoratedWord,
    WordContext,
    plain_context,
    validate_word,
    word_tokens,
)


@dataclass
class PreAdjunction:
    """Object maps ``F`` and ``H`` with the morphism family ``phi`` and an
    optional ``suggested_v`` that proposes a transport witness for ``(A, B,
    f)``.  ``phi`` and ``suggested_v`` must be functions of their arguments
    alone: the verifier evaluates each once per distinct argument and reuses
    the value.  It reads the target's composites u . v through
    ``CategoryFragment.columns``, the helper the arrow copy listing also
    reads, so ``phi`` receives the listed member of hom(F(X), Y)."""

    name: str
    source: CategoryFragment
    target: CategoryFragment
    object_map: Callable  # F : source objects -> target objects
    co_object_map: Callable  # H : target objects -> source objects
    phi: Callable[[object, object, Morphism], Morphism]
    suggested_v: Callable[[object, object, Morphism], Morphism | None] | None = None

    def F(self, x):
        y = self.object_map(x)
        if not self.target.has_object(y):
            raise ValidationError("object_not_in_fragment",
                                  f"F({x}) = {y} is not in the target fragment", x=x, image=y)
        return y

    def H(self, y):
        x = self.co_object_map(y)
        if not self.source.has_object(x):
            raise ValidationError("object_not_in_fragment",
                                  f"H({y}) = {x} is not in the source fragment", y=y, image=x)
        return x


_UNSEEN = object()  # a phi value not evaluated yet


@dataclass
class PAReport:
    """What ``verify_pa`` found.  ``witnesses`` holds the witnesses by
    position, one tuple ``(A, B, C, us, suggested, vs)`` per (A, B, C)
    block with instances:

    * ``us``: the positions in hom(F(B), C) of the u whose phi landed, the
      list the check keeps for (B, C) and shares among its blocks;
    * ``suggested``: for each f of hom(A, B) in turn, the position in
      hom(F(A), F(B)) of its suggested v, or None where there is none there;
    * ``vs``: for each f in turn, None when its suggested v is the witness
      of every u, else the position in hom(F(A), F(B)) of each u's witness,
      None where the instance failed.

    ``expand_witnesses`` reads them back one instance at a time."""

    name: str
    source_objects: list
    target_objects: list
    instances: int = 0
    failures: list = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    phi_landing_failures: list = field(default_factory=list)
    suggested_tried: int = 0
    suggested_hits: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures and not self.phi_landing_failures


def verify_pa(pa: PreAdjunction, source_objects: Sequence, target_objects: Sequence,
              max_instances: int = 2_000_000) -> PAReport:
    """Exhaustively check the transport condition over the given object
    bounds.  Every recorded failure really has no witness (the whole
    candidate hom-set was scanned); every recorded witness is the first one
    in canonical order, with any construction-suggested candidate tried
    first and its success tracked.

    Each (A, B, C) block is checked a column at a time.  phi's values are
    kept in one list per (X, C), indexed by position in hom(F(X), C), so
    ``pa.phi`` is evaluated once per distinct ``(X, Y, u)`` within a call
    and must be a function of its arguments; ``recheck_failures`` evaluates
    it afresh.  Whether a value of phi(B, C, u) lands in hom(B, H(C)) is
    checked by ``in_hom`` once per distinct value and (B, H(C)), the value
    told apart by its class and its payload's class as ``in_hom`` tells
    them apart; a value that is not a ``Morphism``, or cannot be hashed, is
    checked each time.  This landing check is where a phi value is
    validated: a value that is not a morphism of hom(B, H(C)) is recorded
    as a landing failure for each u that gives it.  A ``gr`` source decides
    it from the word, without listing hom(B, H(C)).  The suggested v is
    drawn and checked against hom(F(A), F(B)) once per (A, B, f).  The
    composites u . v of each suggested v come from one column over the
    landed u of hom(F(B), C), passed by their positions
    (``CategoryFragment.columns``: character substitution on the spellings
    the target keeps for each hom-set, where it has a spelling, else its
    rule), and phi(B, C, u) . f is formed once per distinct phi value and f.
    phi is evaluated at the column's unseen positions, and the column's
    values are compared with phi(B, C, u) . f for every landed u in one
    ``map``.  The instances it misses are scanned in (u, f) order, the
    candidates in turn, through ``compose``.

    A block whose instances would take the count past ``max_instances``
    raises ``BudgetExceeded`` before it is checked; its ``stats`` hold the
    instances checked, the failures and landing failures recorded so far,
    and the block (A, B, C)."""
    report = PAReport(pa.name, list(source_objects), list(target_objects))
    src, tgt = pa.source, pa.target
    rule = src.rule
    values: dict = {}  # (X, C) -> phi(X, C, w) for each w of hom(F(X), C), or _UNSEEN
    # (B, H(C)) -> {(class, payload class, phi value): the value's number in
    # ``distinct``, or -1 where it does not land in hom(B, H(C))}
    verdicts: dict = {}
    distinct: list = []  # each distinct phi value that landed, numbered by position

    def phis(x_obj, fx, c_obj) -> list:
        row = values.get((x_obj, c_obj))
        if row is None:
            row = values[x_obj, c_obj] = [_UNSEEN] * tgt.hom_size(fx, c_obj)
        return row

    for b_obj in source_objects:
        fb = pa.F(b_obj)
        # C -> the positions in hom(F(B), C) of the u whose phi(B, C, u) lands
        # in hom(B, H(C)), and the numbers of their phi values; filled on the
        # first A
        landed: dict = {}
        for a_obj in source_objects:
            fa = pa.F(a_obj)
            candidates = tgt.hom(fa, fb)
            fs = src.hom(a_obj, b_obj)
            # the position in hom(F(A), F(B)) of the suggested v of each f in
            # turn, or None where it is not there; drawn on the first C with
            # a landed u
            suggested = None
            lhs: dict = {}  # number of phi(B, C, u) -> phi(B, C, u) . f for each f in turn
            for c_obj in target_objects:
                hc = pa.H(c_obj)
                hom_bc = tgt.hom(fb, c_obj)
                row_b = phis(b_obj, fb, c_obj)
                if c_obj in landed:
                    us, numbers = landed[c_obj]
                else:
                    us, numbers = landed[c_obj] = [], []
                    seen = verdicts.get((b_obj, hc))
                    if seen is None:
                        seen = verdicts[b_obj, hc] = {}
                    for ui, u in enumerate(hom_bc):
                        phi_u = row_b[ui]
                        if phi_u is _UNSEEN:
                            phi_u = row_b[ui] = pa.phi(b_obj, c_obj, u)
                        key = None
                        number = len(distinct)
                        if isinstance(phi_u, Morphism):
                            try:
                                key = type(phi_u), type(phi_u.payload), phi_u
                                number = seen.setdefault(key, number)
                            except TypeError:  # an unhashable value, checked each time
                                key = None
                        if number == len(distinct):  # not seen before
                            if src.in_hom(phi_u, b_obj, hc):
                                distinct.append(phi_u)
                            else:
                                number = -1
                                if key is not None:
                                    seen[key] = -1
                        if number >= 0:
                            us.append(ui)
                            numbers.append(number)
                        else:
                            report.phi_landing_failures.append({"X": b_obj, "Y": c_obj, "u": u, "phi": phi_u})
                if not us or not fs:
                    continue
                if report.instances + len(us) * len(fs) > max_instances:
                    raise BudgetExceeded("pa_instances", max_instances, stats={
                        "instances_checked": report.instances, "failures": len(report.failures),
                        "phi_landing_failures": len(report.phi_landing_failures),
                        "block": {"A": a_obj, "B": b_obj, "C": c_obj}})
                report.instances += len(us) * len(fs)
                hom_ac = tgt.hom(fa, c_obj)
                row_a = phis(a_obj, fa, c_obj)
                wanted = list(map(lhs.get, numbers))  # phi(B, C, u) . f for each f, one row per landed u
                if None in wanted:
                    for j, number in enumerate(numbers):
                        if wanted[j] is None:
                            row = lhs.get(number)
                            if row is None:
                                # the value is in hom(B, H(C)), so the rule composes it after each f
                                phi_u = distinct[number]
                                row = lhs[number] = [Morphism(f.dom, phi_u.cod, rule(phi_u.payload, f.payload))
                                                     for f in fs]
                            wanted[j] = row
                by_f = list(zip(*wanted))
                if suggested is None:
                    # the f with a suggested v, and those v as listed
                    suggested, given, shown = [None] * len(fs), [], []
                    if pa.suggested_v is not None:
                        for fi, f in enumerate(fs):
                            v = pa.suggested_v(a_obj, b_obj, f)
                            if tgt.in_hom(v, fa, fb):
                                suggested[fi] = tgt.hom_index(fa, fb)[v.payload]
                                given.append(fi)
                                shown.append(candidates[suggested[fi]])
                # per f: None where the suggested v is every u's witness, else
                # the position of each u's witness in hom(F(A), F(B)), or None
                vs = [None] * len(fs)
                if len(given) < len(fs):
                    for fi, vi in enumerate(suggested):
                        if vi is None:
                            vs[fi] = [None] * len(us)
                if pa.suggested_v is not None:
                    report.suggested_tried += len(us) * len(fs)
                for fi, column in zip(given, tgt.columns(fa, fb, c_obj, us, shown) if shown else ()):
                    # an unseen value equals no composite, so a column with
                    # one is evaluated there and compared again
                    if all(map(eq, map(row_a.__getitem__, column), by_f[fi])):
                        report.suggested_hits += len(us)
                        continue
                    for w in column:
                        if row_a[w] is _UNSEEN:
                            row_a[w] = pa.phi(a_obj, c_obj, hom_ac[w])
                    hits = list(map(eq, map(row_a.__getitem__, column), by_f[fi]))
                    if all(hits):
                        report.suggested_hits += len(us)
                    else:
                        vs[fi] = [at if hit else None for hit, at in zip(hits, repeat(suggested[fi]))]
                        report.suggested_hits += len(us) - vs[fi].count(None)
                if any(vs):
                    index = tgt.hom_index(fa, c_obj)
                    for j, ui in enumerate(us):
                        u = hom_bc[ui]
                        for fi, column in enumerate(vs):
                            if column is None or column[j] is not None:
                                continue
                            want = by_f[fi][j]
                            for vi, v in enumerate(candidates):
                                w = index[tgt.compose(u, v).payload]
                                value = row_a[w]
                                if value is _UNSEEN:
                                    value = row_a[w] = pa.phi(a_obj, c_obj, hom_ac[w])
                                if value == want:
                                    column[j] = vi
                                    break
                            else:
                                report.failures.append({"A": a_obj, "B": b_obj, "C": c_obj, "u": u,
                                                        "f": fs[fi]})
                report.witnesses.append((a_obj, b_obj, c_obj, us, suggested, vs))
    return report


def recheck_failures(pa: PreAdjunction, report: PAReport) -> bool:
    """Independently confirm each recorded failure: no candidate v satisfies
    the transport equation."""
    src, tgt = pa.source, pa.target
    for failure in report.failures:
        a_obj, b_obj, c_obj = failure["A"], failure["B"], failure["C"]
        u, f = failure["u"], failure["f"]
        lhs = src.compose(pa.phi(b_obj, c_obj, u), f)
        for v in tgt.hom(pa.F(a_obj), pa.F(b_obj)):
            if pa.phi(a_obj, c_obj, tgt.compose(u, v)) == lhs:
                return False
    return True


def expand_witnesses(pa: PreAdjunction, report: PAReport) -> Iterator[dict]:
    """The witnesses of ``report`` one instance at a time, in the order
    ``verify_pa`` checked them: for each (A, B, C) block, each landed u and
    each f in turn, the morphisms u, f and the witness v with whether v is
    the suggested one.  The morphisms are read from ``pa``'s hom-sets at
    the recorded positions; a witness at its f's suggested position is the
    suggested v."""
    src, tgt = pa.source, pa.target
    for a_obj, b_obj, c_obj, us, suggested, vs in report.witnesses:
        fb = pa.F(b_obj)
        hom_bc, fs, candidates = tgt.hom(fb, c_obj), src.hom(a_obj, b_obj), tgt.hom(pa.F(a_obj), fb)
        for j, ui in enumerate(us):
            for fi, f in enumerate(fs):
                vi = suggested[fi] if vs[fi] is None else vs[fi][j]
                if vi is not None:
                    yield {"A": a_obj, "B": b_obj, "C": c_obj, "u": hom_bc[ui], "f": f, "v": candidates[vi],
                           "suggested": vi == suggested[fi]}


def identity_pa(fragment: CategoryFragment) -> PreAdjunction:
    return PreAdjunction(
        "identity",
        fragment,
        fragment,
        lambda x: x,
        lambda y: y,
        lambda x, y, u: u,
        suggested_v=lambda a, b, f: f,
    )


def compose_pa(first: PreAdjunction, second: PreAdjunction, name: str | None = None) -> PreAdjunction:
    """Compose two pre-adjunctions along a shared middle fragment; the
    morphism family threads through the middle hom-sets.

    The middle fragments must agree in objects, hom-sets and identities but
    not in composition: gr(swap, n) and gr(trivial Z2 on "ab", n) list the
    same words and are accepted, as are explicit fragments that differ only
    in their compose tables.  No verdict is unsound for it: ``verify_pa``
    checks the composite's own transport condition."""
    if not same_interface(first.target, second.source):
        raise ValidationError("fragment_mismatch",
                              "the first target fragment must equal the second source fragment")

    def phi(x, z, w):
        return first.phi(x, second.H(z), second.phi(first.F(x), z, w))

    suggested = None
    if first.suggested_v is not None and second.suggested_v is not None:
        def suggested(a, b, f):
            v1 = first.suggested_v(a, b, f)
            if v1 is None:
                return None
            return second.suggested_v(first.F(a), first.F(b), v1)

    def factors(pa: PreAdjunction) -> str:
        return pa.name.removeprefix("composed:")

    return PreAdjunction(
        name or f"composed:{factors(first)},{factors(second)}",
        first.source,
        second.target,
        lambda x: second.F(first.F(x)),
        lambda z: first.H(second.H(z)),
        phi,
        suggested_v=suggested,
    )


# --- parameter-word reductions ----------------------------------------------

def pa_gr_plain_to_decorated(context: WordContext, n: int,
                             source: CategoryFragment | None = None,
                             target: CategoryFragment | None = None) -> PreAdjunction:
    """From undecorated words into decorated words over (A, G): strip
    exponents to neutral and letters to x1, so each letter becomes x1 and
    each x_i^h becomes x_i; any plain word is its own transport witness.
    phi reads each token of u in a table of the tokens of ``context`` with
    at most n parameters, built once, and builds its word without
    validating it: ``verify_pa``'s landing check validates each value it
    reads."""
    plain = plain_context()
    source = source or gr_fragment(plain, n)
    target = target or gr_fragment(context, n)
    table = {token: (PARAM, 1, 0) if token[0] == LETTER else (PARAM, token[1], 0)
             for token in word_tokens(context, n)}.__getitem__

    def phi(m_obj, n_obj, u: Morphism) -> Morphism:
        return Morphism(m_obj, n_obj, DecoratedWord(tuple(map(table, u.payload.tokens)), u.payload.m))

    def suggested(a, b, f: Morphism) -> Morphism:
        return f  # a plain word is the decorated word with the same tokens

    return PreAdjunction("gr-plain-to-decorated", source, target,
                         lambda x: x, lambda y: y, phi, suggested_v=suggested)


def pa_gr_decorated_to_plain(context: WordContext, n: int,
                             source: CategoryFragment | None = None,
                             target: CategoryFragment | None = None) -> PreAdjunction:
    """From decorated words over (A, G) into undecorated words over the same
    group with the alphabet absorbed as extra leading variables.  A word over
    the enlarged variable set re-reads as a decorated word by sending the
    i-th alphabet variable under exponent h to the letter obtained by acting
    with h; the transport witness for f prepends the alphabet block to f.
    So phi sends x_i^h to the letter i acted on by h for i <= |A|, and to
    x_(i - |A|)^h otherwise, reading each token of u in a table of the
    tokens of the target's context with at most n parameters, built once.
    phi builds its word without validating it: ``verify_pa``'s landing check
    validates each value it reads; the suggested witness is validated."""
    t = len(context.alphabet)
    if t == 0:
        raise ValidationError("empty_alphabet", "the construction absorbs a nonempty alphabet")
    plain_g = WordContext(trivial_action(context.group))
    source = source or gr_fragment(context, n)
    target = target or gr_fragment(plain_g, n)
    act = context.action.table  # a target word's exponents are elements of the same group
    table = {(kind, idx, exp): (LETTER, act[idx - 1][exp], 0) if idx <= t else (PARAM, idx - t, exp)
             for kind, idx, exp in word_tokens(plain_g, n)}.__getitem__

    def phi(m_obj, n_obj, u: Morphism) -> Morphism:
        return Morphism(m_obj, n_obj, DecoratedWord(tuple(map(table, u.payload.tokens)), m_obj))

    def suggested(a, b, f: Morphism) -> Morphism:
        tokens = [(PARAM, i, 0) for i in range(1, t + 1)]
        for kind, idx, exp in f.payload.tokens:
            if kind == LETTER:
                tokens.append((PARAM, idx + 1, 0))
            else:
                tokens.append((PARAM, t + idx, exp))
        word = validate_word(tokens, t + a, plain_g)
        return Morphism(t + a, t + b, word)

    return PreAdjunction("gr-decorated-to-plain", source, target,
                         lambda x: t + x, lambda y: y, phi, suggested_v=suggested)


def pa_gr_to_dramop(context: WordContext, n_source: int, n_chains: int,
                    source: CategoryFragment | None = None,
                    target: CategoryFragment | None = None) -> PreAdjunction:
    """From undecorated words over a group G into the opposite of rigid
    surjections: an object n blows up to the chain n x G ordered first by
    position then by element index, the neutral element first; a rigid
    surjection onto that chain reads off as a decorated word, and the
    transport witness of a word f sends (j, h) to (i, g*h) where the j-th
    token of f is x_i^g.  So phi reads chain position p = (j - 1)|G| + g + 1
    as the token x_j^g, looking each value of u up in a table of the chain
    positions 1..n_chains, built once.  phi builds its word without
    validating it: ``verify_pa``'s landing check validates each value it
    reads."""
    if context.alphabet:
        raise ValidationError("nonempty_alphabet", "this construction starts from the empty alphabet")
    group = context.group
    t = group.order
    source = source or gr_fragment(context, n_source)
    target = target or dram_op_fragment(n_chains)

    def pos(i: int, g: int) -> int:
        return (i - 1) * t + g + 1

    def unpos(p: int) -> tuple[int, int]:
        return (p - 1) // t + 1, (p - 1) % t

    # position p of a chain -> its token, with no position 0
    table = ((None,) + tuple((PARAM, *unpos(p)) for p in range(1, n_chains + 1))).__getitem__

    def phi(n_obj, c_obj, u: Morphism) -> Morphism:
        surj: RigidSurjection = u.payload  # a rigid surjection c_obj -> n_obj * t
        return Morphism(n_obj, c_obj, DecoratedWord(tuple(map(table, surj.image)), n_obj))

    def suggested(a, b, f: Morphism) -> Morphism:
        image = []
        for p in range(1, b * t + 1):
            j, h = unpos(p)
            kind, i, g = f.payload.tokens[j - 1]
            image.append(pos(i, group.multiply(g, h)))
        surj = validate_rigid(b * t, a * t, tuple(image))
        return Morphism(a * t, b * t, surj)

    return PreAdjunction("gr-to-dram-op", source, target,
                         lambda x: x * t, lambda y: y, phi, suggested_v=suggested)


def pa_ram_to_dramop(n_source: int) -> PreAdjunction:
    """From chains with monotone injections into the opposite of rigid
    surjections.  Reading minima of preimages turns a rigid surjection into a
    monotone injection but always fixes the first point, so objects shift by
    one: F(n) = n+1, the image map drops the forced first point, and the
    transport witness of an injection f is the staircase surjection whose
    preimage minima are 1, f(1)+1, ..., f(a)+1."""
    source = ram_fragment(n_source)
    target = dram_op_fragment(n_source + 1)

    def phi(x_obj, y_obj, u: Morphism) -> Morphism:
        d = dual(u.payload)  # strictly monotone, d[0] == 1
        images = tuple(v - 1 for v in d[1:])
        return Morphism(x_obj, y_obj - 1, images)

    def suggested(a, b, f: Morphism) -> Morphism:
        spine = (1,) + tuple(v + 1 for v in f.payload)
        image = []
        for p in range(1, b + 2):
            image.append(sum(1 for s in spine if s <= p))
        surj = validate_rigid(b + 1, a + 1, tuple(image))
        return Morphism(a + 1, b + 1, surj)

    return PreAdjunction("ram-to-dram-op", source, target,
                         lambda x: x + 1, lambda y: max(y - 1, 1), phi, suggested_v=suggested)


# --- thin sources -------------------------------------------------------------

@dataclass
class NonthinSequence:
    objects: list
    seed: tuple
    certificates: list
    exhausted: bool


def build_nonthin_sequence(fragment: CategoryFragment, length: int,
                           node_budget: int | None = None) -> NonthinSequence:
    """Greedy strictly-growing object sequence: seed with the first pair
    carrying at least two parallel morphisms, then repeatedly take the least
    object satisfying the 2-coloring arrow over the previous two entries.
    Stops early (flagged) when the fragment runs out; raises when the
    fragment is thin.  Each consecutive pair is certified by at least two
    forward morphisms and an empty reverse hom-set."""
    seed = None
    for a in fragment.objects:
        for b in fragment.objects:
            if fragment.hom_size(a, b) >= 2:
                seed = (a, b)
                break
        if seed:
            break
    if seed is None:
        raise ValidationError("fragment_thin", "no pair of objects carries two parallel morphisms")
    a_prev, b_first = seed
    seq = [b_first]
    exhausted = False
    while len(seq) < length:
        a_param = a_prev if len(seq) == 1 else seq[-2]
        b_param = seq[-1]
        found = None
        for cand in fragment.objects:
            if not (fragment.arrow(a_param, b_param) and fragment.arrow(b_param, cand)):
                continue
            if find_bad_coloring(fragment, a_param, b_param, cand, 2, node_budget) is None:
                found = cand
                break
        if found is None:
            exhausted = True
            break
        seq.append(found)
    certificates = []
    for i in range(len(seq) - 1):
        certificates.append({
            "pair": (seq[i], seq[i + 1]),
            "forward_at_least_two": fragment.hom_size(seq[i], seq[i + 1]) >= 2,
            "reverse_empty": not fragment.arrow(seq[i + 1], seq[i]),
        })
    return NonthinSequence(seq, seed, certificates, exhausted)


def pa_omega_to_nonthin(fragment: CategoryFragment, sequence: Sequence) -> PreAdjunction:
    """Embed the thin chain 0..N into a fragment along a strictly growing
    object sequence: F(k) is the k-th sequence entry, H takes an object to
    the largest index whose entry still maps into it (0 when none does), and
    the morphism family collapses onto the unique thin arrows."""
    seq = list(sequence)
    for i, obj in enumerate(seq):
        if not fragment.has_object(obj):
            raise ValidationError("object_not_in_fragment", f"sequence entry {obj!r} missing", index=i)
    for i in range(len(seq) - 1):
        if not fragment.arrow(seq[i], seq[i + 1]):
            raise ValidationError("sequence_not_strict", f"no morphism {seq[i]!r} -> {seq[i + 1]!r}", i=i)
        if fragment.arrow(seq[i + 1], seq[i]):
            raise ValidationError("sequence_not_strict", f"reverse morphism {seq[i + 1]!r} -> {seq[i]!r} exists", i=i)
    source = omega_truncation(len(seq) - 1)

    def h_map(x):
        hits = [i for i, obj in enumerate(seq) if fragment.arrow(obj, x)]
        return max(hits) if hits else 0

    def phi(k, x, u):
        return Morphism(k, h_map(x), None)

    def suggested(a, b, f):
        ms = fragment.hom(seq[a], seq[b])
        return ms[0] if ms else None

    return PreAdjunction("omega-to-fragment", source, fragment,
                         lambda k: seq[k], h_map, phi, suggested_v=suggested)


def pa_from_monotone_tukey(p_source: FinitePreorder, p_target: FinitePreorder,
                           f: Sequence[int], g: Sequence[int]) -> PreAdjunction:
    """Thin-category pre-adjunction from a monotone map with a companion
    satisfying f(x) <= y  =>  x <= g(y); both hypotheses are checked on all
    pairs before anything is built."""
    for x in range(p_source.size):
        for y in range(p_source.size):
            if p_source.le(x, y) and not p_target.le(f[x], f[y]):
                raise ValidationError("not_monotone", f"f breaks monotonicity on ({x},{y})", x=x, y=y)
    for x in range(p_source.size):
        for y in range(p_target.size):
            if p_target.le(f[x], y) and not p_source.le(x, g[y]):
                raise ValidationError("implication_fails",
                                      f"f({x}) <= {y} but not {x} <= g({y})", x=x, y=y)
    source = thin_from_preorder(p_source, name="src")
    target = thin_from_preorder(p_target, name="tgt")

    def phi(x, y, u):
        return Morphism(x, g[y], None)

    def suggested(a, b, fm):
        return Morphism(f[a], f[b], None)

    return PreAdjunction("from-monotone-tukey", source, target,
                         lambda x: f[x], lambda y: g[y], phi, suggested_v=suggested)


# --- cardinality diagnostic ----------------------------------------------------

@dataclass
class CardinalityReport:
    pairs: list
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def check_card_inequality(pa: PreAdjunction, source_objects: Sequence) -> CardinalityReport:
    """For mono sources, any genuine pre-adjunction forces
    |hom(F(A), F(B))| >= |hom(A, B)|; evaluate that on every object pair.
    Each source morphism out of A is tested as ``is_mono`` tests it, against
    the payloads of the hom-sets into A, which are listed once per object A,
    not once per morphism."""
    source = pa.source
    for a in source_objects:
        into = _payloads_into(source, a)
        for b in source_objects:
            for m in source.hom(a, b):
                if not _injective(source.rule, m.payload, into):
                    raise ValidationError("source_not_mono",
                                          f"source morphism {m} is not left cancellable", morphism=str(m))
    pairs = []
    violations = []
    for a in source_objects:
        for b in source_objects:
            lhs = pa.target.hom_size(pa.F(a), pa.F(b))
            rhs = pa.source.hom_size(a, b)
            entry = {"A": a, "B": b, "target_count": lhs, "source_count": rhs}
            pairs.append(entry)
            if lhs < rhs:
                violations.append(entry)
    return CardinalityReport(pairs, violations)


# --- the named instances ---------------------------------------------------------

PA_NAMES = ("identity", "gr-plain-to-decorated", "gr-decorated-to-plain", "gr-to-dram-op",
            "ram-to-dram-op", "omega-to-fragment", "from-monotone-tukey")


def named_pa(instance: str, context: WordContext, bounds: dict) -> tuple[PreAdjunction, list, list]:
    """The pre-adjunction ``instance`` names, one of ``PA_NAMES`` or
    ``composed:<a>,<b>[,...]``, with its source and target objects.  ``src``
    in ``bounds`` bounds the source objects, and ``tgt`` the target objects
    and the target's size, each with the instance's own default.  A
    composite is sized from its last factor back: that factor gets ``tgt``,
    each earlier one the largest source object of the factor after it, and
    its source objects are 1..``src`` (default 2).  Its factors share one
    memoised ``gr_fragment``, so adjacent factors meet on the very same
    fragment and ``compose_pa`` need not list them to compare."""
    gr = functools.cache(gr_fragment)

    def build(name: str, bounds: dict):
        if name not in PA_NAMES:
            raise ValueError(f"no pre-adjunction is named {name!r}")
        if name in ("identity", "gr-plain-to-decorated"):
            # one fragment holds both sides; each bound defaults to the other
            src = bounds.get("src", bounds.get("tgt", 3))
            tgt = bounds.get("tgt", src)
            n = max(src, tgt)
            if name == "identity":
                pa = identity_pa(ram_fragment(n))
            else:
                pa = pa_gr_plain_to_decorated(context, n, source=gr(plain_context(), n), target=gr(context, n))
            return pa, list(range(1, src + 1)), list(range(1, tgt + 1))
        if name == "omega-to-fragment":
            src = bounds.get("src", 4)
            frag = ram_fragment(bounds.get("tgt", src + 2))
            pa = pa_omega_to_nonthin(frag, [i + 2 for i in range(src + 1)])
            return pa, list(range(src + 1)), list(frag.objects)
        if name == "from-monotone-tukey":
            src = bounds.get("src", 10)
            tgt = bounds.get("tgt", 2 * src)
            f = [min(2 * x, tgt) for x in range(src + 1)]
            g = [min(y // 2, src) for y in range(tgt + 1)]
            pa = pa_from_monotone_tukey(chain_preorder(src + 1), chain_preorder(tgt + 1), f, g)
            return pa, list(range(src + 1)), list(range(tgt + 1))
        tgt = bounds.get("tgt", 6)
        if name == "ram-to-dram-op":
            src = bounds.get("src", max(tgt - 1, 1))
            pa = pa_ram_to_dramop(max(src, tgt - 1))
        else:
            src = bounds.get("src", 2)
            plain_g = context if not context.alphabet else WordContext(trivial_action(context.group))
            if name == "gr-decorated-to-plain":
                pa = pa_gr_decorated_to_plain(context, tgt, source=gr(context, tgt), target=gr(plain_g, tgt))
            else:
                pa = pa_gr_to_dramop(plain_g, tgt, tgt, source=gr(plain_g, tgt))
        return pa, list(range(1, src + 1)), list(range(1, tgt + 1))

    if not instance.startswith("composed:"):
        return build(instance, bounds)
    size, parts = bounds.get("tgt", 6), []
    for name in reversed(instance.removeprefix("composed:").split(",")):
        parts.insert(0, build(name.strip(), {"tgt": size}))
        size = max(parts[0][0].source.objects, default=0)
    pa = functools.reduce(compose_pa, [part[0] for part in parts])
    return pa, list(range(1, bounds.get("src", 2) + 1)), parts[-1][2]
