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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .arrows import find_bad_coloring
from .category import (
    CategoryFragment,
    Morphism,
    dram_op_fragment,
    gr_fragment,
    is_mono,
    omega_truncation,
    ram_fragment,
    thin_from_preorder,
)
from .errors import BudgetExceeded, ValidationError
from .groups import trivial_action
from .surjections import RigidSurjection, dual, validate_rigid
from .tukey import FinitePreorder
from .words import (
    LETTER,
    PARAM,
    WordContext,
    plain_context,
    validate_word,
)


@dataclass
class PreAdjunction:
    """Object maps ``F`` and ``H`` with the morphism family ``phi``.  ``phi``
    must be a function of its arguments alone: the verifier evaluates it
    once per distinct ``(X, Y, u)`` and reuses the value."""

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


@dataclass
class PAReport:
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
    first and its success tracked.  ``pa.phi`` is evaluated once per
    distinct ``(X, Y, u)`` within a call, so it must be a function of its
    arguments; ``recheck_failures`` evaluates it afresh."""
    report = PAReport(pa.name, list(source_objects), list(target_objects))
    src, tgt = pa.source, pa.target
    pa_phi, phi_of = pa.phi, {}

    def phi(x, y, u):
        key = (x, y, u)
        try:
            return phi_of[key]
        except KeyError:
            value = phi_of[key] = pa_phi(x, y, u)
            return value

    for b_obj in source_objects:
        fb = pa.F(b_obj)
        for ai, a_obj in enumerate(source_objects):
            fa = pa.F(a_obj)
            candidates = tgt.hom(fa, fb)
            for c_obj in target_objects:
                hc = pa.H(c_obj)
                for u in tgt.hom(fb, c_obj):
                    phi_u = phi(b_obj, c_obj, u)
                    if not src.in_hom(phi_u, b_obj, hc):
                        if ai == 0:  # phi_u does not depend on A: record it on the first A only
                            report.phi_landing_failures.append(
                                {"X": b_obj, "Y": c_obj, "u": u, "phi": phi_u})
                        continue
                    for f in src.hom(a_obj, b_obj):
                        report.instances += 1
                        if report.instances > max_instances:
                            raise BudgetExceeded("pa_instances", max_instances)
                        lhs = src.compose(phi_u, f)
                        witness = None
                        used_suggested = False
                        if pa.suggested_v is not None:
                            report.suggested_tried += 1
                            v = pa.suggested_v(a_obj, b_obj, f)
                            if tgt.in_hom(v, fa, fb):
                                if phi(a_obj, c_obj, tgt.compose(u, v)) == lhs:
                                    witness = v
                                    used_suggested = True
                                    report.suggested_hits += 1
                        if witness is None:
                            for v in candidates:
                                if phi(a_obj, c_obj, tgt.compose(u, v)) == lhs:
                                    witness = v
                                    break
                        if witness is None:
                            report.failures.append(
                                {"A": a_obj, "B": b_obj, "C": c_obj, "u": u, "f": f})
                        else:
                            report.witnesses.append(
                                {"A": a_obj, "B": b_obj, "C": c_obj, "u": u, "f": f,
                                 "v": witness, "suggested": used_suggested})
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


def _same_interface(f: CategoryFragment, g: CategoryFragment) -> bool:
    if f is g:
        return True
    if f.objects != g.objects:
        return False
    return all(f.hom(a, b) == g.hom(a, b) for a in f.objects for b in f.objects) and all(
        f.identity(a) == g.identity(a) for a in f.objects
    )


def compose_pa(first: PreAdjunction, second: PreAdjunction, name: str | None = None) -> PreAdjunction:
    """Compose two pre-adjunctions along a shared middle fragment; the
    morphism family threads through the middle hom-sets."""
    if not _same_interface(first.target, second.source):
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


def pa_from_functor(source: CategoryFragment, target: CategoryFragment,
                    h_ob: dict, h_mor: Callable[[Morphism], Morphism],
                    name: str = "from-functor") -> PreAdjunction:
    """Build the pre-adjunction induced by a full, isomorphism-dense functor
    from the target fragment to the source fragment: pick for every source
    object an isomorphic functor image and conjugate through the chosen
    isomorphisms.  Fullness, isomorphism-density, functor laws and the
    invertibility of the chosen isomorphisms are all checked exhaustively."""
    from .category import iso_pairs

    for x in target.objects:
        if h_mor(target.identity(x)) != source.identity(h_ob[x]):
            raise ValidationError("not_functor", f"identity of {x} is not preserved", x=x)
    for x in target.objects:
        for y in target.objects:
            for u in target.hom(x, y):
                img = h_mor(u)
                if not source.in_hom(img, h_ob[x], h_ob[y]):
                    raise ValidationError("not_functor", "morphism image lands outside its hom-set", u=u)
            for z in target.objects:
                for u in target.hom(x, y):
                    for w in target.hom(y, z):
                        if h_mor(target.compose(w, u)) != source.compose(h_mor(w), h_mor(u)):
                            raise ValidationError("not_functor", "composition is not preserved", u=u, w=w)
    for x in target.objects:
        for y in target.objects:
            image = {h_mor(u) for u in target.hom(x, y)}
            for g in source.hom(h_ob[x], h_ob[y]):
                if g not in image:
                    raise ValidationError("not_full", f"{g} has no preimage on ({x},{y})",
                                          g=g, pair=(x, y))
    f_map: dict = {}
    eta: dict = {}
    eta_inv: dict = {}
    for b in source.objects:
        found = False
        for x in target.objects:
            pairs = iso_pairs(source, b, h_ob[x])
            if pairs:
                f_map[b] = x
                eta[b], eta_inv[b] = pairs[0]
                found = True
                break
        if not found:
            raise ValidationError("not_iso_dense", f"no functor image is isomorphic to {b}", b=b)

    def phi(b, x, u):
        return source.compose(h_mor(u), eta[b])

    def suggested(a, b, f):
        want = source.compose(source.compose(eta[b], f), eta_inv[a])
        for v in target.hom(f_map[a], f_map[b]):
            if h_mor(v) == want:
                return v
        return None

    return PreAdjunction(name, source, target, lambda b: f_map[b], lambda x: h_ob[x],
                         phi, suggested_v=suggested)


# --- parameter-word reductions ----------------------------------------------

def pa_gr_plain_to_decorated(context: WordContext, n: int,
                             source: CategoryFragment | None = None,
                             target: CategoryFragment | None = None) -> PreAdjunction:
    """From undecorated words into decorated words over (A, G): strip
    exponents to neutral and letters to x1; any plain word is its own
    transport witness."""
    plain = plain_context()
    source = source or gr_fragment(plain, n)
    target = target or gr_fragment(context, n)

    def phi(m_obj, n_obj, u: Morphism) -> Morphism:
        tokens = []
        for kind, idx, exp in u.payload.tokens:
            if kind == LETTER:
                tokens.append((PARAM, 1, 0))
            else:
                tokens.append((PARAM, idx, 0))
        word = validate_word(tokens, u.payload.m, plain)
        return Morphism(m_obj, n_obj, word)

    def suggested(a, b, f: Morphism) -> Morphism:
        word = validate_word(f.payload.tokens, f.payload.m, context)
        return Morphism(a, b, word)

    return PreAdjunction("gr-plain-to-decorated", source, target,
                         lambda x: x, lambda y: y, phi, suggested_v=suggested)


def pa_gr_decorated_to_plain(context: WordContext, n: int,
                             source: CategoryFragment | None = None,
                             target: CategoryFragment | None = None) -> PreAdjunction:
    """From decorated words over (A, G) into undecorated words over the same
    group with the alphabet absorbed as extra leading variables.  A word over
    the enlarged variable set re-reads as a decorated word by sending the
    i-th alphabet variable under exponent h to the letter obtained by acting
    with h; the transport witness for f prepends the alphabet block to f."""
    t = len(context.alphabet)
    if t == 0:
        raise ValidationError("empty_alphabet", "the construction absorbs a nonempty alphabet")
    plain_g = WordContext(trivial_action(context.group))
    source = source or gr_fragment(context, n)
    target = target or gr_fragment(plain_g, n)
    action = context.action

    def phi(m_obj, n_obj, u: Morphism) -> Morphism:
        tokens = []
        for kind, idx, exp in u.payload.tokens:
            if idx <= t:
                tokens.append((LETTER, action.act(idx - 1, exp), 0))
            else:
                tokens.append((PARAM, idx - t, exp))
        word = validate_word(tokens, m_obj, context)
        return Morphism(m_obj, n_obj, word)

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
    position then by the group's element order; a rigid surjection onto that
    chain reads off as a decorated word, and the transport witness of a word
    f sends (j, h) to (i, g*h) where the j-th token of f is x_i^g."""
    if context.alphabet:
        raise ValidationError("nonempty_alphabet", "this construction starts from the empty alphabet")
    group = context.group
    t = group.order
    source = source or gr_fragment(context, n_source)
    target = target or dram_op_fragment(n_chains)

    def pos(i: int, g: int) -> int:
        return (i - 1) * t + group.order_pos[g] + 1

    def unpos(p: int) -> tuple[int, int]:
        return (p - 1) // t + 1, group.element_order[(p - 1) % t]

    def phi(n_obj, c_obj, u: Morphism) -> Morphism:
        surj: RigidSurjection = u.payload  # a rigid surjection c_obj -> n_obj * t
        tokens = []
        for p in surj.image:
            j, g = unpos(p)
            tokens.append((PARAM, j, g))
        word = validate_word(tokens, n_obj, context)
        return Morphism(n_obj, c_obj, word)

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
            if len(fragment.hom(a, b)) >= 2:
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
            "forward_at_least_two": len(fragment.hom(seq[i], seq[i + 1])) >= 2,
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
    |hom(F(A), F(B))| >= |hom(A, B)|; evaluate that on every object pair."""
    for a in source_objects:
        for b in source_objects:
            for m in pa.source.hom(a, b):
                if not is_mono(pa.source, m):
                    raise ValidationError("source_not_mono",
                                          f"source morphism {m} is not left cancellable", morphism=str(m))
    pairs = []
    violations = []
    for a in source_objects:
        for b in source_objects:
            lhs = len(pa.target.hom(pa.F(a), pa.F(b)))
            rhs = len(pa.source.hom(a, b))
            entry = {"A": a, "B": b, "target_count": lhs, "source_count": rhs}
            pairs.append(entry)
            if lhs < rhs:
                violations.append(entry)
    return CardinalityReport(pairs, violations)
