"""Preorders, Tukey and cofinal maps, and the monotonization construction.

Finite preorders are boolean ``leq`` tables checked for reflexivity and
transitivity.  Nothing here enumerates subsets: ``preorder_predicates``
reads directedness from the pairs, and the Tukey and cofinal map checks
decide from one region of the domain per codomain element, returning the
same first witness a scan of the subsets in ascending mask order would.

Countable preorders are *generated*: an enumeration, a decidable ``leq`` and
an upper-bound oracle.  Whether such a preorder is bounded is a declared
attribute, never inferred.  All checks on generated preorders quantify over
an enumerated prefix only and say so ("prefix-certified").
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import ValidationError


@dataclass(frozen=True)
class FinitePreorder:
    leq: tuple[tuple[bool, ...], ...]

    @property
    def size(self) -> int:
        return len(self.leq)

    def le(self, a: int, b: int) -> bool:
        return self.leq[a][b]


def validate_preorder(leq) -> FinitePreorder:
    rows = tuple(tuple(bool(v) for v in row) for row in leq)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValidationError("not_preorder", "leq table must be square")
    for a in range(n):
        if not rows[a][a]:
            raise ValidationError("not_preorder", f"leq is not reflexive at {a}", a=a)
    for a in range(n):
        for b in range(n):
            if rows[a][b]:
                for c in range(n):
                    if rows[b][c] and not rows[a][c]:
                        raise ValidationError(
                            "not_preorder", f"leq is not transitive on ({a},{b},{c})", a=a, b=b, c=c
                        )
    return FinitePreorder(rows)


def chain_preorder(n: int) -> FinitePreorder:
    return FinitePreorder(tuple(tuple(a <= b for b in range(n)) for a in range(n)))


def antichain_preorder(n: int) -> FinitePreorder:
    return FinitePreorder(tuple(tuple(a == b for b in range(n)) for a in range(n)))


def preorder_from_pairs(n: int, pairs) -> FinitePreorder:
    """Reflexive-transitive closure of the given ``a <= b`` pairs."""
    rows = [[a == b for b in range(n)] for a in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError("not_preorder", f"pair ({a}, {b}) names an element outside 0..{n - 1}",
                                  a=a, b=b)
        rows[a][b] = True
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if rows[a][b]:
                    for c in range(n):
                        if rows[b][c] and not rows[a][c]:
                            rows[a][c] = True
                            changed = True
    return FinitePreorder(tuple(tuple(r) for r in rows))


def _below_masks(p: FinitePreorder) -> list[int]:
    return [sum(1 << x for x in range(p.size) if p.le(x, a)) for a in range(p.size)]


def _above_masks(p: FinitePreorder) -> list[int]:
    return [sum(1 << x for x in range(p.size) if p.le(a, x)) for a in range(p.size)]


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def _check_map(f: Sequence[int], dom: FinitePreorder, cod: FinitePreorder):
    if (not isinstance(f, Sequence) or len(f) != dom.size
            or not all(type(y) is int and 0 <= y < cod.size for y in f)):
        raise ValidationError("bad_map", f"the map must list {dom.size} elements of 0..{cod.size - 1}",
                              size=dom.size, cod_size=cod.size)


@dataclass
class PreorderReport:
    directed: bool
    equivalence_classes: list[tuple[int, ...]]
    quotient: FinitePreorder
    class_of: tuple[int, ...]


def preorder_predicates(p: FinitePreorder) -> PreorderReport:
    """Directedness (every pair has an upper bound) and the equivalence
    classes with their quotient partial order."""
    above = _above_masks(p)
    directed = all(above[a] & above[b] for a in range(p.size) for b in range(a, p.size))
    class_of = [-1] * p.size
    classes: list[list[int]] = []
    for a in range(p.size):
        if class_of[a] >= 0:
            continue
        cls = [x for x in range(p.size) if p.le(a, x) and p.le(x, a)]
        for x in cls:
            class_of[x] = len(classes)
        classes.append(cls)
    reps = [cls[0] for cls in classes]
    quotient = FinitePreorder(tuple(tuple(p.le(ra, rb) for rb in reps) for ra in reps))
    return PreorderReport(directed, [tuple(c) for c in classes], quotient, tuple(class_of))


@dataclass
class MapVerdict:
    ok: bool
    witness: tuple[int, ...] | None = None


def _least_offending(regions, holds) -> MapVerdict:
    """The verdict of a map check whose offending subsets are those, among
    the subsets of some region, on which the upward-closed predicate
    ``holds`` is true.  The least such mask, which a scan of the subsets in
    ascending order would meet first, is the least over the regions of each
    region shrunk from its highest element down while ``holds`` stays true.
    The empty subset never offends, not even in an empty domain."""
    least = None
    for region in regions:
        if not (region and holds(region)):
            continue
        for x in reversed(_elements(region)):
            if holds(region ^ (1 << x)):
                region ^= 1 << x
        least = region if least is None else min(least, region)
    return MapVerdict(True) if least is None else MapVerdict(False, _elements(least))


def is_tukey_map(f: Sequence[int], a: FinitePreorder, b: FinitePreorder) -> MapVerdict:
    """True iff every subset unbounded in the domain has an unbounded image;
    otherwise the first offending subset in ascending mask order is the
    witness.  An image f(S) is bounded by y iff S lies in the region
    D_y = {x : f(x) <= y}, and a superset of an unbounded set is unbounded,
    so f fails iff some D_y is unbounded."""
    _check_map(f, a, b)
    above, full = _above_masks(a), (1 << a.size) - 1

    def unbounded(mask: int) -> bool:
        ub = full
        for x in _elements(mask):
            ub &= above[x]
        return not ub

    regions = {sum(1 << x for x in range(a.size) if b.le(f[x], y)) for y in range(b.size)}
    return _least_offending(regions, unbounded)


def is_cofinal_map(g: Sequence[int], dom: FinitePreorder, cod: FinitePreorder) -> MapVerdict:
    """True iff every cofinal subset of the domain has a cofinal image.  The
    dual argument: g(S) misses y iff S lies in E_y = {x : not y <= g(x)},
    and a superset of a cofinal set is cofinal, so g fails iff some E_y is
    cofinal."""
    _check_map(g, dom, cod)
    below, full = _below_masks(dom), (1 << dom.size) - 1

    def cofinal(mask: int) -> bool:
        dn = 0
        for x in _elements(mask):
            dn |= below[x]
        return dn == full

    regions = {sum(1 << x for x in range(dom.size) if not cod.le(y, g[x])) for y in range(cod.size)}
    return _least_offending(regions, cofinal)


# --- generated (countable) preorders ---------------------------------------

@dataclass
class GeneratedPreorder:
    name: str
    enumerate_fn: Callable[[int], Any]
    leq: Callable[[Any, Any], bool]
    upper_bound: Callable[[Any, Any], Any]
    globally_bounded: bool

    def prefix(self, n: int) -> list[Any]:
        return [self.enumerate_fn(i) for i in range(n)]

    def checked_upper_bound(self, x, y):
        u = self.upper_bound(x, y)
        if not (self.leq(x, u) and self.leq(y, u)):
            raise ValidationError("oracle_failure",
                                  f"upper_bound({x!r}, {y!r}) = {u!r} does not dominate both", x=x, y=y, value=u)
        return u


def omega() -> GeneratedPreorder:
    return GeneratedPreorder("omega", lambda i: i, lambda x, y: x <= y, max, globally_bounded=False)


def _cantor(i: int) -> tuple[int, int]:
    d = 0
    while (d + 1) * (d + 2) // 2 <= i:
        d += 1
    r = i - d * (d + 1) // 2
    return (r, d - r)


def omega_squared() -> GeneratedPreorder:
    return GeneratedPreorder(
        "omega2",
        _cantor,
        lambda x, y: x[0] <= y[0] and x[1] <= y[1],
        lambda x, y: (max(x[0], y[0]), max(x[1], y[1])),
        globally_bounded=False,
    )


@dataclass
class CompanionResult:
    """A prefix-certified cofinal companion: ``g`` on the enumerated codomain
    prefix, where f(a) <= b  =>  a <= g(b) holds on all ``checked_pairs``."""

    g: list[Any]
    checked_pairs: int
    warnings: list[str] = field(default_factory=list)


def cofinal_companion(f: Callable[[Any], Any], a: GeneratedPreorder, b: GeneratedPreorder,
                      n: int) -> CompanionResult:
    """Build ``g(b)`` as the enumeration-order fold of upper bounds over the
    fiber ``{x : f(x) <= b}`` and check the defining implication on every
    prefix pair."""
    a_prefix = a.prefix(n)
    b_prefix = b.prefix(n)
    warnings: list[str] = []
    g: list[Any] = []
    for bv in b_prefix:
        fiber = [x for x in a_prefix if b.leq(f(x), bv)]
        if not fiber:
            g.append(a_prefix[0])
            continue
        ub = fiber[0]
        for x in fiber[1:]:
            ub = a.checked_upper_bound(ub, x)
        for x in fiber:
            if not a.leq(x, ub):
                raise ValidationError("unbounded_fiber",
                                      f"fiber of {bv!r} is not dominated by the folded upper bound", b=bv)
        g.append(ub)
        if len(fiber) == len(a_prefix):
            warnings.append(
                f"fiber of {bv!r} is the whole prefix; the unboundedness hypothesis is untestable at this scale"
            )
    checked = 0
    for i, x in enumerate(a_prefix):
        for j, bv in enumerate(b_prefix):
            if b.leq(f(x), bv):
                checked += 1
                if not a.leq(x, g[j]):
                    raise ValidationError("implication_fails",
                                          f"f({x!r}) <= {bv!r} but not {x!r} <= g({bv!r})", x=x, y=bv)
    return CompanionResult(g, checked, warnings)


@dataclass
class MonotonizationTrace:
    """The data produced by the monotonization rounds.

    ``s`` is the strictly increasing spine, ``big_s[i]`` the block of prefix
    elements assigned at round ``i``, ``b`` the non-decreasing image spine and
    ``fhat`` the resulting block-constant map on the processed prefix.
    """

    prefix: list[Any]
    s: list[Any]
    big_s: list[tuple[Any, ...]]
    b: list[Any]
    fhat: dict[Any, Any]
    rounds: int


def monotonize(f: Callable[[Any], Any], a: GeneratedPreorder, b: GeneratedPreorder,
               steps: int, prefix_size: int | None = None) -> MonotonizationTrace:
    """Run the inductive block construction that turns an arbitrary map into
    a block-constant monotone one, for ``steps`` rounds over the enumerated
    prefix."""
    if a.globally_bounded:
        raise ValidationError("globally_bounded_input",
                              "the construction requires a preorder declared unbounded")
    size = prefix_size if prefix_size is not None else steps
    prefix = a.prefix(size)
    assigned: dict[int, int] = {}  # prefix position -> round index
    s: list[Any] = []
    big_s: list[tuple[Any, ...]] = []
    b_spine: list[Any] = []
    fhat: dict[Any, Any] = {}

    for n in range(steps):
        jn = next((i for i in range(len(prefix)) if i not in assigned), None)
        if jn is None:
            break
        if n == 0:
            sn = prefix[jn]
        else:
            sn = a.checked_upper_bound(s[-1], prefix[jn])
        s.append(sn)
        block = tuple(i for i in range(len(prefix)) if i not in assigned and a.leq(prefix[i], sn))
        for i in block:
            assigned[i] = n
        big_s.append(tuple(prefix[i] for i in block))
        if n == 0:
            bn = f(sn)
        else:
            bn = b.checked_upper_bound(b_spine[-1], f(sn))
        b_spine.append(bn)
        for i in block:
            fhat[prefix[i]] = bn
    return MonotonizationTrace(prefix, s, big_s, b_spine, fhat, len(s))


@dataclass
class TraceCheck:
    s_strictly_increasing: bool
    blocks_partition_prefix: bool
    blocks_respect_order: bool
    b_non_decreasing: bool
    fhat_monotone: bool

    @property
    def ok(self) -> bool:
        return (self.s_strictly_increasing and self.blocks_partition_prefix
                and self.blocks_respect_order and self.b_non_decreasing and self.fhat_monotone)


def verify_trace(trace: MonotonizationTrace, a: GeneratedPreorder, b: GeneratedPreorder) -> TraceCheck:
    """Re-check the trace invariants literally, independent of how the trace
    was built."""
    leq_a, leq_b = a.leq, b.leq
    s_incr = all(
        leq_a(trace.s[i], trace.s[i + 1]) and not leq_a(trace.s[i + 1], trace.s[i])
        for i in range(len(trace.s) - 1)
    )
    seen: list[Any] = []
    disjoint = True
    for block in trace.big_s:
        for x in block:
            if x in seen:
                disjoint = False
            seen.append(x)
    covers = disjoint and sorted(map(repr, seen)) == sorted(map(repr, trace.fhat.keys()))
    respects = True
    for i, bi in enumerate(trace.big_s):
        for jdx, bj in enumerate(trace.big_s):
            for x in bi:
                for y in bj:
                    if leq_a(x, y) and i > jdx:
                        respects = False
    b_nondec = all(leq_b(trace.b[i], trace.b[i + 1]) for i in range(len(trace.b) - 1))
    processed = list(trace.fhat.keys())
    monotone = all(
        leq_b(trace.fhat[x], trace.fhat[y])
        for x in processed for y in processed
        if leq_a(x, y)
    )
    return TraceCheck(s_incr, covers, respects, b_nondec, monotone)
