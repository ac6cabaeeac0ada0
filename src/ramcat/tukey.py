"""Preorders, Tukey and cofinal maps, and the monotonization construction.

Finite preorders are boolean ``leq`` tables checked for reflexivity and
transitivity; boundedness, cofinality and the Tukey/cofinal map checks are
exhaustive over subsets and therefore capped at 15 elements.

Countable preorders are *generated*: an enumeration, a decidable ``leq`` and
an upper-bound oracle.  Whether such a preorder is bounded is a declared
attribute, never inferred.  All checks on generated preorders quantify over
an enumerated prefix only and say so ("prefix-certified").
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import ValidationError

SUBSET_CAP = 15


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


def _table(width: int, first: int):
    """A table of ``width``-bit masks that starts with ``first``, in the
    smallest array type that holds them; past 64 bits, a list."""
    code = next((c for c in "BHIQ" if array(c).itemsize * 8 >= width), None)
    return [first] if code is None else array(code, [first])


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(x for x in range(mask.bit_length()) if mask >> x & 1)


def _check_map(f: Sequence[int], dom: FinitePreorder, cod: FinitePreorder):
    if (not isinstance(f, Sequence) or len(f) != dom.size
            or not all(isinstance(y, int) and 0 <= y < cod.size for y in f)):
        raise ValidationError("bad_map", f"the map must list {dom.size} elements of 0..{cod.size - 1}",
                              size=dom.size, cod_size=cod.size)


# The subset scans below visit the masks in ascending order, appending each
# mask's data to tables indexed by mask, and derive it from ``mask ^ low``,
# the same subset without its lowest element x: its upper bounds are those of
# ``mask ^ low`` that lie above x, and its down-closure is that of
# ``mask ^ low`` joined with the elements below x.  A subset is bounded iff
# it has an upper bound and cofinal iff its down-closure is everything, so
# each test is one operation per mask.

@dataclass
class PreorderReport:
    directed: bool
    bounded_subsets: list[tuple[int, ...]]
    cofinal_subsets: list[tuple[int, ...]]
    equivalence_classes: list[tuple[int, ...]]
    quotient: FinitePreorder
    class_of: tuple[int, ...]


def preorder_predicates(p: FinitePreorder) -> PreorderReport:
    if p.size > SUBSET_CAP:
        raise ValidationError("size_cap_exceeded", f"subset predicates are capped at {SUBSET_CAP} elements",
                              cap=SUBSET_CAP, size=p.size)
    n = p.size
    full = (1 << n) - 1
    above, below = _above_masks(p), _below_masks(p)
    ub, dn = _table(n, full), _table(n, 0)
    bounded, cofinal = [], []
    for mask in range(1, 1 << n):
        low = mask & -mask
        x = low.bit_length() - 1
        ub.append(ub[mask ^ low] & above[x])
        dn.append(dn[mask ^ low] | below[x])
        if ub[mask]:
            bounded.append(_elements(mask))
        if dn[mask] == full:
            cofinal.append(_elements(mask))
    directed = all(ub[(1 << a) | (1 << b)] for a in range(n) for b in range(a, n))
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
    return PreorderReport(directed, bounded, cofinal,
                          [tuple(c) for c in classes], quotient, tuple(class_of))


@dataclass
class MapVerdict:
    ok: bool
    witness: tuple[int, ...] | None = None


def is_tukey_map(f: Sequence[int], a: FinitePreorder, b: FinitePreorder) -> MapVerdict:
    """True iff every subset unbounded in the domain has an unbounded image;
    otherwise the first offending subset is the witness."""
    if a.size > SUBSET_CAP:
        raise ValidationError("size_cap_exceeded", f"Tukey check capped at {SUBSET_CAP} elements",
                              cap=SUBSET_CAP, size=a.size)
    _check_map(f, a, b)
    above_a, above_b = _above_masks(a), _above_masks(b)
    ub, image_ub = _table(a.size, (1 << a.size) - 1), _table(b.size, (1 << b.size) - 1)
    for mask in range(1, 1 << a.size):
        low = mask & -mask
        x = low.bit_length() - 1
        ub.append(ub[mask ^ low] & above_a[x])
        image_ub.append(image_ub[mask ^ low] & above_b[f[x]])
        if not ub[mask] and image_ub[mask]:
            return MapVerdict(False, _elements(mask))
    return MapVerdict(True)


def is_cofinal_map(g: Sequence[int], dom: FinitePreorder, cod: FinitePreorder) -> MapVerdict:
    """True iff every cofinal subset of the domain has a cofinal image."""
    if dom.size > SUBSET_CAP:
        raise ValidationError("size_cap_exceeded", f"cofinal check capped at {SUBSET_CAP} elements",
                              cap=SUBSET_CAP, size=dom.size)
    _check_map(g, dom, cod)
    below_dom, below_cod = _below_masks(dom), _below_masks(cod)
    full_dom, full_cod = (1 << dom.size) - 1, (1 << cod.size) - 1
    dn, image_dn = _table(dom.size, 0), _table(cod.size, 0)
    for mask in range(1, 1 << dom.size):
        low = mask & -mask
        x = low.bit_length() - 1
        dn.append(dn[mask ^ low] | below_dom[x])
        image_dn.append(image_dn[mask ^ low] | below_cod[g[x]])
        if dn[mask] == full_dom and image_dn[mask] != full_cod:
            return MapVerdict(False, _elements(mask))
    return MapVerdict(True)


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
    prefix together with the checked implication f(a) <= b  =>  a <= g(b)."""

    g: list[Any]
    implication_ok: bool
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
    return CompanionResult(g, True, checked, warnings)


@dataclass
class MonotonizationTrace:
    """The data produced by the monotonization rounds.

    ``s`` is the strictly increasing spine, ``big_s[i]`` the block of prefix
    elements assigned at round ``i``, ``j`` the indices of the enumeration
    elements that seeded each round, ``b`` the non-decreasing image spine and
    ``fhat`` the resulting block-constant map on the processed prefix.
    """

    prefix: list[Any]
    s: list[Any]
    big_s: list[tuple[Any, ...]]
    j: list[int]
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
    j: list[int] = []
    b_spine: list[Any] = []
    fhat: dict[Any, Any] = {}

    for n in range(steps):
        jn = next((i for i in range(len(prefix)) if i not in assigned), None)
        if jn is None:
            break
        j.append(jn)
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
    return MonotonizationTrace(prefix, s, big_s, j, b_spine, fhat, len(s))


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


def locate_block(x, trace: MonotonizationTrace, a: GeneratedPreorder) -> int | None:
    """Membership procedure: the least round index ``i`` with ``x <= s_i``."""
    for i, si in enumerate(trace.s):
        if a.leq(x, si):
            return i
    return None
