"""Finite fragments of locally small categories.

A fragment lists its objects, knows the size of every hom-set, holds a
hom-set it has not listed as nothing but that size, lists it through the
fragment's one ``build(a, b)`` the first time it is read, and composes
morphisms through a rule on payloads: ``rule(g.payload, f.payload)`` is the
payload of g after f, and the rule never sees a domain or codomain.
``CategoryFragment.compose`` is the one place that checks ``f.cod == g.dom``
and types the composite as ``f.dom -> g.cod``.  Morphisms, like the words
and surjections they carry, are tuple-backed values: a morphism equals a plain
tuple, or a value of another class, with the same items, so
``CategoryFragment.in_hom`` is the type check for hom-set membership.  Each
hom-set has one index, ``hom_index``, from payload to position in the
listing; the arrow copy listing, the transport check, re-certification and
the law and isomorphism checks read it, and so does membership, except in a
``gr`` fragment, which decides it from the word itself and lists nothing.
``CategoryFragment.columns`` lists the positions of composites a column at a
time, for the arrow copy listing and for ``verify_pa``.  The ``gr`` and
``dram-op`` builders also give a spelling (see ``CategoryFragment``), from
which ``columns`` reads composites by character substitution; for every
other fragment it calls the rule.  Each hom-set is spelled once: the
fragment keeps its spellings, by position, and its index by spelling, and
``columns`` reads a composed member's spelling by its position.  The law
check, the isomorphism check and the structural checks (``is_mono``,
``iso_pairs``) read their composites a column at a time too, one ``map`` of
the rule over a hom-set's payloads, and re-certification composes through
the rule; none of them reads the spelling.

Builders are provided for the categories this package cares about:

* ``ram_fragment``      -- chains with injective monotone maps,
* ``dram_fragment``     -- chains with rigid surjections (and its opposite),
* ``gr_fragment``       -- positive integers with decorated parameter words,
* ``vec_fragment``      -- ordered finite vector spaces with monotone
                           injective linear maps,
* ``thin_from_preorder`` -- the thin category of a finite preorder.

Fragments built here are composition-closed by construction, and
``validate_fragment`` re-checks the identity, associativity and closure laws
exhaustively.  Existential properties (directedness and friends) are only
decidable relative to the fragment; reports label them as such.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, compress, product, repeat
from math import comb
from operator import eq
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ResourceBound, ValidationError
from .surjections import (compose_rigid, enumerate_rsurj, identity_rigid, rigid_substitution, spell_rigid,
                          stirling2, word_to_rsurj)
from .tukey import FinitePreorder
from .words import (DecoratedWord, WordContext, enumerate_words, identity_word, substitute, validate_word,
                    word_spelling, word_tokens)

DEFAULT_HOM_CAP = 1_000_000
LAW_TRIPLE_CAP = 1_000_000  # composable triples f, g, h the law check walks


class Morphism(NamedTuple):
    """A tuple-backed value: built, hashed and compared in C.  It equals any
    tuple with the same items, so ``CategoryFragment.in_hom`` is the type
    check that keeps a foreign value out of a hom-set."""

    dom: object
    cod: object
    payload: object

    def __str__(self) -> str:
        return f"{self.dom}->{self.cod}:{self.payload}"


class CategoryFragment:
    """Objects, hom-sets and a composition rule.

    The public attribute ``rule(g, f)`` takes the payloads of g and f and
    returns the payload of g after f; it never reads a domain or codomain.
    ``compose`` checks that the pair is composable and types the composite;
    code that knows the pair is composable, such as ``columns``, may call
    ``rule`` on payloads directly.

    ``hom`` maps each pair (a, b) with morphisms to its morphisms or, when
    ``build`` is given, to their number.  A hom-set held as its size is
    listed by ``build(a, b)``, which yields its morphisms in canonical order,
    the first time ``hom(a, b)`` reads it, and kept from then on; its size is
    known before that, so ``hom_size``, ``arrow``, ``total_morphisms``,
    ``repr`` and the triple bound of the checks list nothing.  ``build`` is
    never a bound method of the fragment itself, for the reason ``in_hom``
    gives.

    ``spelling``, when a builder gives one, is a pair ``(spell,
    substitution)``: ``spell(payload)`` writes a payload as a string with
    one character per token or value, naming it within its hom-set, and
    ``substitution(f)`` is a ``str.translate`` table with
    ``spell(rule(g, f)) == spell(g).translate(substitution(f))``.  Only
    ``columns`` reads it, to list composites without calling the rule;
    where it is None they come from the rule.  Its two readers are the
    arrow copy listing and ``verify_pa``.  A hom-set is spelled the first
    time ``columns`` reads it, and the fragment keeps its spellings, by
    position, and its index by spelling, as it keeps ``hom_index``; nothing
    else reads them.  ``compose`` goes through
    ``rule``, as do re-certification and the law, isomorphism and
    structural checks, which call it on payloads a column at a time; none of
    them reads the spelling, so a rule that disagrees with its spelling
    shows in every check.

    ``member(payload, a, b)``, when a builder gives one, tells whether a
    payload is that of a morphism of the non-empty hom(a, b) without
    listing it, and answers as the listing would; ``in_hom`` calls it.
    Where it is None, membership is looked up in ``hom_index``."""

    def __init__(self, name: str, objects, hom: dict, identity: dict,
                 rule: Callable[[object, object], object], spelling: tuple | None = None,
                 member: Callable[[object, object, object], bool] | None = None,
                 build: Callable[[object, object], Iterable[Morphism]] | None = None):
        self.name = name
        self.objects = tuple(objects)
        self._object_set = set(self.objects)
        # (a, b) -> hom(a, b)'s morphisms, or its size until it is listed
        self._hom = dict(hom) if build is not None else {pair: tuple(ms) for pair, ms in hom.items()}
        self._build = build
        self._identity = dict(identity)
        self.rule = rule
        self.spelling = spelling
        self.member = member
        self._index: dict = {}  # (a, b) -> hom(a, b)'s index, filled on the first lookup
        self._spellings: dict = {}  # (a, b) -> hom(a, b)'s spellings and index by spelling, filled by columns
        self.copies: dict = {}  # the arrow copies of each (A, B, C), filled by ramcat.arrows

    def __repr__(self):
        return f"<fragment {self.name}: {len(self.objects)} objects, {self.total_morphisms()} morphisms>"

    def has_object(self, a) -> bool:
        return a in self._object_set

    def hom(self, a, b) -> tuple[Morphism, ...]:
        ms = self._hom.get((a, b), ())
        if type(ms) is int:
            ms = self._hom[a, b] = tuple(self._build(a, b))
        return ms

    def hom_size(self, a, b) -> int:
        ms = self._hom.get((a, b), 0)
        return ms if type(ms) is int else len(ms)

    def _sizes(self) -> dict:
        """(a, b) -> |hom(a, b)| for each pair with morphisms, read without
        listing anything."""
        return {pair: ms if type(ms) is int else len(ms) for pair, ms in self._hom.items()}

    def identity(self, a) -> Morphism:
        return self._identity[a]

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f; requires f.cod == g.dom."""
        if f.cod != g.dom:
            raise ValidationError("compose_mismatch",
                                  f"cannot compose {g.dom}->{g.cod} after {f.dom}->{f.cod}")
        return Morphism(f.dom, g.cod, self.rule(g.payload, f.payload))

    def hom_index(self, a, b) -> dict:
        """hom(a, b)'s index: each payload to its morphism's position in the
        listing.  Within one hom-set the payload names the morphism.  Built
        on the first lookup and kept, as listings are."""
        index = self._index.get((a, b))
        if index is None:
            index = self._index[a, b] = {m.payload: i for i, m in enumerate(self.hom(a, b))}
        return index

    def _spelled(self, a, b) -> tuple[list[str], dict]:
        """hom(a, b)'s spellings, by position, and its index by spelling.
        Built on the first read and kept, as ``hom_index`` is; only
        ``columns`` reads them."""
        spelled = self._spellings.get((a, b))
        if spelled is None:
            names = list(map(self.spelling[0], [m.payload for m in self.hom(a, b)]))
            spelled = self._spellings[a, b] = names, dict(zip(names, range(len(names))))
        return spelled

    def columns(self, a, b, c, at, xs) -> list[list[int]]:
        """The positions in hom(a, c) of w after x for the members w of
        hom(b, c) at the positions ``at``, one list per member x of ``xs``,
        in hom(a, b).  Each column is one ``map`` over those w in C: of
        ``str.translate`` by x's table on the w's spellings, read by
        position, looked up in hom(a, c)'s index by spelling, when the
        fragment has a spelling, else of the rule on payloads, looked up in
        ``hom_index``.  The arrow copy listing (``ramcat.arrows``) passes the
        whole of hom(b, c), and the transport check (``verify_pa``) the
        positions of the u whose phi landed."""
        if self.spelling is None:
            ws = self.hom(b, c)
            find = self.hom_index(a, c).__getitem__
            names = [ws[i].payload for i in at]
            step, by = self.rule, [x.payload for x in xs]
        else:
            names = list(map(self._spelled(b, c)[0].__getitem__, at))
            find = self._spelled(a, c)[1].__getitem__
            step, by = str.translate, [self.spelling[1](x.payload) for x in xs]
        return [list(map(find, map(step, names, repeat(x)))) for x in by]

    def in_hom(self, m, a, b) -> bool:
        """Whether ``m`` is a morphism of hom(a, b) in this fragment: a
        ``Morphism``, not merely a tuple equal to one, typed a -> b, of a
        non-empty hom(a, b), whose payload ``member`` accepts or, where there
        is none, is in hom(a, b)'s index with the class of the listed payload
        it equals, since tuple equality ignores classes.  (A bound method as
        the default ``member`` would tie each fragment to itself in a cycle,
        so a dropped fragment would wait for the cyclic collector.)"""
        if not (isinstance(m, Morphism) and m.dom == a and m.cod == b and self.hom_size(a, b) > 0):
            return False
        if self.member is not None:
            return self.member(m.payload, a, b)
        i = self.hom_index(a, b).get(m.payload)
        return i is not None and type(self._hom[a, b][i].payload) is type(m.payload)

    def morphisms(self) -> Iterator[Morphism]:
        for pair in sorted(self._hom, key=lambda p: (self.objects.index(p[0]), self.objects.index(p[1]))):
            yield from self.hom(*pair)

    def total_morphisms(self) -> int:
        return sum(self._sizes().values())

    def arrow(self, a, b) -> bool:
        return self.hom_size(a, b) > 0


def _lazy_homs(sizes: Iterable[tuple[tuple, int]], name: str) -> dict:
    """The pairs of ``sizes`` that have morphisms, each to its size, as a
    builder passes them to ``CategoryFragment`` with its ``build``.  The
    running total is checked against ``DEFAULT_HOM_CAP`` pair by pair, so an
    oversized fragment is refused after sizing no more pairs than it takes
    to exceed the cap."""
    hom: dict = {}
    total = 0
    cap = DEFAULT_HOM_CAP
    for pair, size in sizes:
        if size:
            total += size
            if total > cap:
                raise ResourceBound(f"fragment {name} would hold more than its cap of {cap} morphisms", cap)
            hom[pair] = size
    return hom


# --- builders ---------------------------------------------------------------
#
# Each builder sizes its hom-sets in closed form, checks the fixed cap
# ``DEFAULT_HOM_CAP`` on those sizes, and lists a hom-set only when it is
# first read.

def ram_fragment(n: int) -> CategoryFragment:
    """Chains 1..n with injective monotone maps as image tuples; hom(a, b)
    has C(b, a) of them."""
    objects = range(1, n + 1)

    def build(a, b):
        return (Morphism(a, b, c) for c in combinations(range(1, b + 1), a))

    sizes = (((a, b), comb(b, a)) for b in objects for a in range(1, b + 1))
    hom = _lazy_homs(sizes, "ram")
    identity = {a: Morphism(a, a, tuple(range(1, a + 1))) for a in objects}

    def rule(g: tuple, f: tuple) -> tuple:
        return tuple(g[i - 1] for i in f)

    return CategoryFragment(f"ram({n})", objects, hom, identity, rule, build=build)


def dram_fragment(n: int) -> CategoryFragment:
    """Chains 1..n with rigid surjections; hom(a, b) has S(a, b) of them."""
    objects = range(1, n + 1)

    def build(a, b):
        return (Morphism(a, b, r) for r in enumerate_rsurj(a, b))

    sizes = (((a, b), stirling2(a, b)) for a in objects for b in range(1, a + 1))
    hom = _lazy_homs(sizes, "dram")
    identity = {a: Morphism(a, a, identity_rigid(a)) for a in objects}
    return CategoryFragment(f"dram({n})", objects, hom, identity, compose_rigid, build=build)


def dram_op_fragment(n: int) -> CategoryFragment:
    """The opposite of ``dram_fragment(n)``, spelled by image values: g
    after f replaces each value of g by its image under f."""
    fragment = opposite(dram_fragment(n))
    fragment.spelling = (spell_rigid, rigid_substitution)
    return fragment


def _word_counts(n: int, context: WordContext) -> Iterator[tuple[tuple[int, int], int]]:
    """((k, m), number of k-parameter m-letter words) for 1 <= k <= m <= n,
    m ascending.  A DP over positions: a position takes the next new variable
    (one way), a variable already seen with any exponent (k |G| ways when k
    are seen) or a letter (|A| ways)."""
    order, letters = context.group.order, len(context.alphabet)
    row = [1]  # row[k]: words of the current length with k parameters
    for m in range(1, n + 1):
        row = [(row[k - 1] if k else 0) + (row[k] * (k * order + letters) if k < m else 0)
               for k in range(m + 1)]
        for k in range(1, m + 1):
            yield (k, m), row[k]


def gr_fragment(context: WordContext, n: int) -> CategoryFragment:
    """Positive integers 1..n with hom(k, n) the k-parameter n-letter words.

    Membership is decided from the word, and no hom-set is listed for it: a
    payload is in hom(k, m) when it is a ``DecoratedWord`` of m tokens, each
    one of ``word_tokens`` (so each value equals an int in range, as in a
    listed word), that ``validate_word`` returns unchanged as a k-parameter
    word.  Any other value, tokens as lists included, is refused without
    raising."""
    objects = range(1, n + 1)
    tokens = frozenset(word_tokens(context, n))

    def build(k, m):
        return (Morphism(k, m, w) for w in enumerate_words(k, m, context))

    def member(payload, k, m) -> bool:
        try:
            return (type(payload) is DecoratedWord and len(payload.tokens) == m and tokens.issuperset(payload.tokens)
                    and validate_word(payload.tokens, k, context) == payload)
        except (TypeError, ValidationError):
            return False

    hom = _lazy_homs(_word_counts(n, context), f"gr over {context.alphabet}")
    identity = {k: Morphism(k, k, identity_word(k)) for k in objects}
    alpha = "".join(context.alphabet) or "0"
    return CategoryFragment(f"gr({alpha},|G|={context.group.order},{n})", objects, hom, identity,
                            partial(substitute, context), word_spelling(context, n), member, build)


@dataclass(frozen=True)
class OrderedField:
    """A finite field with a fixed linear order on its elements; element 0 is
    the additive zero and is least, and element 1 is the multiplicative
    one."""

    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


def gf(p: int) -> OrderedField:
    """F_p with its elements in their natural order.  Its tables hold p^2
    entries, so a p whose square is over ``DEFAULT_HOM_CAP`` is refused
    before any primality test or table."""
    if p < 2:
        raise ValidationError("not_prime", f"built-in fields require a prime size, got {p}", q=p)
    if p * p > DEFAULT_HOM_CAP:
        raise ResourceBound(f"the tables of F_{p} would hold {p * p} entries, more than the cap of "
                            f"{DEFAULT_HOM_CAP}", DEFAULT_HOM_CAP)
    for d in range(2, p):
        if p % d == 0:
            raise ValidationError("not_prime", f"built-in fields require a prime size, got {p}", q=p)
    add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
    mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    return OrderedField(p, add, mul)


def vec_fragment(q: int | OrderedField, n: int) -> CategoryFragment:
    """Dimensions 1..n over an ordered finite field; morphisms are the
    injective linear maps that respect the anti-lexicographic vector order,
    in which the highest differing coordinate decides.  Matrices are row
    tuples (codomain dim) x (domain dim), row r the coordinate r.

    A morphism m -> d is the unique order-respecting basis of its image, so
    hom(m, d) has one morphism per m-dimensional subspace: the Gaussian
    binomial [d choose m]_q of them.  That basis is the reduced column
    echelon form: column j ends in a 1 at row p_j, with p_1 < ... < p_m, and
    the other columns are 0 at row p_j.  It respects the order: if v and w
    differ last at coordinate k, the columns after k get equal coefficients,
    the columns up to k are 0 above row p_k, and row p_k reads v_k against
    w_k.  So a hom-set is listed by choosing the pivot rows and then the
    free entries, the rows below a pivot that no earlier column pivots on,
    in time proportional to its size.  Each hom-set is sorted by payload,
    which is the row-major order of the matrix entries."""
    field = q if isinstance(q, OrderedField) else gf(q)
    objects = range(1, n + 1)

    def build(m, d):
        payloads = []
        for pivots in combinations(range(d), m):
            free = [(r, j) for j, p in enumerate(pivots) for r in range(p) if r not in pivots]
            for values in product(range(field.size), repeat=len(free)):
                rows = [[0] * m for _ in range(d)]
                for j, p in enumerate(pivots):
                    rows[p][j] = 1
                for (r, j), x in zip(free, values):
                    rows[r][j] = x
                payloads.append(tuple(map(tuple, rows)))
        return (Morphism(m, d, rows) for rows in sorted(payloads))

    sizes = (((m, d), _gaussian_binomial(d, m, field.size)) for d in objects for m in range(1, d + 1))
    hom = _lazy_homs(sizes, f"vec(F_{field.size})")

    identity = {
        m: Morphism(m, m, tuple(tuple(1 if r == c else 0 for c in range(m)) for r in range(m)))
        for m in objects
    }

    def rule(rows_g: tuple, rows_f: tuple) -> tuple:
        cols_f = tuple(zip(*rows_f))
        return tuple(tuple(_dot(field, row, col) for col in cols_f) for row in rows_g)

    return CategoryFragment(f"vec(F_{field.size},{n})", objects, hom, identity, rule, build=build)


def _gaussian_binomial(d: int, m: int, q: int) -> int:
    """[d choose m]_q, the number of m-dimensional subspaces of F_q^d."""
    num = den = 1
    for i in range(m):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _dot(field: OrderedField, row: tuple[int, ...], col: tuple[int, ...]) -> int:
    acc = 0
    for a, b in zip(row, col):
        acc = field.add[acc][field.mul[a][b]]
    return acc


def thin_from_preorder(p: FinitePreorder, name: str = "thin") -> CategoryFragment:
    objects = range(p.size)
    hom = {
        (a, b): (Morphism(a, b, None),)
        for a in objects for b in objects if p.le(a, b)
    }
    identity = {a: Morphism(a, a, None) for a in objects}
    return CategoryFragment(f"{name}({p.size})", objects, hom, identity, lambda g, f: None)


def omega_truncation(n: int) -> CategoryFragment:
    """The thin chain 0 <= 1 <= ... <= n."""
    from .tukey import chain_preorder

    return thin_from_preorder(chain_preorder(n + 1), name="omega")


# --- generic constructions --------------------------------------------------

def opposite(fragment: CategoryFragment) -> CategoryFragment:
    """Same objects, arrows reversed, composition flipped: g after f in the
    opposite has the payload of f after g in the base.  Payloads are
    preserved, so opposite(opposite(F)) is structurally equal to F.  A hom-set
    of the opposite is held as the size of its base hom-set and listed from
    that hom-set when first read.  The base's spelling does not carry over,
    as the flipped rule breaks its contract."""

    def build(b, a):
        return (Morphism(b, a, m.payload) for m in fragment.hom(a, b))

    hom = {(b, a): size for (a, b), size in fragment._sizes().items()}
    identity = {a: Morphism(a, a, fragment.identity(a).payload) for a in fragment.objects}
    rule = fragment.rule
    name = fragment.name[:-3] if fragment.name.endswith("^op") else fragment.name + "^op"
    return CategoryFragment(name, fragment.objects, hom, identity, lambda g, f: rule(f, g), build=build)


def same_interface(f: CategoryFragment, g: CategoryFragment) -> bool:
    """Whether two fragments list the same objects, ordered hom-sets and
    identities; their composition is not compared."""
    if f is g:
        return True
    if f.objects != g.objects:
        return False
    return all(f.hom(a, b) == g.hom(a, b) for a in f.objects for b in f.objects) and all(
        f.identity(a) == g.identity(a) for a in f.objects
    )


def fragment_equal(f: CategoryFragment, g: CategoryFragment) -> bool:
    """Structural equality: the same interface (``same_interface``), and the
    identity map on morphisms an isomorphism (``check_fragment_isomorphism``),
    so the two compose every composable pair alike."""
    return same_interface(f, g) and check_fragment_isomorphism(f, g, lambda m: m)["ok"]


def explicit_fragment(objects, morphisms, identities, compose_table, name="explicit") -> CategoryFragment:
    """Fragment from fully explicit tables.  ``morphisms`` maps id -> (dom,
    cod); ``compose_table`` maps (g_id, f_id) -> h_id for composable pairs.
    A payload is its id.  A composite missing from the table, or recorded
    outside hom(dom f, cod g), raises ``not_closed`` when it is composed.
    Objects must be distinct, every morphism must run between listed
    objects, and ``identities`` must name exactly the listed objects;
    otherwise ``unknown_object`` is raised."""
    objects = tuple(objects)
    known = set(objects)
    if len(known) != len(objects):
        raise ValidationError("unknown_object", "the objects are not distinct")
    for mid, (dom, cod) in morphisms.items():
        if dom not in known or cod not in known:
            raise ValidationError("unknown_object", f"morphism {mid} runs {dom} -> {cod}, and only {list(objects)} "
                                  "are objects", morphism=mid)
    if identities.keys() != known:
        raise ValidationError("unknown_object", f"the identities are given for {list(identities)}, not for the "
                              f"objects {list(objects)}")
    by_id = {mid: Morphism(dom, cod, mid) for mid, (dom, cod) in morphisms.items()}
    hom: dict = {}
    for m in by_id.values():
        hom.setdefault((m.dom, m.cod), []).append(m)
    hom = {pair: tuple(sorted(ms, key=lambda m: str(m.payload))) for pair, ms in hom.items()}
    identity = {a: by_id[mid] for a, mid in identities.items()}
    unknown = set(compose_table.values()) - set(morphisms)
    if unknown:
        raise KeyError(f"recorded composites {sorted(map(str, unknown))} are not listed morphisms")

    def rule(g, f):
        h = compose_table.get((g, f))
        if h is None:
            raise ValidationError("not_closed", f"no composite recorded for {g} after {f}", g=g, f=f)
        dom, cod = by_id[f].dom, by_id[g].cod
        if (by_id[h].dom, by_id[h].cod) != (dom, cod):
            raise ValidationError("not_closed", f"the composite {h} recorded for {g} after {f} is not in "
                                  f"hom({dom}, {cod})", g=g, f=f, h=h)
        return h

    return CategoryFragment(name, objects, hom, identity, rule)


# --- law checking and structure ---------------------------------------------

@dataclass
class FragmentLawReport:
    identity_violations: list = field(default_factory=list)
    associativity_violations: list = field(default_factory=list)
    closure_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.identity_violations or self.associativity_violations or self.closure_violations)


def _bound_triples(fragment: CategoryFragment, check: str) -> None:
    """Count the composable triples f, g, h of ``fragment`` from hom-set
    sizes, fan-in × |hom(b, c)| × fan-out summed over (b, c), and raise
    ``ResourceBound`` when they are more than ``LAW_TRIPLE_CAP``.  No check
    composes more pairs than there are triples, so the one cap bounds the law
    check, the structural checks and the isomorphism check alike."""
    objs = fragment.objects
    fan_in, fan_out = dict.fromkeys(objs, 0), dict.fromkeys(objs, 0)
    sizes = fragment._sizes()
    for (a, b), size in sizes.items():
        fan_out[a] += size
        fan_in[b] += size
    triples = sum(fan_in[b] * size * fan_out[c] for (b, c), size in sizes.items())
    if triples > LAW_TRIPLE_CAP:
        raise ResourceBound(f"the {check} of {fragment.name} would walk {triples} composable triples, more than "
                            f"its cap of {LAW_TRIPLE_CAP}", LAW_TRIPLE_CAP)


# equal to no payload and no position: a composite the rule refuses with
# not_closed (None is a thin fragment's payload), or a missing position
_ABSENT = object()


def _recorded(compose: Callable, g, f, refused=None):
    """``compose(g, f)``, or ``refused`` when the fragment records no
    composite for them (``not_closed``)."""
    try:
        return compose(g, f)
    except ValidationError as exc:
        if exc.code != "not_closed":
            raise
        return refused


def _column(rule: Callable, gs: list, f) -> list:
    """``rule(g, f)`` for each payload g of ``gs``, in one ``map`` in C.  When
    the rule refuses one with ``not_closed``, the column is read again one
    pair at a time, with ``_ABSENT`` for each refused composite."""
    try:
        return list(map(rule, gs, repeat(f)))
    except ValidationError as exc:
        if exc.code != "not_closed":
            raise
    return [_recorded(rule, g, f, _ABSENT) for g in gs]


def validate_fragment(fragment: CategoryFragment, max_violations: int = 5) -> FragmentLawReport:
    """Check the identity, closure and associativity laws exhaustively,
    stopping once one kind has ``max_violations`` entries.  An identity
    outside hom(a, a) is an identity violation and is never composed: its
    side of each identity law reads None.  The identity laws compose through
    ``compose``, two calls per morphism.

    ``out[a]`` lists the members with domain a, hom(a, d) for each d in
    ``fragment.objects`` in turn.  The closure loop reads, for each f: a -> b
    and each c, the column of composites g∘f for g in hom(b, c) with one
    ``map`` of ``fragment.rule`` over their payloads, so each composable pair
    is composed once, and looks the column up in hom(a, c)'s index.  From
    these columns it builds f's row of positions in ``out[a]``.  A composite
    with no position is a closure violation: one that lands outside hom(a,
    c), one whose payload has another class than the member it equals (the
    type check of ``in_hom``), or one the fragment does not record (its rule
    raises ``not_closed``, as an explicit table does for a missing composite
    or one recorded in another hom-set), which is reported as None and fails
    the identity law when an identity is one factor.  Any closure violation
    ends the check before associativity.

    The associativity walk then reads positions only and composes nothing:
    h(gf) = (hg)f holds for every h at once when the row of g∘f equals the
    row of g read through the row of f, one comparison in C per pair; where
    the rows differ, the h whose positions differ are the violations.

    Before it composes anything, the check bounds the composable triples
    (``_bound_triples``)."""
    report = FragmentLawReport()
    objs = fragment.objects
    _bound_triples(fragment, "law check")
    ids = {a: fragment.identity(a) for a in objs}  # None where it is not in hom(a, a)
    for a in objs:
        if not fragment.in_hom(ids[a], a, a):
            ids[a] = None
            report.identity_violations.append({"object": a, "reason": "identity missing from hom-set"})
    for a in objs:
        for b in objs:
            for f in fragment.hom(a, b):
                left = ids[b] and _recorded(fragment.compose, ids[b], f)
                right = ids[a] and _recorded(fragment.compose, f, ids[a])
                if left != f or right != f:
                    report.identity_violations.append({"morphism": f, "left": left, "right": right})
                    if len(report.identity_violations) >= max_violations:
                        return report
    out: dict = {a: [] for a in objs}  # a -> the members with domain a
    cods: dict = {a: [] for a in objs}  # a -> the codomain of each member of out[a]
    start: dict = {}  # (a, d) -> the position in out[a] of hom(a, d)'s first member
    payloads: dict = {}  # (a, d) -> the payloads of hom(a, d)
    classes: dict = {}  # (a, d) -> the class of each payload of hom(a, d)
    for a, d in product(objs, repeat=2):
        start[a, d] = len(out[a])
        ms = fragment.hom(a, d)
        out[a] += ms
        cods[a] += [d] * len(ms)
        payloads[a, d] = [m.payload for m in ms]
        classes[a, d] = list(map(type, payloads[a, d]))
    rule = fragment.rule
    rows: dict = {a: [] for a in objs}  # rows[a][i]: the row of out[a][i]
    for a in objs:
        for f, b in zip(out[a], cods[a]):
            row = []
            for c in objs:
                gs = payloads[b, c]
                if not gs:
                    continue
                composites = _column(rule, gs, f.payload)
                at = list(map(fragment.hom_index(a, c).get, composites))
                if None not in at and list(map(type, composites)) == list(map(classes[a, c].__getitem__, at)):
                    row += map(start[a, c].__add__, at)
                    continue
                for g, gf, i in zip(fragment.hom(b, c), composites, at):
                    if i is None or classes[a, c][i] is not type(gf):
                        composite = None if gf is _ABSENT else Morphism(a, c, gf)
                        report.closure_violations.append({"g": g, "f": f, "composite": composite})
                        if len(report.closure_violations) >= max_violations:
                            return report
                    else:
                        row.append(start[a, c] + i)
            rows[a].append(row)
    if report.closure_violations:
        return report
    for a in objs:
        ra = rows[a]
        for f, b, rf in zip(out[a], cods[a], ra):
            for g, c, gf_at, rg in zip(out[b], cods[b], rf, rows[b]):
                # rows are lists: a tuple built from a map is resized as it
                # fills, and the freed ones pile up in the tuple free lists
                left, right = ra[gf_at], list(map(rf.__getitem__, rg))
                if left == right:
                    continue
                for h, li, ri in zip(out[c], left, right):
                    if li != ri:
                        report.associativity_violations.append({"h": h, "g": g, "f": f})
                        if len(report.associativity_violations) >= max_violations:
                            return report
    return report


def is_mono(fragment: CategoryFragment, f: Morphism) -> bool:
    """Left cancellable within the fragment: f.g = f.h forces g = h.

    Equivalently, on every hom(a, f.dom) the composites f.g are pairwise
    distinct, so one rule call per morphism g, a column at a time, and a set
    of the composite payloads decide it.  Its cost is bounded by the caller:
    ``structural_checks`` bounds the triples first."""
    return _injective(fragment.rule, f.payload, _payloads_into(fragment, f.dom))


def _payloads_into(fragment: CategoryFragment, b) -> list[list]:
    """The payloads of hom(a, b), one list for each object a."""
    return [[g.payload for g in fragment.hom(a, b)] for a in fragment.objects]


def _injective(rule: Callable, fp, columns: list[list]) -> bool:
    """Whether the rule's composites f.g are pairwise distinct within each
    column of payloads g, f given by its payload ``fp``."""
    return all(len(set(map(rule, repeat(fp), gs))) == len(gs) for gs in columns)


def _identity_payload(fragment: CategoryFragment, a):
    """The payload p with (a, a, p) equal to a's identity, or a value equal
    to no payload when that identity is not typed a -> a."""
    one = fragment.identity(a)
    return one.payload if (one.dom, one.cod) == (a, a) else _ABSENT


def iso_pairs(fragment: CategoryFragment, a, b) -> list[tuple[Morphism, Morphism]]:
    """The pairs (f, g) of f: a -> b and g: b -> a inverse to each other.  For
    each f the composites g∘f are one column through the rule; f∘g is
    composed only for the g with g∘f the identity of a."""
    rule = fragment.rule
    one_a, one_b = _identity_payload(fragment, a), _identity_payload(fragment, b)
    gs = fragment.hom(b, a)
    gps = [g.payload for g in gs]
    out = []
    for f in fragment.hom(a, b):
        fp = f.payload
        for g in compress(gs, map(eq, map(rule, gps, repeat(fp)), repeat(one_a))):
            if rule(fp, g.payload) == one_b:
                out.append((f, g))
    return out


@dataclass
class StructuralReport:
    is_thin: bool
    is_directed: bool
    all_mono: bool
    hom_self_is_identity: bool
    iso_homs_match: bool
    fan_in: dict = field(default_factory=dict)  # object -> morphisms with that codomain
    non_mono_witness: Morphism | None = None
    # existential/ambient properties a finite fragment cannot certify
    fragment_relative: tuple[str, ...] = ("is_directed", "fan_in")

    def as_dict(self) -> dict:
        return {
            "is_thin": self.is_thin,
            "is_directed": self.is_directed,
            "all_mono": self.all_mono,
            "hom_self_is_identity": self.hom_self_is_identity,
            "iso_homs_match": self.iso_homs_match,
            "fan_in": {str(k): v for k, v in self.fan_in.items()},
            "fragment_relative": list(self.fragment_relative),
        }


def structural_checks(fragment: CategoryFragment) -> StructuralReport:
    """Thinness, directedness, monos, endomorphisms and isomorphisms of a
    fragment.  The mono test, ``is_mono``'s, reads every morphism, and
    ``iso_pairs`` every pair of objects, so the composable triples are
    bounded first (``_bound_triples``).  The payloads of the hom-sets into
    each object are listed once per call, not once per morphism."""
    _bound_triples(fragment, "structural checks")
    objs = fragment.objects
    thin = all(fragment.hom_size(a, b) <= 1 for a in objs for b in objs)
    directed = all(
        any(fragment.arrow(a, c) and fragment.arrow(b, c) for c in objs)
        for a in objs for b in objs
    )
    non_mono = None
    into = {b: _payloads_into(fragment, b) for b in objs}  # read once, not once per morphism
    for m in fragment.morphisms():
        if not _injective(fragment.rule, m.payload, into[m.dom]):
            non_mono = m
            break
    self_ok = all(tuple(fragment.hom(a, a)) == (fragment.identity(a),) for a in objs)
    iso_ok = True
    for a in objs:
        for b in objs:
            pairs = iso_pairs(fragment, a, b) if a != b else []
            if pairs and set(fragment.hom(a, b)) != {f for f, _ in pairs}:
                iso_ok = False
    fan_in = {b: sum(fragment.hom_size(a, b) for a in objs) for b in objs}
    return StructuralReport(thin, directed, non_mono is None, self_ok, iso_ok, fan_in=fan_in,
                            non_mono_witness=non_mono)


@dataclass
class SkeletonResult:
    fragment: CategoryFragment
    representative: dict
    eta: dict  # object -> iso into its representative
    eta_inv: dict


def skeleton(fragment: CategoryFragment) -> SkeletonResult:
    """Full subcategory on the first object of each isomorphism class, with a
    chosen isomorphism from every object into its representative.  A
    hom-set of the subcategory is held as its size and listed through the
    base's ``hom`` when first read."""
    reps: dict = {}
    eta: dict = {}
    eta_inv: dict = {}
    chosen: list = []
    for obj in fragment.objects:
        placed = False
        for rep in chosen:
            pairs = iso_pairs(fragment, obj, rep)
            if pairs:
                reps[obj] = rep
                eta[obj], eta_inv[obj] = pairs[0]
                placed = True
                break
        if not placed:
            chosen.append(obj)
            reps[obj] = obj
            eta[obj] = fragment.identity(obj)
            eta_inv[obj] = fragment.identity(obj)
    hom = {(a, b): fragment.hom_size(a, b) for a in chosen for b in chosen if fragment.arrow(a, b)}
    identity = {a: fragment.identity(a) for a in chosen}
    sub = CategoryFragment(fragment.name + ".skel", chosen, hom, identity, fragment.rule, fragment.spelling,
                           build=fragment.hom)
    return SkeletonResult(sub, reps, eta, eta_inv)


# --- the chains <-> plain-words correspondence -------------------------------

def dramop_word_functor(n: int, plain: WordContext):
    """The fragment isomorphism between positive integers with plain words
    and the opposite of chains with rigid surjections: a word maps to the
    surjection reading off its variable indices.

    Returns (gr_fragment, dram_op_fragment, word_morphism -> op_morphism).
    """
    grf = gr_fragment(plain, n)
    dop = dram_op_fragment(n)

    def on_morphism(m: Morphism) -> Morphism:
        f = word_to_rsurj(m.payload)
        return Morphism(m.dom, m.cod, f)

    return grf, dop, on_morphism


def check_fragment_isomorphism(src: CategoryFragment, dst: CategoryFragment,
                               on_morphism) -> dict:
    """Exhaustively check that an object-preserving morphism map is a
    composition- and identity-preserving bijection on hom-sets.

    ``on_morphism`` must be a function of its argument: each listed
    morphism is mapped once, and identities, composites and the factors of
    every pair are read back from those images.  An image that is not a
    morphism of the target hom-set (``dst.in_hom``), such as a tuple that
    only equals one, is read back as None: the check fails, and a pair with
    such a factor is reported without being composed.  An identity or
    composite that src does not list has no image, so it fails too.

    Each hom-set of src is mapped once to the positions of its images in
    dst's listing.  Then, for each f: a -> b with an image and each c, the
    composites g∘f for the g in hom(b, c) with an image are one column
    through ``src.rule``, read through that position map, and the composites
    of their images one column through ``dst.rule``, read in dst's index of
    hom(a, c); the pair holds where the two positions agree.  A composite
    src refuses (``not_closed``) raises.  The composable triples of src are
    bounded first (``_bound_triples``)."""
    _bound_triples(src, "isomorphism check")
    failures = []
    bijective = True
    image = {}
    to_dst = {}  # (a, b) -> {payload in src.hom(a, b): the position of its image in dst.hom(a, b)}
    imaged = {}  # (a, b) -> the payloads in src.hom(a, b) with an image, and their images' payloads
    for a in src.objects:
        for b in src.objects:
            hom = src.hom(a, b)
            imgs = [img if dst.in_hom(img, a, b) else None for img in map(on_morphism, hom)]
            if None in imgs:
                bijective = False
                failures.append({"pair": (a, b), "reason": "an image is not a morphism of the target hom-set"})
            elif len(set(imgs)) != len(imgs) or len(imgs) != dst.hom_size(a, b):
                bijective = False
                failures.append({"pair": (a, b), "reason": "hom-set image is not a bijection"})
            image.update(zip(hom, imgs))
            index = dst.hom_index(a, b)
            live = [m for m in hom if image[m] is not None]
            to_dst[a, b] = {m.payload: index[image[m].payload] for m in live}
            imaged[a, b] = [m.payload for m in live], [image[m].payload for m in live]
    identities = all(image.get(src.identity(a)) == dst.identity(a) for a in src.objects)
    comp_ok = True
    src_rule, dst_rule = src.rule, dst.rule
    for a, b, c in product(src.objects, repeat=3):
        gs = src.hom(b, c)
        if not gs:
            continue
        src_gs, dst_gs = imaged[b, c]
        to_ac, dst_at = to_dst[a, c].get, dst.hom_index(a, c).get
        for f in src.hom(a, b):
            f_image = image[f]
            if f_image is not None:
                left = list(map(to_ac, map(src_rule, src_gs, repeat(f.payload))))
                right = list(map(dst_at, map(dst_rule, dst_gs, repeat(f_image.payload)), repeat(_ABSENT)))
                if left == right and len(left) == len(gs):
                    continue
                agree = iter(map(eq, left, right))
            for g in gs:
                if f_image is None or image[g] is None or not next(agree):
                    comp_ok = False
                    failures.append({"pair": (a, b, c), "f": f, "g": g})
    return {"bijective": bijective, "identities": identities, "composition": comp_ok,
            "ok": bijective and identities and comp_ok, "failures": failures}


# --- fragment spec files ------------------------------------------------------

def fragment_from_spec(spec: dict, context: WordContext | None = None) -> CategoryFragment:
    """Build a fragment from its config-file form: either a named builder with
    parameters or fully explicit tables.  A builder reads ``params.n``, and
    ``vec`` also ``params.q``; a spec naming any other parameter is refused
    with ``ValueError``.  Every builder checks the fixed cap
    ``DEFAULT_HOM_CAP`` before it builds anything."""
    if not isinstance(spec, dict):
        raise TypeError("a spec file holds a JSON object")
    if "builder" in spec:
        builder = spec["builder"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise TypeError("params must be a JSON object")
        unknown = sorted(map(str, params.keys() - ({"n", "q"} if builder == "vec" else {"n"})))
        if unknown:
            raise ValueError(f"params keys not read by the {builder!r} builder: {', '.join(map(repr, unknown))}")
        n = int(params.get("n", 3))
        if builder == "ram":
            return ram_fragment(n)
        if builder == "dram":
            return dram_fragment(n)
        if builder == "dram-op":
            return dram_op_fragment(n)
        if builder == "gr":
            if context is None:
                raise ValidationError("missing_context", "gr fragments need a group/action context")
            return gr_fragment(context, n)
        if builder == "vec":
            return vec_fragment(int(params.get("q", 2)), n)
        if builder == "thin-chain":
            from .tukey import chain_preorder

            if max(n, 0) * (n + 1) // 2 > DEFAULT_HOM_CAP:
                raise ResourceBound(f"fragment chain({n}) would hold more than its cap of {DEFAULT_HOM_CAP} "
                                    "morphisms", DEFAULT_HOM_CAP)
            return thin_from_preorder(chain_preorder(n), name="chain")
        raise ValidationError("unknown_builder", f"unknown fragment builder {builder!r}", builder=builder)
    if not (isinstance(spec["morphisms"], dict) and isinstance(spec["identities"], dict)):
        raise TypeError("morphisms and identities must be JSON objects")
    morphisms = {mid: (m["dom"], m["cod"]) for mid, m in spec["morphisms"].items()}
    compose_table = {(g, f): h for g, f, h in spec["compose"]}
    return explicit_fragment(spec["objects"], morphisms, spec["identities"], compose_table,
                             name=spec.get("name", "explicit"))
