"""Finite fragments of locally small categories.

A fragment lists its objects, stores every hom-set explicitly, and composes
morphisms through a rule or a lookup table.  Builders are provided for the
categories this package cares about:

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
from itertools import combinations, product
from typing import Callable, Iterator

from .errors import ResourceBound, ValidationError
from .surjections import compose_rigid, enumerate_rsurj, identity_rigid, word_to_rsurj
from .tukey import FinitePreorder
from .words import WordContext, enumerate_words, identity_word, substitute

DEFAULT_HOM_CAP = 1_000_000


@dataclass(frozen=True)
class Morphism:
    dom: object
    cod: object
    payload: object

    def __str__(self) -> str:
        return f"{self.dom}->{self.cod}:{self.payload}"


class CategoryFragment:
    def __init__(self, name: str, objects, hom: dict, identity: dict,
                 compose_fn: Callable[[Morphism, Morphism], Morphism]):
        self.name = name
        self.objects = tuple(objects)
        self._object_set = set(self.objects)
        self._hom = {pair: tuple(ms) for pair, ms in hom.items()}
        self._identity = dict(identity)
        self._compose_fn = compose_fn
        self._hom_sets: dict = {}  # filled per pair by the first membership test

    def __repr__(self):
        return f"<fragment {self.name}: {len(self.objects)} objects, {self.total_morphisms()} morphisms>"

    def has_object(self, a) -> bool:
        return a in self._object_set

    def hom(self, a, b) -> tuple[Morphism, ...]:
        return self._hom.get((a, b), ())

    def identity(self, a) -> Morphism:
        return self._identity[a]

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f; requires f.cod == g.dom."""
        if f.cod != g.dom:
            raise ValidationError("compose_mismatch",
                                  f"cannot compose {g.dom}->{g.cod} after {f.dom}->{f.cod}")
        return self._compose_fn(g, f)

    def contains_morphism(self, m: Morphism) -> bool:
        pair = (m.dom, m.cod)
        members = self._hom_sets.get(pair)
        if members is None:
            if pair not in self._hom:
                return False
            members = self._hom_sets[pair] = frozenset(self._hom[pair])
        return m in members

    def in_hom(self, m, a, b) -> bool:
        """Whether ``m`` is a morphism of hom(a, b) in this fragment."""
        return isinstance(m, Morphism) and m.dom == a and m.cod == b and self.contains_morphism(m)

    def morphisms(self) -> Iterator[Morphism]:
        for pair in sorted(self._hom, key=lambda p: (self.objects.index(p[0]), self.objects.index(p[1]))):
            yield from self._hom[pair]

    def total_morphisms(self) -> int:
        return sum(len(ms) for ms in self._hom.values())

    def arrow(self, a, b) -> bool:
        return bool(self.hom(a, b))


def _check_cap(count: int, cap: int, name: str):
    if count > cap:
        raise ResourceBound(f"fragment {name} would hold {count} morphisms, over the cap of {cap}", cap)


# --- builders ---------------------------------------------------------------

def ram_fragment(n: int, hom_cap: int = DEFAULT_HOM_CAP) -> CategoryFragment:
    """Chains 1..n with injective monotone maps as image tuples."""
    objects = range(1, n + 1)
    hom: dict = {}
    total = 0
    for a in objects:
        for b in objects:
            if a <= b:
                ms = tuple(Morphism(a, b, tuple(c)) for c in combinations(range(1, b + 1), a))
                if ms:
                    total += len(ms)
                    _check_cap(total, hom_cap, "ram")
                    hom[(a, b)] = ms
    identity = {a: Morphism(a, a, tuple(range(1, a + 1))) for a in objects}

    def compose(g: Morphism, f: Morphism) -> Morphism:
        return Morphism(f.dom, g.cod, tuple(g.payload[i - 1] for i in f.payload))

    return CategoryFragment(f"ram({n})", objects, hom, identity, compose)


def dram_fragment(n: int, hom_cap: int = DEFAULT_HOM_CAP) -> CategoryFragment:
    """Chains 1..n with rigid surjections."""
    objects = range(1, n + 1)
    hom: dict = {}
    total = 0
    for a in objects:
        for b in objects:
            ms = tuple(Morphism(a, b, r) for r in enumerate_rsurj(a, b))
            if ms:
                total += len(ms)
                _check_cap(total, hom_cap, "dram")
                hom[(a, b)] = ms
    identity = {a: Morphism(a, a, identity_rigid(a)) for a in objects}

    def compose(g: Morphism, f: Morphism) -> Morphism:
        return Morphism(f.dom, g.cod, compose_rigid(g.payload, f.payload))

    return CategoryFragment(f"dram({n})", objects, hom, identity, compose)


def dram_op_fragment(n: int, hom_cap: int = DEFAULT_HOM_CAP) -> CategoryFragment:
    return opposite(dram_fragment(n, hom_cap))


def gr_fragment(context: WordContext, n: int, hom_cap: int = DEFAULT_HOM_CAP) -> CategoryFragment:
    """Positive integers 1..n with hom(k, n) the k-parameter n-letter words."""
    objects = range(1, n + 1)
    hom: dict = {}
    total = 0
    for k in objects:
        for m in objects:
            if k <= m:
                ms = tuple(Morphism(k, m, w) for w in enumerate_words(k, m, context))
                if ms:
                    total += len(ms)
                    _check_cap(total, hom_cap, f"gr over {context.alphabet}")
                    hom[(k, m)] = ms
    identity = {k: Morphism(k, k, identity_word(k, context)) for k in objects}

    def compose(g: Morphism, f: Morphism) -> Morphism:
        return Morphism(f.dom, g.cod, substitute(g.payload, f.payload))

    alpha = "".join(context.alphabet) or "0"
    return CategoryFragment(f"gr({alpha},|G|={context.group.order},{n})", objects, hom, identity, compose)


@dataclass(frozen=True)
class OrderedField:
    """A finite field with a fixed linear order on its elements; element 0 is
    the additive zero and is least."""

    size: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


def gf(p: int) -> OrderedField:
    for d in range(2, p):
        if p % d == 0:
            raise ValidationError("not_prime", f"built-in fields require a prime size, got {p}", q=p)
    add = tuple(tuple((a + b) % p for b in range(p)) for a in range(p))
    mul = tuple(tuple((a * b) % p for b in range(p)) for a in range(p))
    return OrderedField(p, add, mul)


def alex_less(u: tuple[int, ...], v: tuple[int, ...]) -> bool:
    """Anti-lexicographic comparison: the highest differing coordinate
    decides."""
    for i in range(len(u) - 1, -1, -1):
        if u[i] != v[i]:
            return u[i] < v[i]
    return False


def _apply_matrix(field: OrderedField, rows: tuple[tuple[int, ...], ...], v: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for row in rows:
        acc = 0
        for c, x in zip(row, v):
            acc = field.add[acc][field.mul[c][x]]
        out.append(acc)
    return tuple(out)


def vec_fragment(q: int | OrderedField, n: int, hom_cap: int = DEFAULT_HOM_CAP) -> CategoryFragment:
    """Dimensions 1..n over an ordered finite field; morphisms are the
    injective linear maps that respect the anti-lexicographic vector order.
    Matrices are row tuples (codomain dim) x (domain dim).

    Hom-sets are grown one column at a time.  Since 0 is the least field
    element, the vectors supported on the first j coordinates are the first
    q^j vectors of the anti-lexicographic order, in the order of
    ``domain_vectors(j)``; so the first j columns of a morphism m -> d are
    themselves a morphism j -> d.  Extending only the prefixes whose images
    are strictly increasing therefore loses no morphism, and at j = m the
    test is the full order condition.  The new basis vector e_j lies above
    every vector on the first j - 1 coordinates, so a new column that does
    not lie above the image of the largest of them is dropped before the
    full test.  Each hom-set is sorted by payload, which is the row-major
    order of the matrix entries."""
    field = q if isinstance(q, OrderedField) else gf(q)
    objects = range(1, n + 1)

    def domain_vectors(m: int) -> list[tuple[int, ...]]:
        vecs = list(product(range(field.size), repeat=m))
        vecs.sort(key=lambda v: tuple(reversed(v)))
        return vecs

    def increasing(rows, vecs) -> bool:
        images = [_apply_matrix(field, rows, v) for v in vecs]
        return all(alex_less(images[i], images[i + 1]) for i in range(len(images) - 1))

    hom: dict = {}
    total = 0
    for m in objects:
        for d in objects:
            if m > d:
                continue
            columns = list(product(range(field.size), repeat=d))
            prefixes = [()]
            for j in range(1, m + 1):
                vecs = domain_vectors(j)
                survivors = []
                for cols in prefixes:
                    # image of the largest vector on the first j - 1 coordinates
                    top = _apply_matrix(field, tuple(zip(*cols)), vecs[-1][:-1]) if cols else (0,) * d
                    for col in columns:
                        if alex_less(top, col) and increasing(tuple(zip(*cols, col)), vecs):
                            survivors.append(cols + (col,))
                prefixes = survivors
            ms = sorted((Morphism(m, d, tuple(zip(*cols))) for cols in prefixes), key=lambda f: f.payload)
            if ms:
                total += len(ms)
                _check_cap(total, hom_cap, f"vec(F_{field.size})")
                hom[(m, d)] = tuple(ms)

    identity = {
        m: Morphism(m, m, tuple(tuple(1 if r == c else 0 for c in range(m)) for r in range(m)))
        for m in objects
    }

    def compose(g: Morphism, f: Morphism) -> Morphism:
        rows_g, rows_f = g.payload, f.payload
        rows = tuple(
            tuple(
                _dot(field, rows_g[r], tuple(rows_f[k][c] for k in range(len(rows_f))))
                for c in range(len(rows_f[0]))
            )
            for r in range(len(rows_g))
        )
        return Morphism(f.dom, g.cod, rows)

    return CategoryFragment(f"vec(F_{field.size},{n})", objects, hom, identity, compose)


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

    def compose(g: Morphism, f: Morphism) -> Morphism:
        return Morphism(f.dom, g.cod, None)

    return CategoryFragment(f"{name}({p.size})", objects, hom, identity, compose)


def omega_truncation(n: int) -> CategoryFragment:
    """The thin chain 0 <= 1 <= ... <= n."""
    from .tukey import chain_preorder

    return thin_from_preorder(chain_preorder(n + 1), name="omega")


# --- generic constructions --------------------------------------------------

def opposite(fragment: CategoryFragment) -> CategoryFragment:
    """Same objects, arrows reversed, composition flipped.  Payloads are
    preserved, so opposite(opposite(F)) is structurally equal to F."""
    hom = {}
    for (a, b), ms in fragment._hom.items():
        hom[(b, a)] = tuple(Morphism(b, a, m.payload) for m in ms)
    identity = {a: Morphism(a, a, fragment.identity(a).payload) for a in fragment.objects}
    base = fragment

    def compose(g: Morphism, f: Morphism) -> Morphism:
        # f: A->B op and g: B->C op wrap base morphisms B->A and C->B
        fb = Morphism(f.cod, f.dom, f.payload)
        gb = Morphism(g.cod, g.dom, g.payload)
        h = base.compose(fb, gb)
        return Morphism(f.dom, g.cod, h.payload)

    name = base.name[:-3] if base.name.endswith("^op") else base.name + "^op"
    return CategoryFragment(name, fragment.objects, hom, identity, compose)


def fragment_equal(f: CategoryFragment, g: CategoryFragment) -> bool:
    """Structural equality: objects, ordered hom-sets, identities and the
    composition evaluated on every composable pair."""
    if f.objects != g.objects:
        return False
    for a in f.objects:
        for b in f.objects:
            if f.hom(a, b) != g.hom(a, b):
                return False
    for a in f.objects:
        if f.identity(a) != g.identity(a):
            return False
    for a, b, c in product(f.objects, repeat=3):
        for x in f.hom(a, b):
            for y in f.hom(b, c):
                if f.compose(y, x) != g.compose(y, x):
                    return False
    return True


def explicit_fragment(objects, morphisms, identities, compose_table, name="explicit") -> CategoryFragment:
    """Fragment from fully explicit tables.  ``morphisms`` maps id -> (dom,
    cod); ``compose_table`` maps (g_id, f_id) -> h_id for composable pairs."""
    by_id = {mid: Morphism(dom, cod, mid) for mid, (dom, cod) in morphisms.items()}
    hom: dict = {}
    for mid, (dom, cod) in morphisms.items():
        hom.setdefault((dom, cod), []).append(by_id[mid])
    hom = {pair: tuple(sorted(ms, key=lambda m: str(m.payload))) for pair, ms in hom.items()}
    identity = {a: by_id[mid] for a, mid in identities.items()}
    table = {pair: by_id[h] for pair, h in compose_table.items()}

    def compose(g: Morphism, f: Morphism) -> Morphism:
        try:
            return table[(g.payload, f.payload)]
        except KeyError:
            raise ValidationError("not_closed", f"no composite recorded for {g.payload} after {f.payload}",
                                  g=g.payload, f=f.payload) from None

    return CategoryFragment(name, objects, hom, identity, compose)


def tabulate(fragment: CategoryFragment) -> tuple[dict, dict, dict]:
    """Snapshot a fragment into explicit tables (for mutation experiments)."""
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


# --- law checking and structure ---------------------------------------------

@dataclass
class FragmentLawReport:
    identity_violations: list = field(default_factory=list)
    associativity_violations: list = field(default_factory=list)
    closure_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.identity_violations or self.associativity_violations or self.closure_violations)


def validate_fragment(fragment: CategoryFragment, max_violations: int = 5) -> FragmentLawReport:
    """Check the identity, closure and associativity laws exhaustively,
    stopping once one kind has ``max_violations`` entries.

    Each composable pair g, f is composed once, in the closure loop, and
    the associativity loop reads h(gf) and (hg)f from that table whenever
    the inner composite is a member; ``compose`` runs again only on a
    composite outside the fragment.  So ``compose`` must be a function of
    its arguments: equal morphisms in, equal composite out."""
    report = FragmentLawReport()
    objs = fragment.objects
    for a in objs:
        ida = fragment.identity(a)
        if ida.dom != a or ida.cod != a or not fragment.contains_morphism(ida):
            report.identity_violations.append({"object": a, "reason": "identity missing from hom-set"})
    for a in objs:
        for b in objs:
            for f in fragment.hom(a, b):
                left = fragment.compose(fragment.identity(b), f)
                right = fragment.compose(f, fragment.identity(a))
                if left != f or right != f:
                    report.identity_violations.append({"morphism": f, "left": left, "right": right})
                    if len(report.identity_violations) >= max_violations:
                        return report
    ids: dict = {}  # equal morphisms share an id
    homs = {(a, b): [(m, ids.setdefault(m, len(ids))) for m in fragment.hom(a, b)]
            for a, b in product(objs, repeat=2)}
    members = {i: (m, i) for m, i in ids.items()}
    # (id of g, id of f) -> (g∘f, its id): the member's own entry when g∘f is
    # a member, else (g∘f, None)
    composite: dict = {}

    def composed(g, gi, f, fi):
        known = composite.get((gi, fi))
        if known is None:
            gf = fragment.compose(g, f)
            return gf, ids.get(gf)
        return known

    for a, b in product(objs, repeat=2):
        for f, fi in homs[a, b]:
            for c in objs:
                for g, gi in homs[b, c]:
                    gf = fragment.compose(g, f)
                    gfi = ids.get(gf)
                    composite[gi, fi] = (gf, None) if gfi is None else members[gfi]
                    if not fragment.contains_morphism(gf):
                        report.closure_violations.append({"g": g, "f": f, "composite": gf})
                        if len(report.closure_violations) >= max_violations:
                            return report
    for a, b in product(objs, repeat=2):
        for f, fi in homs[a, b]:
            for c in objs:
                for g, gi in homs[b, c]:
                    gf, gfi = composite[gi, fi]
                    for d in objs:
                        for h, hi in homs[c, d]:
                            hg, hgi = composite[hi, gi]
                            left, li = composed(h, hi, gf, gfi)
                            right, ri = composed(hg, hgi, f, fi)
                            # equal ids are equal members; values decide only between non-members
                            if li != ri or (li is None and left != right):
                                report.associativity_violations.append({"h": h, "g": g, "f": f})
                                if len(report.associativity_violations) >= max_violations:
                                    return report
    return report


def is_mono(fragment: CategoryFragment, f: Morphism) -> bool:
    """Left cancellable within the fragment: f.g = f.h forces g = h.

    Equivalently, on every hom(a, f.dom) the composites f.g are pairwise
    distinct, so one composition per morphism and a set of the composites
    decide it."""
    for a in fragment.objects:
        ms = fragment.hom(a, f.dom)
        if len({fragment.compose(f, g) for g in ms}) < len(ms):
            return False
    return True


def iso_pairs(fragment: CategoryFragment, a, b) -> list[tuple[Morphism, Morphism]]:
    out = []
    for f in fragment.hom(a, b):
        for g in fragment.hom(b, a):
            if (fragment.compose(g, f) == fragment.identity(a)
                    and fragment.compose(f, g) == fragment.identity(b)):
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
    self_hom_witness: object | None = None
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
    objs = fragment.objects
    thin = all(len(fragment.hom(a, b)) <= 1 for a in objs for b in objs)
    directed = all(
        any(fragment.arrow(a, c) and fragment.arrow(b, c) for c in objs)
        for a in objs for b in objs
    )
    non_mono = None
    for m in fragment.morphisms():
        if not is_mono(fragment, m):
            non_mono = m
            break
    self_ok, self_witness = True, None
    for a in objs:
        if tuple(fragment.hom(a, a)) != (fragment.identity(a),):
            self_ok, self_witness = False, a
            break
    iso_ok = True
    for a in objs:
        for b in objs:
            pairs = iso_pairs(fragment, a, b) if a != b else []
            if pairs and set(fragment.hom(a, b)) != {f for f, _ in pairs}:
                iso_ok = False
    fan_in = {b: sum(len(fragment.hom(a, b)) for a in objs) for b in objs}
    return StructuralReport(thin, directed, non_mono is None, self_ok, iso_ok, fan_in=fan_in,
                            non_mono_witness=non_mono, self_hom_witness=self_witness)


@dataclass
class SkeletonResult:
    fragment: CategoryFragment
    representative: dict
    eta: dict  # object -> iso into its representative
    eta_inv: dict


def skeleton(fragment: CategoryFragment) -> SkeletonResult:
    """Full subcategory on the first object of each isomorphism class, with a
    chosen isomorphism from every object into its representative."""
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
    hom = {
        (a, b): fragment.hom(a, b)
        for a in chosen for b in chosen if fragment.hom(a, b)
    }
    identity = {a: fragment.identity(a) for a in chosen}
    sub = CategoryFragment(fragment.name + ".skel", chosen, hom, identity, fragment._compose_fn)
    return SkeletonResult(sub, reps, eta, eta_inv)


# --- the chains <-> plain-words correspondence -------------------------------

def dramop_word_functor(n: int, plain: WordContext, hom_cap: int = DEFAULT_HOM_CAP):
    """The fragment isomorphism between positive integers with plain words
    and the opposite of chains with rigid surjections: a word maps to the
    surjection reading off its variable indices.

    Returns (gr_fragment, dram_op_fragment, word_morphism -> op_morphism).
    """
    grf = gr_fragment(plain, n, hom_cap)
    dop = dram_op_fragment(n, hom_cap)

    def on_morphism(m: Morphism) -> Morphism:
        f = word_to_rsurj(m.payload)
        return Morphism(m.dom, m.cod, f)

    return grf, dop, on_morphism


def check_fragment_isomorphism(src: CategoryFragment, dst: CategoryFragment,
                               on_morphism) -> dict:
    """Exhaustively check that an object-preserving morphism map is a
    composition- and identity-preserving bijection on hom-sets."""
    failures = []
    bijective = True
    for a in src.objects:
        for b in src.objects:
            imgs = [on_morphism(m) for m in src.hom(a, b)]
            if len(set(imgs)) != len(imgs) or set(imgs) != set(dst.hom(a, b)):
                bijective = False
                failures.append({"pair": (a, b), "reason": "hom-set image is not a bijection"})
    identities = all(on_morphism(src.identity(a)) == dst.identity(a) for a in src.objects)
    comp_ok = True
    for a, b, c in product(src.objects, repeat=3):
        for f in src.hom(a, b):
            for g in src.hom(b, c):
                if on_morphism(src.compose(g, f)) != dst.compose(on_morphism(g), on_morphism(f)):
                    comp_ok = False
                    failures.append({"pair": (a, b, c), "f": f, "g": g})
    return {"bijective": bijective, "identities": identities, "composition": comp_ok,
            "ok": bijective and identities and comp_ok, "failures": failures}


# --- fragment spec files ------------------------------------------------------

def fragment_from_spec(spec: dict, context: WordContext | None = None) -> CategoryFragment:
    """Build a fragment from its config-file form: either a named builder with
    parameters or fully explicit tables."""
    if "builder" in spec:
        builder = spec["builder"]
        params = spec.get("params", {})
        n = int(params.get("n", 3))
        cap = int(params.get("hom_cap", DEFAULT_HOM_CAP))
        if builder == "ram":
            return ram_fragment(n, cap)
        if builder == "dram":
            return dram_fragment(n, cap)
        if builder == "dram-op":
            return dram_op_fragment(n, cap)
        if builder == "gr":
            if context is None:
                raise ValidationError("missing_context", "gr fragments need a group/action context")
            return gr_fragment(context, n, cap)
        if builder == "vec":
            return vec_fragment(int(params.get("q", 2)), n, cap)
        if builder == "thin-chain":
            from .tukey import chain_preorder

            return thin_from_preorder(chain_preorder(n), name="chain")
        raise ValidationError("unknown_builder", f"unknown fragment builder {builder!r}", builder=builder)
    morphisms = {mid: (m["dom"], m["cod"]) for mid, m in spec["morphisms"].items()}
    compose_table = {(g, f): h for g, f, h in spec["compose"]}
    return explicit_fragment(spec["objects"], morphisms, spec["identities"], compose_table,
                             name=spec.get("name", "explicit"))
