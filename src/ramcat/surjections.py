"""Rigid surjections between finite chains.

A surjection ``f`` from the chain ``1..n`` onto ``1..m`` is rigid when the
minima of its preimages are increasing: ``min f^-1(b) < min f^-1(b')``
whenever ``b < b'``.  Rigid surjections compose, correspond bijectively to
undecorated parameter words, and dualize to strictly monotone injections by
taking minima of preimages.  A surjection is a tuple-backed value (a
``NamedTuple`` of dom, cod and image).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, NamedTuple

from .errors import ValidationError
from .words import PARAM, DecoratedWord, enumerate_words, param, plain_context, validate_word


class RigidSurjection(NamedTuple):
    """A tuple-backed value: built, hashed and compared in C.  It equals any
    tuple with the same three items, a ``Morphism`` with the same fields
    included; ``CategoryFragment.in_hom`` tells the two apart."""

    dom: int
    cod: int
    image: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.image) + ")"


def validate_rigid(dom: int, cod: int, image) -> RigidSurjection:
    """``image`` as a rigid surjection ``dom -> cod``.  It is one exactly
    when it has ``dom`` entries and the values in order of first occurrence
    are 1..cod: each value then lies in 1..cod, each of 1..cod is attained,
    and the minima of the preimages increase.  That test runs in C and is
    the only way in; it builds 1..cod only when there are exactly cod
    distinct values, so a huge cod costs nothing.  An image that fails it is
    checked value by value to say why, and is always refused."""
    image = tuple(image)
    firsts = tuple(dict.fromkeys(image))
    if len(image) == dom and len(firsts) == cod and firsts == tuple(range(1, cod + 1)):
        return RigidSurjection(dom, cod, image)
    if len(image) != dom:
        raise ValidationError("map_shape", f"map has {len(image)} entries for a {dom}-chain")
    for i, v in enumerate(image, start=1):
        if not (1 <= v <= cod):
            raise ValidationError("map_shape", f"value {v} at position {i} outside 1..{cod}", pos=i, value=v)
        if v != int(v):
            raise ValidationError("map_shape", f"value {v} at position {i} is not an integer", pos=i, value=v)
    mins: dict[int, int] = {}
    for i, v in enumerate(image, start=1):
        mins.setdefault(v, i)
    for b in range(1, cod + 1):
        if b not in mins:
            raise ValidationError("not_surjective", f"value {b} is never attained", b=b)
    for b in range(1, cod):
        if mins[b] >= mins[b + 1]:
            raise ValidationError(
                "min_preimage_order",
                f"min preimage of {b} does not precede min preimage of {b + 1}",
                b=b, b_next=b + 1,
            )
    raise ValidationError("map_shape", f"values in order of first occurrence are not 1..{cod}")


def identity_rigid(n: int) -> RigidSurjection:
    return RigidSurjection(n, n, tuple(range(1, n + 1)))


def compose_rigid(g: RigidSurjection, f: RigidSurjection) -> RigidSurjection:
    """Standard function composition ``g`` after ``f``, read in C through
    ``g``'s image with a 0 in front, so value v of f indexes g(v).  Closure
    under rigidity is re-checked by ``validate_rigid``, not assumed."""
    if f.cod != g.dom:
        raise ValidationError("chain_mismatch", f"cannot compose {g.dom}->{g.cod} after {f.dom}->{f.cod}")
    return validate_rigid(f.dom, g.cod, tuple(map(((0,) + g.image).__getitem__, f.image)))


def spell_rigid(f: RigidSurjection) -> str:
    """f's image as a string, ``chr(v)`` for each value v; within one
    hom-set the spelling names the surjection."""
    return "".join(map(chr, f.image))


def rigid_substitution(f: RigidSurjection) -> dict[int, int]:
    """The ``str.translate`` table ``{v: f(v)}``, so
    ``spell_rigid(compose_rigid(f, g))`` is
    ``spell_rigid(g).translate(rigid_substitution(f))``: the opposite's g
    after f, one value at a time."""
    return dict(enumerate(f.image, 1))


def enumerate_rsurj(dom: int, cod: int) -> Iterator[RigidSurjection]:
    """All rigid surjections ``dom -> cod`` in lexicographic order of their
    image tuples; empty when ``dom < cod``.  They are the plain words with
    ``cod`` parameters and ``dom`` tokens, listed in the same order."""
    index = itemgetter(1)
    for tokens, _ in enumerate_words(cod, dom, plain_context()):
        yield RigidSurjection(dom, cod, tuple(map(index, tokens)))


def stirling2(n: int, m: int) -> int:
    """The Stirling number S(n, m), which counts the rigid surjections
    ``n -> m``, by the recurrence S(n, m) = m S(n-1, m) + S(n-1, m-1) taken
    row by row."""
    if m < 0 or m > n:
        return 0
    row = [1] + [0] * m  # S(0, j)
    for i in range(1, n + 1):
        for j in range(min(i, m), 0, -1):
            row[j] = j * row[j] + row[j - 1]
        row[0] = 0
    return row[m]


def word_to_rsurj(u: DecoratedWord) -> RigidSurjection:
    """Read an undecorated word as the rigid surjection sending position
    ``i`` to the index of the variable at ``i``: a word with a letter or a
    non-neutral exponent has none."""
    image = []
    for kind, idx, exp in u.tokens:
        if kind != PARAM or exp != 0:
            raise ValidationError("not_plain_word", "word contains letters or non-neutral exponents")
        image.append(idx)
    return validate_rigid(u.n, u.m, tuple(image))


def rsurj_to_word(f: RigidSurjection) -> DecoratedWord:
    return validate_word(tuple(param(v) for v in f.image), f.cod, plain_context())


def dual(f: RigidSurjection) -> tuple[int, ...]:
    """The strictly monotone injection ``i -> min f^-1(i)``."""
    mins: dict[int, int] = {}
    for i, v in enumerate(f.image, start=1):
        mins.setdefault(v, i)
    return tuple(mins[b] for b in range(1, f.cod + 1))
