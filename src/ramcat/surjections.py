"""Rigid surjections between finite chains.

A surjection ``f`` from the chain ``1..n`` onto ``1..m`` is rigid when the
minima of its preimages are increasing: ``min f^-1(b) < min f^-1(b')``
whenever ``b < b'``.  Rigid surjections compose, correspond bijectively to
undecorated parameter words, and dualize to strictly monotone injections by
taking minima of preimages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import ValidationError
from .words import PARAM, DecoratedWord, WordContext, param, plain_context, validate_word


@dataclass(frozen=True)
class RigidSurjection:
    dom: int
    cod: int
    image: tuple[int, ...]

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.image) + ")"


def validate_rigid(dom: int, cod: int, image) -> RigidSurjection:
    image = tuple(image)
    if len(image) != dom:
        raise ValidationError("map_shape", f"map has {len(image)} entries for a {dom}-chain")
    for i, v in enumerate(image, start=1):
        if not (1 <= v <= cod):
            raise ValidationError("map_shape", f"value {v} at position {i} outside 1..{cod}", pos=i, value=v)
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
    return RigidSurjection(dom, cod, image)


def identity_rigid(n: int) -> RigidSurjection:
    return RigidSurjection(n, n, tuple(range(1, n + 1)))


def compose_rigid(g: RigidSurjection, f: RigidSurjection) -> RigidSurjection:
    """Standard function composition ``g`` after ``f``; closure under
    rigidity is re-checked, not assumed."""
    if f.cod != g.dom:
        raise ValidationError("chain_mismatch", f"cannot compose {g.dom}->{g.cod} after {f.dom}->{f.cod}")
    return validate_rigid(f.dom, g.cod, tuple(g.image[v - 1] for v in f.image))


def enumerate_rsurj(dom: int, cod: int) -> Iterator[RigidSurjection]:
    """All rigid surjections ``dom -> cod`` in lexicographic order of their
    image tuples; empty when ``dom < cod``."""
    if dom < cod or cod < 1:
        return
    image: list[int] = []

    def rec(pos: int, used: int):
        if pos == dom:
            if used == cod:
                yield RigidSurjection(dom, cod, tuple(image))
            return
        remaining = dom - pos
        for v in range(1, min(used + 1, cod) + 1):
            new_used = used + 1 if v == used + 1 else used
            if cod - new_used > remaining - 1:
                continue
            image.append(v)
            yield from rec(pos + 1, new_used)
            image.pop()

    yield from rec(0, 0)


def word_to_rsurj(u: DecoratedWord) -> RigidSurjection:
    """Read an undecorated word as the rigid surjection sending position
    ``i`` to the index of the variable at ``i``."""
    if u.context.alphabet or u.context.group.order != 1:
        raise ValidationError("not_plain_word", "only words over the empty alphabet with the trivial group translate")
    image = []
    for kind, idx, exp in u.tokens:
        if kind != PARAM or exp != 0:
            raise ValidationError("not_plain_word", "word contains letters or non-neutral exponents")
        image.append(idx)
    return validate_rigid(u.n, u.m, tuple(image))


def rsurj_to_word(f: RigidSurjection, context: WordContext | None = None) -> DecoratedWord:
    context = context or plain_context()
    if context.alphabet or context.group.order != 1:
        raise ValidationError("not_plain_word", "target context must be the empty alphabet with the trivial group")
    return validate_word(tuple(param(v) for v in f.image), f.cod, context)


def dual(f: RigidSurjection) -> tuple[int, ...]:
    """The strictly monotone injection ``i -> min f^-1(i)``."""
    mins: dict[int, int] = {}
    for i, v in enumerate(f.image, start=1):
        mins.setdefault(v, i)
    return tuple(mins[b] for b in range(1, f.cod + 1))
