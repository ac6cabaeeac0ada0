"""Decorated parameter words and their substitution algebra.

An ``m``-parameter decorated ``n``-letter word over an alphabet ``A`` and a
group ``G`` is a length-``n`` sequence of tokens, each a symbol with a group
exponent.  Symbols are either alphabet letters or variables ``x1, x2, ...``;
a word is valid when

* letters only carry the neutral exponent,
* each of ``x1 .. xm`` occurs at least once,
* the first occurrence of every variable carries the neutral exponent,
* first occurrences appear in increasing variable order.

Composition is substitution: ``u * v`` replaces each occurrence of ``xi`` in
``u`` by the i-th token of ``v``.  When an occurrence carrying exponent ``h``
receives a token with exponent ``g`` the exponents combine to ``g * h``, and
a letter landing under an exponent is resolved through the right action of
the group on the alphabet (ending with the neutral exponent).  The identity
word of arity ``n`` is ``x1 x2 ... xn``.

Tokens are plain tuples ``(kind, index, exponent)`` with ``kind`` 0 for
variables (1-based index) and 1 for letters (0-based index into the
alphabet); the neutral exponent is 0.  Tuple order gives the canonical token
order used by enumeration: variables before letters, then index, then the
exponent's position in the group's element order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ValidationError
from .groups import RightAction, trivial_action, trivial_group

PARAM = 0
LETTER = 1


def param(index: int, exponent: int = 0) -> tuple[int, int, int]:
    return (PARAM, index, exponent)


def letter(index: int) -> tuple[int, int, int]:
    return (LETTER, index, 0)


@dataclass(frozen=True)
class WordContext:
    """The alphabet/group pair (via a right action) words are read against."""

    action: RightAction
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        # every word embeds its context, so hashing a word must not walk the
        # group and action tables again
        object.__setattr__(self, "_hash", hash(self.action))

    def __hash__(self) -> int:
        return self._hash

    @property
    def group(self):
        return self.action.group

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.action.alphabet


def plain_context() -> WordContext:
    """Empty alphabet, trivial group: undecorated parameter words."""
    return WordContext(trivial_action(trivial_group()))


@dataclass(frozen=True)
class DecoratedWord:
    context: WordContext
    tokens: tuple[tuple[int, int, int], ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.tokens)

    def __str__(self) -> str:
        return format_word(self)


def validate_word(tokens, m: int, context: WordContext) -> DecoratedWord:
    """Check the four word conditions; report the first violation with its
    (1-based) position."""
    tokens = tuple(tuple(t) for t in tokens)
    if not tokens:
        raise ValidationError("empty_word", "words must have at least one token")
    if m < 0:
        raise ValidationError("parameter_range", f"parameter count {m} is negative", m=m)
    group = context.group
    n_letters = len(context.alphabet)
    first_seen: dict[int, int] = {}
    for pos, (kind, idx, exp) in enumerate(tokens, start=1):
        if not (0 <= exp < group.order):
            raise ValidationError("unknown_group_element", f"exponent {exp} out of range at position {pos}",
                                  pos=pos, exponent=exp)
        if kind == LETTER:
            if not (0 <= idx < n_letters):
                raise ValidationError("unknown_letter", f"letter index {idx} out of range at position {pos}",
                                      pos=pos, letter=idx)
            if exp != 0:
                raise ValidationError(
                    "letter_exponent",
                    f"letter at position {pos} carries a non-neutral exponent",
                    pos=pos,
                )
        elif kind == PARAM:
            if not (1 <= idx <= m):
                raise ValidationError(
                    "parameter_range",
                    f"variable x{idx} at position {pos} is outside x1..x{m}",
                    pos=pos, parameter=idx,
                )
            if idx not in first_seen:
                first_seen[idx] = pos
                if exp != 0:
                    raise ValidationError(
                        "first_occurrence_exponent",
                        f"first occurrence of x{idx} (position {pos}) must carry the neutral exponent",
                        parameter=idx, pos=pos,
                    )
        else:
            raise ValidationError("token_kind", f"unknown token kind {kind} at position {pos}", pos=pos)
    for ell in range(1, m + 1):
        if ell not in first_seen:
            raise ValidationError("missing_parameter", f"variable x{ell} never occurs", parameter=ell)
    for k in range(1, m):
        if first_seen[k] > first_seen[k + 1]:
            raise ValidationError(
                "first_occurrence_order",
                f"x{k + 1} first occurs before x{k}",
                k=k, l=k + 1,
            )
    return DecoratedWord(context, tokens, m)


def identity_word(n: int, context: WordContext) -> DecoratedWord:
    if n < 1:
        raise ValidationError("parameter_range", f"identity word arity must be positive, got {n}", n=n)
    return DecoratedWord(context, tuple(param(i) for i in range(1, n + 1)), n)


def substitute(u: DecoratedWord, v: DecoratedWord) -> DecoratedWord:
    """Compose two words: the result replaces each ``xi`` occurrence of ``u``
    by the i-th token of ``v`` and resolves exponents through the group and
    the action.  Requires ``v.n == u.m`` and a shared context."""
    if u.context != v.context:
        raise ValidationError("context_mismatch", "words come from different contexts")
    if v.n != u.m:
        raise ValidationError(
            "arity_mismatch",
            f"cannot substitute a {v.n}-letter word for {u.m} parameters",
            expected=u.m, got=v.n,
        )
    group = u.context.group
    action = u.context.action
    out = []
    for kind, idx, occ_exp in u.tokens:
        if kind == LETTER:
            out.append((LETTER, idx, 0))
            continue
        vkind, vidx, vexp = v.tokens[idx - 1]
        exp = group.multiply(vexp, occ_exp)
        if vkind == PARAM:
            out.append((PARAM, vidx, exp))
        else:
            out.append((LETTER, action.act(vidx, exp), 0))
    return DecoratedWord(u.context, tuple(out), v.m)


def token_sort_key(context: WordContext):
    order_pos = context.group.order_pos

    def key(token):
        kind, idx, exp = token
        return (kind, idx, order_pos[exp])

    return key


def enumerate_words(m: int, n: int, context: WordContext) -> Iterator[DecoratedWord]:
    """All valid words with ``m`` parameters and ``n`` tokens, in the
    canonical lexicographic order over token sequences (empty iff m > n,
    apart from the all-letter words allowed at m = 0)."""
    if m < 0 or n < 1:
        return
    group = context.group
    order = group.element_order
    n_letters = len(context.alphabet)
    if m > n:
        return

    prefix: list[tuple[int, int, int]] = []

    def candidates(seen: int):
        for j in range(1, seen + 1):
            for g in order:
                yield (PARAM, j, g)
        if seen < m:
            yield (PARAM, seen + 1, 0)
        for a in range(n_letters):
            yield (LETTER, a, 0)

    def rec(pos: int, seen: int):
        if pos == n:
            if seen == m:
                yield DecoratedWord(context, tuple(prefix), m)
            return
        remaining = n - pos
        for token in candidates(seen):
            new_seen = seen + 1 if token[0] == PARAM and token[1] == seen + 1 else seen
            if m - new_seen > remaining - 1:
                continue
            prefix.append(token)
            yield from rec(pos + 1, new_seen)
            prefix.pop()

    yield from rec(0, 0)


# --- notation -------------------------------------------------------------

_PARAM_RE = re.compile(r"^x([1-9][0-9]*)$")


def format_word(word: DecoratedWord) -> str:
    group = word.context.group
    alphabet = word.context.alphabet
    parts = []
    for kind, idx, exp in word.tokens:
        sym = f"x{idx}" if kind == PARAM else alphabet[idx]
        parts.append(sym if exp == 0 else f"{sym}^{group.name_of(exp)}")
    return " ".join(parts)


def parse_word(text: str, context: WordContext, m: int | None = None) -> DecoratedWord:
    """Parse whitespace-separated tokens like ``x1``, ``x2^g``, ``a``.

    The neutral exponent is implicit.  ``m`` defaults to the largest variable
    index present.  The result is validated.
    """
    action = context.action
    group = context.group
    tokens = []
    max_param = 0
    pieces = text.split()
    if not pieces:
        raise ValidationError("syntax", "empty word text", position=1)
    for pos, piece in enumerate(pieces, start=1):
        sym, sep, expname = piece.partition("^")
        if not sym or (sep and not expname):
            raise ValidationError("syntax", f"malformed token {piece!r} at position {pos}", position=pos)
        exp = group.element_by_name(expname) if sep else 0
        if sym in action.alphabet:
            tokens.append((LETTER, action.letter_by_name(sym), exp))
            continue
        match = _PARAM_RE.match(sym)
        if match:
            idx = int(match.group(1))
            max_param = max(max_param, idx)
            tokens.append((PARAM, idx, exp))
            continue
        raise ValidationError("unknown_symbol", f"unknown symbol {sym!r} at position {pos}",
                              position=pos, symbol=sym)
    return validate_word(tokens, max_param if m is None else m, context)
