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
order used by enumeration: variables before letters, then index, then
exponent.  A word is a tuple-backed value (a ``NamedTuple`` of tokens and
``m``), so it is built, hashed and compared in C.  A word does not hold its
alphabet and group: the context is held once, by the fragment's composition
rule and by the parser, validator, enumerator and printer that are given
it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from typing import Iterator, NamedTuple, NoReturn

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

    @property
    def group(self):
        return self.action.group

    @property
    def alphabet(self) -> tuple[str, ...]:
        return self.action.alphabet


@cache
def plain_context() -> WordContext:
    """Empty alphabet, trivial group: undecorated parameter words.  A context
    is immutable, so every caller shares one."""
    return WordContext(trivial_action(trivial_group()))


class DecoratedWord(NamedTuple):
    """A word as a tuple-backed value: construction, hashing and equality run
    in C.  Like any tuple it equals a plain tuple with the same items, so
    ``n`` is its length in tokens, not ``len(word)``."""

    tokens: tuple[tuple[int, int, int], ...]
    m: int

    @property
    def n(self) -> int:
        return len(self.tokens)


def validate_word(tokens, m: int, context: WordContext) -> DecoratedWord:
    """``tokens`` as an ``m``-parameter word of ``context``.  One scan, the
    only way in, accepts a word: it walks the tokens once, keeping the
    highest variable seen so far.  A variable above it must be the next one
    and carry the neutral exponent; every exponent and letter must be in
    range, and a letter's exponent neutral; at the end the highest variable
    seen must be x_m.  That is the four word conditions for tokens of
    integers.  Tokens that fail it are read value by value only then, to
    report the first violation with its (1-based) position; they are always
    refused."""
    tokens = tuple(map(tuple, tokens))
    order, n_letters = context.group.order, len(context.alphabet)
    top = 0  # the highest variable seen so far
    for kind, idx, exp in tokens:
        if kind == PARAM:
            if idx > top:
                if idx != top + 1 or exp:
                    break
                top = idx
            elif not (idx > 0 and 0 <= exp < order):
                break
        elif kind != LETTER or exp or not 0 <= idx < n_letters:
            break
    else:
        if tokens and top == m:
            return DecoratedWord(tokens, m)
    _refuse(tokens, m, order, n_letters)


def _refuse(tokens: tuple, m: int, order: int, n_letters: int) -> NoReturn:
    """Raise the first violation of the word conditions in ``tokens``, which
    ``validate_word``'s scan refused."""
    if not tokens:
        raise ValidationError("empty_word", "words must have at least one token")
    if m < 0:
        raise ValidationError("parameter_range", f"parameter count {m} is negative", m=m)
    first_seen: dict[int, int] = {}
    for pos, (kind, idx, exp) in enumerate(tokens, start=1):
        if not (0 <= exp < order):
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
    raise ValidationError("parameter_range", f"the variables in order of first occurrence are not x1..x{m}")


def identity_word(n: int) -> DecoratedWord:
    if n < 1:
        raise ValidationError("parameter_range", f"identity word arity must be positive, got {n}", n=n)
    return DecoratedWord(tuple(param(i) for i in range(1, n + 1)), n)


def substitute(context: WordContext, u: DecoratedWord, v: DecoratedWord) -> DecoratedWord:
    """Compose two words of ``context``: the result replaces each ``xi``
    occurrence of ``u`` by the i-th token of ``v`` and resolves exponents
    through the group and the action.  Requires ``v.n == u.m``.

    The loop reads the group and action tables directly, unchecked: every
    exponent and letter index of a word is bounded when the word is validated
    or built in ``context``, and ``validate_action`` bounded the tables."""
    vtokens = v.tokens
    if len(vtokens) != u.m:
        raise ValidationError(
            "arity_mismatch",
            f"cannot substitute a {v.n}-letter word for {u.m} parameters",
            expected=u.m, got=v.n,
        )
    mul = context.action.group.table
    act = context.action.table
    out = []
    for token in u.tokens:
        kind, idx, occ_exp = token
        if kind == LETTER:
            out.append(token)
            continue
        vkind, vidx, vexp = vtokens[idx - 1]
        exp = mul[vexp][occ_exp]
        out.append((PARAM, vidx, exp) if vkind == PARAM else (LETTER, act[vidx][exp], 0))
    return DecoratedWord(tuple(out), v.m)


def word_tokens(context: WordContext, n: int) -> list[tuple[int, int, int]]:
    """The tokens of the words of ``context`` with at most ``n`` parameters:
    the letters, then ``x_i^h`` for i = 1..n and each h."""
    order = context.group.order
    return ([(LETTER, idx, 0) for idx in range(len(context.alphabet))]
            + [(PARAM, i, h) for i in range(1, n + 1) for h in range(order)])


def word_spelling(context: WordContext, n: int):
    """``(spell, substitution)`` for the words of ``context`` with at most
    ``n`` parameters.  ``spell(u)`` writes u with one character per token,
    its position in ``word_tokens``: letter l as ``chr(l)`` and ``x_i^h`` as
    ``chr(|A| + (i - 1)|G| + h)``, so within one hom-set the spelling names
    the word.  ``substitution(v)`` is the ``str.translate`` table that sends
    each ``x_i^h`` to the token ``substitute`` writes there, v's i-th token
    twisted by h, and keeps letters, so ``spell(substitute(context, u, v))``
    is ``spell(u).translate(substitution(v))``."""
    letters, order = len(context.alphabet), context.group.order
    mul, act = context.action.group.table, context.action.table
    codes = {token: chr(code) for code, token in enumerate(word_tokens(context, n))}

    def spell(word: DecoratedWord) -> str:
        return "".join(map(codes.__getitem__, word.tokens))

    def substitution(v: DecoratedWord) -> dict[int, str]:
        table = {}
        for i, (kind, idx, vexp) in enumerate(v.tokens):
            for h in range(order):
                exp = mul[vexp][h]
                token = (PARAM, idx, exp) if kind == PARAM else (LETTER, act[idx][exp], 0)
                table[letters + i * order + h] = codes[token]
        return table

    return spell, substitution


def enumerate_words(m: int, n: int, context: WordContext) -> Iterator[DecoratedWord]:
    """All valid words with ``m`` parameters and ``n`` tokens, in the
    canonical lexicographic order over token sequences (empty iff m > n,
    apart from the all-letter words allowed at m = 0, of which an empty
    alphabet has none).

    Prefixes are extended one position at a time, each by its allowed tokens
    in canonical order, so every level stays sorted.  A prefix is kept only
    while the positions left can still introduce the missing variables; the
    last position is streamed rather than stored."""
    if m < 0 or n < 1 or m > n or not (m or context.alphabet):
        return
    order = range(context.group.order)
    letters = [(LETTER, a, 0) for a in range(len(context.alphabet))]
    # options[seen]: (token, variables seen after it) for a position that
    # follows ``seen`` distinct variables, in canonical token order
    options = []
    for seen in range(m + 1):
        opts = [((PARAM, j, g), seen) for j in range(1, seen + 1) for g in order]
        if seen < m:
            opts.append(((PARAM, seen + 1, 0), seen + 1))
        options.append(opts + [(token, seen) for token in letters])
    level = [((), 0)]
    for pos in range(n - 1):
        floor = m - (n - pos - 1)  # variables that must be seen after this position
        level = [(prefix + (token,), after)
                 for prefix, seen in level for token, after in options[seen] if after >= floor]
    for prefix, seen in level:
        for token, after in options[seen]:
            if after == m:
                yield DecoratedWord(prefix + (token,), m)


def listing_size(m: int, n: int, context: WordContext, cap: int) -> tuple[int, int]:
    """``(words, tokens)``: how many words ``enumerate_words(m, n, context)``
    lists, and how many tokens it writes, counting each prefix it keeps as
    its length.  When the tokens pass ``cap`` the sizing stops there, with
    ``tokens`` over ``cap`` and ``words`` a number the words are at least.

    The recurrence of ``category._word_counts``, kept to the prefixes that
    can still become a word, as ``enumerate_words`` keeps them: a prefix with
    k variables has k + 1 of them when it takes the next new variable, and
    keeps k with any of the k |G| + |A| other tokens.  Each kept prefix
    extends to words of its own, and every non-empty listing keeps one per
    length, so the sizing takes at most about sqrt(2 cap) steps."""
    order, letters = context.group.order, len(context.alphabet)
    if m < 0 or n < 1 or m > n or not (m or letters):
        return 0, 0
    row = {0: 1}  # row[k]: the kept prefixes of the current length with k variables
    tokens = 0
    for length in range(1, n + 1):
        row = {k: row.get(k - 1, 0) + row.get(k, 0) * (k * order + letters)
               for k in range(max(0, m - (n - length)), min(length, m) + 1)}
        kept = sum(row.values())
        tokens += length * kept
        if tokens > cap:
            break
    return kept, tokens


# --- notation -------------------------------------------------------------

_PARAM_RE = re.compile(r"^x([1-9][0-9]*)$")


def format_word(word: DecoratedWord, context: WordContext) -> str:
    group = context.group
    alphabet = context.alphabet
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
            if len(match.group(1)) > 18:  # no word has 10**18 tokens; int() refuses 4,301 digits
                raise ValidationError("parameter_range", f"variable index at position {pos} is too large",
                                      position=pos)
            idx = int(match.group(1))
            max_param = max(max_param, idx)
            tokens.append((PARAM, idx, exp))
            continue
        raise ValidationError("unknown_symbol", f"unknown symbol {sym!r} at position {pos}",
                              position=pos, symbol=sym)
    return validate_word(tokens, max_param if m is None else m, context)
