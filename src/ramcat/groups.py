"""Finite groups given by multiplication tables, and their right actions.

A group of order ``t`` lives on the canonical element indices ``0..t-1`` with
``0`` always the neutral element; names are presentation-layer only.  The
constructions that need a linear order on the group (word enumeration, the
chain ``n x G`` of ``pa_gr_to_dramop``) use the index order, so the neutral
element is least.  A name, of an element or of a letter, is one token of
word notation: a non-empty string with no whitespace and no ``^``, distinct
from the other names of its kind.

A right action of a group on a finite alphabet is a table
``(letter, element) -> letter`` satisfying ``a^e = a`` and
``(a^g)^h = a^{g*h}``.  The alphabet may be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError

CONTEXT_KEYS = ("order", "table", "element_names", "alphabet", "action_table")


@dataclass(frozen=True)
class FiniteGroup:
    """A multiplication table on the indices ``0..t-1``, 0 the neutral
    element, with one name per element; built by ``validate_group``."""

    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    def multiply(self, g: int, h: int) -> int:
        return self.table[g][h]

    def elements(self):
        return range(self.order)

    def name_of(self, g: int) -> str:
        return self.names[g]

    def element_by_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(
                "unknown_group_element", f"unknown group element {name!r}", name=name
            ) from None


def default_element_names(t: int) -> tuple[str, ...]:
    if t == 1:
        return ("e",)
    if t == 2:
        return ("e", "g")
    return ("e", "g") + tuple(f"g{k}" for k in range(2, t))


def _check_names(names, what: str) -> None:
    """Refuse names that word notation cannot read back: each must be a
    non-empty string with no whitespace and no ``^``, and none may repeat."""
    for i, name in enumerate(names):
        if not (isinstance(name, str) and name.split() == [name] and "^" not in name):
            raise ValidationError("bad_name", f"{what} name {name!r} is not a non-empty string without "
                                  "whitespace or '^'", name=name)
        if name in names[:i]:
            raise ValidationError(f"repeated_{what}", f"{what} name {name!r} occurs twice", name=name)


def validate_group(table, names: tuple[str, ...] | None = None) -> FiniteGroup:
    """Check the group axioms on a raw ``t x t`` table and build the value.

    Index 0 must be the two-sided neutral element.  Raises ValidationError
    with code ``no_identity``, ``no_inverse`` (carrying the offending
    element) or ``non_associative`` (carrying a bad triple, found by
    ``_check_associative`` in O(t^2 log t)).  Without ``names`` the elements
    are named ``e, g, g2, ...``; given names must be ``t`` of them and pass
    ``_check_names``.
    """
    rows = tuple(tuple(row) for row in table)
    t = len(rows)
    if t == 0:
        raise ValidationError("empty_group", "a group needs at least the neutral element")
    for g, row in enumerate(rows):
        if len(row) != t:
            raise ValidationError("table_shape", f"row {g} has length {len(row)}, expected {t}", row=g)
        for h, v in enumerate(row):
            if not (type(v) is int and 0 <= v < t):  # JSON true is a bool, not an index
                raise ValidationError(
                    "entry_range", f"table entry ({g},{h}) = {v!r} is not an integer in 0..{t - 1}", g=g, h=h, value=v
                )
    for g in range(t):
        if rows[0][g] != g or rows[g][0] != g:
            raise ValidationError("no_identity", "index 0 is not a two-sided neutral element", g=g)
    for g in range(t):
        if not any(rows[g][h] == 0 and rows[h][g] == 0 for h in range(t)):
            raise ValidationError("no_inverse", f"element {g} has no two-sided inverse", g=g)
    _check_associative(rows)
    names = tuple(names) if names else default_element_names(t)
    if len(names) != t:
        raise ValidationError("element_names", f"{len(names)} element names for a group of order {t}",
                              names=len(names), order=t)
    _check_names(names, "element")
    return FiniteGroup(rows, names)


def _check_associative(rows) -> None:
    """Light's associativity test on a table with a neutral element 0 and
    two-sided inverses: (x*a)*y == x*(a*y) for all x, y and each a of a
    generating set.  The a that pass form a set closed under the product,
    so a generating set that passes makes the table associative.  Each
    generator is the least element not yet reached as a product of the
    ones before.  What generators that passed reach is a subgroup, so each
    new generator at least doubles it: at most log2(t) + 1 generators are
    tested, each in O(t^2).  The first x, a, y that fails is raised as the
    triple (g, h, k)."""
    t = len(rows)
    gens, reached = [], {0}
    for a in range(t):
        if a in reached:
            continue
        row_a = rows[a]
        for x, row_x in enumerate(rows):
            if rows[row_x[a]] != tuple(map(row_x.__getitem__, row_a)):
                y = next(y for y in range(t) if rows[row_x[a]][y] != row_x[row_a[y]])
                raise ValidationError("non_associative", f"(g*h)*k != g*(h*k) for g={x}, h={a}, k={y}",
                                      g=x, h=a, k=y)
        gens.append(a)
        todo = list(reached)
        while todo:
            for z in map(rows[todo.pop()].__getitem__, gens):
                if z not in reached:
                    reached.add(z)
                    todo.append(z)


def trivial_group() -> FiniteGroup:
    return validate_group([[0]])


def cyclic_group(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(table)


@dataclass(frozen=True)
class RightAction:
    group: FiniteGroup
    alphabet: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]  # table[letter][element] -> letter

    def act(self, letter: int, g: int) -> int:
        """The letter ``letter^g``, with both indices checked: the accessor
        for callers outside the package.  Inner loops that only see validated
        words read ``table[letter][g]`` directly."""
        if not (0 <= letter < len(self.alphabet)):
            raise ValidationError("unknown_letter", f"letter index {letter} out of range", letter=letter)
        if not (0 <= g < self.group.order):
            raise ValidationError("unknown_group_element", f"group element {g} out of range", element=g)
        return self.table[letter][g]

    def letter_by_name(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise ValidationError("unknown_letter", f"unknown letter {name!r}", name=name) from None


def validate_action(action: RightAction) -> RightAction:
    """Check the letter names, unitality and the right-action law, naming the
    first bad letter or tuple.  Letter names pass ``_check_names`` and must
    not read as a variable ``x1, x2, ...``."""
    group = action.group
    n_letters = len(action.alphabet)
    _check_names(action.alphabet, "letter")
    for name in action.alphabet:
        if name[0] == "x" and name[1:].isdigit():
            raise ValidationError("reserved_letter", f"letter name {name!r} clashes with variable notation", name=name)
    if len(action.table) != n_letters:
        raise ValidationError("table_shape", "action table must have one row per letter")
    for row in action.table:
        if len(row) != group.order:
            raise ValidationError("table_shape", "action table rows must have one column per group element")
        for v in row:
            if not (type(v) is int and 0 <= v < n_letters):
                raise ValidationError("entry_range", f"action table entry {v!r} is not a letter index", value=v)
    for a in range(n_letters):
        if action.table[a][0] != a:
            raise ValidationError(
                "not_unital", f"letter {action.alphabet[a]!r} moves under the neutral element", a=a
            )
    for a in range(n_letters):
        for g in group.elements():
            for h in group.elements():
                if action.table[action.table[a][g]][h] != action.table[a][group.multiply(g, h)]:
                    raise ValidationError(
                        "not_right_action",
                        f"(a^g)^h != a^(g*h) for a={action.alphabet[a]!r}, g={g}, h={h}",
                        a=a, g=g, h=h,
                    )
    return action


def make_action(group: FiniteGroup, alphabet, table) -> RightAction:
    return validate_action(RightAction(group, tuple(alphabet), tuple(tuple(r) for r in table)))


def trivial_action(group: FiniteGroup, alphabet=()) -> RightAction:
    alphabet = tuple(alphabet)
    table = tuple(tuple(a for _ in range(group.order)) for a in range(len(alphabet)))
    return make_action(group, alphabet, table)


def cycle_action(group: FiniteGroup, alphabet, generator_images) -> RightAction:
    """Action of a cyclic-style group determined by where one generator sends
    each letter; element k acts as the generator applied k times.

    Only valid when the group is cyclic generated by element 1; the result is
    still validated against the full action laws.
    """
    alphabet = tuple(alphabet)
    step = tuple(generator_images)
    table = []
    for a in range(len(alphabet)):
        row = []
        for g in group.elements():
            x = a
            for _ in range(g):
                x = step[x]
            row.append(x)
        table.append(tuple(row))
    return make_action(group, alphabet, table)


# --- configuration files -------------------------------------------------

def _unflatten(values, rows: int, cols: int, what: str):
    """The rows of a flat row-major table."""
    values = list(values)
    if len(values) != rows * cols:
        raise ValidationError("table_shape", f"{what} must have {rows * cols} entries, got {len(values)}")
    return [values[i * cols:(i + 1) * cols] for i in range(rows)]


def action_from_dict(data: dict) -> RightAction:
    """Load a group/action value from its config-file form.

    The fields are ``CONTEXT_KEYS``: ``order``, ``table`` (flat, row-major),
    the optional ``element_names``, ``alphabet`` and ``action_table`` (flat,
    one row per letter); any other key is refused, and so is a table or name
    list that is not a JSON array.  Names only matter to the parser and
    printer; all semantics run on indices.
    """
    if not isinstance(data, dict):
        raise TypeError("a context file holds a JSON object")
    unknown = sorted(map(str, data.keys() - set(CONTEXT_KEYS)))
    if unknown:
        raise ValidationError("unknown_key", f"context file keys not read: {', '.join(map(repr, unknown))}",
                              keys=unknown)
    for key in ("table", "element_names", "alphabet", "action_table"):
        if not isinstance(data.get(key, []), list):
            raise TypeError(f"context file key {key!r} must hold a JSON array, not {type(data[key]).__name__}")
    order = data["order"]
    if type(order) is not int:
        raise ValidationError("bad_order", f"context file key 'order' must hold an integer, not {order!r}")
    table = _unflatten(data["table"], order, order, "group table")
    group = validate_group(table, names=tuple(data.get("element_names", ())))
    alphabet = tuple(data.get("alphabet", ()))
    if alphabet:
        action_table = _unflatten(data["action_table"], len(alphabet), order, "action table")
    else:
        action_table = []
    return make_action(group, alphabet, action_table)
