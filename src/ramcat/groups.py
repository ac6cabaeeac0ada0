"""Finite groups given by multiplication tables, and their right actions.

A group of order ``t`` lives on the canonical element indices ``0..t-1`` with
``0`` always the neutral element; names are presentation-layer only.  Every
group value carries a total order on its elements with the neutral element
least, because some constructions downstream depend on a fixed linear
ordering of the group.

A right action of a group on a finite alphabet is a table
``(letter, element) -> letter`` satisfying ``a^e = a`` and
``(a^g)^h = a^{g*h}``.  The alphabet may be empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass(frozen=True)
class FiniteGroup:
    table: tuple[tuple[int, ...], ...]
    names: tuple[str, ...] = field(compare=False, default=())
    element_order: tuple[int, ...] = ()
    order_pos: tuple[int, ...] = field(init=False, compare=False, default=())

    def __post_init__(self):
        t = len(self.table)
        if not self.names:
            object.__setattr__(self, "names", default_element_names(t))
        if not self.element_order:
            object.__setattr__(self, "element_order", tuple(range(t)))
        pos = [0] * t
        for p, g in enumerate(self.element_order):
            pos[g] = p
        object.__setattr__(self, "order_pos", tuple(pos))

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


def validate_group(
    table,
    names: tuple[str, ...] | None = None,
    element_order: tuple[int, ...] | None = None,
) -> FiniteGroup:
    """Check the group axioms on a raw ``t x t`` table and build the value.

    Index 0 must be the two-sided neutral element.  Raises ValidationError
    with code ``no_identity``, ``no_inverse`` (carrying the offending
    element) or ``non_associative`` (carrying the first bad triple).
    """
    rows = tuple(tuple(row) for row in table)
    t = len(rows)
    if t == 0:
        raise ValidationError("empty_group", "a group needs at least the neutral element")
    for g, row in enumerate(rows):
        if len(row) != t:
            raise ValidationError("table_shape", f"row {g} has length {len(row)}, expected {t}", row=g)
        for h, v in enumerate(row):
            if not (0 <= v < t):
                raise ValidationError(
                    "entry_range", f"table entry ({g},{h}) = {v} out of range 0..{t - 1}", g=g, h=h, value=v
                )
    for g in range(t):
        if rows[0][g] != g or rows[g][0] != g:
            raise ValidationError("no_identity", "index 0 is not a two-sided neutral element", g=g)
    for g in range(t):
        if not any(rows[g][h] == 0 and rows[h][g] == 0 for h in range(t)):
            raise ValidationError("no_inverse", f"element {g} has no two-sided inverse", g=g)
    for g in range(t):
        for h in range(t):
            for k in range(t):
                if rows[rows[g][h]][k] != rows[g][rows[h][k]]:
                    raise ValidationError(
                        "non_associative",
                        f"(g*h)*k != g*(h*k) for g={g}, h={h}, k={k}",
                        g=g, h=h, k=k,
                    )
    if element_order is not None:
        eo = tuple(element_order)
        if sorted(eo) != list(range(t)):
            raise ValidationError("element_order", "element order must be a permutation of 0..t-1")
        if eo[0] != 0:
            raise ValidationError("element_order", "the neutral element must come first")
    group = FiniteGroup(rows, tuple(names) if names else (), tuple(element_order) if element_order else ())
    return group


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
    first bad letter or tuple.  A letter name must be unique and must not
    read as a variable ``x1, x2, ...``."""
    group = action.group
    n_letters = len(action.alphabet)
    for i, name in enumerate(action.alphabet):
        if name and name[0] == "x" and name[1:].isdigit():
            raise ValidationError("reserved_letter", f"letter name {name!r} clashes with variable notation", name=name)
        if name in action.alphabet[:i]:
            raise ValidationError("repeated_letter", f"letter name {name!r} occurs twice", name=name)
    if len(action.table) != n_letters:
        raise ValidationError("table_shape", "action table must have one row per letter")
    for row in action.table:
        if len(row) != group.order:
            raise ValidationError("table_shape", "action table rows must have one column per group element")
        for v in row:
            if not (0 <= v < n_letters):
                raise ValidationError("entry_range", f"action table entry {v} is not a letter index", value=v)
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
    values = list(values)
    if values and isinstance(values[0], (list, tuple)):
        return [list(r) for r in values]
    if len(values) != rows * cols:
        raise ValidationError("table_shape", f"{what} must have {rows * cols} entries, got {len(values)}")
    return [values[i * cols:(i + 1) * cols] for i in range(rows)]


def action_from_dict(data: dict) -> RightAction:
    """Load a group/action value from its config-file form.

    Expected fields: ``order``, ``table`` (row-major), ``element_names``,
    ``alphabet``, ``action_table`` (row per letter).  Names only matter to the
    parser and printer; all semantics run on indices.
    """
    order = int(data["order"])
    table = _unflatten(data["table"], order, order, "group table")
    names = tuple(data.get("element_names") or ())
    group = validate_group(table, names=names or None,
                           element_order=tuple(data["element_order"]) if data.get("element_order") else None)
    alphabet = tuple(data.get("alphabet") or ())
    if alphabet:
        action_table = _unflatten(data["action_table"], len(alphabet), order, "action table")
    else:
        action_table = []
    return make_action(group, alphabet, action_table)
