"""Shared exception types.

Most validators raise :class:`ValidationError` with a machine-readable
``code`` plus structured ``data`` naming the witness of the violation (a
position, a triple of group elements, an object pair, ...).  Search engines
raise :class:`BudgetExceeded` when a node or coloring budget runs out, which
is deliberately distinct from "the property fails"; fragment builders raise
:class:`ResourceBound` when a hom-set cap would be blown.
"""

from __future__ import annotations


class RamcatError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RamcatError):
    def __init__(self, code: str, message: str, **data):
        super().__init__(message)
        self.code = code
        self.data = data

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ValidationError({self.code!r}, {self.args[0]!r}, {self.data!r})"


class BudgetExceeded(RamcatError):
    """``stats`` holds the counters of how far the work got, when known."""

    def __init__(self, kind: str, limit: int, message: str | None = None,
                 stats: dict | None = None):
        super().__init__(message or f"{kind} budget of {limit} exceeded")
        self.kind = kind
        self.limit = limit
        self.stats = stats if stats is not None else {}


class ResourceBound(RamcatError):
    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap
