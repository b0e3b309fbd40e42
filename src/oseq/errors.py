"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ResourceLimitError", "EnumerationCapError", "TheoremViolationError"]


class ResourceLimitError(RuntimeError):
    """A request exceeded a size limit or cap and was refused."""


class EnumerationCapError(ResourceLimitError):
    """Streaming was refused because the sequence count exceeds the cap.

    Carries the exact count so callers can report it without streaming.
    """

    def __init__(self, n: int, count: int, cap: int) -> None:
        super().__init__(f"L({n}) = {count} exceeds the streaming cap {cap}")
        self.n = n
        self.count = count
        self.cap = cap


class TheoremViolationError(RuntimeError):
    """A theorem-backed invariant failed.

    These invariants (the bounds, the staircase window lemma, the canonical
    form of every piece the enumerate walk builds) are mathematical facts; a
    violation always means an implementation bug, never bad input.
    """
