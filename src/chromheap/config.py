"""Resource budgets for the exhaustive computations.

Budgets are deliberate and conservative: exceeding one raises
ResourceBudgetExceeded instead of silently grinding.  The CLI lets the
user override individual knobs with --budget KEY=VAL.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ResourceBudgetExceeded


@dataclass(frozen=True)
class Budget:
    # max memo entries for deletion-contraction and max entries (2^n) of
    # the ranked subset table and of each a/b orientation table;
    # chromatic_polynomial's "auto" gives a 2-core the ranked table when it
    # fits and deletion-contraction otherwise
    memo_entries: int = 1_000_000
    # max colorings / tuples a single direct enumeration may touch, and max
    # coefficient pairs one series product or recurrence may multiply
    enumeration_limit: int = 8_000_000
    # max stored monomials in one truncated series
    series_terms: int = 500_000

    def with_overrides(self, **kw: int) -> "Budget":
        unknown = set(kw) - {f for f in self.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown budget keys: {sorted(unknown)}")
        return replace(self, **kw)


DEFAULT_BUDGET = Budget()


def charge(kind: str, amount: int, limit: int) -> None:
    """Raise if amount exceeds limit, with a readable message."""
    if amount > limit:
        raise ResourceBudgetExceeded(
            f"{kind} needs {amount} > budget {limit}; raise the budget or shrink the input"
        )
