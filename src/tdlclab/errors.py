"""Shared exception types.

Every failure mode that a caller is expected to branch on gets its own
class; anything else is a plain ValueError.  Searches distinguish between
a refutation ("this cannot exist, here is why") and running out of budget
(SearchExhausted); silently returning a weaker answer is never allowed.
"""
from __future__ import annotations


class PrecisionError(ValueError):
    """A depth/precision request below what the object can answer exactly."""


class PrecisionExhausted(PrecisionError):
    """A composed isometry was asked beyond its tracked precision."""


class ClosureCapExceeded(RuntimeError):
    """Element closure of a finite group passed the configured cap."""

    def __init__(self, cap: int) -> None:
        super().__init__(f"element closure exceeded cap {cap}")
        self.cap = cap


class NotSkewering(ValueError):
    """The element does not move the given clopen strictly inside itself."""


class DisjointnessFailure(ValueError):
    """Translates that a construction needs pairwise disjoint are not."""


class SiteError(ValueError):
    """A decorated site of an isometry is illegal or inconsistent."""

    def __init__(self, message: str, site) -> None:
        super().__init__(message)
        self.site = site


class SearchExhausted(RuntimeError):
    """Bounded search ended without a witness and without a refutation."""

    def __init__(self, what: str, bound: object) -> None:
        super().__init__(f"search exhausted: {what} (bound {bound})")
        self.what = what
        self.bound = bound


class SpecFileError(ValueError):
    """Malformed group spec file; carries a line/column position."""

    def __init__(self, message: str, line: int, column: int = 1) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
