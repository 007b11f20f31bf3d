"""Exception types shared across the package.

Structured failures carry enough state to be rendered as an evidence report by
the CLI (exit code 2); plain ValueError/AssertionError signal caller bugs.
"""

from __future__ import annotations

from typing import Any


class RemovalLabError(Exception):
    """Base class for structured, domain-level failures."""


class ResourceCapError(RemovalLabError):
    """An enumeration would exceed a configured desk-scale cap.

    requested is the size asked for, or the power "p^n" when that size is too
    large to be worth computing.
    """

    def __init__(self, message: str, *, requested: int | str, cap: int):
        super().__init__(message)
        self.requested = requested
        self.cap = cap


class SpaceExhaustedError(RemovalLabError):
    """The ambient dimension is too small for the requested parameters."""


class UnsupportedCharacteristicError(RemovalLabError):
    """Raised by the complexity criterion in characteristic 2."""


class RetryCapError(RemovalLabError):
    """Seeded retries exhausted without the verifier accepting a candidate."""

    def __init__(self, message: str, *, attempts: int, stats: list[dict[str, Any]]):
        super().__init__(message)
        self.attempts = attempts
        self.stats = stats


class CaseAAbort(RemovalLabError):
    """Removal pipeline abort: every canonical coloring contains an instance.

    Carries the dichotomy result so callers can render the per-coloring
    certificates as evidence.  phase names the pipeline step that aborted;
    the dichotomy is the only one that can.
    """

    phase = "dichotomy"

    def __init__(self, message: str, *, dichotomy: Any):
        super().__init__(message)
        self.dichotomy = dichotomy


class VerificationError(RemovalLabError):
    """A mechanically checked conclusion failed on the produced object."""

    def __init__(self, message: str, *, evidence: Any = None):
        super().__init__(message)
        self.evidence = evidence
