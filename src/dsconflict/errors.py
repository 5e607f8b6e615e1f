"""Exception hierarchy.

Everything raised on purpose by this package derives from :class:`EvidenceError`.
The two branches matter to the command line interface: validation problems
(bad frames, bad mass assignments, malformed documents) map to exit code 2,
computation problems (total conflict, frame caps, internal inconsistencies)
map to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "EvidenceError",
    "ValidationError",
    "EmptyFrameError",
    "DuplicateLabelError",
    "FrameTooLargeError",
    "UnknownLabelError",
    "NegativeMassError",
    "EmptySetMassError",
    "UnnormalizedMassError",
    "FrameMismatchError",
    "BadThresholdError",
    "DocumentError",
    "ComputationError",
    "TotalConflictError",
    "BothEmptyError",
    "FrameTooLargeForCheckError",
    "InternalConsistencyError",
]


class EvidenceError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(EvidenceError):
    """Invalid input: frames, subsets, mass assignments or documents."""


class EmptyFrameError(ValidationError):
    """A frame of discernment needs at least one hypothesis."""


class DuplicateLabelError(ValidationError):
    """Frame labels must be pairwise distinct."""


class FrameTooLargeError(ValidationError):
    """Frame exceeds the bit-mask representation limit."""


class UnknownLabelError(ValidationError):
    """A subset referenced a label that is not part of the frame."""


class NegativeMassError(ValidationError):
    """Masses must be finite, nonnegative real numbers (NaN, infinities,
    strings, ``None`` and ``bool`` are rejected)."""


class EmptySetMassError(ValidationError):
    """Positive mass on the empty set is not allowed (closed-world BPAs)."""


class UnnormalizedMassError(ValidationError):
    """Masses do not sum to one, beyond what renormalization may absorb."""


class FrameMismatchError(ValidationError):
    """A pairwise operation was given BPAs over different frames."""


class BadThresholdError(ValidationError):
    """A conflict threshold must lie strictly between 0 and 1."""


class DocumentError(ValidationError):
    """Malformed BPA document.

    ``where`` points at the offending element, e.g. ``bpas[1].masses[0].mass``.
    """

    def __init__(self, where: str, message: str):
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}")


class ComputationError(EvidenceError):
    """A well-formed request whose result is undefined or out of reach."""


class TotalConflictError(ComputationError):
    """Dempster's rule is undefined for totally conflicting evidence."""

    def __init__(self, k: float):
        self.k = k
        super().__init__(
            f"total conflict (k = {k!r}): Dempster's rule is undefined"
        )


class BothEmptyError(ComputationError):
    """The Jaccard index of two empty sets is undefined."""


class FrameTooLargeForCheckError(ComputationError):
    """The frame is beyond the size an exact check is budgeted for."""


class InternalConsistencyError(ComputationError):
    """A numeric invariant that should hold by construction was violated."""
