"""Frames of discernment and basic probability assignments.

Subsets of the frame are plain ``int`` bit masks: bit ``i`` set means the
``i``-th frame label is a member.  This keeps set algebra down to ``&``, ``|``
and ``int.bit_count`` and lets mass functions stay sparse (only focal
elements are stored).  A mass function holds its focal elements as two
read-only parallel arrays, ``uint64`` masks in ascending order and their
``float64`` masses, which the focal-pair kernels read directly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import (
    BadThresholdError,
    DuplicateLabelError,
    EmptyFrameError,
    EmptySetMassError,
    FrameMismatchError,
    FrameTooLargeError,
    NegativeMassError,
    UnknownLabelError,
    UnnormalizedMassError,
)

__all__ = [
    "MAX_FRAME_SIZE",
    "MASS_SUM_ACCEPT_TOL",
    "MASS_SUM_RENORMALIZE_TOL",
    "SubsetMask",
    "Frame",
    "MassFunction",
    "make_frame",
    "set_to_text",
    "make_bpa",
    "bpa_equal",
    "vacuous_bpa",
]

#: Frames are capped so every subset fits a nonnegative 64-bit mask.
MAX_FRAME_SIZE = 63

#: Mass sums within this distance of 1 are accepted as-is.
MASS_SUM_ACCEPT_TOL = 1e-9

#: Mass sums within this distance of 1 are silently renormalized;
#: anything further off is rejected.
MASS_SUM_RENORMALIZE_TOL = 1e-6

#: A subset of a frame, encoded as a bit mask.
SubsetMask = int


@dataclass(frozen=True)
class Frame:
    """An ordered frame of discernment.

    Labels are distinct non-empty strings; their order fixes the bit layout
    of every :data:`SubsetMask` over this frame.
    """

    labels: tuple[str, ...]
    _bits: dict[str, SubsetMask] = field(  # label -> bit: the one label table
        init=False, repr=False, compare=False, hash=False
    )
    _full_mask: SubsetMask = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if not labels:
            raise EmptyFrameError("a frame needs at least one hypothesis")
        _check_frame_size(len(labels))
        for label in labels:
            if not isinstance(label, str) or not label:
                raise UnknownLabelError(
                    f"labels must be non-empty strings, got {label!r}"
                )
        bits: dict[str, SubsetMask] = {}
        for i, label in enumerate(labels):
            if label in bits:
                raise DuplicateLabelError(
                    f"label {label!r} appears more than once"
                )
            bits[label] = 1 << i
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_full_mask", (1 << len(labels)) - 1)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> SubsetMask:
        """The mask of the whole frame (theta)."""
        return self._full_mask

    def index(self, label: str) -> int:
        return self.subset((label,)).bit_length() - 1

    def subset(self, members: Iterable[str]) -> SubsetMask:
        """The mask of ``members``.  Anything that is not a frame label, or
        not iterable, raises :class:`UnknownLabelError`."""
        bits = self._bits
        mask = 0
        label: object = members
        try:
            for label in members:
                mask |= bits[label]
        except (KeyError, TypeError):
            raise UnknownLabelError(
                f"label {label!r} is not part of the frame"
            ) from None
        return mask

    def members(self, mask: SubsetMask) -> tuple[str, ...]:
        self._check_mask(mask)
        found = []
        while mask:  # visit the set bits only, lowest (first label) first
            low = mask & -mask
            found.append(self.labels[low.bit_length() - 1])
            mask ^= low
        return tuple(found)

    def singletons(self) -> Iterator[SubsetMask]:
        for i in range(len(self.labels)):
            yield 1 << i

    def _check_mask(self, mask: SubsetMask) -> None:
        if type(mask) is not int or not 0 <= mask <= self._full_mask:
            raise UnknownLabelError(
                f"mask {mask!r} does not denote a subset of this frame"
            )


class MassFunction:
    """A basic probability assignment over a :class:`Frame`.

    Stores only focal elements, every stored mass in (0, 1], no mass on the
    empty set, and the total equal to 1 up to :data:`MASS_SUM_ACCEPT_TOL`.
    They are kept as two read-only arrays (:attr:`arrays`), so iteration,
    :attr:`focal` and :meth:`items` visit the masks in ascending order,
    whatever the order they were given in.  Instances are immutable.
    """

    __slots__ = ("_frame", "_masks", "_masses", "_focal")

    def __init__(self, frame: Frame, masses: Mapping[SubsetMask, float]):
        masks, values, total = _focal_masses(frame, masses.items())
        if abs(total - 1.0) > MASS_SUM_ACCEPT_TOL:
            raise UnnormalizedMassError(
                f"masses sum to {total!r}, expected 1"
            )
        _fill(self, frame, masks, values)

    @property
    def frame(self) -> Frame:
        return self._frame

    @property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The focal elements as read-only parallel arrays: ``uint64``
        masks in ascending order and their ``float64`` masses."""
        return self._masks, self._masses

    @property
    def focal(self) -> Mapping[SubsetMask, float]:
        """Read-only view of the focal elements (mask -> mass), in
        ascending mask order; built on first use."""
        if self._focal is None:
            self._focal = MappingProxyType(
                dict(zip(self._masks.tolist(), self._masses.tolist()))
            )
        return self._focal

    def mass(self, mask: SubsetMask) -> float:
        """Mass of an arbitrary subset (0.0 for non-focal subsets)."""
        self._frame._check_mask(mask)
        return self.focal.get(mask, 0.0)

    def items(self) -> Iterable[tuple[SubsetMask, float]]:
        return self.focal.items()

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[SubsetMask]:
        return iter(self.focal)

    def is_bayesian(self) -> bool:
        """True when every focal element is a singleton."""
        return bool((np.bitwise_count(self._masks) == 1).all())

    def is_vacuous(self) -> bool:
        """True when all mass sits on the whole frame."""
        return self._masks.tolist() == [self._frame.full_mask]

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{set_to_text(self._frame, mask)}: {value:g}"
            for mask, value in self.items()
        )
        return f"MassFunction({parts})"


def make_frame(labels: Iterable[str]) -> Frame:
    """Build a frame of discernment from an ordered label sequence."""
    return Frame(tuple(labels))


def _check_frame_size(size: int) -> None:
    if size > MAX_FRAME_SIZE:
        raise FrameTooLargeError(
            f"{size} labels exceed the limit of {MAX_FRAME_SIZE}"
        )


def _numbered_frame(size: int) -> Frame:
    """The frame labelled "1" through ``str(size)``; the size is checked
    before any label is built, so a huge request costs nothing."""
    _check_frame_size(size)
    return make_frame(str(i) for i in range(1, size + 1))


def set_to_text(frame: Frame, mask: SubsetMask) -> str:
    """Human-readable form of a subset, e.g. ``{A1, A2}``."""
    if mask == 0:
        return "{}"
    if mask == frame.full_mask:
        return "Theta"
    return "{" + ", ".join(frame.members(mask)) + "}"


def make_bpa(
    frame: Frame,
    assignments: Iterable[tuple[Iterable[str], float]],
) -> MassFunction:
    """Build a BPA from ``(labels, mass)`` pairs.

    Duplicate subsets are merged by summing, zero-mass entries are dropped.
    A total within :data:`MASS_SUM_RENORMALIZE_TOL` of 1 is renormalized;
    totals further off raise :class:`UnnormalizedMassError`.
    """
    return _bpa_from_masks(
        frame, ((frame.subset(members), value) for members, value in assignments)
    )


def _focal_masses(
    frame: Frame, entries: Iterable[tuple[SubsetMask, float]]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Apply the BPA rules to ``(mask, mass)`` entries, one entry at a time.

    This is the only place the rules are written: a mask is a plain ``int``
    (not a ``bool``) subset of the frame, a mass is a real number (not a
    ``bool``) that is finite and >= 0, zero masses are dropped, positive mass
    on the empty set is rejected and duplicate subsets are merged by summing.
    Returns the focal masks in ascending order, their masses and their
    ``fsum`` total; the sum tolerance is the caller's.
    """
    focal: dict[SubsetMask, float] = {}
    for mask, value in entries:
        frame._check_mask(mask)
        if type(value) is not float and (
            not isinstance(value, numbers.Real) or isinstance(value, bool)
        ):
            raise NegativeMassError(
                f"mass {value!r} on {set_to_text(frame, mask)} is not a number"
            )
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf if value > 0 else -math.inf
        # NaN fails the comparison too: no separate NaN test is needed.
        if not 0.0 <= value < math.inf:
            problem = "is negative" if value < 0.0 else "is not a finite number"
            raise NegativeMassError(
                f"mass {value!r} on {set_to_text(frame, mask)} {problem}"
            )
        if value == 0.0:
            continue
        if mask == 0:
            raise EmptySetMassError(
                "positive mass on the empty set is not allowed"
            )
        focal[mask] = focal.get(mask, 0.0) + value
    try:
        total = math.fsum(focal.values())
    except OverflowError:  # finite masses whose sum is not
        total = math.inf
    # sorted in Python: loading numpy's sort adds about 0.3 MB to the RSS of
    # a process that sorts nothing else
    masks = sorted(focal)
    count = len(masks)
    return (
        np.fromiter(masks, np.uint64, count),
        np.fromiter(map(focal.__getitem__, masks), np.float64, count),
        total,
    )


def _bpa_from_masks(
    frame: Frame, entries: Iterable[tuple[SubsetMask, float]]
) -> MassFunction:
    """:func:`make_bpa` on ``(mask, mass)`` entries whose labels are resolved."""
    masks, masses, total = _focal_masses(frame, entries)
    deviation = abs(total - 1.0)
    if deviation > MASS_SUM_RENORMALIZE_TOL:
        raise UnnormalizedMassError(f"masses sum to {total!r}, expected 1")
    if deviation > MASS_SUM_ACCEPT_TOL:
        masses /= total
    return _trusted_bpa(frame, masks, masses)


def _trusted_bpa(frame: Frame, masks: np.ndarray, masses: np.ndarray) -> MassFunction:
    """A BPA on focal elements that already obey every rule, ``uint64``
    masks in ascending order and their ``float64`` masses: ``__init__``'s
    per-element checks are skipped.  The caller owns that guarantee and
    hands the arrays over; they become read-only."""
    bpa = MassFunction.__new__(MassFunction)
    _fill(bpa, frame, masks, masses)
    return bpa


def _fill(bpa: MassFunction, frame: Frame, masks: np.ndarray, masses: np.ndarray) -> None:
    masks.flags.writeable = masses.flags.writeable = False
    bpa._frame, bpa._masks, bpa._masses, bpa._focal = frame, masks, masses, None


def bpa_equal(m1: MassFunction, m2: MassFunction, tol: float = 1e-12) -> bool:
    """True when both BPAs share a frame and agree mass-wise within ``tol``.

    ``tol`` must be a finite real number >= 0 and not a ``bool``, or
    :class:`BadThresholdError` is raised: a NaN tolerance would call any two
    BPAs equal, and a negative one would tell a BPA apart from itself.
    """
    if (
        not isinstance(tol, numbers.Real)
        or isinstance(tol, bool)
        or not 0 <= tol < math.inf
    ):
        raise BadThresholdError(f"tolerance must be a finite number >= 0, got {tol!r}")
    if m1.frame != m2.frame:
        return False
    for mask in m1.focal.keys() | m2.focal.keys():
        if abs(m1.mass(mask) - m2.mass(mask)) > tol:
            return False
    return True


def vacuous_bpa(frame: Frame) -> MassFunction:
    """The vacuous BPA: all mass on the whole frame."""
    return MassFunction(frame, {frame.full_mask: 1.0})


def require_same_frame(m1: MassFunction, m2: MassFunction) -> Frame:
    """Shared frame of a BPA pair, or :class:`FrameMismatchError`."""
    if m1.frame != m2.frame:
        raise FrameMismatchError(
            f"BPAs are defined over different frames: "
            f"{m1.frame.labels} vs {m2.frame.labels}"
        )
    return m1.frame
