"""Dempster's rule of combination, the classical conflict coefficient, and
the focal-pair kernels that every pairwise measure is built on: the cross
terms of two BPAs and the symmetric Jaccard self-form of one."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    MASS_SUM_ACCEPT_TOL,
    MassFunction,
    SubsetMask,
    _trusted_bpa,
    require_same_frame,
)
from .errors import InternalConsistencyError, TotalConflictError

__all__ = [
    "TOTAL_CONFLICT_TOL",
    "CombinationResult",
    "conflict_k",
    "combine_dempster",
]

#: Combination is refused when the non-conflicting mass, the correctly
#: rounded sum of every product on a nonempty intersection, is this small.
TOTAL_CONFLICT_TOL = 1e-12

#: Focal elements as parallel arrays: uint64 masks and float64 weights.
_Focal = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class CombinationResult:
    """Outcome of one application of Dempster's rule."""

    combined: MassFunction
    k: float


def _focal_arrays(focal: Mapping[SubsetMask, float]) -> _Focal:
    """``mask -> weight`` entries as a uint64 mask array and a float64 array."""
    n = len(focal)
    return (
        np.fromiter(focal.keys(), np.uint64, n),
        np.fromiter(focal.values(), np.float64, n),
    )


def _pair_terms(x: _Focal, y: _Focal) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cross focal-pair terms: for every pair (A, B) of ``x`` and ``y``,
    the intersection A & B, the product wx * wy and the Jaccard-weighted
    product J(A, B) * (wx * wy), with J = |A & B| / |A | B| (unions of focal
    masks are nonempty) divided in float64 from the two popcounts.  Each is
    the IEEE product a per-pair loop gives."""
    (xm, xw), (ym, yw) = x, y
    inter = np.bitwise_and.outer(xm, ym)
    # The union dies before ``prod`` exists: three arrays live.
    weighted = np.bitwise_count(inter) / np.bitwise_count(np.bitwise_or.outer(xm, ym))
    prod = np.multiply.outer(xw, yw)
    weighted *= prod
    return inter, prod, weighted


def _self_form(x: _Focal) -> float:
    """The Jaccard self-form: the sum of J(A, B) * (wA * wB) over all ordered
    focal pairs of ``x``, equal bit for bit to ``_fsum`` of
    ``_pair_terms(x, x)[2]`` but formed from the upper triangle.

    J(A, A) = 1, so the diagonal terms are wA * wA.  An off-diagonal term is
    formed as in :func:`_pair_terms` and is bit-equal to its mirror image, so
    it enters once, doubled, which is exact; pairs with an empty
    intersection give exact zeros and are skipped.  The exact sum is then the
    full square's, and ``fsum`` rounds it correctly to the same float.
    """
    m, w = x
    rows = np.arange(len(m))
    nonzero = np.bitwise_and.outer(m, m) != 0
    i, j = np.divmod(np.flatnonzero(nonzero & (rows[:, None] < rows)), len(m))
    shared = np.bitwise_count(m[i] & m[j])
    counts = np.bitwise_count(m)  # |A | B| = |A| + |B| - |A & B| <= 126 fits uint8
    weighted = shared / (counts[i] + counts[j] - shared)
    weighted *= w[i] * w[j]
    weighted *= 2.0
    return _fsum(np.concatenate((w * w, weighted)))


def _fsum(terms: np.ndarray) -> float:
    """Correctly rounded, order-independent sum (a memoryview yields the
    entries as Python floats without building a list)."""
    return math.fsum(memoryview(terms.ravel()))


def conflict_k(m1: MassFunction, m2: MassFunction) -> float:
    """Classical conflict: total product mass on disjoint focal pairs."""
    require_same_frame(m1, m2)
    inter, prod = _pair_terms(_focal_arrays(m1.focal), _focal_arrays(m2.focal))[:2]
    return _fsum(prod[inter == 0])


def combine_dempster(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Combine two BPAs with Dempster's rule.

    The products m1(A) * m2(B) are grouped by intersection, each group is
    summed exactly and the groups on nonempty sets are divided by 1 - k.
    When the inputs sum to 1 only within :data:`MASS_SUM_ACCEPT_TOL` and
    high conflict would carry that result off 1, they are divided instead by
    their own correctly rounded total, the non-conflicting mass actually
    summed.  Raises :class:`TotalConflictError` when the evidence is totally
    (or numerically indistinguishably from totally) conflicting, i.e. when
    that total is at most :data:`TOTAL_CONFLICT_TOL`.
    """
    frame = require_same_frame(m1, m2)
    inter, prod = _pair_terms(_focal_arrays(m1.focal), _focal_arrays(m2.focal))[:2]
    order = np.argsort(inter, axis=None)
    keys = inter.ravel()[order]
    values = prod.ravel()[order]
    disjoint = int(np.searchsorted(keys, 1))  # disjoint pairs sort first
    k = _fsum(values[:disjoint])
    keys, values = keys[disjoint:], values[disjoint:]
    if not len(keys):  # every pair is disjoint: no group to sum
        raise TotalConflictError(k)
    starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    # A sum of one or two IEEE products is already correctly rounded, so it
    # equals their fsum; only longer groups need fsum.  Either way the sums
    # are independent of focal order, so the rule commutes exactly.
    sums = np.add.reduceat(values, starts)
    ends = np.append(starts[1:], len(values))
    long = np.flatnonzero(ends - starts > 2)
    view = memoryview(values)
    sums[long] = [
        math.fsum(view[start:end])
        for start, end in zip(starts[long].tolist(), ends[long].tolist())
    ]
    total = _fsum(sums)
    if total <= TOTAL_CONFLICT_TOL:
        raise TotalConflictError(k)
    # Divided by 1 - k, the groups sum to total / (1 - k).  Inputs that sum
    # to 1 only within MASS_SUM_ACCEPT_TOL can carry that beyond half the
    # tolerance under high conflict (half, so rounding cannot fail the check
    # below); then the divisor is the non-conflicting mass actually summed.
    scale = 1.0 - k
    if not abs(total - scale) <= 0.5 * MASS_SUM_ACCEPT_TOL * scale:
        scale = total
    masses = sums / scale
    focal = masses != 0.0  # products, and so groups, can underflow to 0.0
    masses = masses[focal]
    check = _fsum(masses)
    if abs(check - 1.0) > MASS_SUM_ACCEPT_TOL:
        raise InternalConsistencyError(f"combined masses sum to {check!r}, expected 1")
    combined = dict(zip(keys[starts[focal]].tolist(), masses.tolist()))
    return CombinationResult(_trusted_bpa(frame, combined), k)
