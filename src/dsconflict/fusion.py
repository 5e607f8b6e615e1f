"""Dempster's rule of combination, the classical conflict coefficient, and
the one focal-pair kernel that every pairwise measure is built on."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import MassFunction, SubsetMask, require_same_frame
from .errors import TotalConflictError

__all__ = [
    "TOTAL_CONFLICT_TOL",
    "CombinationResult",
    "conflict_k",
    "combine_dempster",
]

#: Combination is refused when the normalization factor 1 - k is this small.
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
    """The one place focal-pair terms are formed: for every pair (A, B) of
    ``x`` and ``y``, the intersection A & B, the product wx * wy and the
    Jaccard-weighted product wx * wy * |A & B| / |A | B| (unions of focal
    masks are nonempty).  Each is the IEEE product a per-pair loop gives."""
    (xm, xw), (ym, yw) = x, y
    inter = np.bitwise_and.outer(xm, ym)
    weighted = np.bitwise_count(inter).astype(np.float64)
    # The union temporary dies before ``prod`` exists: three arrays live.
    weighted /= np.bitwise_count(np.bitwise_or.outer(xm, ym))
    prod = np.multiply.outer(xw, yw)
    weighted *= prod
    return inter, prod, weighted


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

    Raises :class:`TotalConflictError` when the evidence is totally (or
    numerically indistinguishably from totally) conflicting, i.e. when
    ``1 - k <= TOTAL_CONFLICT_TOL``.
    """
    frame = require_same_frame(m1, m2)
    inter, prod = _pair_terms(_focal_arrays(m1.focal), _focal_arrays(m2.focal))[:2]
    # Group the products by intersection and fsum each group: the result is
    # independent of focal order, so the rule commutes exactly.
    order = np.argsort(inter, axis=None)
    keys = inter.ravel()[order]
    values = memoryview(prod.ravel()[order])
    k = math.fsum(values[: np.searchsorted(keys, 1)])  # disjoint pairs sort first
    scale = 1.0 - k
    if scale <= TOTAL_CONFLICT_TOL:
        raise TotalConflictError(k)
    masks, starts = np.unique(keys, return_index=True)
    bounds = starts.tolist() + [len(values)]
    masses = {
        mask: math.fsum(values[start:end]) / scale
        for mask, start, end in zip(masks.tolist(), bounds, bounds[1:])
        if mask
    }
    return CombinationResult(MassFunction(frame, masses), k)
