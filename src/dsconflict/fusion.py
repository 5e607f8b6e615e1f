"""Dempster's rule of combination, the classical conflict coefficient, and
the focal-pair kernels that every pairwise measure is built on: the cross
terms of two BPAs, their Jaccard weighting and the symmetric Jaccard
self-form of one.  Every sum of their terms is :func:`_fsum`, correctly
rounded: ``math.fsum``'s float, from vectorised error-free extraction on
long arrays."""

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


def _pair_terms(x: _Focal, y: _Focal) -> tuple[np.ndarray, np.ndarray]:
    """The cross focal-pair terms: for every pair (A, B) of ``x`` and ``y``,
    the intersection A & B and the product wx * wy, the IEEE product a
    per-pair loop gives."""
    (xm, xw), (ym, yw) = x, y
    return np.bitwise_and.outer(xm, ym), np.multiply.outer(xw, yw)


def _jaccard_weighted(
    x: _Focal, y: _Focal, inter: np.ndarray, prod: np.ndarray
) -> np.ndarray:
    """The Jaccard-weighted cross terms J(A, B) * (wx * wy), from the
    intersections and products of :func:`_pair_terms`.  J = |A & B| / |A | B|
    (unions of focal masks are nonempty) is one float64 division of two
    ``uint8`` counts, with |A | B| = |A| + |B| - |A & B| <= 126, so the union
    itself is never formed."""
    shared = np.bitwise_count(inter)
    union = np.bitwise_count(x[0])[:, None] + np.bitwise_count(y[0]) - shared
    weighted = shared / union
    weighted *= prod
    return weighted


def _self_form(x: _Focal) -> float:
    """The Jaccard self-form: the sum of J(A, B) * (wA * wB) over all ordered
    focal pairs of ``x``, equal bit for bit to ``_fsum`` of
    ``_jaccard_weighted(x, x, *_pair_terms(x, x))`` but formed from the upper
    triangle.

    J(A, A) = 1, so the diagonal terms are wA * wA.  An off-diagonal term is
    formed as in :func:`_jaccard_weighted` and is bit-equal to its mirror
    image, so it enters once, doubled, which is exact; pairs with an empty
    intersection give exact zeros and are skipped.  The exact sum is then the
    full square's, and ``_fsum`` rounds it correctly to the same float.
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
    del i, j  # room for the temporaries of _fsum
    return _fsum(np.concatenate((w * w, weighted)))


#: Sums of fewer terms go to ``math.fsum``, which is as fast at about 1,000
#: mass products and faster below: on a 2-core x86-64 host it takes 44 us
#: and the extraction 43 us at 1,000 terms, 93 us and 37 us at 2,048.
_FSUM_CROSSOVER = 2048


def _fsum(terms: np.ndarray) -> float:
    """The correctly rounded sum of ``terms``: the float ``math.fsum``
    returns, bit for bit, and so independent of the order of the terms.

    Short arrays go to ``math.fsum`` itself.  Longer ones are split exactly
    into levels by error-free extraction (S. M. Rump, T. Ogita and S. Oishi,
    "Accurate floating-point summation part I: faithful rounding", SIAM J.
    Sci. Comput. 31(1), 2008), and ``math.fsum`` rounds the few level sums.
    With n terms p of largest magnitude M, take sigma, a power of two with
    sigma >= (n + 2) M.  Then q = (sigma + p) - sigma and p - q are exact:
    sigma + p lies in [sigma / 2, 2 sigma], so the subtraction is exact
    (Sterbenz), and p - q is the rounding error of sigma + p.  Every q is a
    multiple of u sigma (u = 2^-53) with |q| <= |p| + u sigma, and while
    n (n + 2) <= 2^54 the q sum to at most sigma in magnitude, as does every
    partial sum: multiples of u sigma that small are floats, so ``np.sum``
    adds them exactly in any order.  The remainders p - q are at most
    u sigma, so each level shrinks M by a factor of about n u.  Every float
    is a multiple of 2^-1074, and once sigma is subnormal or near it
    sigma + p is exact, q = p and the remainders are all zero: the loop
    ends, after two or three levels on mass products.  The levels then sum
    exactly to the sum of the terms.  Non-finite or near-overflow terms keep
    ``math.fsum``, for its exceptions and its intermediate overflow, and so
    does an exact zero, for its sign of zero.  ``terms`` is only read.
    """
    p = terms.ravel()
    n = len(p)
    top = max(p.max(), -p.min()) if _FSUM_CROSSOVER <= n < 2**26 else 0.0
    if 0.0 < top <= 2.0**960:  # false for NaN and inf
        levels = []
        rest = p
        while top:
            sigma = math.ldexp(1.0, math.frexp((n + 2) * top)[1])
            q = rest + sigma
            q -= sigma
            levels.append(q.sum())
            rest = np.subtract(rest, q, out=q)  # never into the caller's array
            top = max(rest.max(), -rest.min())
        total = math.fsum(levels)
        if total:
            return total
    # a memoryview yields the entries as Python floats without building a list
    return math.fsum(memoryview(p))


def conflict_k(m1: MassFunction, m2: MassFunction) -> float:
    """Classical conflict: total product mass on disjoint focal pairs."""
    require_same_frame(m1, m2)
    inter, prod = _pair_terms(_focal_arrays(m1.focal), _focal_arrays(m2.focal))
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
    inter, prod = _pair_terms(_focal_arrays(m1.focal), _focal_arrays(m2.focal))
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
