"""Dempster's rule of combination, the classical conflict coefficient, and
the focal-pair kernels that every pairwise measure is built on: the cross
terms of two BPAs, their Jaccard ratios and the symmetric Jaccard self-form
terms of one.  Every sum of their terms is correctly rounded: the exact
parts of one or more arrays (:func:`_exact_parts`, vectorised error-free
extraction on long arrays) rounded once by ``math.fsum`` (:func:`_fsum`)."""

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


def _jaccard(xm: np.ndarray, ym: np.ndarray, inter: np.ndarray) -> np.ndarray:
    """J(A, B) = |A & B| / |A | B| for the outer intersections ``inter`` of
    the masks ``xm`` and ``ym`` (unions of focal masks are nonempty): one
    float64 division of two ``uint8`` counts, with
    |A | B| = |A| + |B| - |A & B| <= 126, so the union itself is never
    formed.  Multiplied by a product wx * wy, it gives the Jaccard-weighted
    term a per-pair loop gives."""
    shared = np.bitwise_count(inter)
    return shared / (np.bitwise_count(xm)[:, None] + np.bitwise_count(ym) - shared)


def _self_terms(x: _Focal) -> np.ndarray:
    """The terms of the Jaccard self-form, the sum of J(A, B) * (wA * wB)
    over all ordered focal pairs of ``x``, formed from the upper triangle:
    their exact sum is the full square's.

    J(A, A) = 1, so the diagonal terms are wA * wA.  An off-diagonal term is
    formed as J(A, B) * (wA * wB), with J the float64 quotient of the
    popcounts of A & B and A | B as in :func:`_jaccard`, and is bit-equal to
    its mirror image, so it enters once, doubled, which is exact; pairs with
    an empty intersection give exact zeros and are skipped.
    """
    m, w = x
    rows = np.arange(len(m))
    nonzero = np.bitwise_and.outer(m, m) != 0
    i, j = np.divmod((nonzero & (rows[:, None] < rows)).ravel().nonzero()[0], len(m))
    a, b = m[i], m[j]
    weighted = np.bitwise_count(a & b) / np.bitwise_count(a | b)
    weighted *= w[i] * w[j]
    weighted *= 2.0
    return np.concatenate((w * w, weighted))


#: Sums of fewer terms go to ``math.fsum``, which is as fast at about 1,000
#: mass products and faster below: on a 2-core x86-64 host it takes 44 us
#: and the extraction 43 us at 1,000 terms, 93 us and 37 us at 2,048.
_FSUM_CROSSOVER = 2048


def _exact_parts(terms: np.ndarray) -> np.ndarray:
    """Floats whose exact sum is the exact sum of ``terms``: the few levels
    of an error-free extraction, or, where that does not pay or does not
    apply, the terms themselves.  ``math.fsum`` of the parts of one array or
    of several, concatenated, is the correctly rounded sum of all their
    terms.  ``terms`` may have any shape and is only read.

    Long arrays are split exactly into levels (S. M. Rump, T. Ogita and
    S. Oishi, "Accurate floating-point summation part I: faithful rounding",
    SIAM J. Sci. Comput. 31(1), 2008).  With n terms p of largest magnitude
    M, take sigma, a power of two with sigma >= (n + 2) M.  Then
    q = (sigma + p) - sigma and p - q are exact: sigma + p lies in
    [sigma / 2, 2 sigma], so the subtraction is exact (Sterbenz), and p - q
    is the rounding error of sigma + p.  Every q is a multiple of u sigma
    (u = 2^-53) with |q| <= |p| + u sigma, and while n (n + 2) <= 2^54 the q
    sum to at most sigma in magnitude, as does every partial sum: multiples
    of u sigma that small are floats, so ``np.sum`` adds them exactly in any
    order.  The remainders p - q are at most u sigma, so each level shrinks
    M by a factor of about n u.  Every float is a multiple of 2^-1074, and
    once sigma is subnormal or near it sigma + p is exact, q = p and the
    remainders are all zero: the loop ends, after two or three levels on
    mass products.  No level is -0.0, since (sigma + p) - sigma is not, so
    an exact zero total still rounds to +0.0, as it does for any terms not
    all -0.0.  Non-finite or near-overflow terms are their own parts, for
    ``math.fsum``'s exceptions and its intermediate overflow.
    """
    n = terms.size
    top = max(terms.max(), -terms.min()) if _FSUM_CROSSOVER <= n < 2**26 else 0.0
    if not 0.0 < top <= 2.0**960:  # true for NaN and inf
        return terms.ravel()
    levels = []
    rest = terms
    while top:
        sigma = math.ldexp(1.0, math.frexp((n + 2) * top)[1])
        q = rest + sigma
        q -= sigma
        levels.append(q.sum())
        rest = np.subtract(rest, q, out=q)  # never into the caller's array
        top = max(rest.max(), -rest.min())
    return np.array(levels)


def _fsum(terms: np.ndarray) -> float:
    """The correctly rounded sum of ``terms``: the float ``math.fsum``
    returns, bit for bit, and so independent of the order of the terms.
    Short arrays go to ``math.fsum`` itself; longer ones through the levels
    of :func:`_exact_parts`."""
    # a memoryview yields the entries as Python floats without building a list
    return math.fsum(memoryview(_exact_parts(terms)))


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
    disjoint = inter == 0
    k = _fsum(prod[disjoint])
    meets = ~disjoint
    keys = inter[meets]
    order = np.argsort(keys)  # only the intersecting pairs are sorted
    keys, values = keys[order], prod[meets][order]
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
