"""Dempster's rule of combination, the classical conflict coefficient, and
the focal-pair kernels that every pairwise measure is built on: the cross
terms of two BPAs, their Jaccard ratios and the symmetric Jaccard self-form
terms of one.  The kernels read a BPA's focal arrays
(:attr:`~dsconflict.core.MassFunction.arrays`) directly.  Every sum of
their terms is correctly rounded: the exact parts of one or more arrays
(:func:`_exact_parts`, vectorised error-free extraction on long arrays)
rounded once by ``math.fsum`` (:func:`_fsum`).  Dempster's rule sums its
intersection groups all at once (:func:`_segment_sums`): the same
extraction with one sigma per group, three exact levels, and one correct
rounding of each group's three level sums, with no Python loop over the
groups; the combined BPA takes the sorted keys and masses as its arrays."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MASS_SUM_ACCEPT_TOL,
    MassFunction,
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


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knuth's TwoSum: s = a + b rounded and its exact error, a + b - s."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _sum3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The correctly rounded sums a + b + c, elementwise, by Boldo and
    Melquiond's algorithm ("Emulation of FMA and correctly rounded sums:
    proved algorithms using rounding to odd", IEEE Trans. Computers 57(4),
    2008): two TwoSums leave th + tl + ul, exactly; tl + ul is rounded to
    odd, which keeps a sticky bit for the final round to nearest.  Rounding
    to odd is round to nearest moved one step towards the exact sum when
    that is inexact and lands on an even significand: the neighbouring
    float towards it is odd."""
    uh, ul = _two_sum(b, c)
    th, tl = _two_sum(a, uh)
    v, err = _two_sum(tl, ul)
    bump = (err != 0.0) & (v.view(np.uint64) & 1 == 0)  # inexact and even
    v[bump] = np.nextafter(v[bump], np.copysign(np.inf, err[bump]))
    return th + v


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each group's correctly rounded sum, the float ``math.fsum`` gives,
    bit for bit, for nonnegative finite ``values`` (no -0.0) whose group
    sums are finite.  Group g is ``values[starts[g]:starts[g + 1]]``;
    ``starts`` rises strictly from 0.  ``values`` is only read.

    A sum of one or two terms is one IEEE addition at most, so it is
    already correctly rounded: ``np.add.reduceat`` gives it, and when no
    group has three or more terms that is all.  Longer groups are split
    exactly into three levels by error-free extraction, as in
    :func:`_exact_parts`, but with one sigma per group: with n terms of
    largest value M, sigma_1 = 2^(E + m), 2^E > M and 2^m >= n + 2, and
    sigma_(l+1) = 2^(m - 53) sigma_l, which bounds (n + 2) times the
    remainders of level l, as those are at most 2^-53 sigma_l.  Each
    level's sum by ``np.add.reduceat`` is exact.  When the third level's
    remainders are all zero, the group's exact sum is that of its three
    level sums, which :func:`_sum3` rounds once.  A group that needs more
    levels, whose sigma_1 overflows or whose sigma_3 is subnormal, or that
    has 2^26 terms or more, goes to ``math.fsum``; mass products rarely
    need to.
    """
    sums = np.add.reduceat(values, starts)
    sizes = np.concatenate((starts[1:], [len(values)])) - starts
    if sizes.max() < 3:
        return sums
    long = sizes > 2
    terms = values[np.repeat(long, sizes)]
    sizes = sizes[long]
    heads = np.cumsum(sizes) - sizes
    m = np.frexp(sizes + 1.0)[1]  # 2^m > n + 1
    exponent = np.frexp(np.maximum.reduceat(terms, heads))[1] + m
    step = m - 53
    fallback = (exponent > 1023) | (exponent + 2 * step < -1022) | (sizes >= 2**26)
    exponent[fallback] = 0  # their levels are not used
    levels = []
    rest = terms
    for _ in range(3):
        sigma = np.repeat(np.ldexp(1.0, exponent), sizes)
        q = rest + sigma
        q -= sigma
        levels.append(np.add.reduceat(q, heads))
        rest = rest - q
        exponent += step
    fallback |= np.logical_or.reduceat(rest != 0.0, heads)
    long_sums = _sum3(*levels)
    if fallback.any():
        view = memoryview(terms)
        long_sums[fallback] = [
            math.fsum(view[head : head + size])
            for head, size in zip(heads[fallback].tolist(), sizes[fallback].tolist())
        ]
    sums[long] = long_sums
    return sums


def conflict_k(m1: MassFunction, m2: MassFunction) -> float:
    """Classical conflict: total product mass on disjoint focal pairs."""
    require_same_frame(m1, m2)
    inter, prod = _pair_terms(m1.arrays, m2.arrays)
    return _fsum(prod[inter == 0])


def combine_dempster(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Combine two BPAs with Dempster's rule.

    The products m1(A) * m2(B) are grouped by intersection, each group's
    sum is correctly rounded (:func:`_segment_sums`) and the groups on
    nonempty sets are divided by 1 - k; the result's focal masks are the
    ascending group keys.
    When the inputs sum to 1 only within :data:`MASS_SUM_ACCEPT_TOL` and
    high conflict would carry that result off 1, they are divided instead by
    their own correctly rounded total, the non-conflicting mass actually
    summed.  Raises :class:`TotalConflictError` when the evidence is totally
    (or numerically indistinguishably from totally) conflicting, i.e. when
    that total is at most :data:`TOTAL_CONFLICT_TOL`.
    """
    frame = require_same_frame(m1, m2)
    inter, prod = (block.ravel() for block in _pair_terms(m1.arrays, m2.arrays))
    # index arrays rather than boolean masks: numpy gathers by them faster
    disjoint = inter == 0
    k = _fsum(prod[np.flatnonzero(disjoint)])
    meets = np.flatnonzero(~disjoint)
    order = meets[np.argsort(inter[meets])]  # only the intersecting pairs
    keys, values = inter[order], prod[order]
    if not len(keys):  # every pair is disjoint: no group to sum
        raise TotalConflictError(k)
    starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    # correctly rounded, so independent of focal order: the rule commutes
    # exactly
    sums = _segment_sums(values, starts)
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
    return CombinationResult(_trusted_bpa(frame, keys[starts[focal]], masses), k)
