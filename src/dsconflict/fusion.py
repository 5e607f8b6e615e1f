"""Dempster's rule of combination, the classical conflict coefficient, and
the focal-pair kernels that every pairwise measure is built on: the cross
terms of two BPAs, their Jaccard ratios and the symmetric Jaccard self-form
terms of one, by cyclic diagonals (:func:`_self_terms`).  The kernels read
a BPA's focal arrays (:attr:`~dsconflict.core.MassFunction.arrays`)
directly and release each block-sized array once it is no longer read.
Every sum of their terms is correctly rounded, from one error-free extraction
(:func:`_level_sums`): exact level sums of the terms with one sigma per
call, by group in any grouping.  A whole array's level sums are its exact
parts (:func:`_exact_parts`), rounded once by ``math.fsum``
(:func:`_fsum`).  Dempster's rule sums all its intersection groups at once
(:func:`_segment_sums`): level sums by ``np.add.reduceat`` and one correct
rounding of each group's level sums (:func:`_round_levels`), with no Python
loop over the groups; the combined BPA takes the sorted keys and masses as
its arrays.  The pignistic sums of :mod:`dsconflict.measures` take their
level sums from a 0/1 matrix product."""

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
#: rounded sum of the groups on nonempty intersections (each group's sum of
#: products already correctly rounded), is this small.
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


def _cycled(values: np.ndarray, rows: int) -> np.ndarray:
    """A ``rows`` x n view whose row d is ``values`` rotated left by d:
    entry [d, i] is values[(i + d) mod n], for rows <= n + 1.  It strides
    over one copy of the array repeated twice, so no entry is copied per
    row; rows overlap in memory, so the view is only read."""
    twice = np.concatenate((values, values))
    step = twice.itemsize
    return np.ndarray((rows, len(values)), twice.dtype, twice, 0, (step, step))


def _self_terms(x: _Focal) -> np.ndarray:
    """The terms of the Jaccard self-form, the sum of J(A, B) * (wA * wB)
    over all ordered focal pairs of ``x``, as an (n // 2 + 1) x n block of
    cyclic diagonals whose exact sum is the full square's.

    Row d pairs each focal set A_i with A_(i + d mod n), and its terms are
    J(A, B) * (wA * wB), with J the float64 quotient of |A & B| and
    |A | B| = |A| + |B| - |A & B| as in :func:`_jaccard`.  Row 0 is the
    diagonal, where J = 1 exactly.  A term is bit-equal to its mirror
    image, and every unordered pair at cyclic distance d < n / 2 lies once
    in row d, so rows 1 .. (n - 1) // 2 are doubled, which is exact; for
    even n, row n / 2 holds each of its pairs in both orders and is not.
    Pairs with an empty intersection give exact zeros.
    """
    m, w = x
    n = len(m)
    rows = n // 2 + 1
    sizes = np.bitwise_count(m)
    shared = np.bitwise_count(_cycled(m, rows) & m)
    terms = shared / (_cycled(sizes, rows) + sizes - shared)
    terms *= _cycled(w, rows) * w
    terms[1 : (n + 1) // 2] *= 2.0
    return terms


def _level_sums(terms: np.ndarray, largest: int, reduce) -> np.ndarray | None:
    """The exact level sums of ``terms`` by group, stacked level by level:
    ``reduce(q)`` of each level q of an error-free extraction, or None where
    the extraction does not apply.  ``reduce`` sums the terms of each group
    of ``q``, at most ``largest`` of them, in any order and grouping: a
    segmented ``np.add.reduceat``, a 0/1 matrix product, or ``np.sum`` for
    one group.  ``terms`` is nonempty, may have any shape and is only read.

    The levels are those of S. M. Rump, T. Ogita and S. Oishi, "Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci.
    Comput. 31(1), 2008, with one sigma for the whole call.  With terms p of
    largest magnitude M, take sigma, a power of two with
    sigma >= (n + 2) M for n = ``largest``.  Then q = (sigma + p) - sigma
    and p - q are exact: sigma + p lies in [sigma / 2, 2 sigma], so the
    subtraction is exact (Sterbenz), and p - q is the rounding error of
    sigma + p.  Every q is a multiple of u sigma (u = 2^-53) with
    |q| <= |p| + u sigma, and while n (n + 2) <= 2^54 any n of them sum to
    at most sigma in magnitude, as does every partial sum: multiples of
    u sigma that small are floats, so every group's sum of q is exact,
    whatever the order of its additions.  The remainders p - q are at most
    u sigma, so each level shrinks sigma by 2^26 or more.  Every float is a
    multiple of 2^-1074, and once sigma is subnormal or near it sigma + p
    is exact, q = p and the remainders are all zero: the loop ends there,
    after fewer than 80 levels on any terms, and mostly after two on mass
    products.
    No q is -0.0, since (sigma + p) - sigma is not.  Terms that are all
    zero, non-finite or near overflow, and groups of 2^26 terms or more,
    are left to ``math.fsum`` (None).
    """
    top = max(terms.max(), -terms.min())
    if not 0.0 < top <= 2.0**960 or largest >= 2**26:  # true for NaN and inf
        return None
    sums = []
    rest = terms
    while top:
        sigma = math.ldexp(1.0, math.frexp((largest + 2) * top)[1])
        q = rest + sigma
        q -= sigma
        sums.append(reduce(q))
        rest = np.subtract(rest, q, out=q)  # never into the caller's array
        top = max(rest.max(), -rest.min())
    return np.array(sums)


def _round_levels(sums: np.ndarray) -> np.ndarray:
    """Each group's correctly rounded total of the exact level sums ``sums``
    of :func:`_level_sums`, the float ``math.fsum`` of the group's terms
    gives.  Where a group's sums of level 3 and beyond are all zero, its
    exact total is L1 + L2, and one IEEE addition rounds that correctly;
    any other group's level sums go to ``math.fsum``."""
    total = sums[:2].sum(axis=0)  # L1 + L2, or L1 alone
    if len(sums) > 2:
        late = sums[2:].any(axis=0)
        total[late] = [math.fsum(levels) for levels in sums[:, late].T.tolist()]
    return total


#: Sums of fewer terms go to ``math.fsum``, which is about as fast at 1,000
#: mass products and faster below: on a 2-core x86-64 host it takes 51-56 us
#: and the extraction 47-48 us at 1,024 terms, 93-111 us and 49-50 us at 2,048.
_FSUM_CROSSOVER = 2048


def _exact_parts(terms: np.ndarray) -> np.ndarray:
    """Floats whose exact sum is the exact sum of ``terms``: the level sums
    of :func:`_level_sums` over the whole array or, where that does not pay
    or does not apply, the terms themselves.  ``math.fsum`` of the parts of
    one array or of several, concatenated, is the correctly rounded sum of
    all their terms.  ``terms`` may have any shape and is only read.  An
    exact zero total still rounds to +0.0 unless every term is -0.0, which
    are their own parts; non-finite or near-overflow terms are too, for
    ``math.fsum``'s exceptions and its intermediate overflow.
    """
    n = terms.size
    sums = _level_sums(terms, n, np.sum) if n >= _FSUM_CROSSOVER else None
    return terms.ravel() if sums is None else sums


def _fsum(terms: np.ndarray) -> float:
    """The correctly rounded sum of ``terms``: the float ``math.fsum``
    returns, bit for bit, and so independent of the order of the terms.
    Short arrays go to ``math.fsum`` itself; longer ones through the levels
    of :func:`_exact_parts`."""
    # a memoryview yields the entries as Python floats without building a list
    return math.fsum(memoryview(_exact_parts(terms)))


def _fsum_slices(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each slice ``values[bounds[g]:bounds[g + 1]]``, one
    by one; an empty slice sums to 0.0."""
    view, bounds = memoryview(values), bounds.tolist()
    return np.array([math.fsum(view[a:b]) for a, b in zip(bounds, bounds[1:])])


def _segment_sums(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each group's correctly rounded sum, the float ``math.fsum`` gives,
    bit for bit, for finite ``values`` of either sign whose group sums are
    finite, except that a group of only -0.0 sums to a zero of either sign.
    Group g is ``values[starts[g]:starts[g + 1]]``; ``starts`` rises
    strictly from 0.  ``values`` is only read.

    The levels of :func:`_level_sums`, with one sigma for every group, are
    summed group by group with ``np.add.reduceat`` and rounded once by
    :func:`_round_levels`.  Calls that the extraction leaves to
    ``math.fsum`` (all zero, a non-finite or near-overflow term, a group of
    2^26 terms or more) sum each group with it.
    """
    bounds = np.append(starts, len(values))
    sums = _level_sums(
        values, int(np.diff(bounds).max()), lambda q: np.add.reduceat(q, starts)
    )
    return _fsum_slices(values, bounds) if sums is None else _round_levels(sums)


def conflict_k(m1: MassFunction, m2: MassFunction) -> float:
    """Classical conflict: total product mass on disjoint focal pairs."""
    require_same_frame(m1, m2)
    inter, prod = (block.ravel() for block in _pair_terms(m1.arrays, m2.arrays))
    return _fsum(prod.compress(inter == 0))


def combine_dempster(m1: MassFunction, m2: MassFunction) -> CombinationResult:
    """Combine two BPAs with Dempster's rule.

    The products m1(A) * m2(B) are grouped by intersection, each group's
    sum is correctly rounded (:func:`_segment_sums`) and the groups on
    nonempty sets are divided by 1 - k; the result's focal masks are the
    ascending group keys.
    When the inputs sum to 1 only within :data:`MASS_SUM_ACCEPT_TOL` and
    high conflict would carry that result off 1, they are divided instead by
    their own total, the non-conflicting mass actually summed.  That total
    is the correctly rounded sum of the rounded group sums, which can differ
    in its last bits from the correctly rounded sum of every product on a
    nonempty set.  Raises :class:`TotalConflictError` when the evidence is
    totally (or numerically indistinguishably from totally) conflicting,
    i.e. when that total is at most :data:`TOTAL_CONFLICT_TOL`.
    """
    frame = require_same_frame(m1, m2)
    inter, prod = (block.ravel() for block in _pair_terms(m1.arrays, m2.arrays))
    meets = inter != 0
    conflicting = prod.compress(~meets)
    keys, values = inter.compress(meets), prod.compress(meets)
    del inter, prod, meets  # both blocks go before the sums and the sort
    k = _fsum(conflicting)
    order = np.argsort(keys)  # only the intersecting pairs
    keys, values = keys[order], values[order]
    del conflicting, order
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
