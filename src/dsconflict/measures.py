"""Conflict and similarity measures between basic probability assignments.

The pairwise measures all share one precondition: both BPAs must live on the
same frame.  Everything that only depends on focal elements is evaluated
sparsely by one kernel, :func:`fusion._pair_terms`, over ``uint64`` mask and
``float64`` mass arrays, and each result is one ``math.fsum``: bit-identical
to a per-pair loop, so symmetric, with d(m, m) = 0 and r(m, m) = 1 exactly.
The cosine measure :func:`song_cor` is defined over the whole power set, but
its inner products depend on each focal pair only through four set sizes, so
they are closed-form sums over focal pairs and work at every frame size.  The
Gram matrix check never forms a power-set matrix either: it decides the
frame's symmetry blocks exactly, in integers, and is capped by time only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import Frame, MassFunction, SubsetMask, require_same_frame
from .errors import (
    BadThresholdError,
    BothEmptyError,
    FrameTooLargeForCheckError,
    InternalConsistencyError,
)
from .fusion import _Focal, _focal_arrays, _fsum, _pair_terms, conflict_k

__all__ = [
    "CLAMP_TOL",
    "SONG_COR_MAX_FRAME",
    "GRAM_MAX_FRAME",
    "jaccard",
    "correlation_degree",
    "correlation_coefficient",
    "conflict_kr",
    "jousselme_distance",
    "PignisticDistribution",
    "pignistic",
    "dif_betp",
    "LiuConflict",
    "liu_cf",
    "song_cor",
    "gram_positive_definite",
    "ConflictReport",
    "conflict_report",
]

#: Results may stray outside their exact range by at most this much before
#: clamping turns into an :class:`InternalConsistencyError`.
CLAMP_TOL = 1e-12

#: conflict_report computes ``cor`` only up to this frame size, although
#: song_cor itself works on any frame.  On 30-63 hypotheses with 100-200 focal
#: sets per BPA, cor costs about half as much as the rest of the report plus
#: a combination (14 ms against 27 ms per pair on a 2-core x86-64 host), and
#: stays out of the report until a kernel fused with the focal-pair terms
#: pays for it.
SONG_COR_MAX_FRAME = 24

#: gram_positive_definite checks frames up to this size.  Its time grows
#: about as N^6: on a 2-core x86-64 host the check takes about 0.6 s here,
#: 0.9 s at 54 and 2.4 s at 63, so the cap keeps it inside a 1 s budget on a
#: host up to 1.5 times slower.
GRAM_MAX_FRAME = 50


def _clamp_unit(value: float, what: str) -> float:
    if value < 0.0:
        if value < -CLAMP_TOL:
            raise InternalConsistencyError(f"{what} = {value!r} is below 0")
        return 0.0
    if value > 1.0:
        if value > 1.0 + CLAMP_TOL:
            raise InternalConsistencyError(f"{what} = {value!r} is above 1")
        return 1.0
    return value


def jaccard(a: SubsetMask, b: SubsetMask) -> float:
    """Jaccard index |A & B| / |A | B| of two subset masks.

    Zero if exactly one side is empty; two empty sets have no defined index.
    """
    if a == 0 and b == 0:
        raise BothEmptyError("the Jaccard index of two empty sets is undefined")
    inter = (a & b).bit_count()
    if inter == 0:
        return 0.0
    return inter / (a | b).bit_count()


def correlation_degree(m1: MassFunction, m2: MassFunction) -> float:
    """Jaccard-weighted product mass over all focal pairs."""
    require_same_frame(m1, m2)
    return _degree(_focal_arrays(m1.focal), _focal_arrays(m2.focal))


def _degree(x: _Focal, y: _Focal) -> float:
    return _fsum(_pair_terms(x, y)[2])


def correlation_coefficient(m1: MassFunction, m2: MassFunction) -> float:
    """Normalized correlation degree, in [0, 1].

    1 exactly when the BPAs are equal, 0 exactly when every focal element of
    one is disjoint from every focal element of the other.
    """
    require_same_frame(m1, m2)
    x, y = _focal_arrays(m1.focal), _focal_arrays(m2.focal)
    return _coefficient(_degree(x, y), _degree(x, x), _degree(y, y))


def _coefficient(c12: float, c11: float, c22: float) -> float:
    if c11 <= 0.0 or c22 <= 0.0:
        raise InternalConsistencyError(
            f"self correlation degrees must be positive, got {c11!r}, {c22!r}"
        )
    return _clamp_unit(c12 / math.sqrt(c11 * c22), "correlation coefficient")


def conflict_kr(m1: MassFunction, m2: MassFunction) -> float:
    """Correlative conflict: 1 - correlation_coefficient."""
    return 1.0 - correlation_coefficient(m1, m2)


def jousselme_distance(m1: MassFunction, m2: MassFunction) -> float:
    """Jousselme distance sqrt((x - y)' D (x - y) / 2) with D the Jaccard matrix.

    Evaluated on the nonzero entries of x - y over the union of both focal
    supports.  Forming x - y first keeps d(m, m) = 0 exactly and small
    distances free of cancellation error.
    """
    require_same_frame(m1, m2)
    f1, f2 = m1.focal, m2.focal
    diff = {
        a: d
        for a in f1.keys() | f2.keys()
        if (d := f1.get(a, 0.0) - f2.get(a, 0.0)) != 0.0
    }
    u = _focal_arrays(diff)
    quad = _degree(u, u)
    if quad < 0.0:
        if quad < -CLAMP_TOL:
            raise InternalConsistencyError(
                f"Jousselme quadratic form = {quad!r} is negative"
            )
        quad = 0.0
    return math.sqrt(0.5 * quad)


@dataclass(frozen=True)
class PignisticDistribution:
    """Pignistic probabilities, aligned with ``frame.labels``."""

    frame: Frame
    probabilities: tuple[float, ...]

    def probability(self, label: str) -> float:
        return self.probabilities[self.frame.index(label)]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.frame.labels, self.probabilities))


def pignistic(m: MassFunction) -> PignisticDistribution:
    """Pignistic transformation: each focal mass split evenly over its members.

    Each label's probability is one ``fsum`` of the shares m(A) / |A| of the
    focal sets A that contain it, gathered label by label into one array.
    """
    masks, masses = _focal_arrays(m.focal)
    shares = masses / np.bitwise_count(masks)
    n = m.frame.size
    label, focal = np.nonzero((masks >> np.arange(n, dtype=np.uint64)[:, None]) & 1)
    by_label = memoryview(shares[focal])  # nonzero lists label 0's first
    bounds = np.searchsorted(label, np.arange(n + 1)).tolist()
    return PignisticDistribution(
        m.frame, tuple(math.fsum(by_label[a:b]) for a, b in zip(bounds, bounds[1:]))
    )


def dif_betp(m1: MassFunction, m2: MassFunction) -> float:
    """Largest pignistic probability difference over all subsets.

    Equal to the sum of the positive singleton differences (the maximizing
    subset collects exactly the singletons where BetP1 exceeds BetP2).
    """
    require_same_frame(m1, m2)
    p1 = pignistic(m1).probabilities
    p2 = pignistic(m2).probabilities
    return math.fsum(d for d in (a - b for a, b in zip(p1, p2)) if d > 0.0)


@dataclass(frozen=True)
class LiuConflict:
    """Liu's two-dimensional conflict verdict <k, difBetP> at threshold epsilon."""

    k: float
    dif_betp: float
    epsilon: float
    in_conflict: bool

    def to_dict(self) -> dict[str, float | bool]:
        return {
            "k": self.k,
            "dif_betp": self.dif_betp,
            "epsilon": self.epsilon,
            "in_conflict": self.in_conflict,
        }


def _check_threshold(epsilon: float) -> float:
    """The threshold as a float; like a mass, it must be a real number and
    not a ``bool``.  NaN fails the range comparison."""
    if not isinstance(epsilon, numbers.Real) or isinstance(epsilon, bool):
        raise BadThresholdError(f"threshold {epsilon!r} is not a number")
    if not 0 < epsilon < 1:
        raise BadThresholdError(
            f"threshold must lie strictly between 0 and 1, got {epsilon!r}"
        )
    return float(epsilon)


def liu_cf(m1: MassFunction, m2: MassFunction, epsilon: float) -> LiuConflict:
    """Liu's conflict model: in conflict iff both k and difBetP exceed epsilon."""
    epsilon = _check_threshold(epsilon)
    require_same_frame(m1, m2)
    return _liu(conflict_k(m1, m2), dif_betp(m1, m2), epsilon)


def _liu(k: float, db: float, epsilon: float) -> LiuConflict:
    return LiuConflict(
        k=k,
        dif_betp=db,
        epsilon=epsilon,
        in_conflict=bool(k > epsilon and db > epsilon),
    )


@lru_cache(maxsize=None)
def _song_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Binomials C(r, e) for r, e <= n (zero for e > r), and the positive-term
    tables sum_a C(j, a) / (y + a) and sum_a C(j, a) * a / (y + a) for
    j <= n and 1 <= y <= n, the latter two indexed [j, y - 1]."""
    size = n + 1
    binom = np.array(
        [[math.comb(r, e) for e in range(size)] for r in range(size)], np.float64
    )
    a = np.arange(size, dtype=np.float64)
    terms = binom[:, None, :] / (a[None, 1:, None] + a)  # [j, y - 1, a]
    tables = binom, terms.sum(axis=2), (terms * a).sum(axis=2)
    for table in tables:  # cached and shared by every caller
        table.flags.writeable = False
    return tables


def _song_inners(pairs: Sequence[tuple[_Focal, _Focal]], n: int) -> list[float]:
    """For each pair (x, y), the sum over focal pairs (A, C) of wx * wy * S,
    with S = sum over nonempty B of J(A, B) * J(C, B).

    S depends only on the signature p = |A & C|, j = |A - C|, k = |C - A| and
    r = n - |A | C|.  Split B into i, a, c and e elements of A & C, A - C,
    C - A and the rest: then J(A, B) * J(C, B) is
    (i + a)(i + c) / ((p + j + c + e)(p + k + a + e)).  The i-sum is closed:
    sum_i C(p, i)(i + a)(i + c) = P2 + (a + c) P1 + a c P0 with P0 = 2^p,
    P1 = p 2^(p-1), P2 = p (p + 1) 2^(p-2); for each e the a-sum and the
    c-sum then factor apart into table lookups, so S costs O(r).  Each
    distinct signature is evaluated once over all pairs, with j <= k, so
    swapping the arguments of every pair swaps no bits of the result.
    """
    keys = []
    for (xm, _), (ym, _) in pairs:
        p = np.bitwise_count(np.bitwise_and.outer(xm, ym)).astype(np.int64)
        j = np.bitwise_count(xm).astype(np.int64)[:, None] - p
        k = np.bitwise_count(ym).astype(np.int64)[None, :] - p
        keys.append(((p << 12) | (np.minimum(j, k) << 6) | np.maximum(j, k)).ravel())
    sigs, index = np.unique(np.concatenate(keys), return_inverse=True)
    p, lo, hi = (sigs >> 12)[:, None], (sigs >> 6 & 63)[:, None], (sigs & 63)[:, None]
    r = n - p - lo - hi
    binom, t0, t1 = _song_tables(n)
    e = np.arange(int(r.max()) + 1)
    ya = np.minimum(p + hi + e, n) - 1  # |C | B| less a; past e = r the weight is 0
    yc = np.minimum(p + lo + e, n) - 1  # |A | B| less c
    a0, a1, c0, c1 = t0[lo, ya], t1[lo, ya], t0[hi, yc], t1[hi, yc]
    p0, p1, p2 = np.ldexp(1.0, p), np.ldexp(p, p - 1), np.ldexp(p * (p + 1), p - 2)
    blocks = binom[r, e] * (p2 * a0 * c0 + p1 * (a1 * c0 + a0 * c1) + p0 * a1 * c1)
    sums = blocks.sum(axis=1)[index.ravel()]
    bounds = np.cumsum([0] + [len(k) for k in keys]).tolist()
    return [
        _fsum(np.multiply.outer(xw, yw).ravel() * sums[start:stop])
        for ((_, xw), (_, yw)), start, stop in zip(pairs, bounds, bounds[1:])
    ]


def song_cor(m1: MassFunction, m2: MassFunction) -> float:
    """Cosine similarity of Jaccard-modified mass vectors (Song's measure).

    Each BPA is expanded to a vector indexed by every nonempty subset B of the
    frame with entries sum_A m(A) J(A, B), and the result is the cosine of the
    angle between the two expansions.  The inner products are evaluated in
    closed form over focal pairs (see :func:`_song_inners`), so the cost is
    polynomial in the frame size and any frame up to 63 hypotheses works.
    """
    n = require_same_frame(m1, m2).size
    x, y = _focal_arrays(m1.focal), _focal_arrays(m2.focal)
    s12, s11, s22 = _song_inners(((x, y), (x, x), (y, y)), n)
    if s11 <= 0.0 or s22 <= 0.0:
        raise InternalConsistencyError(
            f"modified mass vectors must have positive norms, got {s11!r}, {s22!r}"
        )
    return _clamp_unit(s12 / math.sqrt(s11 * s22), "song_cor")


def gram_positive_definite(frame: Frame) -> bool:
    """Whether the full Jaccard Gram matrix of the frame is positive definite.

    The (2^N - 1)^2 matrix over nonempty subsets is never formed.  J(A, B)
    depends only on |A|, |B| and |A & B|, so the matrix commutes with every
    permutation of the frame, and Schrijver's block diagonalisation of that
    algebra (A. Schrijver, "New code upper bounds from the Terwilliger
    algebra and semidefinite programming", IEEE Trans. Inf. Theory 51(8),
    2005) splits it into one block per k = 0..N // 2, with rows and columns
    i, j = max(k, 1)..N - k; the empty set only removes i = 0 from block 0.
    The matrix is positive definite iff every block is.  The blocks are built
    in integers (:func:`_gram_blocks`) and decided by the signs of their
    leading minors (:func:`_positive_definite`), so the verdict is exact,
    with no tolerance.  Bouchard, Jousselme and Dore ("A proof for the
    positive definiteness of the Jaccard index matrix", Int. J. Approx.
    Reason. 54(5), 2013) prove it is always True; the check certifies that
    for each frame size up to :data:`GRAM_MAX_FRAME`.
    """
    n = frame.size
    if n > GRAM_MAX_FRAME:
        raise FrameTooLargeForCheckError(
            f"the Gram matrix for frame size {n} has {2 ** n - 1} rows; "
            f"sizes above {GRAM_MAX_FRAME} are not supported"
        )
    return all(_positive_definite(block) for block in _gram_blocks(n))


def _gram_blocks(n: int) -> list[list[list[int]]]:
    """Schrijver's blocks of the n-frame Jaccard matrix, times lcm(1..2n).

    Block k has entries sum_t beta(t; i, j, k) * t / (i + j - t), where

        beta(t; i, j, k) = sum_u (-1)^(u-t) C(u, t) C(n-2k, u-k)
                                 * C(n-k-u, i-u) C(n-k-u, j-u),

    without Schrijver's 1 / sqrt(C(n-2k, i-k) C(n-2k, j-k)) normalisation,
    a congruence that keeps the verdict.  With the sums swapped, the Jaccard
    part depends on i and j only through s = i + j:

        entry = sum_u C(n-2k, u-k) C(n-k-u, i-u) C(n-k-u, j-u) g(s, u),
        g(s, u) = sum_t (-1)^(u-t) C(u, t) L t / (s - t),

    and L = lcm(1..2n) makes every division exact, as s - t <= 2n.  So g is
    one O(n^3) table and the blocks take O(n^4) integer operations.
    """
    scale = math.lcm(*range(1, 2 * n + 1))
    binom = [[math.comb(a, b) for b in range(a + 1)] for a in range(n + 1)]
    # t <= u <= min(i, j) <= s // 2, so s - t >= 1 whenever s >= 2.
    g = [[0] * (s // 2 + 1) for s in range(2 * n + 1)]
    for s in range(2, 2 * n + 1):
        w = [scale * t // (s - t) for t in range(s // 2 + 1)]
        for u in range(1, s // 2 + 1):
            g[s][u] = sum(
                (-1) ** (u - t) * binom[u][t] * w[t] for t in range(1, u + 1)
            )
    blocks = []
    for k in range(n // 2 + 1):
        rows = range(max(k, 1), n - k + 1)
        # C(n-2k, u-k) C(n-k-u, i-u) per row i, for u = k..i
        left = [
            [binom[n - 2 * k][u - k] * binom[n - k - u][i - u] for u in range(k, i + 1)]
            for i in rows
        ]
        block = [[0] * len(rows) for _ in rows]
        for a, i in enumerate(rows):
            for b in range(a, len(rows)):
                j = rows[b]
                gs = g[i + j]
                block[a][b] = block[b][a] = sum(
                    c * binom[n - k - u][j - u] * gs[u]
                    for u, c in enumerate(left[a], start=k)
                )
        blocks.append(block)
    return blocks


def _positive_definite(matrix: list[list[int]]) -> bool:
    """Whether a symmetric integer matrix is positive definite, exactly.

    Sylvester's criterion: every leading principal minor must be positive.
    Bareiss fraction-free elimination without pivoting produces those minors
    as its pivots, with every division exact.  Dividing the matrix by the gcd
    of its entries first scales each minor by a positive factor and shortens
    the integers.  Only the upper triangle is updated: by symmetry row p
    also holds column p.
    """
    content = math.gcd(*(v for row in matrix for v in row))
    if content == 0:
        return False
    a = [[v // content for v in row] for row in matrix]
    previous = 1
    for p, top in enumerate(a):
        pivot = top[p]
        if pivot <= 0:
            return False
        for i in range(p + 1, len(a)):
            row, f = a[i], top[i]
            row[i:] = [
                (pivot * x - f * y) // previous for x, y in zip(row[i:], top[i:])
            ]
        previous = pivot
    return True


@dataclass(frozen=True)
class ConflictReport:
    """All supported measures for one BPA pair.

    ``cor`` is None above :data:`SONG_COR_MAX_FRAME` hypotheses; ``liu``
    is None unless a threshold was supplied.  ``k_r`` is always the exact
    complement of ``r_bpa``.
    """

    k: float
    d_bba: float
    dif_betp: float
    cor: float | None
    r_bpa: float
    k_r: float
    liu: LiuConflict | None

    def to_dict(self) -> dict[str, object]:
        return {
            "k": self.k,
            "d_bba": self.d_bba,
            "dif_betp": self.dif_betp,
            "cor": self.cor,
            "r_bpa": self.r_bpa,
            "k_r": self.k_r,
            "liu": None if self.liu is None else self.liu.to_dict(),
        }


def conflict_report(
    m1: MassFunction,
    m2: MassFunction,
    epsilon: float | None = None,
) -> ConflictReport:
    """Evaluate every applicable measure for one pair of BPAs.

    Liu's model needs a threshold, for which no canonical default exists, so
    it is only included when ``epsilon`` is given.
    """
    frame = require_same_frame(m1, m2)
    d = jousselme_distance(m1, m2)  # first: its arrays are the largest
    db = dif_betp(m1, m2)
    x, y = _focal_arrays(m1.focal), _focal_arrays(m2.focal)
    inter, prod, weighted = _pair_terms(x, y)
    k = _fsum(prod[inter == 0])
    r = _coefficient(_fsum(weighted), _degree(x, x), _degree(y, y))
    cor = song_cor(m1, m2) if frame.size <= SONG_COR_MAX_FRAME else None
    liu = None if epsilon is None else _liu(k, db, _check_threshold(epsilon))
    return ConflictReport(
        k=k, d_bba=d, dif_betp=db, cor=cor, r_bpa=r, k_r=1.0 - r, liu=liu
    )
