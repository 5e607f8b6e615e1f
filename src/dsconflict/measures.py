"""Conflict and similarity measures between basic probability assignments.

The pairwise measures all share one precondition: both BPAs must live on the
same frame.  Everything that only depends on focal elements is evaluated
sparsely over ``uint64`` mask and ``float64`` mass arrays, built once per
call.  k, the correlation degrees c12, c11 and c22 and the d_BBA quadratic
form on m1 - m2 come from :class:`_PairForms`, which forms the focal-pair
blocks of a pair once: the self-forms of the sets focal in one BPA only, by
cyclic diagonals (:func:`fusion._self_terms`), and one cross block of m1's
sets against m2's, released once the parts still read are taken.
Each result is the correctly rounded sum of an exact multiset of terms,
:func:`fusion._fsum` of the exact parts of its blocks, which is
``math.fsum``'s float: bit-identical to a per-pair loop over the full
square, so symmetric, with d(m, m) = +0.0 and r(m, m) = 1 exactly.
The pignistic probabilities of both BPAs of a pair come from one exact
extraction of their shares and one 0/1 matrix product per level
(:func:`_betp`), each label's sum rounded once.  The cosine measure
:func:`song_cor` is defined over the whole power set, but its inner products
depend on each focal pair only through four set sizes, so they are
closed-form sums over focal pairs and work at every frame size.  The sum
over subsets for one signature of set sizes depends on the frame size and
the signature alone, so the first call on an n-hypothesis frame builds a
table of it for every signature of that size, each summed over its own row
of terms (:func:`_song_table`), and keeps it for the process: about 1-3 ms
and 3-17 KB up to 24 hypotheses, 34 ms and 0.2 MB at 63.  The Gram matrix
check never forms a power-set matrix either: it decides the frame's
symmetry blocks exactly, in integers, and is capped by time only.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .core import Frame, MassFunction, SubsetMask, require_same_frame
from .errors import (
    BadThresholdError,
    BothEmptyError,
    FrameTooLargeForCheckError,
    InternalConsistencyError,
)
from .fusion import (
    _Focal,
    _exact_parts,
    _fsum,
    _fsum_slices,
    _jaccard,
    _level_sums,
    _pair_terms,
    _round_levels,
    _self_terms,
    conflict_k,
)

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
#: sets per BPA, cor costs about 0.85 times a report plus a combination once
#: the frame size's table of S is built (1.2 ms against 1.4 ms per pair; means
#: over the 13 pairs of each of 3 seeds of the best of 9, on a 2-core x86-64
#: host), but the first cor on a frame size builds that table: 10-16 ms per
#: pair on average over those frames, 34 ms at 63 hypotheses in a fresh
#: process, about a quarter of a CLI run on such a frame.  So cor stays out
#: of the wide report until that build is budgeted or made cheaper.
SONG_COR_MAX_FRAME = 24

#: gram_positive_definite checks frames up to this size.  Its time grows
#: about as N^6: on a 2-core x86-64 host the check takes about 0.3 s here,
#: 0.5 s at 54 and 1.4 s at 63, so the cap keeps it inside a 1 s budget on a
#: host up to 3 times slower.
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
    return (a & b).bit_count() / (a | b).bit_count()


def correlation_degree(m1: MassFunction, m2: MassFunction) -> float:
    """Jaccard-weighted product mass over all focal pairs."""
    require_same_frame(m1, m2)
    x, y = m1.arrays, m2.arrays
    inter, prod = _pair_terms(x, y)
    weighted = _jaccard(x[0], y[0], inter)
    weighted *= prod
    return _fsum(weighted)


class _PairForms:
    """k, the correlation degrees c12, c11 and c22, and the Jousselme
    quadratic form on d = m1 - m2 of two BPAs, from focal-pair blocks formed
    once.  Each is the correctly rounded sum of an exact multiset of terms.

    ``x`` and ``y`` are focal arrays with ascending masks, as
    :attr:`MassFunction.arrays` holds them.  The focal sets split into those
    focal in m1 only (Xo), in both (S) and in m2 only (Yo), by a merge of
    the two mask arrays.  m1's sets are laid out as [Xo | S] and m2's as
    [S | Yo].  Three blocks are formed: the self-forms of Xo and of Yo, by
    cyclic diagonals (:func:`fusion._self_terms`), and the cross block of
    m1's Jaccard ratios against m2's, which holds every other pair.  No
    Jaccard ratio is formed twice for the same ordered pair.  Of the cross
    block only what is read again is kept: its strips on S, [Xo | S] x S
    and S x Yo, a mask of its disjoint pairs, for k, and the exact parts of
    Xo x Yo, which are weighted in the block itself; the block is released
    with the constructor.  c11, c22 and the quadratic form take one
    mirror rule: a term on (A, B) is bit-equal to its term on (B, A).  So
    S x S, which holds both images, is summed in full, and Xo x S and
    S x Yo, which hold one, are doubled after their products are rounded,
    which is exact.

    On a pair of one-sided sets the quadratic form's term is the c11 term
    (Xo x Xo), the c22 term (Yo x Yo) or -2 times the c12 term (Xo x Yo,
    counted in both orders, with d = -m2 on Yo), because negation and
    doubling are exact.  So those terms enter the quadratic form through the
    exact parts of their blocks (:func:`fusion._exact_parts`), and only the
    pairs with a set of S carry d-weighted products.  The exact sum is that
    of the form's terms over the support of d, so every result is the float
    that a per-pair loop with one ``math.fsum`` gives.  The Xo x Yo block
    holds exact zeros on disjoint pairs, and sets of S with d = 0 give exact
    zeros too.  Neither changes an exact sum, and a zero total stays +0.0:
    the diagonal terms of S x S are never -0.0, so d(m, m) = +0.0.
    """

    def __init__(self, x: _Focal, y: _Focal):
        (xm, xw), (ym, yw) = x, y
        # a merge of the two ascending mask arrays: where each of m1's sets
        # would go among m2's, and whether it is there (0 is no focal mask)
        at = np.searchsorted(ym, xm)
        shared = np.append(ym, np.uint64(0))[at] == xm
        in_y = np.zeros(len(ym), bool)
        in_y[at[shared]] = True
        s = int(np.count_nonzero(shared))
        a = len(xm) - s
        masks = np.concatenate((xm[~shared], xm[shared], ym[~in_y]))
        #: m1 over [Xo | S] and m2 over [S | Yo], for every measure of the pair
        self.x = masks[: a + s], np.concatenate((xw[~shared], xw[shared]))
        self.y = masks[a:], np.concatenate((yw[in_y], yw[~in_y]))
        self.a, self.s = a, s
        (xm, xw), (ym, yw) = self.x, self.y
        self.xo = _exact_parts(_self_terms((masks[:a], xw[:a])))
        self.yo = _exact_parts(_self_terms((masks[a + s :], yw[s:])))
        jaccard = _jaccard(xm, ym, np.bitwise_and.outer(xm, ym))
        self.disjoint = jaccard == 0.0  # for k
        # the ratios on the pairs with a set of S: [Xo | S] x S and S x Yo
        self.s_cols, self.s_rows = jaccard[:, :s].copy(), jaccard[a:, s:].copy()
        xy = jaccard[:a, s:]  # the block's last use: weighted in place
        xy *= np.multiply.outer(xw[:a], yw[s:])
        self.xy = _exact_parts(xy)

    def conflict(self) -> float:
        """k: the products on disjoint pairs."""
        prod = np.multiply.outer(self.x[1], self.y[1]).ravel()
        return _fsum(prod.compress(self.disjoint.ravel()))

    def degrees(self) -> tuple[float, float, float]:
        """c12, c11 and c22."""
        a, s, cols, rows = self.a, self.s, self.s_cols, self.s_rows
        (_, xw), (_, yw) = self.x, self.y
        xs, ys = xw[a:], yw[:s]
        c12 = (
            self.xy,
            (cols * np.multiply.outer(xw, ys)).ravel(),
            (rows * np.multiply.outer(xs, yw[s:])).ravel(),
        )
        c11 = cols * np.multiply.outer(xw, xs)
        c11[:a] *= 2.0  # Xo x S
        c22 = np.concatenate((cols[a:], rows), axis=1) * np.multiply.outer(ys, yw)
        c22[:, s:] *= 2.0  # S x Yo
        return (
            _fsum(np.concatenate(c12)),
            _fsum(np.concatenate((self.xo, c11.ravel()))),
            _fsum(np.concatenate((self.yo, c22.ravel()))),
        )

    def quad(self) -> float:
        """The Jousselme quadratic form on d = m1 - m2."""
        a, s = self.a, self.s
        (_, xw), (_, yw) = self.x, self.y
        d = xw[a:] - yw[:s]  # on S; d = m1 on Xo and -m2 on Yo
        rows = np.multiply.outer(np.concatenate((xw[:a], d)), d)  # [Xo | S] x S
        rows *= self.s_cols
        rows[:a] *= 2.0  # Xo x S
        yo = np.multiply.outer(d, -yw[s:])  # S x Yo
        yo *= self.s_rows
        yo *= 2.0
        return _fsum(
            np.concatenate((self.xo, self.yo, -2.0 * self.xy, rows.ravel(), yo.ravel()))
        )


def correlation_coefficient(m1: MassFunction, m2: MassFunction) -> float:
    """Normalized correlation degree, in [0, 1].

    1 exactly when the BPAs are equal, 0 exactly when every focal element of
    one is disjoint from every focal element of the other.
    """
    require_same_frame(m1, m2)
    return _coefficient(*_PairForms(m1.arrays, m2.arrays).degrees())


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

    The quadratic form is the correctly rounded sum of its terms on the
    support of x - y (see :class:`_PairForms`), never (c11 + c22 - 2 c12)
    from rounded degrees: d(m, m) = +0.0 exactly and small distances are
    free of cancellation error.
    """
    require_same_frame(m1, m2)
    return _jousselme(_PairForms(m1.arrays, m2.arrays).quad())


def _jousselme(quad: float) -> float:
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

    Each label's probability is the correctly rounded sum of the shares
    m(A) / |A| of the focal sets A that contain it (:func:`_betp`).
    """
    betp = _betp((m.arrays,), m.frame.size)
    return PignisticDistribution(m.frame, tuple(betp[0].tolist()))


def _betp(bpas: tuple[_Focal, ...], n: int) -> np.ndarray:
    """The pignistic probabilities of each BPA on an n-hypothesis frame, one
    row each: every label's sum of the shares m(A) / |A| of the focal sets
    A that contain it, the float ``math.fsum`` of them gives, bit for bit.

    The shares of all the BPAs are extracted once into exact levels
    (:func:`fusion._level_sums`), and each level's sums for every BPA and
    every label come from one product: a B x F block, whose row b holds the
    level's terms of BPA b and zeros elsewhere, times the F x n 0/1
    membership matrix of all F focal sets.  Each entry of the product is a
    sum of exact terms q * 1 and q * 0, so it is exact whatever the order
    of its additions: SIMD lanes, FMA and BLAS blocking keep it exact; a
    Strassen-type product, which combines entries before it multiplies,
    would not.  :func:`fusion._round_levels` rounds each label's level sums
    once.  A BPA of 2^26 focal sets or more is summed label by label.
    """
    masks = np.concatenate([m for m, _ in bpas])
    shares = np.concatenate([w for _, w in bpas]) / np.bitwise_count(masks)
    sizes = [len(m) for m, _ in bpas]
    # bit i of each mask in column i
    bits = np.unpackbits(masks.astype("<u8").view(np.uint8), bitorder="little")
    member = bits.reshape(-1, 64)[:, :n].astype(np.float64)
    which = np.repeat(np.eye(len(bpas)), sizes, axis=1)
    sums = _level_sums(shares, max(sizes), lambda q: (which * q) @ member)
    if sums is not None:
        return _round_levels(sums)
    # label by label, and each BPA's focal sets after the one before
    label, focal = np.nonzero(member.T)
    group = label * len(sizes) + np.searchsorted(np.cumsum(sizes), focal, "right")
    bounds = np.searchsorted(group, np.arange(n * len(sizes) + 1))
    return _fsum_slices(shares[focal], bounds).reshape(n, len(sizes)).T


def dif_betp(m1: MassFunction, m2: MassFunction) -> float:
    """Largest pignistic probability difference over all subsets.

    Equal to the sum of the positive singleton differences (the maximizing
    subset collects exactly the singletons where BetP1 exceeds BetP2).
    """
    n = require_same_frame(m1, m2).size
    return _dif_betp(m1.arrays, m2.arrays, n)


def _dif_betp(x: _Focal, y: _Focal, n: int) -> float:
    betp1, betp2 = _betp((x, y), n)
    d = betp1 - betp2
    return math.fsum(d[d > 0.0].tolist())


@dataclass(frozen=True)
class LiuConflict:
    """Liu's two-dimensional conflict verdict <k, difBetP> at threshold epsilon."""

    k: float
    dif_betp: float
    epsilon: float
    in_conflict: bool

    def to_dict(self) -> dict[str, float | bool]:
        return asdict(self)


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


def _song_sums(p: np.ndarray, lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """S for each signature (p, lo, hi), lo <= hi and p + lo + hi <= n, on an
    n-hypothesis frame (see :func:`_song_inners`).

    Each signature is evaluated as one sum over its own row e = 0..r, so S
    depends on (n, p, lo, hi) alone, never on the other signatures of the
    call.
    """
    width = n - p - lo - hi + 1  # e = 0..r
    starts = np.cumsum(width) - width
    row = np.repeat(np.arange(len(p)), width)
    e = np.arange(len(row)) - starts[row]
    binom, t0, t1 = _song_tables(n)
    p0, p1, p2 = np.ldexp(1.0, p), np.ldexp(p, p - 1), np.ldexp(p * (p + 1), p - 2)
    ya = (p + hi - 1)[row] + e  # |C | B| less a
    yc = (p + lo - 1)[row] + e  # |A | B| less c
    lo, hi = lo[row], hi[row]
    a0, a1, c0, c1 = t0[lo, ya], t1[lo, ya], t0[hi, yc], t1[hi, yc]
    blocks = binom[(width - 1)[row], e] * (
        p2[row] * a0 * c0 + p1[row] * (a1 * c0 + a0 * c1) + p0[row] * a1 * c1
    )
    return np.add.reduceat(blocks, starts)


#: Terms of S that :func:`_song_table` evaluates at once, which bounds the
#: live arrays of its build to a few MB at every frame size.
_SONG_CHUNK = 1 << 14


@lru_cache(maxsize=None)
def _song_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """S for every signature of an n-hypothesis frame, and where each is:
    S(p, lo, hi) is ``table[base[lo, hi] + p]`` for lo <= hi, lo + hi <= n
    and p = 0..n - lo - hi, one run of p per (lo, hi), about a twelfth of
    the (n + 1)^3 key space.  The entries with p + lo = 0, an empty focal
    set, are never read.

    The signatures are evaluated by :func:`_song_sums` in chunks of at most
    about :data:`_SONG_CHUNK` terms; each S is summed over its own row, so
    it is the same float in any chunk.
    """
    lo, hi = np.triu_indices(n + 1)  # lo <= hi
    keep = lo + hi <= n
    lo, hi = lo[keep], hi[keep]
    runs = n - lo - hi + 1  # p = 0..n - lo - hi
    base = np.zeros((n + 1, n + 1), np.intp)
    base[lo, hi] = np.cumsum(runs) - runs
    p = np.arange(runs.sum()) - np.repeat(base[lo, hi], runs)
    lo, hi = np.repeat(lo, runs), np.repeat(hi, runs)
    # each signature's row of terms goes whole into one chunk
    chunk = (np.cumsum(n - p - lo - hi + 1) - 1) // _SONG_CHUNK
    cuts = np.flatnonzero(np.diff(chunk)) + 1
    table = np.concatenate([
        _song_sums(*sigs, n)
        for sigs in zip(*(np.split(a, cuts) for a in (p, lo, hi)))
    ])
    for array in (base, table):  # cached and shared by every caller
        array.flags.writeable = False
    return base, table


def _song_inners(x: _Focal, y: _Focal, n: int) -> tuple[float, float, float]:
    """The inner products of the two expansions, (x, y), (x, x) and (y, y):
    each the sum over focal pairs (A, C) of wx * wy * S, with
    S = sum over nonempty B of J(A, B) * J(C, B).

    S depends only on the signature p = |A & C|, j = |A - C|, k = |C - A| and
    r = n - |A | C|.  Split B into i, a, c and e elements of A & C, A - C,
    C - A and the rest: then J(A, B) * J(C, B) is
    (i + a)(i + c) / ((p + j + c + e)(p + k + a + e)).  The i-sum is closed:
    sum_i C(p, i)(i + a)(i + c) = P2 + (a + c) P1 + a c P0 with P0 = 2^p,
    P1 = p 2^(p-1), P2 = p (p + 1) 2^(p-2); for each e the a-sum and the
    c-sum then factor apart into table lookups, so S costs O(r).

    The signatures of all three products come from one square over the
    focal sets of x and y together, each taken as (p, min(j, k), max(j, k)),
    so swapping x and y swaps no bits of the result.  S is gathered from the
    frame size's table (:func:`_song_table`), built from O(n^4) terms by the
    first call on an n-hypothesis frame and kept for the process, so every
    call on that frame reads the same float for a signature.  The counts are
    ``uint8`` squares; the table offsets, the gathered S and the products
    are the only squares of 8-byte entries.
    """
    base, table = _song_table(n)
    count = len(x[0])
    masks, weights = np.concatenate((x[0], y[0])), np.concatenate((x[1], y[1]))
    card = np.bitwise_count(masks)  # uint8, as are p, lo and hi
    p = np.bitwise_count(np.bitwise_and.outer(masks, masks))
    lo = np.minimum.outer(card, card)
    lo -= p
    hi = np.maximum.outer(card, card)
    hi -= p
    at = base[lo, hi]
    at += p
    terms = np.multiply.outer(weights, weights)  # the products a pair loop gives
    terms *= table[at]
    return (
        _fsum(terms[:count, count:]),
        _fsum(terms[:count, :count]),
        _fsum(terms[count:, count:]),
    )


def song_cor(m1: MassFunction, m2: MassFunction) -> float:
    """Cosine similarity of Jaccard-modified mass vectors (Song's measure).

    Each BPA is expanded to a vector indexed by every nonempty subset B of the
    frame with entries sum_A m(A) J(A, B), and the result is the cosine of the
    angle between the two expansions.  The inner products are evaluated in
    closed form over focal pairs (see :func:`_song_inners`), so the cost is
    polynomial in the frame size and any frame up to 63 hypotheses works.
    """
    n = require_same_frame(m1, m2).size
    x, y = m1.arrays, m2.arrays
    s12, s11, s22 = _song_inners(x, y, n)
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

    with L = lcm(1..2n).  g(s, u) is the u-th forward difference at t = 0 of
    L t / (s - t) = L s / (s - t) - L, which is L / C(s - 1, u) for u >= 1
    and 0 for u = 0 (u <= s // 2 < s here).  C(s - 1, u) divides lcm(1..s),
    so every division is exact.  So g is one O(n^2) table and the blocks
    take O(n^4) integer operations.
    """
    binom = [[math.comb(a, b) for b in range(a + 1)] for a in range(n + 1)]
    g = _gram_differences(n)
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


def _gram_differences(n: int) -> list[list[int]]:
    """The table g(s, u) = L / C(s - 1, u) of :func:`_gram_blocks`, with
    g(s, 0) = 0, for s = 0..2n and u = 0..s // 2."""
    scale = math.lcm(*range(1, 2 * n + 1))
    return [
        [0] + [scale // math.comb(s - 1, u) for u in range(1, s // 2 + 1)]
        for s in range(2 * n + 1)
    ]


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
        """The fields in order, ``liu`` as its own dict or None."""
        return asdict(self)


def conflict_report(
    m1: MassFunction,
    m2: MassFunction,
    epsilon: float | None = None,
) -> ConflictReport:
    """Evaluate every applicable measure for one pair of BPAs.

    Liu's model needs a threshold, for which no canonical default exists, so
    it is only included when ``epsilon`` is given.
    """
    n = require_same_frame(m1, m2).size
    forms = _PairForms(m1.arrays, m2.arrays)
    d = _jousselme(forms.quad())
    db = _dif_betp(forms.x, forms.y, n)
    k = forms.conflict()
    r = _coefficient(*forms.degrees())
    # by its module name, so that a tracer wrapping song_cor sees the call
    cor = song_cor(m1, m2) if n <= SONG_COR_MAX_FRAME else None
    liu = None if epsilon is None else _liu(k, db, _check_threshold(epsilon))
    return ConflictReport(
        k=k, d_bba=d, dif_betp=db, cor=cor, r_bpa=r, k_r=1.0 - r, liu=liu
    )
