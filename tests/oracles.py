"""Brute-force reference implementations.

The dense oracles take the slow, obviously-correct path: full vectors and
matrices over all 2^N - 1 nonempty subsets, no sparsity, a different popcount
(`bin(x).count`), and matrix quadratic forms instead of focal-pair loops.
They only reach small frames.

The sparse oracles (``sparse_*``) are plain-Python double loops over focal
pairs, one IEEE product per pair and one ``math.fsum`` per result.  They
reach every frame size up to 63, and the production array kernel must match
them exactly, not within a tolerance.

The production code is tested against these, never the other way around.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import numpy as np

from dsconflict import MassFunction


def popcount(mask: int) -> int:
    return bin(mask).count("1")


@lru_cache(maxsize=None)
def jaccard_matrix(n: int) -> np.ndarray:
    """Dense Jaccard matrix over nonempty subsets; row/col index = mask - 1."""
    size = (1 << n) - 1
    matrix = np.empty((size, size))
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            matrix[i - 1, j - 1] = popcount(i & j) / popcount(i | j)
    return matrix


@lru_cache(maxsize=None)
def disjoint_matrix(n: int) -> np.ndarray:
    """Indicator matrix of disjoint nonempty subset pairs."""
    size = (1 << n) - 1
    matrix = np.zeros((size, size))
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            if i & j == 0:
                matrix[i - 1, j - 1] = 1.0
    return matrix


@lru_cache(maxsize=None)
def membership_matrix(n: int) -> np.ndarray:
    """(2^n, n) matrix: row ``mask`` marks the elements of that subset."""
    masks = np.arange(1 << n)
    return ((masks[:, None] >> np.arange(n)[None, :]) & 1).astype(float)


def dense_vector(m: MassFunction) -> np.ndarray:
    x = np.zeros((1 << m.frame.size) - 1)
    for mask, value in m.items():
        x[mask - 1] += value
    return x


def correlation_degree(m1: MassFunction, m2: MassFunction) -> float:
    d = jaccard_matrix(m1.frame.size)
    return float(dense_vector(m1) @ d @ dense_vector(m2))


def correlation_coefficient(m1: MassFunction, m2: MassFunction) -> float:
    c12 = correlation_degree(m1, m2)
    c11 = correlation_degree(m1, m1)
    c22 = correlation_degree(m2, m2)
    return c12 / math.sqrt(c11 * c22)


def jousselme_distance(m1: MassFunction, m2: MassFunction) -> float:
    d = jaccard_matrix(m1.frame.size)
    u = dense_vector(m1) - dense_vector(m2)
    return math.sqrt(max(float(u @ d @ u), 0.0) / 2.0)


def conflict_k(m1: MassFunction, m2: MassFunction) -> float:
    d = disjoint_matrix(m1.frame.size)
    return float(dense_vector(m1) @ d @ dense_vector(m2))


def betp(m: MassFunction) -> np.ndarray:
    """Pignistic probabilities by explicit enumeration of all subsets."""
    n = m.frame.size
    p = np.zeros(n)
    for mask, value in m.items():
        card = popcount(mask)
        for e in range(n):
            if mask >> e & 1:
                p[e] += value / card
    return p


def dif_betp_brute(m1: MassFunction, m2: MassFunction) -> float:
    """max_A |BetP1(A) - BetP2(A)| over every one of the 2^n subsets."""
    diff = betp(m1) - betp(m2)
    sums = membership_matrix(m1.frame.size) @ diff
    return float(np.max(np.abs(sums)))


def song_cor(m1: MassFunction, m2: MassFunction) -> float:
    d = jaccard_matrix(m1.frame.size)
    f1 = d @ dense_vector(m1)
    f2 = d @ dense_vector(m2)
    return float(f1 @ f2 / (np.linalg.norm(f1) * np.linalg.norm(f2)))


def song_signature(a: int, c: int, n: int) -> tuple[int, int, int, int]:
    """(|A & C|, |A - C|, |C - A|, n - |A | C|) of two subset masks."""
    return popcount(a & c), popcount(a & ~c), popcount(c & ~a), n - popcount(a | c)


def song_block_sum_brute(p: int, j: int, k: int, r: int) -> Fraction:
    """Exact sum over all nonempty B of J(A, B) * J(C, B), enumerating B."""
    a = (1 << (p + j)) - 1
    c = ((1 << p) - 1) | (((1 << k) - 1) << (p + j))
    return sum(
        (
            Fraction(popcount(a & b), popcount(a | b))
            * Fraction(popcount(c & b), popcount(c | b))
            for b in range(1, 1 << (p + j + k + r))
        ),
        Fraction(0),
    )


@lru_cache(maxsize=None)
def song_block_sum(p: int, j: int, k: int, r: int) -> Fraction:
    """The same sum, exact, for any frame: B is counted block by block.

    With i, a, c and e elements of B in A & C, A - C, C - A and the rest,
    there are C(p, i) C(j, a) C(k, c) C(r, e) such B, each contributing
    (i + a)(i + c) / ((p + j + c + e)(p + k + a + e)).
    """
    numerators: dict[int, int] = defaultdict(int)  # keyed by the denominator
    for i in range(p + 1):
        for a in range(j + 1):
            for c in range(k + 1):
                count = math.comb(p, i) * math.comb(j, a) * math.comb(k, c)
                for e in range(r + 1):
                    numerators[(p + j + c + e) * (p + k + a + e)] += (
                        count * math.comb(r, e) * (i + a) * (i + c)
                    )
    return sum(
        (Fraction(num, den) for den, num in numerators.items()), Fraction(0)
    )


def song_inner_exact(m1: MassFunction, m2: MassFunction) -> Fraction:
    """Exact sum over focal pairs of m1(A) m2(C) sum_B J(A, B) J(C, B)."""
    n = m1.frame.size
    return sum(
        (
            Fraction(v1) * Fraction(v2) * song_block_sum(*song_signature(a, c, n))
            for a, v1 in m1.items()
            for c, v2 in m2.items()
        ),
        Fraction(0),
    )


def gram_min_eigenvalue(n: int) -> float:
    return float(np.linalg.eigvalsh(jaccard_matrix(n)).min())


def _binom(a: int, b: int) -> int:
    return math.comb(a, b) if 0 <= b <= a else 0


def schrijver_beta(n: int, t: int, i: int, j: int, k: int) -> int:
    """Schrijver's (2005) beta^t_{i,j,k}, summed over every u = 0..n."""
    return sum(
        (-1) ** abs(u - t)
        * _binom(u, t)
        * _binom(n - 2 * k, u - k)
        * _binom(n - k - u, i - u)
        * _binom(n - k - u, j - u)
        for u in range(n + 1)
    )


def gram_blocks_beta(n: int) -> list[list[list[Fraction]]]:
    """Unnormalised symmetry blocks of the Jaccard matrix, in the literal beta form.

    Block k = 0..n // 2 has rows and columns i, j = max(k, 1)..n - k and
    entries sum_t beta^t_{i,j,k} * t / (i + j - t), in exact fractions.
    O(n^5); the empty set is left out by starting block 0 at i = 1.
    """
    blocks = []
    for k in range(n // 2 + 1):
        rows = range(max(k, 1), n - k + 1)
        blocks.append([
            [
                sum(
                    (
                        schrijver_beta(n, t, i, j, k) * Fraction(t, i + j - t)
                        for t in range(min(i, j) + 1)
                    ),
                    Fraction(0),
                )
                for j in rows
            ]
            for i in rows
        ])
    return blocks


def leading_minors(matrix: list[list[int]]) -> list[Fraction]:
    """Every leading principal minor, each by its own elimination in fractions."""
    minors = []
    for size in range(1, len(matrix) + 1):
        a = [[Fraction(v) for v in row[:size]] for row in matrix[:size]]
        det = Fraction(1)
        for p in range(size):
            pivot = next((r for r in range(p, size) if a[r][p] != 0), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != p:
                a[p], a[pivot] = a[pivot], a[p]
                det = -det
            det *= a[p][p]
            for r in range(p + 1, size):
                f = a[r][p] / a[p][p]
                a[r] = [x - f * y for x, y in zip(a[r], a[p])]
        minors.append(det)
    return minors


def sparse_jaccard(a: int, b: int) -> float:
    return popcount(a & b) / popcount(a | b)


def sparse_conflict_k(m1: MassFunction, m2: MassFunction) -> float:
    return math.fsum(
        v1 * v2 for a, v1 in m1.items() for b, v2 in m2.items() if a & b == 0
    )


def sparse_correlation_degree(m1: MassFunction, m2: MassFunction) -> float:
    return math.fsum(
        v1 * v2 * sparse_jaccard(a, b)
        for a, v1 in m1.items()
        for b, v2 in m2.items()
    )


def sparse_correlation_coefficient(m1: MassFunction, m2: MassFunction) -> float:
    c12 = sparse_correlation_degree(m1, m2)
    c11 = sparse_correlation_degree(m1, m1)
    c22 = sparse_correlation_degree(m2, m2)
    return min(c12 / math.sqrt(c11 * c22), 1.0)


def sparse_jousselme_distance(m1: MassFunction, m2: MassFunction) -> float:
    """The quadratic form on the difference m1 - m2, over the union support."""
    support = m1.focal.keys() | m2.focal.keys()
    diff = [(a, m1.mass(a) - m2.mass(a)) for a in support]
    quad = math.fsum(
        di * dj * sparse_jaccard(a, b)
        for a, di in diff
        if di != 0.0
        for b, dj in diff
        if dj != 0.0
    )
    return math.sqrt(0.5 * max(quad, 0.0))


def sparse_dempster(
    m1: MassFunction, m2: MassFunction, tol: float = 1e-12
) -> tuple[float, dict[int, float] | None]:
    """Dempster's rule: ``(k, combined masses)``, or ``(k, None)`` when the
    non-conflicting mass is at most ``tol`` (total conflict).  The groups are
    divided by 1 - k, or by their own fsum total when 1 - k would leave the
    result off 1 by more than half the 1e-9 mass-sum tolerance."""
    groups: dict[int, list[float]] = {}
    for a, v1 in m1.items():
        for b, v2 in m2.items():
            groups.setdefault(a & b, []).append(v1 * v2)
    k = math.fsum(groups.pop(0, []))
    sums = {mask: math.fsum(values) for mask, values in groups.items()}
    total = math.fsum(sums.values())
    if total <= tol:
        return k, None
    scale = 1.0 - k
    if not abs(total - scale) <= 0.5e-9 * scale:
        scale = total
    return k, {
        mask: mass
        for mask, value in sums.items()
        if (mass := value / scale) != 0.0  # products can underflow to 0.0
    }


def sparse_pignistic(m: MassFunction) -> tuple[float, ...]:
    """BetP by a bit-by-bit loop: each share m(A) / |A| is appended to the
    column of every member of A, and each column is one fsum."""
    shares: list[list[float]] = [[] for _ in range(m.frame.size)]
    for mask, value in m.items():
        share = value / mask.bit_count()
        i = 0
        while mask:
            if mask & 1:
                shares[i].append(share)
            mask >>= 1
            i += 1
    return tuple(math.fsum(column) for column in shares)
