"""Property-based tests (hypothesis).

Complements the seeded 1000-instance loops in the acceptance suite with
shrinking counterexamples.  Masses are ratios of integers in [1, 99] so
distinct BPAs stay well separated from floating-point noise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import tempfile
import warnings
from fractions import Fraction
from pathlib import PurePath

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dsconflict as ds
import oracles
from dsconflict import cli
from dsconflict.fusion import (
    _FSUM_CROSSOVER,
    _exact_parts,
    _fsum,
    _jaccard,
    _level_sums,
    _pair_terms,
    _round_levels,
    _segment_sums,
    _self_terms,
)
from dsconflict.measures import (
    _PairForms,
    _positive_definite,
    _song_sums,
    _song_table,
)
from generators import LABEL_POOL


def _mass_function(draw, frame: ds.Frame, max_focals: int) -> ds.MassFunction:
    full = frame.full_mask
    masks = draw(
        st.lists(
            st.integers(1, full),
            min_size=1,
            max_size=min(max_focals, full),
            unique=True,
        )
    )
    weights = draw(
        st.lists(st.integers(1, 99), min_size=len(masks), max_size=len(masks))
    )
    total = float(sum(weights))
    return ds.MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})


@st.composite
def bpa_pairs(draw, max_size: int = 6, max_focals: int = 4):
    frame = ds.make_frame(LABEL_POOL[: draw(st.integers(1, max_size))])
    return _mass_function(draw, frame, max_focals), _mass_function(draw, frame, max_focals)


@st.composite
def bpa_triples(draw, max_size: int = 5, max_focals: int = 3):
    frame = ds.make_frame(LABEL_POOL[: draw(st.integers(1, max_size))])
    return tuple(_mass_function(draw, frame, max_focals) for _ in range(3))


@st.composite
def single_bpas(draw, max_size: int = 6, max_focals: int = 4):
    frame = ds.make_frame(LABEL_POOL[: draw(st.integers(1, max_size))])
    return _mass_function(draw, frame, max_focals)


@st.composite
def wide_pairs(draw, sizes=st.integers(1, 63) | st.just(63)):
    """BPA pairs up to the largest frame, many masks using the top bit.

    A small shared pool of masks makes distinct focal pairs meet in the same
    intersection, so that Dempster's rule sums groups of several products.
    """
    n = draw(sizes)
    frame = ds.make_frame(LABEL_POOL[:n])
    full, top = frame.full_mask, 1 << (n - 1)
    pool = sorted({full, top, 1 | top, 1, full >> 1 or full})
    masks = st.one_of(
        st.integers(1, full),
        st.integers(0, full >> 1).map(lambda m: m | top),
        st.sampled_from(pool),
    )

    def bpa() -> ds.MassFunction:
        chosen = draw(st.lists(masks, min_size=1, max_size=12, unique=True))
        weights = draw(
            st.lists(st.integers(1, 99), min_size=len(chosen), max_size=len(chosen))
        )
        total = float(sum(weights))
        return ds.MassFunction(frame, {m: w / total for m, w in zip(chosen, weights)})

    return bpa(), bpa()


class TestCorrelation:
    @given(bpa_pairs())
    def test_symmetric(self, pair):
        m1, m2 = pair
        assert ds.correlation_coefficient(m1, m2) == ds.correlation_coefficient(m2, m1)

    @given(bpa_pairs())
    def test_bounds(self, pair):
        r = ds.correlation_coefficient(*pair)
        assert 0.0 <= r <= 1.0

    @given(single_bpas())
    def test_self_is_one(self, m):
        assert abs(ds.correlation_coefficient(m, m) - 1.0) <= 1e-12

    @given(bpa_pairs())
    def test_kr_is_exact_complement(self, pair):
        m1, m2 = pair
        assert ds.conflict_kr(m1, m2) == 1.0 - ds.correlation_coefficient(m1, m2)

    @given(bpa_pairs())
    def test_degree_matches_dense_oracle(self, pair):
        m1, m2 = pair
        got = ds.correlation_degree(m1, m2)
        want = oracles.correlation_degree(m1, m2)
        assert abs(got - want) <= 1e-12

    @given(bpa_pairs())
    def test_coefficient_matches_dense_oracle(self, pair):
        m1, m2 = pair
        got = ds.correlation_coefficient(m1, m2)
        want = oracles.correlation_coefficient(m1, m2)
        assert abs(got - want) <= 1e-12

    @given(bpa_pairs())
    def test_zero_iff_disjoint_support(self, pair):
        m1, m2 = pair
        union1 = 0
        union2 = 0
        for mask, _ in m1.items():
            union1 |= mask
        for mask, _ in m2.items():
            union2 |= mask
        r = ds.correlation_coefficient(m1, m2)
        assert (r == 0.0) == (union1 & union2 == 0)


class TestClassicalConflict:
    @given(bpa_pairs())
    def test_symmetric_and_bounded(self, pair):
        m1, m2 = pair
        k = ds.conflict_k(m1, m2)
        assert k == ds.conflict_k(m2, m1)
        assert 0.0 <= k <= 1.0

    @given(bpa_pairs())
    def test_matches_dense_oracle(self, pair):
        got = ds.conflict_k(*pair)
        want = oracles.conflict_k(*pair)
        assert abs(got - want) <= 1e-12


class TestDempster:
    @given(bpa_pairs())
    def test_commutative_exactly(self, pair):
        m1, m2 = pair
        try:
            forward = ds.combine_dempster(m1, m2)
        except ds.TotalConflictError as exc:
            try:
                ds.combine_dempster(m2, m1)
            except ds.TotalConflictError as other:
                assert other.k == exc.k
                return
            raise AssertionError("total conflict must be order independent")
        backward = ds.combine_dempster(m2, m1)
        assert forward.k == backward.k
        assert ds.bpa_equal(forward.combined, backward.combined, tol=0.0)

    @given(bpa_triples())
    def test_associative(self, triple):
        m1, m2, m3 = triple
        try:
            left = ds.combine_dempster(ds.combine_dempster(m1, m2).combined, m3)
            right = ds.combine_dempster(m1, ds.combine_dempster(m2, m3).combined)
        except ds.TotalConflictError:
            return
        assert ds.bpa_equal(left.combined, right.combined, tol=1e-9)

    @given(single_bpas())
    def test_vacuous_is_neutral(self, m):
        vac = ds.vacuous_bpa(m.frame)
        for result in (ds.combine_dempster(m, vac), ds.combine_dempster(vac, m)):
            assert result.k == 0.0
            assert ds.bpa_equal(result.combined, m, tol=0.0)


class TestJousselme:
    @given(single_bpas())
    def test_self_distance_zero(self, m):
        assert ds.jousselme_distance(m, m) == 0.0

    @given(bpa_pairs())
    def test_symmetric_and_bounded(self, pair):
        m1, m2 = pair
        d = ds.jousselme_distance(m1, m2)
        assert d == ds.jousselme_distance(m2, m1)
        assert 0.0 <= d <= 1.0

    @given(bpa_pairs())
    def test_matches_dense_oracle(self, pair):
        got = ds.jousselme_distance(*pair)
        want = oracles.jousselme_distance(*pair)
        assert abs(got - want) <= 1e-9

    @given(bpa_triples())
    def test_triangle_inequality(self, triple):
        m1, m2, m3 = triple
        d12 = ds.jousselme_distance(m1, m2)
        d13 = ds.jousselme_distance(m1, m3)
        d32 = ds.jousselme_distance(m3, m2)
        assert d12 <= d13 + d32 + 1e-9


class TestSparseReference:
    """The focal-pair kernel equals the plain-Python pair loops exactly."""

    @given(wide_pairs())
    def test_measures_equal_sparse_reference(self, pair):
        m1, m2 = pair
        k = oracles.sparse_conflict_k(m1, m2)
        d = oracles.sparse_jousselme_distance(m1, m2)
        r = oracles.sparse_correlation_coefficient(m1, m2)
        report = ds.conflict_report(m1, m2)
        assert (report.k, report.d_bba, report.r_bpa, report.k_r) == (k, d, r, 1.0 - r)
        assert ds.conflict_k(m1, m2) == k
        assert ds.jousselme_distance(m1, m2) == d
        assert ds.correlation_coefficient(m1, m2) == r
        c12 = oracles.sparse_correlation_degree(m1, m2)
        assert ds.correlation_degree(m1, m2) == c12

    @given(wide_pairs())
    def test_combination_equals_sparse_reference(self, pair):
        k, masses = oracles.sparse_dempster(*pair)
        try:
            result = ds.combine_dempster(*pair)
        except ds.TotalConflictError as exc:
            assert masses is None and exc.k == k
            return
        assert result.k == k
        assert dict(result.combined.items()) == masses

    @given(wide_pairs())
    def test_combination_is_a_valid_bpa(self, pair):
        # the combined BPA is built without validation: validating it again
        # must change nothing
        try:
            combined = ds.combine_dempster(*pair).combined
        except ds.TotalConflictError:
            return
        masses = dict(combined.items())
        assert dict(ds.MassFunction(combined.frame, masses).items()) == masses
        assert all(value > 0.0 for value in masses.values())
        assert list(masses) == sorted(masses)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_many_focal_sets_equal_sparse_reference(self, seed):
        # 60-150 focal sets a side: the sums run past _fsum's crossover
        rng = random.Random(f"wide-reference:{seed}")
        frame = ds.make_frame(LABEL_POOL[: rng.randint(30, 63)])
        m1, m2 = (dense_bpa(rng, frame, rng.randint(60, 150)) for _ in "12")
        assert len(m1) * len(m2) >= _FSUM_CROSSOVER
        for a, b in ((m1, m2), (m2, m1), (m1, m1)):
            k = oracles.sparse_conflict_k(a, b)
            r = oracles.sparse_correlation_coefficient(a, b)
            betp = zip(oracles.sparse_pignistic(a), oracles.sparse_pignistic(b))
            db = math.fsum(d for d in (x - y for x, y in betp) if d > 0.0)
            report = ds.conflict_report(a, b, 0.5)
            assert report == ds.ConflictReport(
                k=k,
                d_bba=oracles.sparse_jousselme_distance(a, b),
                dif_betp=db,
                cor=None,  # above SONG_COR_MAX_FRAME
                r_bpa=r,
                k_r=1.0 - r,
                liu=ds.LiuConflict(k, db, 0.5, k > 0.5 and db > 0.5),
            )
            c12 = oracles.sparse_correlation_degree(a, b)
            assert ds.correlation_degree(a, b) == c12
            result = ds.combine_dempster(a, b)
            combined = dict(result.combined.items())
            assert (result.k, combined) == oracles.sparse_dempster(a, b)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_many_focal_sets_song_cor_symmetric(self, seed):
        rng = random.Random(f"wide-song:{seed}")
        frame = ds.make_frame(LABEL_POOL[: rng.randint(12, ds.SONG_COR_MAX_FRAME)])
        m1, m2 = (dense_bpa(rng, frame, rng.randint(60, 150)) for _ in "12")
        value = ds.song_cor(m1, m2)
        assert ds.song_cor(m2, m1) == value
        assert ds.conflict_report(m1, m2).cor == value

    @given(wide_pairs(sizes=st.just(63)))
    def test_commutative_exactly_at_63(self, pair):
        m1, m2 = pair
        try:
            forward = ds.combine_dempster(m1, m2)
        except ds.TotalConflictError as exc:
            with pytest.raises(ds.TotalConflictError) as other:
                ds.combine_dempster(m2, m1)
            assert other.value.k == exc.k
            return
        backward = ds.combine_dempster(m2, m1)
        assert forward.k == backward.k
        assert dict(forward.combined.items()) == dict(backward.combined.items())


@st.composite
def signed_supports(draw, sizes=st.integers(0, 40)):
    """Masks with signed weights that share one scale, from 1 down to about
    2^-560, so that at the small end every product of two weights is
    subnormal or underflows, and so is the sum; masks are biased to the top
    bit of the frame, bit 62 at N = 63.  ``sizes`` draws the mask count."""
    count = draw(sizes)
    n = draw(st.integers(max(1, count.bit_length()), 63) | st.just(63))
    full, top = (1 << n) - 1, 1 << (n - 1)
    masks = draw(st.lists(
        st.integers(1, full) | st.integers(0, full >> 1).map(lambda m: m | top),
        min_size=count,
        max_size=count,
        unique=True,
    ))
    scale = draw(st.integers(-560, 0) | st.integers(-540, -525))
    weight = st.builds(
        lambda mantissa, exponent, negative: math.copysign(
            math.ldexp(mantissa, scale + exponent), -1.0 if negative else 1.0
        ),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(-8, 0),
        st.booleans(),
    )
    weights = draw(st.lists(weight, min_size=len(masks), max_size=len(masks)))
    return np.array(masks, np.uint64), np.array(weights, np.float64)


def sorted_arrays(weights: dict[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """``mask -> weight`` entries as a BPA holds its focal elements:
    ascending uint64 masks and their float64 weights."""
    masks = sorted(weights)
    return np.array(masks, np.uint64), np.array([weights[m] for m in masks], np.float64)


def cross_form(x, y) -> float:
    """The Jaccard form of two weighted supports, summed over every focal pair."""
    inter, prod = _pair_terms(x, y)
    weighted = _jaccard(x[0], y[0], inter)
    weighted *= prod
    return _fsum(weighted)


def full_square(x) -> float:
    """The self-form summed over every ordered focal pair."""
    return cross_form(x, x)


def _self_form(x) -> float:
    """The self-form from the cyclic-diagonal terms."""
    return _fsum(_self_terms(x))


def _middle_doubled(x) -> float:
    """A broken self-form for the negative control: row n / 2 of an even n,
    which holds each of its pairs in both orders, doubled all the same."""
    terms = _self_terms(x)
    n = len(x[0])
    if n and n % 2 == 0:
        terms[n // 2] *= 2.0
    return _fsum(terms)


def top_bit_support(n: int, scale: int) -> tuple[np.ndarray, np.ndarray]:
    """n masks that all hold bit 62, so every pair meets, with weights of
    alternating sign at 2^scale."""
    masks = [1 << 62 | (0b1011 << i) for i in range(n)]
    weights = [math.ldexp((-1) ** i * (0.5 + i / 16), scale) for i in range(n)]
    return np.array(masks, np.uint64), np.array(weights, np.float64)


def merged_support_form(x, y) -> float:
    """The quadratic form on x - y over the merged support: the masks of both
    sorted together, each set focal in both a group of two whose sum
    x + (-y) is the IEEE x - y, zero differences dropped, and the self-form
    of what is left."""
    (xm, xw), (ym, yw) = x, y
    masks = np.concatenate((xm, ym))
    if not len(masks):
        return 0.0
    order = np.argsort(masks)
    masks = masks[order]
    signed = np.concatenate((xw, -yw))[order]
    starts = np.concatenate(([0], np.flatnonzero(masks[1:] != masks[:-1]) + 1))
    diff = np.add.reduceat(signed, starts)
    nonzero = diff != 0.0
    return _self_form((masks[starts][nonzero], diff[nonzero]))


def dense_bpa(rng: random.Random, frame: ds.Frame, count: int) -> ds.MassFunction:
    """``count`` distinct focal sets of assorted densities."""
    masks: set[int] = set()
    while len(masks) < count:
        keep = rng.choice((0.05, 0.2, 0.5))
        mask = sum(1 << i for i in range(frame.size) if rng.random() < keep)
        masks.add(mask or frame.full_mask)
    weights = [rng.randint(1, 99) for _ in masks]
    total = float(sum(weights))
    return ds.MassFunction(frame, {m: w / total for m, w in zip(masks, weights)})


class TestSelfForm:
    """The cyclic-diagonal self-form equals the full-square sum exactly."""

    @given(wide_pairs())
    def test_equals_full_square_on_differences(self, pair):
        m1, m2 = pair
        f1, f2 = m1.focal, m2.focal
        diff = {a: f1.get(a, 0.0) - f2.get(a, 0.0) for a in f1.keys() | f2.keys()}
        u = sorted_arrays({a: d for a, d in diff.items() if d != 0.0})
        assert _self_form(u) == full_square(u)
        for m in pair:
            x = m.arrays
            assert _self_form(x) == full_square(x)

    @given(signed_supports())
    def test_equals_full_square_on_signed_weights(self, x):
        assert _self_form(x) == full_square(x)

    @pytest.mark.parametrize("n", range(7))
    @given(data=st.data())
    def test_every_small_size(self, n, data):
        # odd and even n: row n / 2 is in the layout only for even n
        x = data.draw(signed_supports(st.just(n)))
        assert _self_form(x) == full_square(x)

    @pytest.mark.parametrize("scale", [0, -530, -1060])
    @pytest.mark.parametrize("n", range(7))
    def test_top_bit_signed_and_subnormal(self, n, scale):
        x = top_bit_support(n, scale)
        assert _self_form(x) == full_square(x)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_doubled_middle_row_is_caught(self, n):
        # the negative control: every pair meets, so row n / 2 is nonzero
        x = top_bit_support(n, 0)
        assert _self_form(x) == full_square(x)
        assert _middle_doubled(x) != full_square(x)

    def test_empty_support_is_zero(self):
        empty = (np.zeros(0, np.uint64), np.zeros(0))
        assert _self_form(empty) == full_square(empty) == 0.0

    @pytest.mark.parametrize("weight", [1.0, -0.375, 2.0**-530])
    def test_single_focal_set_is_its_square(self, weight):
        x = (np.array([1 << 62], np.uint64), np.array([weight]))
        assert _self_form(x) == full_square(x) == weight * weight

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_self_comparison_exact_beyond_the_oracles(self, seed):
        rng = random.Random(seed)
        frame = ds.make_frame(LABEL_POOL[:63])
        m = dense_bpa(rng, frame, 300 + 40 * seed)
        assert ds.correlation_degree(m, m) == _self_form(m.arrays)
        d = ds.jousselme_distance(m, m)
        assert d == 0.0 and math.copysign(1.0, d) == 1.0  # +0.0, not -0.0
        assert ds.correlation_coefficient(m, m) == 1.0
        report = ds.conflict_report(m, m)
        assert (report.d_bba, report.r_bpa, report.k_r) == (0.0, 1.0, 0.0)
        assert math.copysign(1.0, report.d_bba) == 1.0


@st.composite
def shared_support_pairs(draw):
    """A BPA and a second one that reuses a random share (0-100 %) of its
    focal sets, with masses equal to the first's, perturbed in their low
    bits, or scaled down by 2^-530 to 2^-560, so that their products are
    subnormal or underflow.  The mass left over goes to sets focal in the
    second BPA alone, or else to the last reused set."""
    n = draw(st.integers(1, 63) | st.just(63))
    frame = ds.make_frame(LABEL_POOL[:n])
    full, top = frame.full_mask, 1 << (n - 1)
    masks = st.integers(1, full) | st.integers(0, full >> 1).map(lambda m: m | top)
    first = draw(st.lists(masks, min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.integers(1, 99), min_size=len(first), max_size=len(first)))
    total = float(sum(weights))
    f1 = {m: w / total for m, w in zip(first, weights)}
    kept = draw(st.permutations(first))[: draw(st.integers(0, len(first)))]
    mode = draw(st.sampled_from(("equal", "perturbed", "subnormal")))
    if mode == "equal":
        f2 = {m: f1[m] for m in kept}
    elif mode == "perturbed":
        f2 = {
            m: f1[m] * (1.0 + draw(st.sampled_from((-1.0, 1.0))) * 2.0 ** -draw(st.integers(40, 52)))
            for m in kept
        }
    else:
        scale = draw(st.integers(530, 560))
        f2 = {m: math.ldexp(f1[m], -scale) for m in kept}
    rest = 1.0 - math.fsum(f2.values())
    others = [m for m in draw(st.lists(masks, max_size=12, unique=True)) if m not in f1]
    if rest > 1e-9 and others:
        shares = draw(st.lists(st.integers(1, 99), min_size=len(others), max_size=len(others)))
        f2.update((m, rest * w / sum(shares)) for m, w in zip(others, shares))
    elif rest > 1e-9 and kept:
        f2[kept[-1]] += rest
    elif rest > 1e-9:
        f2 = dict(f1)
    return ds.MassFunction(frame, f1), ds.MassFunction(frame, f2)


@st.composite
def signed_support_pairs(draw):
    """Two signed supports like :func:`signed_supports`, the second reusing
    a random share of the first's masks with an equal weight, its negation
    or its half."""
    (xm, xw), (ym, yw) = draw(signed_supports()), draw(signed_supports())
    fx = dict(zip(xm.tolist(), xw.tolist()))
    fy = dict(zip(ym.tolist(), yw.tolist()))
    for m in draw(st.permutations(list(fx)))[: draw(st.integers(0, len(fx)))]:
        fy[m] = draw(st.sampled_from((fx[m], -fx[m], 0.5 * fx[m])))
    return fx, fy


class TestSharedSupport:
    """Sets focal in both BPAs: every form from the partitioned blocks is
    bit for bit the plain-Python loops' and the merged-support form's."""

    @given(shared_support_pairs())
    def test_measures_equal_sparse_reference(self, pair):
        for m1, m2 in (pair, pair[::-1]):
            d = oracles.sparse_jousselme_distance(m1, m2).hex()
            r = oracles.sparse_correlation_coefficient(m1, m2).hex()
            report = ds.conflict_report(m1, m2)
            assert (report.d_bba.hex(), report.r_bpa.hex()) == (d, r)
            assert report.k.hex() == oracles.sparse_conflict_k(m1, m2).hex()
            assert ds.jousselme_distance(m1, m2).hex() == d
            assert ds.correlation_coefficient(m1, m2).hex() == r

    @given(signed_support_pairs())
    def test_forms_equal_merged_support_and_full_squares(self, pair):
        fx, fy = pair
        x, y = sorted_arrays(fx), sorted_arrays(fy)
        forms = _PairForms(x, y)
        assert forms.quad().hex() == merged_support_form(x, y).hex()
        want = (cross_form(x, y), full_square(x), full_square(y))
        assert [c.hex() for c in forms.degrees()] == [c.hex() for c in want]
        inter, prod = _pair_terms(x, y)
        assert forms.conflict().hex() == _fsum(prod[inter == 0]).hex()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equal_masses_on_every_set_give_positive_zero(self, seed):
        # the same focal sets and masses in another order: every set is
        # shared and every difference is +0.0
        rng = random.Random(f"equal-masses:{seed}")
        frame = ds.make_frame(LABEL_POOL[: rng.randint(30, 63)])
        m = dense_bpa(rng, frame, rng.randint(60, 150))
        twin = ds.MassFunction(frame, dict(reversed(list(m.items()))))
        for d in (ds.jousselme_distance(m, twin), ds.conflict_report(twin, m).d_bba):
            assert d == 0.0 and math.copysign(1.0, d) == 1.0


#: Tails that put the exact sum of a cancelling array on a rounding tie, or
#: near one: 1 + 2^-53 rounds down to even, (1 + 2^-52) + 2^-53 up, 2^53 + 1
#: down and 2^53 + 1 + 2^-60 up; 2^-30 - 2^-60 is exact, with one negative
#: remainder below the first level.
SUM_TAILS = [
    (),
    (1.0, 2.0**-53),
    (1.0, 2.0**-54, 2.0**-54),
    (1.0 + 2.0**-52, 2.0**-53),
    (-(1.0 + 2.0**-52), -(2.0**-53)),
    (2.0**53, 1.0),
    (2.0**53, 1.0, 2.0**-60),
    (2.0**-30, -(2.0**-60)),
    (2.0**-1022, -(2.0**-1074)),
]


def _cancelling(terms: np.ndarray, tail, rng) -> np.ndarray:
    """``terms``, their negations and ``tail``, shuffled: the exact sum is
    the tail's."""
    out = np.concatenate((terms, -terms, tail))
    rng.shuffle(out)
    return out


@st.composite
def sum_arrays(draw):
    """1,500-10,000 floats, so that both sides of the crossover are drawn:
    mixed signs with exponents from the subnormals up to the top of the
    range, sprinkled with +-0.0, optionally cancelled exactly by their
    negations plus a tie tail and, sometimes, with inf, -inf or NaN."""
    size = draw(st.integers(1500, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1080, 0))
    high = draw(st.integers(low, 1024))
    cancel = draw(st.booleans())
    base = size // 2 if cancel else size
    signs = rng.choice((-1.0, 1.0), base)
    exponents = rng.integers(low, high, base, endpoint=True)
    terms = np.ldexp(signs * rng.random(base), exponents)
    zeros = rng.random(base) < draw(st.sampled_from((0.0, 0.01, 0.5, 1.0)))
    terms[zeros] = rng.choice((0.0, -0.0), int(zeros.sum()))
    if cancel:
        terms = _cancelling(terms, draw(st.sampled_from(SUM_TAILS)), rng)
    special = draw(st.sampled_from(((), (), (), (math.inf,), (-math.inf,),
                                    (math.nan,), (math.inf, -math.inf))))
    if special:
        terms = np.insert(terms, rng.integers(0, len(terms), len(special)), special)
    return terms


@st.composite
def product_arrays(draw):
    """500-10,000 finite floats of either sign and at most 1 in magnitude,
    down to the subnormals and sprinkled with -0.0, as signed mass products
    are; sometimes cancelled exactly by their negations plus a tie tail."""
    size = draw(st.integers(500, 10_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1080, 0))
    terms = np.ldexp(rng.choice((-1.0, 1.0), size) * rng.random(size),
                     rng.integers(low, 0, size, endpoint=True))
    terms[rng.random(size) < 0.01] = -0.0
    if draw(st.booleans()):
        terms = _cancelling(terms[: size // 2], draw(st.sampled_from(SUM_TAILS[:4])), rng)
    return terms


def _sum_outcome(fsum, terms) -> str | type:
    """The sum as ``float.hex``, or the type of the exception raised."""
    try:
        return fsum(terms).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


class TestCorrectlyRoundedSum:
    """``_fsum`` returns ``math.fsum``'s float bit for bit."""

    @given(sum_arrays())
    def test_equals_math_fsum(self, terms):
        before = terms.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _sum_outcome(_fsum, terms)
        assert got == _sum_outcome(math.fsum, terms.tolist())
        assert terms.tobytes() == before

    @pytest.mark.parametrize("tail", SUM_TAILS)
    def test_ties_on_cancelling_terms(self, tail):
        rng = np.random.default_rng(len(tail))
        terms = np.ldexp(rng.random(3000) - 0.5, rng.integers(-80, 40, 3000))
        terms = _cancelling(terms, tail, rng)
        assert _fsum(terms).hex() == math.fsum(terms.tolist()).hex()
        assert _fsum(terms) == math.fsum(tail)

    @given(product_arrays(), st.data())
    def test_parts_of_pieces_round_once(self, terms, data):
        # the exact parts of pieces of an array, concatenated, round to the
        # array's own correctly rounded sum
        cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=4)))
        parts = np.concatenate([_exact_parts(piece) for piece in np.split(terms, cuts)])
        assert math.fsum(parts.tolist()).hex() == math.fsum(terms.tolist()).hex()

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_all_zero(self, zero):
        terms = np.full(5000, zero)
        assert _fsum(terms).hex() == math.fsum(terms.tolist()).hex()


def _group(kind: str, size: int, rng) -> np.ndarray:
    """``size`` finite terms of one group, shuffled.

    "masses": values as mass products are, down to about 2^-60; "wide":
    exponents over a random stretch of the range, down to 2^-1074, so that
    some groups need more than two levels; "subnormal": every term below
    2^-1022; "huge": terms so large that sigma would overflow; "tie": a sum
    on a rounding tie of its largest term or just above one; "zero": +0.0
    and -0.0, never only -0.0.  Every kind but "tie" and "zero" is sometimes
    half repeats of its other half, sprinkled with zeros or all zero, and
    sometimes of either sign, or cancelled by its own negations plus a tie
    tail.
    """
    if kind == "huge":  # as large as a finite group sum allows
        top = 1022 - size.bit_length()
        terms = np.ldexp(rng.random(size), rng.integers(top - 4, top, size, endpoint=True))
    elif kind == "subnormal":
        terms = np.ldexp(rng.random(size), rng.integers(-1074, -1022, size, endpoint=True))
        terms[: rng.integers(0, 2, endpoint=True)] = 2.0**-1074
    elif kind == "tie":
        # half an ulp of the head, zeros and up to three short terms far
        # enough below the head that a plain sum loses them: the exact sum
        # is on the tie or just above it
        top = int(rng.integers(-60, 0, endpoint=True))
        head = [math.ldexp(1.0 + float(rng.integers(0, 2)) * 2.0**-52, top),
                math.ldexp(1.0, top - 53)]
        depth = int(rng.integers(54, 170) if rng.random() < 0.8 else rng.integers(54, 1000 + top))
        tail = np.zeros(max(size - 2, 0))
        tail[:3] = np.ldexp(rng.integers(1, 8, len(tail[:3])), top - depth)
        terms = np.concatenate((head, tail))[:size]
    elif kind == "zero":
        terms = rng.choice((0.0, -0.0), size)
        terms[rng.integers(size)] = 0.0
    else:
        low = int(rng.integers(-1074, -60)) if kind == "wide" else -60
        terms = np.ldexp(rng.random(size), rng.integers(low, 0, size, endpoint=True))
    if kind not in ("tie", "zero"):
        if rng.random() < 0.2:
            terms[size // 2 :] = terms[: size - size // 2]
        terms[rng.random(size) < rng.choice((0.0, 0.1, 1.0), p=(0.6, 0.3, 0.1))] = 0.0
        sign = rng.choice(("+", "+-", "cancel"))
        if sign == "+-":
            terms *= rng.choice((-1.0, 1.0), size)
            terms[rng.integers(size)] = abs(terms[0])  # not all -0.0
        elif sign == "cancel" and size > 2 and kind != "huge":
            tail = SUM_TAILS[int(rng.integers(len(SUM_TAILS)))]
            terms = _cancelling(terms[: (size - len(tail)) // 2], tail, rng)
            terms = np.concatenate((terms, np.zeros(size - len(terms))))
    rng.shuffle(terms)
    return terms


@st.composite
def segmented_arrays(draw):
    """Groups of 1-10,000 finite terms, laid end to end, and the start of
    each group."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(
        st.integers(1, 4) | st.integers(1, 300) | st.integers(3, 10_000),
        min_size=1,
        max_size=8,
    ))
    kinds = st.sampled_from(("masses", "masses", "wide", "subnormal", "huge", "tie", "zero"))
    groups = [_group(draw(kinds), size, rng) for size in sizes]
    starts = np.cumsum([0] + sizes[:-1])
    return np.concatenate(groups), starts


def _group_fsums(values: np.ndarray, starts: np.ndarray) -> list:
    """``math.fsum``'s outcome for each group, as :func:`_sum_outcome`."""
    ends = [*starts[1:].tolist(), len(values)]
    return [_sum_outcome(math.fsum, values[a:b].tolist())
            for a, b in zip(starts.tolist(), ends)]


class TestSegmentSums:
    """``_segment_sums`` returns each group's ``math.fsum`` float, bit for
    bit, and ``_round_levels`` the correctly rounded sum of its levels."""

    @given(segmented_arrays())
    def test_each_group_equals_math_fsum(self, arrays):
        values, starts = arrays
        before = values.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _segment_sums(values, starts)
        assert [g.hex() for g in got.tolist()] == _group_fsums(values, starts)
        assert values.tobytes() == before

    @pytest.mark.parametrize("kind", ["wide", "subnormal", "huge"])
    def test_fallback_groups(self, kind, monkeypatch):
        # which sums reach math.fsum: a group whose level sums go past the
        # second (spread over 900 binades, or subnormal below a group of
        # normal terms) is rounded from its level sums, and a call with a
        # near-overflow term sums each group from its terms; a group of
        # three products that the first level holds exactly never does
        rng = np.random.default_rng(7)
        groups = [_group(kind, 5000, rng), np.array([0.5, 0.25, 0.125])]
        if kind == "wide":
            groups[0][:4] = [1.0, 2.0**-300, 2.0**-600, 2.0**-900]
        if kind == "huge":  # beyond 2^960
            groups[0][0] = 2.0**1010
        values = np.concatenate(groups)
        starts = np.array([0, 5000])
        calls, fsum = [], math.fsum
        monkeypatch.setattr(math, "fsum", lambda terms: calls.append(len(terms)) or fsum(terms))
        got = _segment_sums(values, starts)
        monkeypatch.undo()
        if kind == "huge":
            assert calls == [5000, 3]
        else:
            assert len(calls) == 1 and 2 < calls[0] < 80
        assert [g.hex() for g in got.tolist()] == _group_fsums(values, starts)

    @pytest.mark.parametrize("special", [(math.inf,), (-math.inf,), (math.nan,)])
    def test_non_finite_calls_go_to_fsum(self, special):
        # a non-finite term sends every group of the call to math.fsum,
        # with its result or its exception
        rng = np.random.default_rng(11)
        groups = [_group("masses", 3000, rng), _group("masses", 3, rng)]
        groups[0][:len(special)] = special
        values, starts = np.concatenate(groups), np.array([0, 3000])
        assert [g.hex() for g in _segment_sums(values, starts).tolist()] == \
            _group_fsums(values, starts)
        cancel = np.concatenate(([math.inf, -math.inf], groups[1]))
        with pytest.raises(ValueError):
            _segment_sums(cancel, np.array([0, 2]))

    def test_extraction_limits(self):
        terms = np.array([0.5, 0.25, 2.0**-80])
        assert _level_sums(terms, 2**26 - 1, np.sum) is not None
        assert _level_sums(terms, 2**26, np.sum) is None
        assert _level_sums(np.array([2.0**960, 1.0]), 2, np.sum) is not None
        assert _level_sums(np.array([2.0**960 * (1 + 2.0**-52), 1.0]), 2, np.sum) is None
        assert _level_sums(np.array([0.0, -0.0]), 2, np.sum) is None
        assert _level_sums(np.array([math.nan, 1.0]), 2, np.sum) is None

    def test_negative_zero_groups_sum_to_zero(self):
        # outside the math.fsum contract: a group of only -0.0 sums to a
        # zero, +0.0 from the levels, math.fsum's zero when the whole call
        # is zero
        values = np.array([-0.0, -0.0, 0.5, 0.25, 0.125, -0.0])
        got = _segment_sums(values, np.array([0, 2, 5]))
        assert got.tolist() == [0.0, 0.875, 0.0]
        assert math.copysign(1.0, got[0]) == 1.0
        zeros = np.array([-0.0, -0.0, 0.0])
        assert _segment_sums(zeros, np.array([0, 2])).tolist() == [0.0, 0.0]

    def test_groups_of_one_or_two_are_plain_sums(self):
        values = np.array([0.1, 0.2, 0.3, 2.0**-1074, 1.0, 2.0**-53])
        starts = np.array([0, 1, 3, 4])
        got = _segment_sums(values, starts)
        assert got.tobytes() == np.add.reduceat(values, starts).tobytes()
        assert got[1] == 0.2 + 0.3

    @given(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, max_value=2.0**1020,
                  min_value=-(2.0**1020)),
        min_size=1,
        max_size=5,
    ))
    def test_levels_round_once(self, levels):
        exact = sum(map(Fraction, levels))
        got = _round_levels(np.array(levels)[:, None])
        assert got.shape == (1,) and got[0] == float(exact)

    @pytest.mark.parametrize("levels", [
        (1.0, 2.0**-53, 2.0**-110),  # just above a tie: rounds up
        (1.0, 2.0**-53, -(2.0**-110)),  # just below: rounds down
        (1.0 + 2.0**-52, 2.0**-53, 0.0),  # on a tie: to even, up
        (2.0**-1022, 2.0**-1074, 2.0**-1074),
        (1.0, 2.0**-53, 0.0, 0.0, 2.0**-1074),  # a fifth level decides
    ])
    def test_late_levels_decide_ties(self, levels):
        # the finish looks past the second level; the columns are groups
        sums = np.array([levels, levels[::-1]]).T
        want = float(sum(map(Fraction, levels)))
        assert [g.hex() for g in _round_levels(sums).tolist()] == [want.hex()] * 2


class TestPignistic:
    @given(single_bpas())
    def test_distribution(self, m):
        betp = ds.pignistic(m)
        assert len(betp.probabilities) == m.frame.size
        assert all(p >= 0.0 for p in betp.probabilities)
        assert abs(math.fsum(betp.probabilities) - 1.0) <= 1e-9

    @given(wide_pairs())
    def test_equals_sparse_reference(self, pair):
        for m in pair:
            assert ds.pignistic(m).probabilities == oracles.sparse_pignistic(m)

    @given(bpa_pairs())
    def test_dif_betp_matches_brute_force(self, pair):
        m1, m2 = pair
        got = ds.dif_betp(m1, m2)
        want = oracles.dif_betp_brute(m1, m2)
        assert abs(got - want) <= 1e-12

    @given(bpa_pairs())
    def test_dif_betp_symmetric_and_bounded(self, pair):
        # the two orders sum opposite signs of the same differences, so they
        # agree only up to the residual of sum(BetP1) - sum(BetP2)
        m1, m2 = pair
        value = ds.dif_betp(m1, m2)
        assert abs(value - ds.dif_betp(m2, m1)) <= 1e-12
        assert 0.0 <= value <= 1.0


@st.composite
def pignistic_pairs(draw):
    """BPA pairs on frames of 1-63 hypotheses, many masks using the top bit
    (bit 62 at 63), some labels in no focal set, and masses from 2^-1074 to
    1: up to 23 masses below 2^-6 of any exponent, or just below the ulp
    of the largest, and the largest mass 1 less their sum."""
    n = draw(st.integers(1, 63) | st.just(63))
    frame = ds.make_frame(LABEL_POOL[:n])
    full, top = frame.full_mask, 1 << (n - 1)
    keep = full & ~draw(st.integers(0, full >> 1) | st.just(0))
    masks = st.integers(1, full) | st.integers(0, full >> 1).map(lambda m: m | top)

    def bpa() -> ds.MassFunction:
        chosen = sorted({m & keep or top for m in draw(st.lists(masks, min_size=1, max_size=24))})
        small = [
            math.ldexp(draw(st.integers(1, 2**53 - 1)),
                       draw(st.integers(-1074, -59) | st.integers(-75, -59)))
            for _ in chosen[1:]
        ]
        big = 1.0 - math.fsum(small)
        order = draw(st.permutations(range(len(chosen))))
        return ds.MassFunction(frame, {chosen[i]: w for i, w in zip(order, [big, *small])})

    return bpa(), bpa()


class TestPignisticSums:
    """BetP and difBetP, from one extraction of both BPAs' shares and one
    0/1 matrix product per level, are the floats of a per-label
    ``math.fsum``, bit for bit."""

    @given(pignistic_pairs())
    def test_probabilities_equal_per_label_fsum(self, pair):
        for m in pair:
            got = ds.pignistic(m).probabilities
            assert [p.hex() for p in got] == [p.hex() for p in oracles.sparse_pignistic(m)]

    @given(pignistic_pairs())
    def test_dif_betp_equals_fsum_of_differences(self, pair):
        m1, m2 = pair
        betp1, betp2 = map(oracles.sparse_pignistic, pair)
        want = math.fsum(d for d in (a - b for a, b in zip(betp1, betp2)) if d > 0.0)
        assert ds.dif_betp(m1, m2).hex() == want.hex()
        assert ds.conflict_report(m1, m2).dif_betp.hex() == want.hex()

    @given(pignistic_pairs())
    def test_label_by_label_fallback(self, pair):
        # the path of a BPA of 2^26 focal sets or more, which the
        # extraction leaves to math.fsum
        from dsconflict import measures

        m1, m2 = pair
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measures, "_level_sums", lambda *args: None)
            got = [p.hex() for p in ds.pignistic(m1).probabilities]
            dif = ds.dif_betp(m1, m2)
        assert got == [p.hex() for p in oracles.sparse_pignistic(m1)]
        assert dif.hex() == ds.dif_betp(m1, m2).hex()


class TestSongCor:
    @given(single_bpas())
    def test_self_is_one(self, m):
        assert abs(ds.song_cor(m, m) - 1.0) <= 1e-12

    @given(bpa_pairs())
    def test_symmetric_and_bounded(self, pair):
        m1, m2 = pair
        value = ds.song_cor(m1, m2)
        assert value == ds.song_cor(m2, m1)
        assert 0.0 <= value <= 1.0

    @given(bpa_pairs())
    def test_matches_dense_oracle(self, pair):
        got = ds.song_cor(*pair)
        want = oracles.song_cor(*pair)
        assert abs(got - want) <= 1e-12

    @given(wide_pairs(sizes=st.integers(25, 63)))
    def test_wide_self_is_one(self, pair):
        for m in pair:
            assert abs(ds.song_cor(m, m) - 1.0) <= 1e-12

    @given(wide_pairs(sizes=st.integers(25, 63)))
    def test_wide_symmetric_and_bounded(self, pair):
        m1, m2 = pair
        value = ds.song_cor(m1, m2)
        assert value == ds.song_cor(m2, m1)
        assert 0.0 <= value <= 1.0


def song_signatures(m1: ds.MassFunction, m2: ds.MassFunction) -> list[tuple]:
    """The signature (|A & C|, lo, hi), lo <= hi the sizes of A - C and
    C - A, of every focal pair of m1 and m2, counted on Python ints."""
    sigs = []
    for a in m1.focal:
        for c in m2.focal:
            p = (a & c).bit_count()
            sigs.append((p, *sorted((a.bit_count() - p, c.bit_count() - p))))
    return sigs


class TestSongSums:
    """S for a signature is the same float alone, in a batch with other
    signatures and in the frame size's table, and cor does not depend on
    the order of its arguments."""

    @given(wide_pairs(), st.data())
    def test_same_bits_alone_in_a_batch_and_swapped(self, pair, data):
        m1, m2 = pair
        n = m1.frame.size
        others = data.draw(st.lists(wide_pairs(sizes=st.just(n)), min_size=1, max_size=4))
        sigs = song_signatures(m1, m2)
        batch = sigs + [sig for other in others for sig in song_signatures(*other)]
        alone = _song_sums(*np.array(sigs, np.intp).T, n).tobytes()
        assert _song_sums(*np.array(batch, np.intp).T, n)[: len(sigs)].tobytes() == alone
        base, table = _song_table(n)
        assert np.array([table[base[lo, hi] + p] for p, lo, hi in sigs]).tobytes() == alone
        assert ds.song_cor(m2, m1).hex() == ds.song_cor(m1, m2).hex()


def _exact(value):
    """A result with each float as its bits (-0.0 is not 0.0), nested dicts
    and lists field by field."""
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value.hex() if type(value) is float else value


def _results(m1: ds.MassFunction, m2: ds.MassFunction, into: ds.Frame):
    """Every report field, Song's cor and the combination's k and masses of
    the pair, the masks of the combination read in the frame ``into`` by
    label."""
    try:
        result = ds.combine_dempster(m1, m2)
    except ds.TotalConflictError:
        combination = None
    else:
        labels = m1.frame.members
        combination = [result.k, sorted(
            (into.subset(labels(mask)), v) for mask, v in result.combined.items()
        )]
    return _exact({
        "report": ds.conflict_report(m1, m2, 0.5).to_dict(),
        "song_cor": ds.song_cor(m1, m2),
        "combination": combination,
    })


def _moved(m: ds.MassFunction, frame: ds.Frame) -> ds.MassFunction:
    """``m`` on ``frame``, each focal set by its labels."""
    return ds.MassFunction(
        frame, {frame.subset(m.frame.members(mask)): v for mask, v in m.items()}
    )


class TestRelabelling:
    """Reordering the hypotheses of the frame changes no result by a bit:
    the focal sets then come in another order, and every sum is correctly
    rounded whatever the order of its terms."""

    @given(wide_pairs(), st.data())
    def test_results_bit_identical(self, pair, data):
        m1, m2 = pair
        turned = ds.make_frame(data.draw(st.permutations(m1.frame.labels)))
        got = _results(_moved(m1, turned), _moved(m2, turned), m1.frame)
        assert got == _results(m1, m2, m1.frame)


class TestEmbedding:
    """Hypotheses that no focal set holds change no result but Song's cor,
    whose vectors run over every subset of the frame."""

    @given(wide_pairs(sizes=st.integers(1, 62)), st.data())
    def test_results_bit_identical_but_cor(self, pair, data):
        m1, m2 = pair
        n = m1.frame.size
        extra = data.draw(st.integers(1, min(10, 63 - n)))
        wider = ds.make_frame(LABEL_POOL[: n + extra])
        got = _results(_moved(m1, wider), _moved(m2, wider), wider)
        want = _results(m1, m2, wider)
        for results in (got, want):
            del results["song_cor"], results["report"]["cor"]
        assert got == want


#: texts that JSON escapes: quotes, backslashes, control and non-ASCII
#: characters, one beyond the Basic Multilingual Plane
_ODD_TEXTS = st.text(min_size=1, max_size=4) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "é", "\u2028", "\x00", "\x7f", "\U0001f600"]
)

#: masses that a BPA may hold besides its mass on the whole frame
_SMALL_MASSES = st.sampled_from(
    [5e-324, 0.1, 1e-300, 2.2250738585072014e-308, 1 / 30]
) | st.floats(5e-324, 0.1)


@st.composite
def odd_documents(draw):
    """Documents whose labels and names need escaping and whose masses
    include subnormal and inexact values; the rest of each BPA's mass is on
    the whole frame."""
    labels = draw(st.lists(_ODD_TEXTS, min_size=1, max_size=8, unique=True))
    frame = ds.make_frame(labels)
    full = frame.full_mask
    # every set but the whole frame, which takes the rest of the mass
    others = st.lists(st.integers(1, full - 1), max_size=6, unique=True)
    bpas = {}
    for name in draw(st.lists(_ODD_TEXTS, max_size=3, unique=True)):
        masks = draw(others) if full > 1 else []
        masses = draw(st.lists(_SMALL_MASSES, min_size=len(masks), max_size=len(masks)))
        focal = dict(zip(masks, masses))
        focal[full] = 1.0 - math.fsum(masses)
        bpas[name] = ds.MassFunction(frame, focal)
    return ds.BpaDocument(frame, bpas)


class TestDocumentRoundTrip:
    @given(bpa_pairs())
    def test_dumps_loads_identity(self, pair):
        m1, m2 = pair
        doc = ds.BpaDocument(frame=m1.frame, bpas={"m1": m1, "m2": m2})
        again = ds.loads_document(ds.dumps_document(doc))
        assert again.frame == m1.frame
        assert ds.bpa_equal(again.bpa("m1"), m1, tol=0.0)
        assert ds.bpa_equal(again.bpa("m2"), m2, tol=0.0)

    @given(odd_documents())
    def test_dumps_is_json_dumps_of_the_payload(self, doc):
        payload = {
            "frame": list(doc.frame.labels),
            "bpas": [
                {
                    "name": name,
                    "masses": [
                        {"set": list(doc.frame.members(mask)), "mass": value}
                        for mask, value in bpa.items()
                    ],
                }
                for name, bpa in doc.bpas.items()
            ],
        }
        text = ds.dumps_document(doc)
        assert text == json.dumps(payload) + "\n"
        again = ds.loads_document(text)
        assert again.frame == doc.frame and again.names == doc.names


def _assert_valid(m: ds.MassFunction) -> None:
    full = m.frame.full_mask
    for mask, value in m.items():
        assert type(mask) is int and 0 < mask <= full
        assert 0.0 < value < math.inf
    assert abs(math.fsum(m.focal.values()) - 1.0) <= ds.MASS_SUM_ACCEPT_TOL


# Masses that often make a valid BPA, mixed with NaN, infinities, subnormals,
# values near the float limit, an integer beyond it and values that are not
# numbers at all.
_MASSES = st.one_of(
    st.sampled_from(
        [0.0, 0.5, 1.0, math.nan, math.inf, -math.inf, 1.7e308, 10**400,
         "1", None, [1], True]
    ),
    st.floats(allow_nan=True, allow_infinity=True),
)

# Any JSON value: wrong types, unknown labels, NaN and infinities (which
# ``json`` writes as ``NaN``/``Infinity``), integers beyond the float range.
_JSON = st.recursive(
    st.sampled_from([None, True, 0, -1, 2, 10**400, -(10**400), 0.5,
                     math.nan, -math.inf, "", "h1", "zz"]),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.sampled_from(["set", "mass", "name", "x"]), inner, max_size=2),
    max_leaves=4,
)


def _mostly(valid, other=_JSON):
    """``valid`` seven times in eight, ``other`` (any JSON value) otherwise,
    so that most documents get deep enough for the mass rules to run."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else other)


def _fuzzed_documents():
    entry = st.fixed_dictionaries({
        "set": _mostly(
            st.lists(_mostly(st.sampled_from(["h1", "h2", "h3"])), max_size=3)
        ),
        "mass": _mostly(_MASSES),
    })
    bpa = st.fixed_dictionaries({
        "name": _mostly(st.sampled_from(["m1", "m2", "m3"])),
        "masses": _mostly(st.lists(_mostly(entry), min_size=1, max_size=3)),
    })
    root = st.fixed_dictionaries({
        "frame": _mostly(st.just(["h1", "h2", "h3"])),
        "bpas": _mostly(st.lists(_mostly(bpa), min_size=1, max_size=2)),
    })
    return _mostly(root).map(json.dumps)


class TestValidationNeverEscapes:
    @given(
        st.integers(1, 4),
        st.dictionaries(st.integers(-1, 16) | st.booleans(), _MASSES, max_size=4),
    )
    def test_mass_function_valid_or_validation_error(self, size, masses):
        frame = ds.make_frame(LABEL_POOL[:size])
        try:
            m = ds.MassFunction(frame, masses)
        except ds.ValidationError:
            return
        _assert_valid(m)

    @given(
        st.lists(
            st.tuples(
                _mostly(st.lists(_mostly(st.sampled_from(["h1", "h2", "h3"])), max_size=3)),
                _MASSES,
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_make_bpa_valid_or_validation_error(self, assignments):
        frame = ds.make_frame(["h1", "h2", "h3"])
        try:
            m = ds.make_bpa(frame, assignments)
        except ds.ValidationError:
            return
        _assert_valid(m)

    @given(_fuzzed_documents())
    def test_loads_valid_or_document_error(self, text):
        try:
            doc = ds.loads_document(text)
        except ds.DocumentError:
            return
        for m in doc.bpas.values():
            _assert_valid(m)



@st.composite
def _decode_documents(draw):
    """The JSON text of a document with a valid frame and layout whose labels
    repeat within and across sets; in half of them a set member may also be
    any JSON value (unknown, empty, not a string, unhashable)."""
    labels = draw(
        st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=6, unique=True)
    )
    member = st.sampled_from(labels)
    if draw(st.booleans()):
        member = _mostly(member, st.text(max_size=3) | _JSON)
    bpas = []
    for i in range(draw(st.integers(1, 3))):
        sets = draw(st.lists(st.lists(member, min_size=1, max_size=4), min_size=1, max_size=5))
        weights = draw(st.lists(st.integers(1, 99), min_size=len(sets), max_size=len(sets)))
        total = float(sum(weights))
        bpas.append({
            "name": f"m{i}",
            "masses": [{"set": s, "mass": w / total} for s, w in zip(sets, weights)],
        })
    return json.dumps({"frame": labels, "bpas": bpas})


def _plain_load(text: str):
    """``loads`` written from plain ``json.loads`` and ``make_bpa``, for the
    documents of :func:`_decode_documents`: the BPAs by name, or the position
    and message of the first malformed set."""
    payload = json.loads(text)
    frame = ds.make_frame(payload["frame"])
    bpas = {}
    for i, bpa in enumerate(payload["bpas"]):
        for j, entry in enumerate(bpa["masses"]):
            where = f"bpas[{i}].masses[{j}].set"
            for p, member in enumerate(entry["set"]):
                if not (isinstance(member, str) and member):
                    return f"{where}[{p}]", "expected a non-empty string"
            try:
                frame.subset(entry["set"])
            except ds.UnknownLabelError as exc:
                return where, str(exc)
        bpas[bpa["name"]] = ds.make_bpa(
            frame, [(entry["set"], entry["mass"]) for entry in bpa["masses"]]
        )
    return bpas


class TestDocumentDecode:
    """Sharing one string object per distinct label while decoding changes
    nothing ``loads`` returns or reports."""

    @given(_decode_documents())
    def test_loads_matches_plain_decode(self, text):
        want = _plain_load(text)
        try:
            got = ds.loads_document(text)
        except ds.DocumentError as exc:
            assert (exc.where, exc.message) == want
            return
        assert isinstance(want, dict), want
        assert got.frame.labels == tuple(json.loads(text)["frame"])
        assert list(got.bpas) == list(want)
        for name, bpa in got.bpas.items():
            for a, b in zip(bpa.arrays, want[name].arrays):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

def _numbers(lo: int, hi: int):
    """An option value: mostly an integer in [lo, hi], else one far beyond
    every cap or text that is no integer at all (``int`` also reads "5_0"
    and non-ASCII digits, which would not keep the work bounded)."""

    def not_an_int(text: str) -> bool:
        try:
            int(text)
        except ValueError:
            return True
        return False

    return _mostly(
        st.integers(lo, hi).map(str),
        st.integers(10**3, 10**30).map(str) | st.text(max_size=4).filter(not_an_int),
    )


#: BPA names, any of which a document may hold: some begin with "-", some
#: look like an option or hold "="
_ANY_NAMES = st.text(min_size=1, max_size=3) | st.tuples(
    st.sampled_from(["-", "--", "-m=", "--pair"]), st.text(max_size=3)
).map("".join)
_NAMES = _mostly(st.sampled_from(["m1", "m2"]), st.sampled_from(["m3", ""]) | _ANY_NAMES)

#: the tokens that name two BPAs: ``--pair A B``, or ``--bpa=A --bpa=B``
#: (with "=", which takes a name that begins with "-")
_PAIR = st.tuples(_NAMES, _NAMES).flatmap(
    lambda p: st.sampled_from([("--pair", *p), tuple(f"--bpa={n}" for n in p)])
)


#: the document's path, under a directory each example makes
_INPUT = st.just(PurePath("input.json"))

#: each command's options and their values, a tuple for the whole tokens
#: of a pair of names
_OPTIONS = {
    "measure": {
        "--input": _INPUT, "--pair": _PAIR,
        "--epsilon": _mostly(
            st.floats(0, 1).map(repr), st.floats().map(repr) | st.text(max_size=6)
        ),
        "--precision": _numbers(-1, 18),
    },
    "combine": {
        "--input": _INPUT, "--pair": _PAIR,
        "--precision": _numbers(-1, 18),
    },
    "sweep": {"--frame-size": _numbers(-2, 70), "--precision": _numbers(-1, 18)},
    # 51 to 63 pass the frame cap and fail the check's, with no work done
    "gram-check": {"--n": _numbers(-2, 16) | st.integers(51, 63).map(str)},
}


def _pair_document(pair) -> bytes:
    m1, m2 = pair
    doc = ds.BpaDocument(frame=m1.frame, bpas={"m1": m1, "m2": m2})
    return ds.dumps_document(doc).encode()


@st.composite
def cli_calls(draw):
    """An argv for one of the four commands, each option present or not,
    with arbitrary values, and the bytes of its ``--input``: arbitrary, a
    well-shaped document with arbitrary values, or a valid one.  The paths
    of ``--input`` and ``--output`` are relative, as :class:`PurePath`.  An
    option other than ``--output`` may also be ``--opt=--``, which argparse
    reads as no value at all (``--input=--`` names a file "--" in the
    working directory)."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, values in _OPTIONS[command].items():
        if draw(st.integers(0, 7)):  # mostly present
            value = draw(values)
            if isinstance(value, tuple):
                argv += value
            elif draw(st.integers(0, 7)):
                argv += (option, value)
            else:  # argparse reads this as no value at all
                argv.append(f"{option}=--")
    output = draw(st.sampled_from([None, None, "out.txt", "missing/out.txt", "."]))
    if output is not None:
        argv += ["--output", PurePath(output)]
    data = draw(
        st.binary(max_size=200)
        | _fuzzed_documents().map(str.encode)
        | bpa_pairs().map(_pair_document)
    )
    return argv, data


class TestCliBoundary:
    """Every argv and input ends in exit 0 to 3 with no escaping exception:
    1 only with argparse's usage line, 2 and 3 with one ``error:`` line."""

    @given(cli_calls())
    def test_exit_codes_and_messages(self, call):
        template, data = call
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "input.json")
            with open(path, "wb") as handle:
                handle.write(data)
            argv = [
                os.path.join(work, a) if isinstance(a, PurePath) else a
                for a in template
            ]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2, 3)
        if code == 1:
            assert lines[0].startswith("usage: dsconflict")
            assert lines[-1].startswith("dsconflict")
            assert ": error: " in lines[-1]
        elif code in (2, 3):
            assert len(lines) == 1 and lines[0].startswith("error: "), lines

    @given(st.sampled_from(["measure", "combine"]), _ANY_NAMES, single_bpas())
    def test_every_name_reachable(self, command, name, m):
        """``--bpa=NAME`` reaches every name a document may hold."""
        text = ds.dumps_document(ds.BpaDocument(m.frame, {name: m, f"{name}2": m}))
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "input.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            argv = [command, "--input", path, f"--bpa={name}", f"--bpa={name}2"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
        assert code == 0, err.getvalue()
        if command == "measure":
            assert out.getvalue().startswith(f"pair ({name}, {name}2)\n")
        else:
            assert ds.loads_document(out.getvalue()).names == (f"{name}+{name}2",)


@st.composite
def symmetric_int_matrices(draw):
    """Symmetric integer matrices of size 1-6, common factor included.

    Half are shifted random matrices (indefinite or definite), half are Gram
    matrices B'B of small integer vectors, which are singular whenever B has
    fewer independent rows than columns.
    """
    size = draw(st.integers(1, 6))
    if draw(st.booleans()):
        cells = st.integers(-9, 9)
        upper = [[draw(cells) for _ in range(size - i)] for i in range(size)]
        shift = draw(st.integers(0, 30))
        matrix = [
            [upper[min(i, j)][abs(i - j)] for j in range(size)] for i in range(size)
        ]
        for i in range(size):
            matrix[i][i] += shift
    else:
        rows = draw(st.integers(1, 6))
        b = [[draw(st.integers(-3, 3)) for _ in range(size)] for _ in range(rows)]
        matrix = [
            [sum(r[i] * r[j] for r in b) for j in range(size)] for i in range(size)
        ]
    factor = draw(st.integers(1, 10**6))
    return [[factor * v for v in row] for row in matrix]


class TestExactPositiveDefinite:
    @given(symmetric_int_matrices())
    def test_agrees_with_fraction_minors(self, matrix):
        original = [row[:] for row in matrix]
        want = all(minor > 0 for minor in oracles.leading_minors(matrix))
        assert _positive_definite(matrix) is want
        assert matrix == original
