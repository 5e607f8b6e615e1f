"""Property-based tests (hypothesis).

Complements the seeded 1000-instance loops in the acceptance suite with
shrinking counterexamples.  Masses are ratios of integers in [1, 99] so
distinct BPAs stay well separated from floating-point noise.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dsconflict as ds
import oracles
from dsconflict.measures import _positive_definite
from generators import LABEL_POOL

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


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


class TestDocumentRoundTrip:
    @given(bpa_pairs())
    def test_dumps_loads_identity(self, pair):
        m1, m2 = pair
        doc = ds.BpaDocument(frame=m1.frame, bpas={"m1": m1, "m2": m2})
        again = ds.loads_document(ds.dumps_document(doc))
        assert again.frame == m1.frame
        assert ds.bpa_equal(again.bpa("m1"), m1, tol=0.0)
        assert ds.bpa_equal(again.bpa("m2"), m2, tol=0.0)


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


def _mostly(valid):
    """``valid`` seven times in eight, any JSON value otherwise, so that most
    documents get deep enough for the mass rules to run."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else _JSON)


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

    @given(_fuzzed_documents())
    def test_loads_valid_or_document_error(self, text):
        try:
            doc = ds.loads_document(text)
        except ds.DocumentError:
            return
        for m in doc.bpas.values():
            _assert_valid(m)


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
