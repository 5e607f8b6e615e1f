"""Unit tests for the pairwise measures, pinned to reference values."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import dsconflict as ds
import oracles
from dsconflict.fusion import _focal_arrays
from dsconflict.measures import _gram_blocks, _positive_definite, _song_inners
from generators import random_bpa


@pytest.fixture
def frame4():
    return ds.make_frame(["A1", "A2", "A3", "A4"])


@pytest.fixture
def pair1(frame4):
    m1 = ds.make_bpa(frame4, [(["A1", "A2"], 0.9), (["A3"], 0.1)])
    m2 = ds.make_bpa(frame4, [(["A3"], 0.1), (["A4"], 0.9)])
    return m1, m2


@pytest.fixture
def pair1_revised(frame4):
    m1 = ds.make_bpa(frame4, [(["A1", "A2"], 1.0)])
    m2 = ds.make_bpa(frame4, [(["A4"], 1.0)])
    return m1, m2


@pytest.fixture
def frame6():
    return ds.make_frame(["A1", "A2", "A3", "A4", "A5", "A6"])


@pytest.fixture
def uniform_pair():
    frame = ds.make_frame(["A1", "A2", "A3", "A4", "A5"])
    m1 = ds.make_bpa(frame, [([f"A{i}"], 0.2) for i in range(1, 6)])
    m2 = ds.make_bpa(frame, [([f"A{i}"], 0.2) for i in range(1, 6)])
    return m1, m2


class TestJaccard:
    def test_values(self):
        assert ds.jaccard(0b0011, 0b0110) == 1 / 3
        assert ds.jaccard(0b01, 0b01) == 1.0
        assert ds.jaccard(0b01, 0b10) == 0.0

    def test_one_empty_side(self):
        assert ds.jaccard(0, 0b111) == 0.0
        assert ds.jaccard(0b1, 0) == 0.0

    def test_both_empty(self):
        with pytest.raises(ds.BothEmptyError):
            ds.jaccard(0, 0)


class TestCorrelation:
    def test_degree_values(self, pair1):
        m1, m2 = pair1
        # cross degree: only the {A3} x {A3} pair intersects
        assert abs(ds.correlation_degree(m1, m2) - 0.01) <= 1e-12
        # self degree of m1: 0.81 + 0.01 + 2 * (0.9 * 0.1 * 0)
        assert abs(ds.correlation_degree(m1, m1) - 0.82) <= 1e-12

    def test_coefficient_example(self, pair1):
        m1, m2 = pair1
        r = ds.correlation_coefficient(m1, m2)
        assert abs(r - 0.0122) < 5e-5
        assert abs(r - 0.01 / math.sqrt(0.82 * 0.82)) <= 1e-12

    def test_conflict_kr_example(self, pair1):
        m1, m2 = pair1
        assert abs(ds.conflict_kr(m1, m2) - 0.9878) < 5e-5

    def test_revised_pair_fully_uncorrelated(self, pair1_revised):
        m1, m2 = pair1_revised
        assert ds.correlation_coefficient(m1, m2) == 0.0
        assert ds.conflict_kr(m1, m2) == 1.0

    def test_identical_bpas(self, uniform_pair):
        m1, m2 = uniform_pair
        assert abs(ds.correlation_coefficient(m1, m2) - 1.0) <= 1e-12
        assert abs(ds.conflict_kr(m1, m2)) <= 1e-12

    def test_matches_dense_oracle(self, pair1):
        m1, m2 = pair1
        assert abs(
            ds.correlation_degree(m1, m2) - oracles.correlation_degree(m1, m2)
        ) <= 1e-12

    def test_frame_mismatch(self):
        m1 = ds.vacuous_bpa(ds.make_frame(["a"]))
        m2 = ds.vacuous_bpa(ds.make_frame(["b"]))
        with pytest.raises(ds.FrameMismatchError):
            ds.correlation_coefficient(m1, m2)


class TestJousselme:
    def test_example_value(self, pair1):
        m1, m2 = pair1
        assert abs(ds.jousselme_distance(m1, m2) - 0.9) < 5e-5

    def test_revised_maximal(self, pair1_revised):
        m1, m2 = pair1_revised
        assert ds.jousselme_distance(m1, m2) == 1.0

    def test_identical_zero(self, uniform_pair):
        m1, m2 = uniform_pair
        assert ds.jousselme_distance(m1, m2) == 0.0

    def test_categorical_overlap(self, frame4):
        # disjoint singletons: d = sqrt((1 + 1 - 0) / 2) = 1
        m1 = ds.make_bpa(frame4, [(["A1"], 1.0)])
        m2 = ds.make_bpa(frame4, [(["A2"], 1.0)])
        assert ds.jousselme_distance(m1, m2) == 1.0
        # nested sets: d^2 = (1 + 1 - 2 * 1/2) / 2
        m3 = ds.make_bpa(frame4, [(["A1", "A2"], 1.0)])
        assert abs(ds.jousselme_distance(m1, m3) - math.sqrt(0.5)) <= 1e-12


class TestPignistic:
    def test_example(self, pair1):
        m1, _ = pair1
        betp = ds.pignistic(m1)
        assert betp.probabilities == (0.45, 0.45, 0.1, 0.0)
        assert betp.probability("A3") == 0.1
        assert betp.as_dict()["A1"] == 0.45

    def test_vacuous_is_uniform(self, frame4):
        betp = ds.pignistic(ds.vacuous_bpa(frame4))
        assert betp.probabilities == (0.25, 0.25, 0.25, 0.25)

    def test_bayesian_is_identity(self, frame4):
        m = ds.make_bpa(frame4, [(["A1"], 0.7), (["A4"], 0.3)])
        assert ds.pignistic(m).probabilities == (0.7, 0.0, 0.0, 0.3)

    def test_sums_to_one(self, pair1):
        m1, m2 = pair1
        for m in (m1, m2):
            assert abs(math.fsum(ds.pignistic(m).probabilities) - 1.0) <= 1e-9


class TestDifBetp:
    def test_example(self, pair1):
        m1, m2 = pair1
        assert abs(ds.dif_betp(m1, m2) - 0.9) <= 1e-12

    def test_matches_brute_force(self, pair1):
        m1, m2 = pair1
        assert abs(
            ds.dif_betp(m1, m2) - oracles.dif_betp_brute(m1, m2)
        ) <= 1e-12

    def test_identical_zero(self, uniform_pair):
        m1, m2 = uniform_pair
        assert ds.dif_betp(m1, m2) == 0.0


class TestLiu:
    def test_example1_in_conflict(self, pair1):
        m1, m2 = pair1
        verdict = ds.liu_cf(m1, m2, 0.5)
        assert verdict.in_conflict
        assert abs(verdict.k - 0.99) < 5e-5
        assert abs(verdict.dif_betp - 0.9) < 5e-5
        assert verdict.epsilon == 0.5

    def test_identical_not_in_conflict(self, uniform_pair):
        m1, m2 = uniform_pair
        verdict = ds.liu_cf(m1, m2, 0.5)
        assert not verdict.in_conflict
        assert abs(verdict.k - 0.8) <= 1e-12
        assert verdict.dif_betp == 0.0

    def test_one_sided_exceedance_is_not_conflict(self, frame4):
        # high k, zero difBetP: Liu's model says "not in conflict"
        m1 = ds.make_bpa(frame4, [(["A1"], 0.5), (["A2"], 0.5)])
        verdict = ds.liu_cf(m1, m1, 0.4)
        assert verdict.k == 0.5 and verdict.dif_betp == 0.0
        assert not verdict.in_conflict

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_bad_threshold(self, pair1, epsilon):
        m1, m2 = pair1
        with pytest.raises(ds.BadThresholdError):
            ds.liu_cf(m1, m2, epsilon)


class TestSongCor:
    def test_example1(self, pair1):
        m1, m2 = pair1
        assert abs(ds.song_cor(m1, m2) - 0.3668) < 5e-5

    def test_example1_revised(self, pair1_revised):
        m1, m2 = pair1_revised
        assert abs(ds.song_cor(m1, m2) - 0.3229) < 5e-5

    def test_depends_on_frame_size(self, frame6):
        # the same focal structure scores differently on a wider frame,
        # so reference values must state their frame
        m1 = ds.make_bpa(frame6, [(["A1"], 0.5), (["A2"], 0.5)])
        m2 = ds.make_bpa(frame6, [(["A3"], 0.5), (["A4"], 0.5)])
        got = ds.song_cor(m1, m2)
        assert abs(got - oracles.song_cor(m1, m2)) <= 1e-12
        assert abs(got - 0.4595857026807474) <= 1e-9

    def test_table_pair_on_six_hypotheses(self, frame6):
        third = 1 / 3
        m3 = ds.make_bpa(frame6, [([f"A{i}"], third) for i in (1, 2, 3)])
        m4 = ds.make_bpa(frame6, [([f"A{i}"], third) for i in (4, 5, 6)])
        assert abs(ds.song_cor(m3, m4) - 0.5606) < 5e-5

    def test_self_is_one(self, pair1):
        m1, _ = pair1
        assert abs(ds.song_cor(m1, m1) - 1.0) <= 1e-12

    def test_wide_frames(self):
        # no frame cap: 25 and 63 hypotheses, beyond any power-set enumeration
        for n in (25, 63):
            frame = ds.make_frame(f"h{i}" for i in range(n))
            vacuous = ds.vacuous_bpa(frame)
            m = ds.make_bpa(frame, [(["h0"], 0.5), (["h1", f"h{n - 1}"], 0.5)])
            assert abs(ds.song_cor(vacuous, vacuous) - 1.0) <= 1e-12
            assert abs(ds.song_cor(m, m) - 1.0) <= 1e-12
            got = ds.song_cor(m, vacuous)
            assert 0.0 < got < 1.0
            assert got == ds.song_cor(vacuous, m)

    def test_chunking_is_consistent(self):
        # frame large enough to span several internal chunks
        frame = ds.make_frame(f"h{i}" for i in range(18))
        m1 = ds.make_bpa(frame, [(["h0", "h1"], 0.6), (["h2"], 0.4)])
        m2 = ds.make_bpa(frame, [(["h1"], 0.5), (frame.labels, 0.5)])
        got = ds.song_cor(m1, m2)
        assert 0.0 <= got <= 1.0
        # restricting to one chunk must agree: recompute on 16 labels
        # is not equivalent, so instead check symmetry and self-consistency
        assert got == ds.song_cor(m2, m1)


class TestSongClosedForm:
    """Song's inner products against exact rational sums over B."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_block_oracle_matches_enumeration(self, n):
        for p in range(n + 1):
            for j in range(n - p + 1):
                for k in range(n - p - j + 1):
                    if p + j and p + k:  # A and C nonempty
                        want = oracles.song_block_sum_brute(p, j, k, n - p - j - k)
                        assert oracles.song_block_sum(p, j, k, n - p - j - k) == want

    @pytest.mark.parametrize("n", [30, 63])
    def test_pair_sums_match_exact_oracle(self, n):
        rng = random.Random(f"song:{n}")
        frame = ds.make_frame(f"h{i}" for i in range(n))
        m1, m2 = random_bpa(rng, frame, 6), random_bpa(rng, frame, 6)
        x, y = _focal_arrays(m1.focal), _focal_arrays(m2.focal)
        sums = _song_inners(((x, y), (x, x), (y, y), (y, x)), n)
        for got, (a, b) in zip(sums, ((m1, m2), (m1, m1), (m2, m2), (m2, m1))):
            want = float(oracles.song_inner_exact(a, b))
            assert abs(got - want) <= 1e-12 * want


class TestGram:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_positive_definite_small(self, n):
        frame = ds.make_frame(f"h{i}" for i in range(n))
        assert ds.gram_positive_definite(frame)
        assert oracles.gram_min_eigenvalue(n) > 0.0

    def test_cap(self):
        frame = ds.make_frame(f"h{i}" for i in range(ds.GRAM_MAX_FRAME + 1))
        with pytest.raises(ds.FrameTooLargeForCheckError):
            ds.gram_positive_definite(frame)

    def test_largest_supported_frame(self):
        frame = ds.make_frame(f"h{i}" for i in range(ds.GRAM_MAX_FRAME))
        assert ds.gram_positive_definite(frame)

    def test_every_supported_frame(self):
        for n in range(1, ds.GRAM_MAX_FRAME):
            assert ds.gram_positive_definite(ds.make_frame(f"h{i}" for i in range(n)))


class TestGramBlocks:
    """The integer symmetry blocks behind the Gram check, and its elimination."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_blocks_equal_literal_beta_form(self, n):
        scale = math.lcm(*range(1, 2 * n + 1))
        blocks = [
            [[Fraction(v, scale) for v in row] for row in block]
            for block in _gram_blocks(n)
        ]
        assert blocks == oracles.gram_blocks_beta(n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_block_spectrum_equals_dense_spectrum(self, n):
        scale = math.lcm(*range(1, 2 * n + 1))
        spectrum = []
        for k, block in enumerate(_gram_blocks(n)):
            rows = range(max(k, 1), n - k + 1)
            norm = [math.sqrt(math.comb(n - 2 * k, i - k)) for i in rows]
            normalised = np.array([
                [float(Fraction(v, scale)) / (norm[a] * norm[b])
                 for b, v in enumerate(row)]
                for a, row in enumerate(block)
            ])
            multiplicity = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            spectrum += list(np.linalg.eigvalsh(normalised)) * multiplicity
        dense = np.linalg.eigvalsh(oracles.jaccard_matrix(n))
        assert len(spectrum) == len(dense) == 2 ** n - 1
        assert np.max(np.abs(np.sort(spectrum) - dense)) <= 1e-12

    def test_rejects_indefinite(self):
        assert not _positive_definite([[1, 2], [2, 1]])

    def test_rejects_singular(self):
        assert not _positive_definite([[1, 1, 1], [1, 1, 1], [1, 1, 1]])

    def test_rejects_zero(self):
        assert not _positive_definite([[0, 0], [0, 0]])

    def test_accepts_positive_definite(self):
        assert _positive_definite([[2, 1], [1, 2]])


class TestConflictReport:
    def test_composition(self, pair1):
        m1, m2 = pair1
        report = ds.conflict_report(m1, m2, epsilon=0.5)
        assert report.k == ds.conflict_k(m1, m2)
        assert report.d_bba == ds.jousselme_distance(m1, m2)
        assert report.dif_betp == ds.dif_betp(m1, m2)
        assert report.cor == ds.song_cor(m1, m2)
        assert report.r_bpa == ds.correlation_coefficient(m1, m2)
        assert report.k_r == 1.0 - report.r_bpa  # exact complement
        assert report.liu is not None and report.liu.in_conflict

    def test_liu_omitted_without_threshold(self, pair1):
        m1, m2 = pair1
        assert ds.conflict_report(m1, m2).liu is None

    def test_cor_omitted_on_large_frame(self):
        frame = ds.make_frame(f"h{i}" for i in range(30))
        m1 = ds.make_bpa(frame, [(["h0"], 0.5), (["h1", "h2"], 0.5)])
        m2 = ds.make_bpa(frame, [(["h2"], 1.0)])
        report = ds.conflict_report(m1, m2)
        assert report.cor is None
        assert 0.0 <= report.r_bpa <= 1.0

    def test_self_report(self, pair1):
        m1, _ = pair1
        report = ds.conflict_report(m1, m1)
        assert report.k_r == 0.0
        assert report.d_bba == 0.0
        assert report.dif_betp == 0.0

    def test_to_dict_round_trips_fields(self, pair1):
        m1, m2 = pair1
        payload = ds.conflict_report(m1, m2, epsilon=0.5).to_dict()
        assert payload["k_r"] == 1.0 - payload["r_bpa"]
        assert payload["liu"]["in_conflict"] is True

    def test_bad_threshold(self, pair1):
        m1, m2 = pair1
        with pytest.raises(ds.BadThresholdError):
            ds.conflict_report(m1, m2, epsilon=1.0)

    @pytest.mark.parametrize("epsilon", ["0.5", "x", [0.5], True])
    def test_threshold_that_is_not_a_number(self, pair1, epsilon):
        m1, m2 = pair1
        with pytest.raises(ds.BadThresholdError, match="not a number"):
            ds.conflict_report(m1, m2, epsilon)
        with pytest.raises(ds.BadThresholdError, match="not a number"):
            ds.liu_cf(m1, m2, epsilon)
