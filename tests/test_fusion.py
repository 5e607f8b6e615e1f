"""Dempster's rule and the classical conflict coefficient."""

import math

import pytest

import dsconflict as ds
import oracles


@pytest.fixture
def frame():
    return ds.make_frame(["A1", "A2", "A3", "A4"])


@pytest.fixture
def highly_conflicting_pair(frame):
    m1 = ds.make_bpa(frame, [(["A1", "A2"], 0.9), (["A3"], 0.1)])
    m2 = ds.make_bpa(frame, [(["A3"], 0.1), (["A4"], 0.9)])
    return m1, m2


def test_conflict_k_value(highly_conflicting_pair):
    m1, m2 = highly_conflicting_pair
    assert abs(ds.conflict_k(m1, m2) - 0.99) < 1e-12


def test_conflict_k_symmetry(highly_conflicting_pair):
    m1, m2 = highly_conflicting_pair
    assert ds.conflict_k(m1, m2) == ds.conflict_k(m2, m1)


def test_conflict_k_complement_identity(highly_conflicting_pair):
    # k plus the non-conflicting product mass is the full product mass, 1.
    m1, m2 = highly_conflicting_pair
    agree = math.fsum(
        v1 * v2
        for a, v1 in m1.items()
        for b, v2 in m2.items()
        if a & b != 0
    )
    assert abs(ds.conflict_k(m1, m2) + agree - 1.0) <= 1e-12


def test_combine_normalizes_surviving_mass(highly_conflicting_pair):
    m1, m2 = highly_conflicting_pair
    result = ds.combine_dempster(m1, m2)
    assert abs(result.k - 0.99) < 1e-12
    # only {A3} survives, so all mass lands there despite k = 0.99
    assert set(result.combined.focal) == {0b0100}
    assert math.isclose(result.combined.mass(0b0100), 1.0, abs_tol=1e-9)


def test_combine_mass_sums_to_one(frame):
    m1 = ds.make_bpa(frame, [(["A1", "A2"], 0.6), (["A2", "A3"], 0.4)])
    m2 = ds.make_bpa(frame, [(["A2"], 0.3), (["A1", "A3"], 0.7)])
    combined = ds.combine_dempster(m1, m2).combined
    assert abs(math.fsum(combined.focal.values()) - 1.0) <= 1e-9


def test_total_conflict_raises(frame):
    m1 = ds.make_bpa(frame, [(["A1", "A2"], 1.0)])
    m2 = ds.make_bpa(frame, [(["A4"], 1.0)])
    with pytest.raises(ds.TotalConflictError) as info:
        ds.combine_dempster(m1, m2)
    assert info.value.k == 1.0
    assert "1.0" in str(info.value)


def test_near_total_conflict_raises(frame):
    # surviving mass 1e-13 is below the 1e-12 normalization floor
    m1 = ds.make_bpa(frame, [(["A1"], 1.0 - 1e-13), (["A2"], 1e-13)])
    m2 = ds.make_bpa(frame, [(["A2"], 1.0)])
    with pytest.raises(ds.TotalConflictError):
        ds.combine_dempster(m1, m2)


def test_inputs_summing_to_one_within_tolerance_combine_to_one():
    # both inputs are accepted as they stand, but m1 sums to 1 + 4e-10; under
    # k close to 1, dividing by 1 - k would leave the result 2e-3 off 1
    frame = ds.make_frame(["a", "b"])
    m1 = ds.MassFunction(frame, {0b01: 1 - 1e-7 + 4e-10, 0b11: 1e-7})
    m2 = ds.MassFunction(frame, {0b10: 1 - 1e-7, 0b11: 1e-7})
    result = ds.combine_dempster(m1, m2)
    assert abs(math.fsum(result.combined.focal.values()) - 1.0) <= 1e-9
    assert (result.k, dict(result.combined.items())) == oracles.sparse_dempster(m1, m2)


def test_vacuous_is_neutral_when_masses_sum_below_one():
    # these masses fsum to 1 - 2**-53: dividing by that sum, rather than by
    # 1 - k = 1, would change them
    frame = ds.make_frame(["h1", "h2", "h3"])
    m = ds.MassFunction(frame, {0b001: 0.008, 0b010: 0.088, 0b011: 0.208, 0b100: 0.696})
    assert math.fsum(m.focal.values()) < 1.0
    for result in (ds.combine_dempster(m, ds.vacuous_bpa(frame)),
                   ds.combine_dempster(ds.vacuous_bpa(frame), m)):
        assert dict(result.combined.items()) == dict(m.items())


def test_underflowed_group_is_dropped(frame):
    # 1e-170 * 1e-170 underflows to 0.0, the only product landing on {A2}
    m1 = ds.MassFunction(frame, {0b0011: 1e-170, frame.full_mask: 1.0})
    m2 = ds.MassFunction(frame, {0b0110: 1e-170, frame.full_mask: 1.0})
    combined = ds.combine_dempster(m1, m2).combined
    assert set(combined.focal) == {0b0011, 0b0110, frame.full_mask}
    assert all(value > 0.0 for value in combined.focal.values())


def test_vacuous_is_neutral(frame):
    m = ds.make_bpa(frame, [(["A1", "A2"], 0.9), (["A3"], 0.1)])
    result = ds.combine_dempster(m, ds.vacuous_bpa(frame))
    assert result.k == 0.0
    assert ds.bpa_equal(result.combined, m, tol=1e-12)


def test_commutative(frame):
    m1 = ds.make_bpa(frame, [(["A1", "A2"], 0.6), (["A2", "A3"], 0.4)])
    m2 = ds.make_bpa(frame, [(["A2"], 0.3), (["A1", "A3"], 0.7)])
    left = ds.combine_dempster(m1, m2)
    right = ds.combine_dempster(m2, m1)
    assert left.k == right.k
    assert ds.bpa_equal(left.combined, right.combined, tol=1e-12)


def test_frame_mismatch(frame):
    other = ds.make_frame(["B1", "B2"])
    with pytest.raises(ds.FrameMismatchError):
        ds.conflict_k(ds.vacuous_bpa(frame), ds.vacuous_bpa(other))
    with pytest.raises(ds.FrameMismatchError):
        ds.combine_dempster(ds.vacuous_bpa(frame), ds.vacuous_bpa(other))


def test_bayesian_self_combination(frame):
    # repeated evidence sharpens the stronger hypothesis
    m = ds.make_bpa(frame, [(["A1"], 0.7), (["A2"], 0.3)])
    combined = ds.combine_dempster(m, m).combined
    assert combined.mass(0b0001) > 0.7
    assert abs(combined.mass(0b0001) - 0.49 / 0.58) <= 1e-12