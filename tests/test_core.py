"""Frames, subset masks, and BPA construction."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import dsconflict as ds


class TestFrame:
    def test_labels_and_size(self):
        frame = ds.make_frame(["a", "b", "c"])
        assert frame.labels == ("a", "b", "c")
        assert frame.size == 3
        assert frame.full_mask == 0b111

    def test_empty_frame_rejected(self):
        with pytest.raises(ds.EmptyFrameError):
            ds.make_frame([])

    def test_duplicate_label_rejected(self):
        with pytest.raises(ds.DuplicateLabelError):
            ds.make_frame(["a", "b", "a"])

    def test_blank_label_rejected(self):
        with pytest.raises(ds.UnknownLabelError):
            ds.make_frame(["a", ""])

    def test_size_cap(self):
        ds.make_frame(f"h{i}" for i in range(63))  # at the cap: fine
        with pytest.raises(ds.FrameTooLargeError):
            ds.make_frame(f"h{i}" for i in range(64))

    def test_numbered_frame_size_checked_before_labels_are_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ds.FrameTooLargeError, match="1000000 labels"):
                ds.sweep_frame(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_value_equality(self):
        assert ds.make_frame(["a", "b"]) == ds.make_frame(["a", "b"])
        assert ds.make_frame(["a", "b"]) != ds.make_frame(["b", "a"])

    def test_full_mask_at_the_cap(self):
        frame = ds.make_frame(f"h{i}" for i in range(63))
        assert frame.full_mask == (1 << 63) - 1
        assert hash(frame) == hash(ds.make_frame(f"h{i}" for i in range(63)))

    def test_index_unknown_label(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnknownLabelError):
            frame.index("z")


class TestSubsets:
    def test_parse_and_render_roundtrip(self):
        frame = ds.make_frame(["a", "b", "c", "d"])
        mask = frame.subset(["d", "b"])
        assert mask == 0b1010
        assert frame.members(mask) == ("b", "d")

    def test_parse_unknown_label(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnknownLabelError):
            frame.subset(["a", "nope"])

    @pytest.mark.parametrize(
        "resolve",
        [
            lambda frame: frame.subset([["a"]]),
            lambda frame: frame.index(["a"]),
            lambda frame: ds.make_bpa(frame, [([["a"]], 1.0)]),
            lambda frame: frame.subset(7),
        ],
        ids=["subset", "index", "make_bpa", "not-iterable"],
    )
    def test_unhashable_label_is_unknown(self, resolve):
        # an unhashable label used to escape as a bare TypeError
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnknownLabelError, match="is not part of the frame"):
            resolve(frame)

    def test_index_from_the_label_table(self):
        frame = ds.make_frame(["a", "b", "c"])
        assert [frame.index(label) for label in "abc"] == [0, 1, 2]

    def test_render_out_of_range_mask(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnknownLabelError):
            frame.members(0b100)

    def test_set_to_text(self):
        frame = ds.make_frame(["a", "b"])
        assert ds.set_to_text(frame, 0b01) == "{a}"
        assert ds.set_to_text(frame, 0b11) == "Theta"
        assert ds.set_to_text(frame, 0) == "{}"


class TestMakeBpa:
    def setup_method(self):
        self.frame = ds.make_frame(["a", "b", "c"])

    def test_basic(self):
        m = ds.make_bpa(self.frame, [(["a", "b"], 0.9), (["c"], 0.1)])
        assert m.mass(0b011) == 0.9
        assert m.mass(0b100) == 0.1
        assert m.mass(0b001) == 0.0
        assert len(m) == 2

    def test_duplicates_merged(self):
        m = ds.make_bpa(
            self.frame, [(["a"], 0.2), (["a"], 0.3), (["b", "c"], 0.5)]
        )
        assert m.mass(0b001) == 0.5
        assert len(m) == 2

    def test_zero_mass_dropped(self):
        m = ds.make_bpa(self.frame, [(["a"], 1.0), (["b"], 0.0)])
        assert len(m) == 1
        assert 0b010 not in m.focal

    def test_zero_mass_on_empty_set_dropped(self):
        m = ds.make_bpa(self.frame, [(["a"], 1.0), ([], 0.0)])
        assert len(m) == 1

    def test_negative_mass(self):
        with pytest.raises(ds.NegativeMassError):
            ds.make_bpa(self.frame, [(["a"], 1.2), (["b"], -0.2)])

    def test_empty_set_mass(self):
        with pytest.raises(ds.EmptySetMassError):
            ds.make_bpa(self.frame, [([], 0.5), (["a"], 0.5)])

    def test_unknown_label(self):
        with pytest.raises(ds.UnknownLabelError):
            ds.make_bpa(self.frame, [(["z"], 1.0)])

    def test_nan_mass(self):
        with pytest.raises(ds.NegativeMassError, match="not a finite number"):
            ds.make_bpa(self.frame, [(["a"], math.nan), (["b"], 1.0)])

    @pytest.mark.parametrize("bad", [[1], None, "1"], ids=["list", "none", "str"])
    def test_non_number_mass(self, bad):
        with pytest.raises(ds.NegativeMassError, match="is not a number"):
            ds.make_bpa(self.frame, [(["a"], bad)])

    def test_sum_within_accept_band_kept_raw(self):
        masses = [(["a"], 0.5), (["b"], 0.5 + 4e-10)]
        m = ds.make_bpa(self.frame, masses)
        assert m.mass(0b010) == 0.5 + 4e-10  # not rescaled

    def test_sum_within_renormalize_band_rescaled(self):
        m = ds.make_bpa(self.frame, [(["a"], 0.5), (["b"], 0.5 + 3e-7)])
        assert math.isclose(
            math.fsum(m.focal.values()), 1.0, rel_tol=0, abs_tol=1e-12
        )

    def test_sum_too_far_off_rejected(self):
        with pytest.raises(ds.UnnormalizedMassError):
            ds.make_bpa(self.frame, [(["a"], 0.5), (["b"], 0.6)])
        with pytest.raises(ds.UnnormalizedMassError):
            ds.make_bpa(self.frame, [(["a"], 0.5), (["b"], 0.4999)])


class TestMassFunction:
    def test_constructor_strict_sum(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnnormalizedMassError):
            ds.MassFunction(frame, {0b01: 0.5, 0b10: 0.5 + 1e-7})

    def test_constructor_rejects_empty_set(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.EmptySetMassError):
            ds.MassFunction(frame, {0: 0.5, 0b11: 0.5})

    def test_constructor_rejects_negative(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.NegativeMassError):
            ds.MassFunction(frame, {0b01: 1.5, 0b10: -0.5})

    def test_constructor_rejects_foreign_mask(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnknownLabelError):
            ds.MassFunction(frame, {0b101: 1.0})

    def test_constructor_rejects_bool_mask(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnknownLabelError):
            ds.MassFunction(frame, {True: 1.0})

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge-int"]
    )
    def test_constructor_rejects_non_finite(self, bad):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.NegativeMassError, match="not a finite number"):
            ds.MassFunction(frame, {0b01: bad, 0b10: 1.0})

    @pytest.mark.parametrize(
        "bad", ["1", None, [1], True], ids=["str", "none", "list", "bool"]
    )
    def test_constructor_rejects_non_number(self, bad):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.NegativeMassError, match="is not a number"):
            ds.MassFunction(frame, {0b11: bad})

    def test_constructor_accepts_real_numbers(self):
        frame = ds.make_frame(["a", "b"])
        m = ds.MassFunction(frame, {0b01: Fraction(1, 4), 0b10: 3 / 4})
        assert m.mass(0b01) == 0.25 and type(m.mass(0b01)) is float

    def test_constructor_rejects_overflowing_sum(self):
        frame = ds.make_frame(["a", "b"])
        with pytest.raises(ds.UnnormalizedMassError):
            ds.MassFunction(frame, {0b01: 1e308, 0b10: 1e308})

    def test_focal_elements_in_ascending_mask_order(self):
        frame = ds.make_frame(["a", "b", "c"])
        m = ds.MassFunction(frame, {0b100: 0.5, 0b001: 0.25, 0b011: 0.25})
        assert list(m) == list(m.focal) == [0b001, 0b011, 0b100]
        assert list(m.items()) == [(0b001, 0.25), (0b011, 0.25), (0b100, 0.5)]
        masks, masses = m.arrays
        assert masks.dtype == np.uint64 and masses.dtype == np.float64
        assert masks.tolist() == [0b001, 0b011, 0b100]
        assert masses.tolist() == [0.25, 0.25, 0.5]
        with pytest.raises(ValueError):
            masses[0] = 1.0  # read-only
        assert repr(m) == "MassFunction({a}: 0.25, {a, b}: 0.25, {c}: 0.5)"

    def test_focal_view_is_readonly(self):
        frame = ds.make_frame(["a", "b"])
        m = ds.MassFunction(frame, {0b11: 1.0})
        with pytest.raises(TypeError):
            m.focal[0b01] = 0.5  # type: ignore[index]

    def test_classification_helpers(self):
        frame = ds.make_frame(["a", "b", "c"])
        bayesian = ds.make_bpa(frame, [(["a"], 0.4), (["b"], 0.6)])
        assert bayesian.is_bayesian() and not bayesian.is_vacuous()
        vac = ds.vacuous_bpa(frame)
        assert vac.is_vacuous() and not vac.is_bayesian()
        assert vac.mass(frame.full_mask) == 1.0

    def test_repr_mentions_focal_sets(self):
        frame = ds.make_frame(["a", "b"])
        m = ds.make_bpa(frame, [(["a"], 0.25), (["a", "b"], 0.75)])
        text = repr(m)
        assert "{a}" in text and "Theta" in text


class TestBpaEqual:
    def test_equal_and_tolerance(self):
        frame = ds.make_frame(["a", "b"])
        m1 = ds.make_bpa(frame, [(["a"], 0.5), (["b"], 0.5)])
        m2 = ds.make_bpa(frame, [(["a"], 0.5 + 1e-13), (["b"], 0.5 - 1e-13)])
        m3 = ds.make_bpa(frame, [(["a"], 0.6), (["b"], 0.4)])
        assert ds.bpa_equal(m1, m2)
        assert not ds.bpa_equal(m1, m3)
        assert ds.bpa_equal(m1, m3, tol=0.2)

    def test_different_support(self):
        frame = ds.make_frame(["a", "b"])
        m1 = ds.make_bpa(frame, [(["a"], 1.0)])
        m2 = ds.make_bpa(frame, [(["a", "b"], 1.0)])
        assert not ds.bpa_equal(m1, m2)

    def test_different_frames_never_equal(self):
        m1 = ds.vacuous_bpa(ds.make_frame(["a", "b"]))
        m2 = ds.vacuous_bpa(ds.make_frame(["a", "c"]))
        assert not ds.bpa_equal(m1, m2)

    @pytest.mark.parametrize(
        "tol", [float("nan"), -1e-12, -1.0, float("inf"), True, False, "0.1", None],
        ids=["nan", "negative", "minus-one", "inf", "true", "false", "str", "none"],
    )
    def test_bad_tolerance_rejected(self, tol):
        frame = ds.make_frame(["a", "b"])
        m1 = ds.make_bpa(frame, [(["a"], 1.0)])
        m2 = ds.make_bpa(frame, [(["b"], 1.0)])
        with pytest.raises(ds.BadThresholdError):
            ds.bpa_equal(m1, m2, tol)
        with pytest.raises(ds.BadThresholdError):
            ds.bpa_equal(m1, m1, tol)

    def test_zero_and_integer_tolerances(self):
        frame = ds.make_frame(["a", "b"])
        m1 = ds.make_bpa(frame, [(["a"], 1.0)])
        m2 = ds.make_bpa(frame, [(["b"], 1.0)])
        assert ds.bpa_equal(m1, m1, 0)
        assert ds.bpa_equal(m1, m1, -0.0)
        assert not ds.bpa_equal(m1, m2, 0.0)
        assert ds.bpa_equal(m1, m2, 1)
