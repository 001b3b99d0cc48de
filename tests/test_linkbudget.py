from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from grayspace.errors import DomainError
from grayspace.linkbudget import (
    FCC,
    FIXED_4W,
    OFCOM,
    PORTABLE_100MW,
    DeviceProfile,
    ProtectionCriteria,
    eirp_to_field_strength,
    max_cr_field_at_receiver,
    min_required_loss,
    quantize_cells,
    quantize_distance,
    separation_report,
    verify_margin,
)
from grayspace.propagation import ENVIRONMENTS, HataParams

LINK_FIXED = separation_report(FIXED_4W, OFCOM, 650.0, "suburban")


class TestFieldStrength:
    def test_one_watt_reference(self):
        assert eirp_to_field_strength(1000.0) == pytest.approx(134.8, abs=1e-12)

    def test_four_watts(self):
        assert eirp_to_field_strength(4000.0) == pytest.approx(
            140.82059991327964, rel=1e-12
        )

    def test_hundred_milliwatts(self):
        assert eirp_to_field_strength(100.0) == pytest.approx(124.8, abs=1e-12)

    def test_distance_term(self):
        # doubling the distance costs 20*log10(2) dB
        near = eirp_to_field_strength(1000.0, 1.0)
        far = eirp_to_field_strength(1000.0, 2.0)
        assert near - far == pytest.approx(6.020599913279624, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            eirp_to_field_strength(0.0)
        with pytest.raises(DomainError):
            eirp_to_field_strength(100.0, 0.0)


class TestCriteria:
    def test_presets(self):
        assert OFCOM.min_field_strength_dbuvm == 50.0
        assert OFCOM.ci_cochannel_db == 33.0
        assert OFCOM.ci_adjacent_db == -17.0
        assert FCC.min_field_strength_dbuvm == 41.0
        assert FCC.ci_cochannel_db == 23.0
        assert FCC.ci_adjacent_db == -26.0
        assert OFCOM.receiver_height_m == FCC.receiver_height_m == 10.0

    def test_fields_are_what_the_link_budget_reads(self):
        assert [f.name for f in dataclasses.fields(ProtectionCriteria)] == [
            "label", "min_field_strength_dbuvm", "ci_cochannel_db", "ci_adjacent_db",
            "receiver_height_m",
        ]

    def test_relation_lookup(self):
        assert OFCOM.ci_db("co") == 33.0
        assert OFCOM.ci_db("adjacent") == -17.0
        with pytest.raises(DomainError):
            OFCOM.ci_db("harmonic")

    def test_adjacent_must_be_laxer(self):
        with pytest.raises(DomainError):
            dataclasses.replace(OFCOM, ci_adjacent_db=40.0)

    def test_tolerable_field(self):
        assert max_cr_field_at_receiver(OFCOM, "co") == pytest.approx(17.0)
        assert max_cr_field_at_receiver(OFCOM, "adjacent") == pytest.approx(67.0)

    def test_criteria_validation(self):
        for field in ("min_field_strength_dbuvm", "ci_cochannel_db", "ci_adjacent_db"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match=f"{field} must be finite"):
                    dataclasses.replace(OFCOM, **{field: bad})
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(DomainError,
                               match="receiver_height_m must be non-negative and finite"):
                dataclasses.replace(OFCOM, receiver_height_m=bad)
        assert dataclasses.replace(OFCOM, receiver_height_m=0.0).receiver_height_m == 0.0

    def test_device_validation(self):
        with pytest.raises(DomainError):
            DeviceProfile("x", 0.0, 30.0)
        with pytest.raises(DomainError):
            DeviceProfile("x", 100.0, -2.0)
        with pytest.raises(DomainError):
            DeviceProfile("", 100.0, 2.0)


class TestMinimumLoss:
    def test_reference_values(self):
        assert min_required_loss(FIXED_4W, OFCOM, "co") == pytest.approx(
            123.82059991327964, rel=1e-12
        )
        assert min_required_loss(FIXED_4W, OFCOM, "adjacent") == pytest.approx(
            73.82059991327964, rel=1e-12
        )
        assert min_required_loss(PORTABLE_100MW, OFCOM, "co") == pytest.approx(
            107.8, abs=1e-12
        )
        assert min_required_loss(PORTABLE_100MW, OFCOM, "adjacent") == pytest.approx(
            57.8, abs=1e-12
        )

    @pytest.mark.parametrize("device", [FIXED_4W, PORTABLE_100MW])
    @pytest.mark.parametrize("criteria", [OFCOM, FCC])
    def test_co_adjacent_gap_is_ci_gap(self, device, criteria):
        gap = min_required_loss(device, criteria, "co") - min_required_loss(
            device, criteria, "adjacent"
        )
        assert gap == criteria.ci_cochannel_db - criteria.ci_adjacent_db


class TestQuantize:
    def test_reference_values(self):
        assert quantize_distance(7350.0, 1000.0) == 8000.0
        assert quantize_distance(7350.0, 100.0) == 7400.0
        assert quantize_distance(8000.0, 1000.0) == 8000.0
        assert quantize_distance(0.0, 1000.0) == 0.0
        assert quantize_cells(7350.0, 100.0) == 74 and type(quantize_cells(7350.0, 100.0)) is int
        assert quantize_cells(5e-324, 1000.0) == 1  # a subnormal distance still takes a cell

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.sampled_from([50.0, 100.0, 250.0, 1000.0]),
    )
    def test_ceiling_property(self, distance, resolution):
        q = quantize_distance(distance, resolution)
        assert q == quantize_cells(distance, resolution) * resolution
        assert q >= distance
        # one cell less would undershoot (float-safe form of q - d < res)
        assert q - resolution < distance
        assert (q / resolution) == int(q / resolution)

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            quantize_distance(-1.0, 100.0)
        with pytest.raises(DomainError):
            quantize_distance(float("inf"), 100.0)
        with pytest.raises(DomainError):
            quantize_distance(100.0, 0.0)
        for resolution in (1e-320, 5e-324):  # the cell count overflows a float
            with pytest.raises(DomainError, match="distance_m / resolution_m overflows"):
                quantize_distance(7350.0, resolution)
            assert quantize_distance(0.0, resolution) == 0.0

    @pytest.mark.parametrize("resolution", [0.0, -1000.0, float("nan"), float("inf")])
    def test_resolution_must_be_positive_and_finite(self, resolution):
        for quantize in (quantize_cells, quantize_distance):
            with pytest.raises(DomainError, match="resolution_m must be positive and finite"):
                quantize(1000.0, resolution)


class TestSeparationReport:
    def test_fixed_device(self):
        report = separation_report(FIXED_4W, OFCOM, 650.0, "suburban")
        assert report.field_strength_dbuvm == pytest.approx(140.82059991327964)
        assert report.min_distance_co_m == pytest.approx(7382.856169396763, rel=1e-12)
        assert report.min_distance_adjacent_m == pytest.approx(
            281.0426166341737, rel=1e-12
        )
        assert report.warnings == (
            "separation outside the model's nominal 1-20 km distance range (adjacent 281 m)",
        )

    def test_portable_device(self):
        report = separation_report(PORTABLE_100MW, OFCOM, 650.0, "suburban")
        assert report.min_distance_co_m == pytest.approx(913.2850055108813, rel=1e-12)
        assert report.min_distance_adjacent_m == pytest.approx(
            62.498881417450654, rel=1e-12
        )
        assert len(report.warnings) == 2
        assert "nominal range" in report.warnings[0]
        assert report.warnings[1] == (
            "separation outside the model's nominal 1-20 km distance range "
            "(co 913.3 m, adjacent 62.5 m)"
        )

    def test_relation_accessor(self):
        report = separation_report(FIXED_4W, OFCOM, 650.0, "suburban")
        assert report.min_distance_m("co") == report.min_distance_co_m
        assert report.min_distance_m("adjacent") == report.min_distance_adjacent_m
        with pytest.raises(DomainError):
            report.min_distance_m("x")


def _drawn_report(eirp, height, frequency, environment, ci_adjacent, ci_gap, receiver_height):
    """The report of a drawn device and criteria; draws outside the Hata
    inversion's domain are rejected."""
    criteria = dataclasses.replace(OFCOM, ci_cochannel_db=ci_adjacent + ci_gap,
                                   ci_adjacent_db=ci_adjacent, receiver_height_m=receiver_height)
    try:
        return separation_report(DeviceProfile("any", eirp, height), criteria, frequency,
                                 environment)
    except DomainError:  # a distance past the range the inversion covers
        reject()


_LINKS = dict(
    eirp=st.floats(0.01, 1e5),
    height=st.floats(0.5, 300.0),
    frequency=st.floats(50.0, 3000.0),
    environment=st.sampled_from(ENVIRONMENTS),
    ci_adjacent=st.floats(-40.0, 40.0),
    ci_gap=st.floats(0.001, 60.0),
    receiver_height=st.floats(0.0, 20.0),
)
_OFCOM_DRAW = dict(frequency=650.0, environment="suburban", ci_adjacent=OFCOM.ci_adjacent_db,
                   ci_gap=OFCOM.ci_cochannel_db - OFCOM.ci_adjacent_db,
                   receiver_height=OFCOM.receiver_height_m)


class TestMargins:
    @pytest.mark.parametrize("relation", ["co", "adjacent"])
    @pytest.mark.parametrize(
        "device,hata",
        [
            (FIXED_4W, HataParams(650.0, 30.0, 10.0, "suburban")),
            (PORTABLE_100MW, HataParams(650.0, 2.0, 10.0, "suburban")),
        ],
    )
    def test_zero_margin_at_minimum_distance(self, device, hata, relation):
        report = separation_report(device, OFCOM, 650.0, "suburban")
        assert report.hata == hata
        d_km = report.min_distance_m(relation) / 1000.0
        assert verify_margin(report, d_km, relation) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("relation", ["co", "adjacent"])
    @settings(max_examples=40, deadline=None)
    @given(**_LINKS)
    @example(eirp=FIXED_4W.eirp_mw, height=FIXED_4W.antenna_height_m, **_OFCOM_DRAW)
    @example(eirp=PORTABLE_100MW.eirp_mw, height=PORTABLE_100MW.antenna_height_m, **_OFCOM_DRAW)
    def test_zero_margin_at_drawn_minimum_distance(self, relation, **draw):
        report = _drawn_report(**draw)
        assert report.hata.base_height_m == report.device.antenna_height_m == draw["height"]
        assert report.hata.mobile_height_m == report.criteria.receiver_height_m
        assert report.hata.carrier_frequency_mhz == draw["frequency"]
        assert report.hata.environment == draw["environment"]
        d_km = report.min_distance_m(relation) / 1000.0
        assert verify_margin(report, d_km, relation) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("resolution", [100.0, 1000.0])
    @pytest.mark.parametrize("relation", ["co", "adjacent"])
    @settings(max_examples=40, deadline=None)
    @given(**_LINKS)
    @example(eirp=FIXED_4W.eirp_mw, height=FIXED_4W.antenna_height_m, **_OFCOM_DRAW)
    def test_quantized_distance_is_safe(self, resolution, relation, **draw):
        report = _drawn_report(**draw)
        q = quantize_distance(report.min_distance_m(relation), resolution)
        assert verify_margin(report, q / 1000.0, relation) >= -1e-9

    def test_published_margins(self):
        assert verify_margin(LINK_FIXED, 8.0, "co") == pytest.approx(
            1.2281350019748487, rel=1e-12
        )
        assert verify_margin(LINK_FIXED, 1.0, "adjacent") == pytest.approx(
            19.416920452389064, rel=1e-12
        )
