from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from grayspace.errors import ConfigError, DomainError
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
    quantize_distance,
    separation_report,
    verify_margin,
)
from grayspace.propagation import HataParams

HATA_FIXED = HataParams(650.0, 30.0, 10.0, "suburban")
HATA_PORTABLE = HataParams(650.0, 2.0, 10.0, "suburban")


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
        assert OFCOM.location_accuracy_m == 100.0
        assert FCC.min_field_strength_dbuvm == 41.0
        assert FCC.ci_cochannel_db == 23.0
        assert FCC.ci_adjacent_db == -26.0
        assert FCC.ci_adjacent_lower_db == -28.0
        assert FCC.location_accuracy_m == 50.0

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
        for field in ("channel_bandwidth_mhz", "location_accuracy_m"):
            for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0):
                with pytest.raises(DomainError, match=f"{field} must be positive and finite"):
                    dataclasses.replace(OFCOM, **{field: bad})

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

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.sampled_from([50.0, 100.0, 250.0, 1000.0]),
    )
    def test_ceiling_property(self, distance, resolution):
        q = quantize_distance(distance, resolution)
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


class TestSeparationReport:
    def test_fixed_device(self):
        report = separation_report(FIXED_4W, OFCOM, HATA_FIXED)
        assert report.field_strength_dbuvm == pytest.approx(140.82059991327964)
        assert report.min_distance_co_m == pytest.approx(7382.856169396763, rel=1e-12)
        assert report.min_distance_adjacent_m == pytest.approx(
            281.0426166341737, rel=1e-12
        )
        assert report.warnings == (
            "separation outside the model's nominal 1-20 km distance range (adjacent 281 m)",
        )

    def test_portable_device(self):
        report = separation_report(PORTABLE_100MW, OFCOM, HATA_PORTABLE)
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
        report = separation_report(FIXED_4W, OFCOM, HATA_FIXED)
        assert report.min_distance_m("co") == report.min_distance_co_m
        assert report.min_distance_m("adjacent") == report.min_distance_adjacent_m
        with pytest.raises(DomainError):
            report.min_distance_m("x")

    def test_antenna_height_must_match(self):
        with pytest.raises(ConfigError):
            separation_report(PORTABLE_100MW, OFCOM, HATA_FIXED)


class TestMargins:
    @pytest.mark.parametrize("relation", ["co", "adjacent"])
    @pytest.mark.parametrize(
        "device,hata", [(FIXED_4W, HATA_FIXED), (PORTABLE_100MW, HATA_PORTABLE)]
    )
    def test_zero_margin_at_minimum_distance(self, device, hata, relation):
        report = separation_report(device, OFCOM, hata)
        d_km = report.min_distance_m(relation) / 1000.0
        assert verify_margin(device, OFCOM, hata, d_km, relation) == pytest.approx(
            0.0, abs=1e-9
        )

    @pytest.mark.parametrize("resolution", [100.0, 1000.0])
    @pytest.mark.parametrize("relation", ["co", "adjacent"])
    def test_quantized_distance_is_safe(self, resolution, relation):
        report = separation_report(FIXED_4W, OFCOM, HATA_FIXED)
        q = quantize_distance(report.min_distance_m(relation), resolution)
        margin = verify_margin(FIXED_4W, OFCOM, HATA_FIXED, q / 1000.0, relation)
        assert margin >= -1e-9

    def test_published_margins(self):
        assert verify_margin(FIXED_4W, OFCOM, HATA_FIXED, 8.0, "co") == pytest.approx(
            1.2281350019748487, rel=1e-12
        )
        assert verify_margin(
            FIXED_4W, OFCOM, HATA_FIXED, 1.0, "adjacent"
        ) == pytest.approx(19.416920452389064, rel=1e-12)
