from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from grayspace.errors import DomainError
from grayspace.propagation import (
    ENVIRONMENTS,
    HataParams,
    distance_for_loss,
    environment_correction,
    mobile_antenna_correction,
    path_loss,
)

SUBURBAN = HataParams(650.0, 30.0, 10.0, "suburban")
URBAN = HataParams(650.0, 30.0, 10.0, "urban")


class TestMobileAntennaCorrection:
    def test_reference_values(self):
        assert mobile_antenna_correction(650.0, 10.0) == pytest.approx(
            20.353902086708562, rel=1e-12
        )
        assert mobile_antenna_correction(650.0, 0.0) == pytest.approx(
            -3.588144836362855, rel=1e-12
        )

    def test_increasing_in_height(self):
        values = [mobile_antenna_correction(650.0, h) for h in (1.0, 1.5, 3.0, 10.0)]
        assert values == sorted(values)

    @pytest.mark.parametrize(
        "frequency,height,message",
        [
            (float("nan"), 10.0, "inputs must be finite"),
            (650.0, float("inf"), "inputs must be finite"),
            (0.0, 10.0, "carrier_frequency_mhz must be positive"),
            (-650.0, 10.0, "carrier_frequency_mhz must be positive"),
        ],
    )
    def test_rejects_bad_numbers(self, frequency, height, message):
        with pytest.raises(DomainError, match=message):
            mobile_antenna_correction(frequency, height)


class TestEnvironmentCorrection:
    def test_urban_is_zero(self):
        assert environment_correction(URBAN) == 0.0

    def test_suburban(self):
        assert environment_correction(SUBURBAN) == pytest.approx(
            -9.130575217174094, rel=1e-12
        )

    def test_open(self):
        open_area = HataParams(650.0, 30.0, 10.0, "open")
        assert environment_correction(open_area) == pytest.approx(
            -27.200959991199788, rel=1e-12
        )

    def test_ordering(self):
        # corrections only ever lower the urban loss
        sub = environment_correction(SUBURBAN)
        opn = environment_correction(HataParams(650.0, 30.0, 10.0, "open"))
        assert opn < sub < 0.0


class TestPathLoss:
    def test_one_kilometre_suburban(self):
        assert path_loss(SUBURBAN, 1.0) == pytest.approx(93.2375203656687, rel=1e-12)

    def test_eight_kilometres_suburban(self):
        assert path_loss(SUBURBAN, 8.0) == pytest.approx(125.04873491525449, rel=1e-12)

    def test_one_kilometre_urban(self):
        assert path_loss(URBAN, 1.0) == pytest.approx(102.3680955828428, rel=1e-12)

    def test_suburban_is_urban_plus_correction(self):
        for d in (0.5, 1.0, 3.7, 20.0):
            assert path_loss(SUBURBAN, d) == path_loss(URBAN, d) + environment_correction(
                SUBURBAN
            )

    def test_distance_slope(self):
        # one decade of distance adds exactly the slope term
        slope = 44.9 - 6.55 * math.log10(30.0)
        assert path_loss(SUBURBAN, 10.0) - path_loss(SUBURBAN, 1.0) == pytest.approx(
            slope, rel=1e-12
        )

    def test_taller_base_reduces_loss(self):
        tall = HataParams(650.0, 60.0, 10.0, "suburban")
        assert path_loss(tall, 5.0) < path_loss(SUBURBAN, 5.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DomainError):
            path_loss(SUBURBAN, 0.0)
        with pytest.raises(DomainError):
            path_loss(SUBURBAN, -1.0)

    @pytest.mark.parametrize("distance_km", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_distance(self, distance_km):
        with pytest.raises(DomainError, match="distance_km must be finite"):
            path_loss(SUBURBAN, distance_km)


class TestInversion:
    @given(st.floats(min_value=60.0, max_value=180.0))
    def test_roundtrip(self, loss):
        d = distance_for_loss(SUBURBAN, loss)
        assert d > 0
        assert path_loss(SUBURBAN, d) == pytest.approx(loss, rel=1e-9)

    def test_known_inverse(self):
        # loss at 8 km must invert back to 8 km
        loss = path_loss(SUBURBAN, 8.0)
        assert distance_for_loss(SUBURBAN, loss) == pytest.approx(8.0, rel=1e-12)

    def test_portable_profile(self):
        portable = HataParams(650.0, 2.0, 10.0, "suburban")
        assert path_loss(portable, 1.0) == pytest.approx(109.4911015658182, rel=1e-12)
        d = distance_for_loss(portable, 107.8)
        assert d == pytest.approx(0.9132850055108813, rel=1e-12)


class TestValidation:
    def test_environment_names(self):
        assert ENVIRONMENTS == ("urban", "suburban", "open")
        with pytest.raises(DomainError):
            HataParams(650.0, 30.0, 10.0, "rural")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(carrier_frequency_mhz=0.0),
            dict(carrier_frequency_mhz=float("nan")),
            dict(base_height_m=0.0),
            dict(base_height_m=-3.0),
            dict(mobile_height_m=-1.0),
            dict(base_height_m=1e7),  # distance slope 44.9 - 6.55 log10(h_b) < 0
        ],
    )
    def test_rejects_bad_numbers(self, kwargs):
        base = dict(
            carrier_frequency_mhz=650.0, base_height_m=30.0, mobile_height_m=10.0
        )
        base.update(kwargs)
        with pytest.raises(DomainError):
            HataParams(**base)

    @pytest.mark.parametrize("loss_db", [1e7, -1e7, float("inf")])
    def test_inversion_rejects_losses_out_of_range(self, loss_db):
        # 10**x of these would overflow (OverflowError) or underflow to 0 m
        with pytest.raises(DomainError):
            distance_for_loss(SUBURBAN, loss_db)

    def test_nominal_range_flag(self):
        assert SUBURBAN.nominal_range()
        assert not HataParams(650.0, 2.0, 10.0, "suburban").nominal_range()
        assert not HataParams(2400.0, 30.0, 10.0, "suburban").nominal_range()
