"""Okumura-Hata median path loss and its closed-form inversion.

Implements the small/medium-city variant of the Hata model with urban,
suburban and open-area environment corrections, and the inverse mapping
from a required path loss to the distance at which it is reached.  The
model's nominal validity window (frequency 150-1500 MHz, base antenna
30-200 m, mobile antenna 1-10 m, distance 1-20 km) is *not* enforced:
low-power transmitters sit well below a 30 m mast, so out-of-range inputs
are computed normally and merely flagged via :meth:`HataParams.nominal_range`
so callers can attach a warning to their results (the link budget also
warns about separations outside 1-20 km).  The one exception is a
base height of about 7,160 km or more, where the distance slope
44.9 - 6.55 log10(h_b) is no longer positive and the inversion breaks
down; such parameters are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

ENVIRONMENTS = ("urban", "suburban", "open")


@dataclass(frozen=True)
class HataParams:
    """Propagation-model parameters.

    carrier_frequency_mhz: carrier frequency f_c in MHz.
    base_height_m: effective base-station (transmitter) antenna height in m.
    mobile_height_m: mobile (receiver) antenna height in m.
    environment: one of "urban", "suburban", "open".
    """

    carrier_frequency_mhz: float
    base_height_m: float
    mobile_height_m: float
    environment: str = "suburban"

    def __post_init__(self) -> None:
        for name in ("carrier_frequency_mhz", "base_height_m", "mobile_height_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.carrier_frequency_mhz <= 0:
            raise DomainError("carrier_frequency_mhz must be positive")
        if self.base_height_m <= 0:
            raise DomainError("base_height_m must be positive")
        if self.mobile_height_m < 0:
            raise DomainError("mobile_height_m must be non-negative")
        if self.environment not in ENVIRONMENTS:
            raise DomainError(
                f"environment must be one of {ENVIRONMENTS}, got {self.environment!r}"
            )
        if not _slope(self) > 0:
            raise DomainError(
                f"base_height_m ({self.base_height_m}) makes the distance slope "
                "44.9 - 6.55 log10(h_b) non-positive: path loss would not grow "
                "with distance"
            )

    def nominal_range(self) -> bool:
        """True when all parameters sit inside the model's nominal window."""
        return (
            150.0 <= self.carrier_frequency_mhz <= 1500.0
            and 30.0 <= self.base_height_m <= 200.0
            and 1.0 <= self.mobile_height_m <= 10.0
        )


def mobile_antenna_correction(carrier_frequency_mhz: float, mobile_height_m: float) -> float:
    """Mobile-antenna height correction a(h_m) in dB (small/medium city).

    a = (1.1 log10 f_c - 0.7) h_m - (1.56 log10 f_c - 0.8)
    """
    if not (math.isfinite(carrier_frequency_mhz) and math.isfinite(mobile_height_m)):
        raise DomainError("inputs must be finite")
    if carrier_frequency_mhz <= 0:
        raise DomainError("carrier_frequency_mhz must be positive")
    lf = math.log10(carrier_frequency_mhz)
    return (1.1 * lf - 0.7) * mobile_height_m - (1.56 * lf - 0.8)


def environment_correction(params: HataParams) -> float:
    """Additive environment term in dB (0 for urban)."""
    f = params.carrier_frequency_mhz
    if params.environment == "urban":
        return 0.0
    if params.environment == "suburban":
        return -2.0 * math.log10(f / 28.0) ** 2 - 5.4
    # open area
    lf = math.log10(f)
    return -4.78 * lf**2 + 18.33 * lf - 40.94


def _slope(params: HataParams) -> float:
    return 44.9 - 6.55 * math.log10(params.base_height_m)


def path_loss(params: HataParams, distance_km: float) -> float:
    """Median path loss in dB at the given distance.

    The suburban/open losses are computed as the urban loss plus the
    corresponding environment correction (one addition), so the exact
    identity ``suburban == urban + environment_correction`` holds bitwise.
    """
    if not math.isfinite(distance_km):
        raise DomainError("distance_km must be finite")
    if distance_km <= 0:
        raise DomainError("distance_km must be positive")
    f = params.carrier_frequency_mhz
    urban = (
        69.55
        + 26.16 * math.log10(f)
        - 13.82 * math.log10(params.base_height_m)
        - mobile_antenna_correction(f, params.mobile_height_m)
        + _slope(params) * math.log10(distance_km)
    )
    return urban + environment_correction(params)


def distance_for_loss(params: HataParams, loss_db: float) -> float:
    """Distance in km at which the model reaches ``loss_db``.

    Closed-form inversion: with L(d) = C + S log10(d) where C is the loss
    at 1 km and S the distance slope, d = 10**((L - C) / S).  Losses below
    any physical value are still inverted (the result is simply < 1 km);
    non-finite input is rejected, and so is a loss whose distance lies
    outside 1e-300..1e300 km, where the power would over- or underflow.
    """
    if not math.isfinite(loss_db):
        raise DomainError("loss_db must be finite")
    exponent = (loss_db - path_loss(params, 1.0)) / _slope(params)
    if not abs(exponent) < 300:
        raise DomainError(f"loss_db ({loss_db!r}) needs a distance of 10**{exponent:.6g} km, "
                          "outside the 1e-300..1e300 km the inversion covers")
    return 10.0 ** exponent
