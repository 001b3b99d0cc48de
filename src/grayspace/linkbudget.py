"""Link budget between a low-power transmitter and protected TV receivers.

Converts device EIRP to a field strength at a reference distance, applies a
regulator's carrier-to-interference requirements to obtain the minimum path
loss the environment must provide, and inverts the propagation model to turn
that loss into a minimum separation distance (raw and quantized to the grid
resolution in use).

Regulator parameter sets ship as frozen presets (``OFCOM``, ``FCC``); custom
criteria can be constructed directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError
from .propagation import HataParams, distance_for_loss, path_loss

RELATIONS = ("co", "adjacent")


@dataclass(frozen=True)
class ProtectionCriteria:
    """Regulator protection parameters for TV receivers, as the link budget
    reads them; ``ci_adjacent_db`` is the stricter adjacent-channel C/I."""

    label: str
    min_field_strength_dbuvm: float
    ci_cochannel_db: float
    ci_adjacent_db: float
    receiver_height_m: float = 10.0

    def __post_init__(self) -> None:
        for name in ("min_field_strength_dbuvm", "ci_cochannel_db", "ci_adjacent_db"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if not (math.isfinite(self.receiver_height_m) and self.receiver_height_m >= 0):
            raise DomainError("receiver_height_m must be non-negative and finite")
        if not self.ci_cochannel_db > self.ci_adjacent_db:
            raise DomainError(
                "co-channel C/I must exceed adjacent-channel C/I "
                f"({self.ci_cochannel_db} <= {self.ci_adjacent_db})"
            )

    def ci_db(self, relation: str) -> float:
        if relation == "co":
            return self.ci_cochannel_db
        if relation == "adjacent":
            return self.ci_adjacent_db
        raise DomainError(f"relation must be one of {RELATIONS}, got {relation!r}")


@dataclass(frozen=True)
class DeviceProfile:
    """A transmitter candidate: its EIRP and antenna height."""

    label: str
    eirp_mw: float
    antenna_height_m: float

    def __post_init__(self) -> None:
        if not self.label:
            raise DomainError("device label must not be empty")
        if not (math.isfinite(self.eirp_mw) and self.eirp_mw > 0):
            raise DomainError("eirp_mw must be positive and finite")
        if not (math.isfinite(self.antenna_height_m) and self.antenna_height_m > 0):
            raise DomainError("antenna_height_m must be positive and finite")


OFCOM = ProtectionCriteria(
    label="ofcom",
    min_field_strength_dbuvm=50.0,
    ci_cochannel_db=33.0,
    ci_adjacent_db=-17.0,
    receiver_height_m=10.0,
)

FCC = ProtectionCriteria(
    label="fcc",
    min_field_strength_dbuvm=41.0,
    ci_cochannel_db=23.0,
    ci_adjacent_db=-26.0,
    receiver_height_m=10.0,
)

REGULATOR_PRESETS = {"ofcom": OFCOM, "fcc": FCC}

#: Devices used throughout the shipped examples: a fixed base-station-class
#: radio and a hand-held one.
FIXED_4W = DeviceProfile(label="fixed-4w", eirp_mw=4000.0, antenna_height_m=30.0)
PORTABLE_100MW = DeviceProfile(label="portable-100mw", eirp_mw=100.0, antenna_height_m=2.0)


def eirp_to_field_strength(eirp_mw: float, distance_m: float = 1.0) -> float:
    """Field strength in dBuV/m radiated by ``eirp_mw`` at ``distance_m``.

    E = 10 log10(EIRP[mW]) - 20 log10(d[m]) + 104.8
    """
    if not (math.isfinite(eirp_mw) and eirp_mw > 0):
        raise DomainError("eirp_mw must be positive and finite")
    if not (math.isfinite(distance_m) and distance_m > 0):
        raise DomainError("distance_m must be positive and finite")
    return 10.0 * math.log10(eirp_mw) - 20.0 * math.log10(distance_m) + 104.8


def max_cr_field_at_receiver(criteria: ProtectionCriteria, relation: str) -> float:
    """Highest interfering field strength (dBuV/m) tolerable at a receiver.

    The TV signal is assumed at the regulator's minimum service level, so
    the allowance is that level minus the required C/I.
    """
    return criteria.min_field_strength_dbuvm - criteria.ci_db(relation)


def min_required_loss(
    device: DeviceProfile, criteria: ProtectionCriteria, relation: str
) -> float:
    """Path loss (dB) the environment must provide between device and receiver."""
    return eirp_to_field_strength(device.eirp_mw) - max_cr_field_at_receiver(
        criteria, relation
    )


def quantize_cells(distance_m: float, resolution_m: float) -> int:
    """``distance_m`` in whole cells of ``resolution_m``, rounded up.

    Positions are only known to one grid cell, so protection distances are
    always rounded *up*.  Returns 0 only for a distance of exactly 0.
    """
    if not (math.isfinite(resolution_m) and resolution_m > 0):
        raise DomainError("resolution_m must be positive and finite")
    if not math.isfinite(distance_m) or distance_m < 0:
        raise DomainError("distance_m must be non-negative and finite")
    ratio = distance_m / resolution_m
    if not math.isfinite(ratio):
        raise DomainError("distance_m / resolution_m overflows")
    cells = math.ceil(ratio)
    if cells == 0 and distance_m > 0:  # subnormal distance underflowed
        cells = 1
    return cells


def quantize_distance(distance_m: float, resolution_m: float) -> float:
    """Round ``distance_m`` up to whole cells of ``resolution_m`` (:func:`quantize_cells`)."""
    return quantize_cells(distance_m, resolution_m) * resolution_m


@dataclass(frozen=True)
class SeparationReport:
    """Minimum separation distances for one device under one regulator, and the Hata link."""

    device: DeviceProfile
    criteria: ProtectionCriteria
    hata: HataParams
    field_strength_dbuvm: float
    min_loss_co_db: float
    min_loss_adjacent_db: float
    min_distance_co_m: float
    min_distance_adjacent_m: float
    warnings: tuple[str, ...] = field(default=())

    def min_distance_m(self, relation: str) -> float:
        if relation == "co":
            return self.min_distance_co_m
        if relation == "adjacent":
            return self.min_distance_adjacent_m
        raise DomainError(f"relation must be one of {RELATIONS}, got {relation!r}")


def separation_report(
    device: DeviceProfile, criteria: ProtectionCriteria, frequency_mhz: float, environment: str
) -> SeparationReport:
    """Full link-budget evaluation for one device/regulator pair.

    The Hata link runs from the device's antenna height (base) to a TV
    receiver at ``criteria.receiver_height_m`` (mobile), at ``frequency_mhz``
    in ``environment``.  Parameters outside the model's nominal window, and
    separations outside its 1-20 km distance window, are warned about in
    ``warnings``.
    """
    hata = HataParams(frequency_mhz, device.antenna_height_m, criteria.receiver_height_m,
                      environment)
    warnings: list[str] = []
    if not hata.nominal_range():
        warnings.append(
            "propagation parameters outside the model's nominal range "
            f"(f={hata.carrier_frequency_mhz} MHz, h_b={hata.base_height_m} m, "
            f"h_m={hata.mobile_height_m} m)"
        )
    loss_co = min_required_loss(device, criteria, "co")
    loss_adj = min_required_loss(device, criteria, "adjacent")
    distance_co_m = distance_for_loss(hata, loss_co) * 1000.0
    distance_adj_m = distance_for_loss(hata, loss_adj) * 1000.0
    # Hata is extrapolated, not clamped, outside its 1-20 km window: at short
    # range it gives less loss than free space, so the error is protective.
    outside = [
        f"{relation} {distance_m:.4g} m"
        for relation, distance_m in zip(RELATIONS, (distance_co_m, distance_adj_m))
        if not 1000.0 <= distance_m <= 20000.0
    ]
    if outside:
        warnings.append(
            "separation outside the model's nominal 1-20 km distance range "
            f"({', '.join(outside)})"
        )
    return SeparationReport(
        device=device,
        criteria=criteria,
        hata=hata,
        field_strength_dbuvm=eirp_to_field_strength(device.eirp_mw),
        min_loss_co_db=loss_co,
        min_loss_adjacent_db=loss_adj,
        min_distance_co_m=distance_co_m,
        min_distance_adjacent_m=distance_adj_m,
        warnings=tuple(warnings),
    )


def verify_margin(report: SeparationReport, distance_km: float, relation: str) -> float:
    """Interference margin (dB) at a given separation distance.

    The achieved C/I is the TV signal level minus the report's field strength
    attenuated by ``report.hata``'s path loss at ``distance_km``; the margin is
    how far that sits above the regulator requirement.  Positive means protected.
    """
    achieved = (
        report.criteria.min_field_strength_dbuvm
        - report.field_strength_dbuvm
        + path_loss(report.hata, distance_km)
    )
    return achieved - report.criteria.ci_db(relation)
