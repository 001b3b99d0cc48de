"""Gray-space evaluation toolkit.

Quantifies how much licensed TV spectrum a low-power device can reuse
*inside* a broadcast service area while registered TV receivers stay
protected.  The pipeline:

1. :mod:`grayspace.propagation` — Okumura-Hata path loss and its inversion.
2. :mod:`grayspace.linkbudget` — regulator protection criteria, device
   profiles, minimum separation distances.
3. :mod:`grayspace.griddata` — household rasters, municipal-area
   compensation, disc footprints and protection geometry.
4. :mod:`grayspace.scenario` — channel plans and the three knowledge levels
   describing what a spectrum database knows about receiver channel usage.
5. :mod:`grayspace.engine` — the Monte Carlo evaluation.
6. :mod:`grayspace.cli` — the ``grayspace`` command.

Everything is plain NumPy; there is nothing to compile.
"""

from __future__ import annotations

from .engine import (
    Bucket,
    CdfCurve,
    DEFAULT_BUCKETS,
    GraySpaceMap,
    MonteCarloResult,
    UtilizationTable,
    cdf_from_map,
    parse_buckets,
    run_combinations,
    single_realization_map,
    utilization_from_map,
)
from .errors import ConfigError, DataError, DomainError, GrayspaceError
from .griddata import (
    HouseholdGrid,
    compensate_area,
    disc_halfwidths,
    footprints,
    ingest_grid,
    load_grid_csv,
    refine_grid,
    write_grid_csv,
)
from .linkbudget import (
    FCC,
    FIXED_4W,
    OFCOM,
    PORTABLE_100MW,
    REGULATOR_PRESETS,
    DeviceProfile,
    ProtectionCriteria,
    SeparationReport,
    eirp_to_field_strength,
    max_cr_field_at_receiver,
    min_required_loss,
    quantize_cells,
    quantize_distance,
    separation_report,
    verify_margin,
)
from .propagation import (
    ENVIRONMENTS,
    HataParams,
    distance_for_loss,
    environment_correction,
    mobile_antenna_correction,
    path_loss,
)
from .scenario import (
    KNOWLEDGE_LEVELS,
    MUX_SHARES,
    TIME_PERIODS,
    ChannelPlan,
    KnowledgeConfig,
    gray_space_capacity,
    white_space_amount,
)

__version__ = "0.1.0"

#: Name of the compute path, kept for tools that record it; there is only one.
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "Bucket",
    "CdfCurve",
    "ChannelPlan",
    "ConfigError",
    "DEFAULT_BUCKETS",
    "DataError",
    "DeviceProfile",
    "DomainError",
    "ENVIRONMENTS",
    "FCC",
    "FIXED_4W",
    "GraySpaceMap",
    "GrayspaceError",
    "HataParams",
    "HouseholdGrid",
    "KNOWLEDGE_LEVELS",
    "KnowledgeConfig",
    "MUX_SHARES",
    "MonteCarloResult",
    "OFCOM",
    "PORTABLE_100MW",
    "ProtectionCriteria",
    "REGULATOR_PRESETS",
    "SeparationReport",
    "TIME_PERIODS",
    "UtilizationTable",
    "cdf_from_map",
    "compensate_area",
    "disc_halfwidths",
    "distance_for_loss",
    "eirp_to_field_strength",
    "environment_correction",
    "footprints",
    "gray_space_capacity",
    "ingest_grid",
    "load_grid_csv",
    "max_cr_field_at_receiver",
    "min_required_loss",
    "mobile_antenna_correction",
    "parse_buckets",
    "path_loss",
    "quantize_cells",
    "quantize_distance",
    "refine_grid",
    "run_combinations",
    "separation_report",
    "single_realization_map",
    "utilization_from_map",
    "verify_margin",
    "white_space_amount",
    "write_grid_csv",
    "__version__",
]
