"""Exact confidence regions and cdf confidence bands for the two-parameter
exponential model from a single progressively type-II censored sample."""

from .calibration import (
    CalibrationCache,
    CalibrationKey,
    CalibrationResult,
    band_level,
    calibrate_cp,
    calibrate_dp,
    exact_cp,
    exact_dp,
    exact_p_of_tau,
    ks_cdf,
    p_of_tau,
    tau_of_p,
)
from .bands import (
    Band,
    band_b1,
    band_b2,
    band_b3,
    band_b4,
    band_b4_trimmed,
    event_probability,
    graph_contained,
    marginal_band,
    marginal_transform_h,
    reliability_band,
    trim_band,
)
from .errors import (
    CalibrationError,
    DegenerateSampleError,
    DomainError,
    ExpBandsError,
    InfeasibleLevelError,
    InvalidSchemeError,
    InvalidTransformError,
    NumericError,
    ParseError,
    UnsupportedCaseError,
)
from .metrics import BandMetrics, CoverageReport, area, band_metrics, coverage_experiment, max_width
from .model import (
    CensoringScheme,
    GeneralizedScheme,
    LocScale,
    MleEstimate,
    MonotoneTransform,
    ProgressiveSample,
    g_transform,
    load_insulating_fluid,
    mle,
    read_sample_csv,
    simulate_sample,
    umvue,
    write_sample_csv,
)
from .regions import (
    KsRegionC4,
    MinAreaRegionC3,
    TrapezoidRegionC1,
    TrapezoidRegionC2,
    build_c1,
    build_c2,
    build_c3,
    build_c4,
    comprehensive_convex_hull_delta_prob,
    region_from_dict,
    region_to_dict,
)

__version__ = "0.1.0"
