"""Regularized halfspace depth for functional data."""

__version__ = "0.1.0"

from .evalkit import (
    DetectionMetrics,
    RankTable,
    detection_metrics,
    normalized_ranks,
    roc_table,
    tukey_depth_2d_exact,
)
from .funspace import (
    EigenSystem,
    FunctionalSample,
    Grid,
    RankError,
    fit_fpca,
    inner_product,
    make_uniform_grid,
    usable_rank,
)
from .outlier import (
    FACTOR_GRID,
    CalibrationResult,
    OutlierReport,
    calibrate_factor,
    detect_outliers,
)
from .rhd import (
    DepthResult,
    DirectionSet,
    EmptyPoolError,
    RegularizationSpec,
    approximate_rhd,
    draw_directions,
    naive_tukey_depth,
    resolve_lambda,
)
from .simlab import (
    OUTLIER_KINDS,
    ScenarioSpec,
    eigenvalue_tail_sums,
    generate_inliers,
    generate_outlier,
    generate_scenario,
    inlier_sup_bound,
    trigonometric_basis,
)

__all__ = [
    "EmptyPoolError",
    "RankError",
    "DetectionMetrics",
    "RankTable",
    "detection_metrics",
    "normalized_ranks",
    "roc_table",
    "tukey_depth_2d_exact",
    "EigenSystem",
    "FunctionalSample",
    "Grid",
    "fit_fpca",
    "inner_product",
    "make_uniform_grid",
    "usable_rank",
    "FACTOR_GRID",
    "CalibrationResult",
    "OutlierReport",
    "calibrate_factor",
    "detect_outliers",
    "DepthResult",
    "DirectionSet",
    "RegularizationSpec",
    "approximate_rhd",
    "draw_directions",
    "naive_tukey_depth",
    "resolve_lambda",
    "OUTLIER_KINDS",
    "ScenarioSpec",
    "eigenvalue_tail_sums",
    "generate_inliers",
    "generate_outlier",
    "generate_scenario",
    "inlier_sup_bound",
    "trigonometric_basis",
]
