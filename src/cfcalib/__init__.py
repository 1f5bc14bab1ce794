"""Car-following toolkit: GPS kinematics, simulation, and GA calibration."""

from .calib import (
    CalibrationResult,
    GaConfig,
    GofReport,
    calibrate_and_validate,
    fitness,
    ga_calibrate,
    gof,
    gof_report,
)
from .cleaning import (
    CleaningRules,
    clean_segments,
    leader_start_offset,
    pair_trajectories,
    retained_samples,
    split_segments,
)
from .errors import (
    CfCalibError,
    ConfigError,
    DomainError,
    InsufficientDataError,
    NoCarFollowingError,
    OrderingError,
    PairingError,
    SplitError,
    UndefinedStatisticError,
)
from .ingest import (
    GpsLog,
    Trajectory,
    backward_rate,
    derive_kinematics,
    geodesic_distance,
    kinematics_from_positions,
)
from .models import (
    AccParams,
    BlendParams,
    CfState,
    IdmParams,
    ModelParams,
    blend_accel,
    cah_accel,
    default_params,
    equilibrium_spacing,
    idm_accel,
    linear_acc_accel,
)
from .series import FollowingSegment, PairedSeries, read_segments_json, write_segments_json
from .sim import SimLimits, SimResult, simulate_all, simulate_follower
from .stats import (
    DescriptiveStats,
    coefficient_of_variation,
    describe,
    iqr_outlier_share,
    jerk_comfort_shares,
    shapiro_wilk,
    spearman,
)

__version__ = "0.1.0"
