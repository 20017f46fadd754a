"""risplan: placement optimization and blockage-resilience evaluation for
mm-wave access networks built from relay stations and passive reflecting
surfaces."""

from .geometry import (
    GeometryError,
    Point2D,
    Sector,
    Segment2D,
    angular_separation,
    azimuth,
    circular_distance,
    minimal_covering_arc,
    segments_intersect,
    within_fov,
)
from .milp import MilpModel, export_lp, read_lp
from .oracle import OracleError, OracleResult, brute_force_plan
from .planner import (
    MODE_BASELINE,
    MODE_RIS,
    NetworkPlan,
    PlannerError,
    build_baseline_model,
    build_ris_model,
    extract_plan,
    load_plan,
    save_plan,
)
from .radio import (
    DEFAULT_MCS_TABLE,
    LinkBudgetTable,
    RadioConfig,
    RadioModelError,
    backhaul_snr_db,
    build_link_tables,
    direct_snr_db,
    path_loss_db,
    reflected_snr_db,
    snr_to_rate_mbps,
)
from .resilience import (
    BlockageTrial,
    ResilienceError,
    ResilienceReport,
    evaluate,
    resilience_gain,
    sample_trial,
)
from .scenario import (
    PlanningConfig,
    Scenario,
    ScenarioError,
    ScenarioFormatError,
    generate,
    load,
    save,
)
from .solver import SolveResult, solve
from .validate import Violation, validate_plan

__version__ = "0.1.0"

__all__ = [
    "BlockageTrial",
    "DEFAULT_MCS_TABLE",
    "GeometryError",
    "LinkBudgetTable",
    "MODE_BASELINE",
    "MODE_RIS",
    "MilpModel",
    "NetworkPlan",
    "OracleError",
    "OracleResult",
    "PlannerError",
    "PlanningConfig",
    "Point2D",
    "RadioConfig",
    "RadioModelError",
    "ResilienceError",
    "ResilienceReport",
    "Scenario",
    "ScenarioError",
    "ScenarioFormatError",
    "Sector",
    "Segment2D",
    "SolveResult",
    "Violation",
    "angular_separation",
    "azimuth",
    "backhaul_snr_db",
    "brute_force_plan",
    "build_baseline_model",
    "build_link_tables",
    "build_ris_model",
    "circular_distance",
    "direct_snr_db",
    "evaluate",
    "export_lp",
    "extract_plan",
    "generate",
    "load",
    "load_plan",
    "minimal_covering_arc",
    "path_loss_db",
    "read_lp",
    "reflected_snr_db",
    "resilience_gain",
    "sample_trial",
    "save",
    "save_plan",
    "segments_intersect",
    "snr_to_rate_mbps",
    "solve",
    "validate_plan",
    "within_fov",
]
