"""Fairness-aware distributed-generation hosting capacity for radial LV feeders."""

__version__ = "0.1.0"

from .errors import (
    DegenerateFrontier,
    FairHCError,
    Infeasible,
    MissingReference,
    NonConvergence,
    ParameterOutOfRange,
    ParseError,
    SchemaError,
    SingularJacobian,
    TooManyLoads,
    UnknownBus,
    ValidationError,
    ZeroUtilitarianHC,
)
from .formulation import FairnessPolicy, HCProblem, References, build_problem, parse_policy, policy_string
from .kpi import gini, price_of_fairness
from .netmodel import (
    Bus,
    Feeder,
    FeederStats,
    GridConnection,
    Line,
    Load,
    NormalizedFeeder,
    electrical_distance,
    feeder_stats,
    parse_feeder,
    serialize_feeder,
    to_per_unit,
)
from .pareto import Frontier, ParetoPoint, frontier_to_csv, knee_point, pareto_filter, points_from_csv, sweep
from .powerflow import ConstraintResiduals, PowerFlowState, adjoint_gradient, constraint_residuals, solve_power_flow
from .solver import (
    HCSolution,
    brute_force_oracle,
    brute_force_oracle_batch,
    solve_egalitarian_bisection,
    solve_hc,
    solve_nlp_al,
    solve_references,
)
from .synth import Conductor, SynthSpec, TopologyReport, generate_feeder, topology_experiment
