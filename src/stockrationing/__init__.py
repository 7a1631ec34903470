"""Stock-rationing queue with two demand classes: analysis and policy optimization."""

__version__ = "0.1.0"

from .model import (
    ENUMERATION_CAP,
    BadThreshold,
    CapExceeded,
    DifferenceSet,
    InvalidParameter,
    InvalidOrder,
    LengthMismatch,
    NonPositiveRate,
    Policy,
    PriorityViolation,
    RewardStructure,
    StockRationingError,
    SystemParams,
    adjacent_chain,
    difference_set,
    enumerate_policies,
    reward_structure,
    service_rates,
    validate_params,
)
from .chain import (
    ChainRecord,
    Generator,
    NumericalOverflow,
    ProfitLinearForm,
    StationaryDistribution,
    average_profit,
    average_profits,
    build_generator,
    chain_record,
    profit_linear_form,
    stationary_distribution,
)
from .poisson import (
    IndexOutOfRange,
    PoissonSolution,
    RealizationFactors,
    potential_for_reward,
    realization_factors_from_potential,
    solve_poisson,
)
from .sensitivity import (
    NotSingleFlip,
    PenaltyProfile,
    classify_sign,
    difference_one_position,
    penalty_roots,
)
from .optimizer import (
    MonotoneChainReport,
    OptimizerResult,
    RegionClassification,
    TransformPlan,
    brute_force_optimal,
    classify_region,
    global_optimal,
    monotone_chain_check,
    restore_threshold,
    transform_plan,
)
from .staticpol import (
    StaticPolicy,
    ThresholdOptimalityReport,
    ThetaOutOfRange,
    build_static,
    optimal_static_threshold,
    static_profit_closed_form,
    threshold_optimality_check,
)
from .sim import SimEstimate, simulate
