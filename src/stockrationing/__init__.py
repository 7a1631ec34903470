"""Stock-rationing queue with two demand classes: analysis and policy optimization."""

__version__ = "0.1.0"

from .model import (
    ENUMERATION_CAP,
    CapExceeded,
    InvalidParameter,
    Policy,
    PriorityViolation,
    StockRationingError,
    SystemParams,
    reward_structure,
    service_rates,
)
from .chain import ChainRecord, average_profit, chain_record
from .optimizer import OptimizerResult, brute_force_optimal, global_optimal
from .staticpol import optimal_static_threshold, static_profit_closed_form
from .sim import SimEstimate, simulate
