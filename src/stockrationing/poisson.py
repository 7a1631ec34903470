"""Potential (relative-value) solutions and perturbation realization factors.

The Poisson equation -B g = f - eta*e fixes the potential vector g only up
to additive structure: drop the first row and column and the remaining
tridiagonal block is invertible, which yields a special solution with
g(0) = 0 plus one free constant: the g(0)-direction vector is the all-ones
vector, so choosing g(0) is a uniform shift.  Realization factors
G(i) = g(i-1) - g(i) are what every downstream formula consumes, and they
are invariant to the shift, so they are read off the special solution.

The policy's chain record solves for g (`ChainRecord.g`) in the
cut-flow form of the equation, and reads G and the equation's residual off
it (`ChainRecord.g_diff`, `ChainRecord.residual`).  The tests check it
against a dense solve, the forward recurrence read off the equation rows
and that recurrence's unrolled sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InvalidParameter, Policy, SystemParams
from .chain import ChainRecord, chain_record


@dataclass(frozen=True)
class PoissonSolution:
    """Potential vector with the free uniform shift it was built with.

    g_diff[i-1] holds G(i) = g(i-1) - g(i) for i = 1..N, and residual is the
    infinity norm of (-B g) - (f - eta*e); both are taken on the special
    solution, so no shift moves them.  offset_b is the reward margin
    R + c_lost2 - P that accompanies G in every comparison formula.
    """

    g: np.ndarray
    shift: float
    residual: float
    eta: float
    offset_b: float
    g_diff: np.ndarray


def potential_for_reward(record: ChainRecord) -> np.ndarray:
    """The record's special potential (g(0) = 0): `ChainRecord.g`."""
    return record.g


def solve_poisson(params: SystemParams, policy: Policy, shift: float = 0.0) -> PoissonSolution:
    """General solution of the policy-based Poisson equation.

    Returns the special solution (zero first entry) plus a uniform shift,
    which is g(0); it moves every entry of g equally, so G and the residual
    are read off the special solution.  A shift that is not finite raises
    InvalidParameter.
    """
    if not math.isfinite(shift):
        raise InvalidParameter(f"shift must be finite, got {shift!r}")
    record = chain_record(params, policy)
    g = potential_for_reward(record)
    # The g(0)-direction vector (1, v(d_1) * inv(-reduced B) @ e_1) is the
    # all-ones vector identically: the reduced matrix maps ones to
    # v(d_1) * e_1 because all other row sums vanish.
    return PoissonSolution(
        g=g + shift if shift != 0.0 else g,
        shift=shift,
        residual=record.residual,
        eta=record.eta(params.penalty),
        offset_b=params.price + params.c_lost2 - params.penalty,
        g_diff=record.g_diff,
    )


def realization_factors_from_potential(sol: PoissonSolution) -> PoissonSolution:
    """`sol` itself, whose g_diff holds G; kept because perfbench's solve op
    calls it."""
    return sol
