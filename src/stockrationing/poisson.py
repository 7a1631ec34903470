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
`stockrationing` does not import this module; perfbench traces its names
until ROADMAP item 2 deletes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Policy, SystemParams
from .chain import ChainRecord, _reader_record


@dataclass(frozen=True)
class PoissonSolution:
    """The special potential g (g(0) = 0) of one policy, with its views.

    g_diff[i-1] holds G(i) = g(i-1) - g(i) for i = 1..N, and residual is the
    infinity norm of (-B g) - (f - eta*e).  offset_b is the reward margin
    R + c_lost2 - P that accompanies G in every comparison formula.  Kept
    only for perfbench, which reads these fields, until ROADMAP item 2.
    """

    g: np.ndarray
    residual: float
    eta: float
    offset_b: float
    g_diff: np.ndarray


def potential_for_reward(record: ChainRecord) -> np.ndarray:
    """The record's special potential (g(0) = 0): `ChainRecord.g`.  Kept
    only as an entry point that perfbench traces, until ROADMAP item 2."""
    return record.g


def solve_poisson(params: SystemParams, policy: Policy) -> PoissonSolution:
    """The special solution (g(0) = 0) of the policy-based Poisson equation.
    Kept only as an entry point that perfbench traces, until ROADMAP item 2
    deletes it; `stockrationing solve --shift` moves g alone.
    """
    record = _reader_record(params, policy)
    return PoissonSolution(
        g=potential_for_reward(record),
        residual=record.residual,
        eta=record.eta(params.penalty),
        offset_b=params.price + params.c_lost2 - params.penalty,
        g_diff=record.g_diff,
    )


def realization_factors_from_potential(sol: PoissonSolution) -> PoissonSolution:
    """`sol` itself, whose g_diff holds G.  Kept only as an entry point that
    perfbench traces, until ROADMAP item 2 deletes it."""
    return sol
