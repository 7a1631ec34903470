"""Pathwise simulation of the rationing queue as an independent statistical check.

The chain is simulated through its embedded jump chain: every sojourn is an
exponential at the state's total event rate and the reward is a rate, so
the profit integral is accumulated exactly as reward-rate times sojourn
(clipped to the measurement window).  No approximation enters anywhere;
the only noise is statistical.

Replication r draws from its own generator seeded by the pair
(master_seed, r), so estimates are reproducible bit-for-bit and streams
are independent by construction.

Step k moves up from state s when the uniform draw u_k < pup[s], the
up-rate over the total rate.  pup is 1 at state 0 and 0 at state N, and in
between it takes at most two values: lam/(lam+mu1) where class 2 is
withheld, lam/(lam+mu1+mu2) where it is served.  So which side of each
interior value u_k falls on (its category, one of at most 3) decides step k
from every state, and a block of m categories decides the next m states.
A table built once per call gives each block's states and the state after
it.  Where the states fit a byte and the table is small, a second table
composes two blocks, and the walk takes one Python lookup per 2m steps;
otherwise one per m steps.  The heads of the inner blocks then come from
vectorised gathers.  The walk makes exactly the step-by-step decisions, on
the same draws, so every estimate is the one the per-step walk gives.

The draws come in chunks of CHUNK steps.  They, and each step's state and
clipped sojourn, go into buffers that `simulate` allocates once per call.
A chunk's end times are t plus its running sojourn sum, and the walk stops
in the chunk where the horizon falls: one bincount over the chunk's steps,
up to the stopping step, adds the occupancy in step order, so the
estimates stay bit-identical to the per-step walk.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (InvalidParameter, Policy, StockRationingError, SystemParams,
                    reward_structure, service_rates)

CHUNK = 1 << 12
# Each replication discards this fraction of its horizon as warmup.
WARMUP_FRACTION = 0.01
# Walk-table size cap, and the block sizes it picks from; twice each divides CHUNK.
TABLE_ENTRIES = 1 << 15
BLOCK_SIZES = (8, 4, 2, 1)
# Size cap of the table that composes two blocks.
COMPOSED_ENTRIES = 1 << 18


@dataclass(frozen=True)
class SimEstimate:
    eta_hat: float
    std_err: float
    replications: int
    horizon: float
    seed: int
    rep_estimates: np.ndarray
    occupancy: np.ndarray          # mean time fraction per state
    occupancy_std_err: np.ndarray


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _replication_rng(seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, rep)))


class _WalkTable(NamedTuple):
    cuts: list[float]     # sorted distinct values of pup strictly inside (0, 1)
    place: np.ndarray     # weight of each draw's category in a block's row offset
    nxt: np.ndarray       # row -> state after the block
    path: np.ndarray      # row -> the m states the block visits; the smallest
                          # dtype that holds N keeps its up to 2**18 states small
    step: bytes | list[int]   # lookup row -> state after the lookup's blocks
    blocks: int           # blocks per lookup: 2 where `step` composes two, else 1


def _walk_table(pup: np.ndarray) -> _WalkTable:
    """Tables that advance the jump chain m or 2m steps per lookup.

    A draw's category c is the number of cuts <= u, and u < pup[s] holds
    exactly when rep[c] < pup[s], rep = (0, *cuts).  A block of m categories,
    read as the base-C number `code` with the first draw on top, has row
    code*(N+1) + s for start state s.  m is the largest of BLOCK_SIZES whose
    (N+1)*C**m rows fit in TABLE_ENTRIES, and 1 when none does.  Two blocks
    with codes c1, c2 have lookup row (c1*C**m + c2)*(N+1) + s, and `step`
    holds nxt[c2, nxt[c1, s]] there, as bytes, when the states fit a byte
    and the (N+1)*C**(2m) rows fit in COMPOSED_ENTRIES; otherwise `step` is
    nxt, as a list.
    """
    n_states = len(pup)
    cuts = np.unique(pup[(pup > 0.0) & (pup < 1.0)])
    n_cat = len(cuts) + 1
    m = next(m for m in BLOCK_SIZES if n_states * n_cat**m <= TABLE_ENTRIES or m == 1)
    place = n_cat ** np.arange(m - 1, -1, -1)
    rep = np.concatenate(([0.0], cuts))
    code = np.repeat(np.arange(n_cat**m), n_states)
    s = np.tile(np.arange(n_states), n_cat**m)
    path = np.empty((len(s), m), dtype=np.min_scalar_type(n_states - 1))
    for j in range(m):
        path[:, j] = s
        s = np.where(rep[code // place[j] % n_cat] < pup[s], s + 1, s - 1)
    nxt = s.astype(path.dtype)
    if n_states <= 256 and n_states * n_cat ** (2 * m) <= COMPOSED_ENTRIES:
        # after[c2, nxt[c1, s]] at [c1, s, c2], then read in (c1, c2, s) order
        after = nxt.reshape(-1, n_states)
        step = after.T.take(after, axis=0).transpose(0, 2, 1).tobytes()
        return _WalkTable(cuts.tolist(), place * n_states, nxt, path, step, 2)
    return _WalkTable(cuts.tolist(), place * n_states, nxt, path, nxt.tolist(), 1)


def _run_replication(
    rng: np.random.Generator,
    table: _WalkTable,
    inv_rate: np.ndarray,
    warmup: float,
    total: float,
    buffers: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Occupancy time per state over [warmup, total), starting empty at t=0.

    buffers holds four CHUNK-sized arrays that each chunk overwrites: its
    exponential and uniform draws, and each of its steps' state and
    clipped sojourn.
    """
    cuts, place, nxt, path, step, blocks = table
    draws, u, visited, clipped = buffers
    n_states = len(inv_rate)
    n_codes = len(nxt) // n_states
    occupancy = np.zeros(n_states)
    t = 0.0
    state = 0
    while True:
        rng.standard_exponential(out=draws)
        rng.random(out=u)
        category = np.zeros(CHUNK, np.intp)
        for cut in cuts:
            category += u >= cut
        # each block's code times N+1, and its row once its head is added
        rows = category.reshape(-1, len(place)) @ place
        # one lookup per `blocks` blocks; its code is theirs read in base C**m
        lookups = rows.reshape(-1, blocks)
        codes = rows if blocks == 1 else lookups[:, 0] * n_codes + lookups[:, 1]
        # heads[b] is the state lookup b starts from; the last entry is the
        # state after the chunk
        heads = [state]
        heads += [state := step[code + state] for code in codes.tolist()]
        if n_states <= 256:
            heads = np.frombuffer(bytes(heads), np.uint8)
        else:
            heads = np.fromiter(heads, np.intp, len(heads))
        lookups[:, 0] += heads[:-1]
        # the heads of the blocks inside each lookup
        for j in range(1, blocks):
            lookups[:, j] += nxt[lookups[:, j - 1]]
        visited[:] = path.take(rows, axis=0).ravel()
        sojourns = draws * inv_rate[visited]
        ends = t + sojourns.cumsum()
        np.minimum(ends, total, out=clipped)
        clipped -= np.maximum(ends - sojourns, warmup)
        np.maximum(clipped, 0.0, out=clipped)
        stop = int(ends.searchsorted(total))
        if stop < CHUNK:
            return occupancy + np.bincount(
                visited[: stop + 1], weights=clipped[: stop + 1], minlength=n_states)
        occupancy += np.bincount(visited, weights=clipped, minlength=n_states)
        t = float(ends[-1])


def simulate(
    params: SystemParams,
    policy: Policy,
    horizon: float,
    replications: int,
    seed: int,
) -> SimEstimate:
    """Estimate the average profit from independent finite-horizon replications.

    Each replication integrates the reward rate over a window of length
    `horizon` after discarding a warmup of WARMUP_FRACTION * horizon; the
    reported standard error is the sample standard deviation of the
    per-replication means divided by sqrt(replications).  The seed must be
    a nonnegative integer, as numpy's SeedSequence requires, and
    replications an integer of at least 2.
    """
    if not 0 < horizon < np.inf:
        raise InvalidParameter(f"horizon must be positive and finite, got {horizon}")
    if not _is_integer(seed) or seed < 0:
        raise InvalidParameter(f"seed must be a nonnegative integer, got {seed!r}")
    if not _is_integer(replications):
        raise InvalidParameter(f"replications must be an integer, got {replications!r}")
    if replications < 2:
        raise StockRationingError(
            f"need at least 2 replications for a standard error, got {replications}"
        )
    f = reward_structure(params, policy)
    n = params.capacity
    # up-rate over total rate; the full state N never moves up
    up = np.append(np.full(n, params.lam), 0.0)
    rate = up + np.append(0.0, service_rates(params, policy))
    pup = up / rate
    table = _walk_table(pup)
    inv_rate = 1.0 / rate
    buffers = np.empty(CHUNK), np.empty(CHUNK), np.empty(CHUNK, np.intp), np.empty(CHUNK)

    warmup = WARMUP_FRACTION * horizon
    total = warmup + horizon
    etas = np.empty(replications)
    occ = np.empty((replications, n + 1))
    for rep in range(replications):
        rng = _replication_rng(seed, rep)
        occupancy = _run_replication(rng, table, inv_rate, warmup, total, buffers)
        etas[rep] = float(occupancy @ f) / horizon
        occ[rep] = occupancy / horizon
    std_err = float(etas.std(ddof=1) / np.sqrt(replications))
    return SimEstimate(
        eta_hat=float(etas.mean()),
        std_err=std_err,
        replications=replications,
        horizon=horizon,
        seed=seed,
        rep_estimates=etas,
        occupancy=occ.mean(axis=0),
        occupancy_std_err=occ.std(axis=0, ddof=1) / np.sqrt(replications),
    )
