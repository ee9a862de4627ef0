"""Worst-case powers as knapsack profits.

Each user (knapsack) values a frequency (item) by the worst-case receive
power it guarantees over that user's distance-uncertainty interval.  A
single frequency held alone is worth its single-carrier worst case at full
transmit power; a pair of frequencies is worth the two-carrier worst case,
so the joint profit is defined as the difference to the two single
profits.  Joint profits are therefore typically negative: the pair's
worst case already carries the power split between the carriers.

The worst cases come from :func:`freqassign.worstcase.worst_cases`, the
one routine behind scalar queries and tables alike: a table is one call
for all carriers and one for all unordered pairs, over all users, and
only the profit arithmetic is done here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CarrierFrequency, FrequencyPair, SceneGeometry, _positive_finite
from .worstcase import (
    DistanceInterval,
    _users_per_block,
    worst_case_pair,
    worst_case_single,
    worst_cases,
)


@dataclass(frozen=True)
class UserProfile:
    """Receiver height and distance-uncertainty interval of one user."""

    h_rx: float
    interval: DistanceInterval

    def __post_init__(self):
        if not _positive_finite(self.h_rx):
            raise ValueError("receiver height must be positive and finite")


@dataclass(frozen=True)
class SystemConfig:
    """Transmitter-side parameters shared by all users."""

    h_tx: float
    p_t: float = 1.0

    def __post_init__(self):
        if not _positive_finite(self.h_tx):
            raise ValueError("transmitter height must be positive and finite")
        if not _positive_finite(self.p_t):
            raise ValueError("transmit power must be positive and finite")


def single_profit(user: UserProfile, freq: CarrierFrequency, system: SystemConfig) -> float:
    """Worst-case power of a user holding one frequency alone, in watts.

    A user with a single assigned frequency transmits at the full power
    budget, so no power split applies here.
    """
    geom = SceneGeometry(system.h_tx, user.h_rx)
    return worst_case_single(geom, user.interval, freq, system.p_t).power


def pair_profit(
    user: UserProfile,
    freq_i: CarrierFrequency,
    freq_j: CarrierFrequency,
    system: SystemConfig,
) -> float:
    """Joint profit of holding two frequencies together, in watts.

    Defined so that single_i + single_j + pair_ij reconstructs the
    two-frequency worst case exactly; symmetric in the two frequencies.
    """
    geom = SceneGeometry(system.h_tx, user.h_rx)
    pair = FrequencyPair.of(freq_i.f, freq_j.f)
    both = worst_case_pair(geom, user.interval, pair, system.p_t).power
    return both - single_profit(user, freq_i, system) - single_profit(user, freq_j, system)


@dataclass
class ProfitTable:
    """Dense per-user profit matrices for a fixed frequency list.

    ``single[u, i]`` is the single-frequency worst case of user u on
    frequency i; ``pair[u, i, j]`` the symmetric joint profit, with the
    diagonal unused and kept at zero.
    """

    users: list[UserProfile]
    frequencies: list[CarrierFrequency]
    single: np.ndarray  # (K, N) watts
    pair: np.ndarray  # (K, N, N) watts, symmetric, zero diagonal

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_frequencies(self) -> int:
        return len(self.frequencies)


def build_profit_table(
    users: list[UserProfile],
    freqs: list[CarrierFrequency],
    system: SystemConfig,
) -> ProfitTable:
    """Evaluate all single and unordered-pair profits for every user.

    Two calls of :func:`freqassign.worstcase.worst_cases` over all users,
    one for all carriers and one for all unordered pairs, so the
    frequency-only data is computed once per table and the null basins of
    every user are searched in one batch.  The joint profits are formed and
    scattered into the pair tensor over the same blocks of users as the
    worst cases' endpoint stage, so that their temporaries stay in cache.
    Every entry is bit-identical to the scalar :func:`single_profit` /
    :func:`freqassign.worstcase.worst_case_pair`.
    """
    if not users:
        raise ValueError("at least one user is required")
    hz = np.array([fr.f for fr in freqs])
    if np.unique(hz).size != hz.size:
        raise ValueError("frequencies must be pairwise distinct")
    where = [(SceneGeometry(system.h_tx, user.h_rx), user.interval) for user in users]
    i, j = np.triu_indices(hz.size, k=1)
    single = worst_cases(where, hz, None, system.p_t)[0]
    both = worst_cases(where, np.minimum(hz[i], hz[j]), np.maximum(hz[i], hz[j]), system.p_t)[0]
    upper_at, lower_at = i * hz.size + j, j * hz.size + i
    pair = np.zeros((len(users), hz.size * hz.size))
    per_block = _users_per_block(i.size)
    for start in range(0, len(users), per_block):
        block = slice(start, start + per_block)
        upper = both[block] - single[block, i] - single[block, j]
        pair[block, upper_at] = upper
        pair[block, lower_at] = upper  # exact symmetry, zero diagonal
    pair = pair.reshape(len(users), hz.size, hz.size)
    return ProfitTable(users=list(users), frequencies=list(freqs), single=single, pair=pair)
