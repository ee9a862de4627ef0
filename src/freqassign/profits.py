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
only the profit arithmetic is done here.  The joint profits stay packed
(LAPACK's packed symmetric storage) behind an index map that makes them
symmetric by construction; no dense (users, N, N) tensor is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import CarrierFrequency, FrequencyPair, SceneGeometry, _positive_finite
from .worstcase import _USER_BLOCK, DistanceInterval, worst_case_pair, worst_case_single
from .worstcase import worst_cases


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


def _pair_index(n: int):
    """Pairs i < j (``np.triu_indices``); map of (i, j), (j, i) to them, diagonal past them."""
    i, j = np.triu_indices(n, k=1)
    index = np.full((n, n), i.size)
    index[i, j] = index[j, i] = np.arange(i.size)  # exact symmetry
    return i, j, index


@dataclass
class ProfitTable:
    """Per-user profit matrices for a fixed frequency list.

    ``single[u, i]`` is the single-frequency worst case of user u on
    frequency i, ``joint[u, index[i, j]]`` the joint profit of i and j:
    the P = N(N-1)/2 pairs in ``np.triu_indices`` order, then a -0.0 slot
    for the diagonal.  ``pair`` is the dense ``joint[:, index]``, exactly
    symmetric with a -0.0 diagonal, gathered when first read.
    """

    users: list[UserProfile]
    frequencies: list[CarrierFrequency]
    single: np.ndarray  # (K, N) watts
    joint: np.ndarray  # (K, P + 1) watts
    index: np.ndarray  # (N, N) symmetric

    @cached_property
    def pair(self) -> np.ndarray:  # (K, N, N) watts
        return self.joint[:, self.index]

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
    every user are searched in one batch.  Both calls write only powers
    (``out=``): the carriers into the (K, N) singles, the pairs into the
    packed joint profits, the one full-size array, from which the singles
    are subtracted in place, gathered block by block into one buffer.  Every
    entry is bit-identical to the scalar :func:`single_profit` /
    :func:`freqassign.worstcase.worst_case_pair`.
    """
    if not users:
        raise ValueError("at least one user is required")
    hz = np.array([fr.f for fr in freqs])
    if np.unique(hz).size != hz.size:
        raise ValueError("frequencies must be pairwise distinct")
    where = [(SceneGeometry(system.h_tx, user.h_rx), user.interval) for user in users]
    i, j, index = _pair_index(hz.size)
    single = worst_cases(where, hz, None, system.p_t, out=np.empty((len(users), hz.size)))
    joint = np.empty((len(users), i.size + 1))
    joint[:, -1] = -0.0
    lo, hi = np.minimum(hz[i], hz[j]), np.maximum(hz[i], hz[j])
    worst_cases(where, lo, hi, system.p_t, out=joint[:, :-1])
    rows = max(1, _USER_BLOCK // max(1, i.size))
    gathered = np.empty((min(rows, len(users)), i.size))
    for start in range(0, len(users), rows):
        part, block = joint[start : start + rows, :-1], single[start : start + rows]
        for ends in (i, j):  # mode "clip" gathers into the buffer itself, not a copy
            part -= np.take(block, ends, axis=1, out=gathered[: len(block)], mode="clip")
    return ProfitTable(list(users), list(freqs), single, joint, index)
