"""Worst-case powers as knapsack profits.

Each user (knapsack) values a frequency (item) by the worst-case receive
power it guarantees over that user's distance-uncertainty interval.  A
single frequency held alone is worth its single-carrier worst case at full
transmit power; a pair of frequencies is worth the two-carrier worst case,
so the joint profit is defined as the difference to the two single
profits.  Joint profits are therefore typically negative: the pair's
worst case already carries the power split between the carriers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .channel import CarrierFrequency, FrequencyPair, SceneGeometry, _positive_finite
from .worstcase import (
    DistanceInterval,
    _batch,
    _candidates,
    _lower_basins,
    worst_case_pair,
    worst_case_single,
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
    if freq_i.f == freq_j.f:
        raise ValueError("joint profit requires two distinct frequencies")
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

    def to_dict(self) -> dict:
        return {
            "users": [
                {
                    "h_rx_m": u.h_rx,
                    "d_min_m": u.interval.d_min,
                    "d_max_m": u.interval.d_max,
                }
                for u in self.users
            ],
            "frequencies_hz": [fr.f for fr in self.frequencies],
            "single_profits_w": self.single.tolist(),
            "pair_profits_w": self.pair.tolist(),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_dict(cls, data: dict) -> "ProfitTable":
        users = [
            UserProfile(u["h_rx_m"], DistanceInterval(u["d_min_m"], u["d_max_m"]))
            for u in data["users"]
        ]
        freqs = [CarrierFrequency(f) for f in data["frequencies_hz"]]
        return cls(
            users=users,
            frequencies=freqs,
            single=np.asarray(data["single_profits_w"], dtype=float),
            pair=np.asarray(data["pair_profits_w"], dtype=float),
        )

    @classmethod
    def from_json(cls, text: str) -> "ProfitTable":
        return cls.from_dict(json.loads(text))


def build_profit_table(
    users: list[UserProfile],
    freqs: list[CarrierFrequency],
    system: SystemConfig,
) -> ProfitTable:
    """Evaluate all single and unordered-pair profits for every user.

    One pass per table: the frequency-only data of all carriers and all
    unordered pairs is computed once, the endpoint and null candidates once
    per user, and the null basins of every user are searched in one batch,
    each row with its own receiver height.  Every entry is bit-identical
    to the scalar :func:`single_profit` /
    :func:`freqassign.worstcase.worst_case_pair`.
    """
    if not users:
        raise ValueError("at least one user is required")
    hz = np.array([fr.f for fr in freqs])
    if np.unique(hz).size != hz.size:
        raise ValueError("frequencies must be pairwise distinct")
    i, j = np.triu_indices(hz.size, k=1)
    carriers = _batch(hz, None, system.p_t)
    pairs = _batch(np.minimum(hz[i], hz[j]), np.maximum(hz[i], hz[j]), system.p_t)
    single = np.empty((len(users), hz.size))
    both = np.empty((len(users), i.size))
    basins = []  # per user: (pair rows, lo, hi) still to search
    for u, user in enumerate(users):
        geom = SceneGeometry(system.h_tx, user.h_rx)
        single[u] = _candidates(geom, user.interval, carriers)[0]
        both[u], _, _, basin = _candidates(geom, user.interval, pairs)
        basins.append(basin)
    rows, lo, hi = (np.concatenate(parts) for parts in zip(*basins))
    if rows.size:
        owner = np.repeat(np.arange(len(users)), [b[0].size for b in basins])
        h_rx = np.array([user.h_rx for user in users])[owner]
        coeffs = [a[rows] for a in pairs.coeffs]
        flat = both.reshape(-1)  # a view: the search stores its lower powers in both
        _lower_basins(system.h_tx, h_rx, coeffs, flat, owner * i.size + rows, lo, hi)
    upper = both - single[:, i] - single[:, j]
    pair = np.zeros((len(users), hz.size * hz.size))
    pair[:, i * hz.size + j] = upper
    pair[:, j * hz.size + i] = upper  # exact symmetry, zero diagonal
    pair = pair.reshape(len(users), hz.size, hz.size)
    return ProfitTable(users=list(users), frequencies=list(freqs), single=single, pair=pair)
