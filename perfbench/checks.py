"""Correctness checks on the benchmark's operation outputs.

Each check returns a list of problems; an operation with any problem
counts as failed.  Checks run outside the timed region.  They recompute
what they compare against from the inputs or the profit table, and use
the ``grid_min`` oracle with a ``phase_uniform_grid`` grid, never the code
path under test.
"""

from __future__ import annotations

import math

import numpy as np

from freqassign import channel, worstcase
from freqassign.channel import SPEED_OF_LIGHT, TWO_PI, CarrierFrequency, FrequencyPair, SceneGeometry

ORACLE_TOL_DB = 0.01  # acceptance criterion 6
OBJECTIVE_RTOL = 1e-9
CRITERION9_GAP_DB = (4.5, 7.5)  # greedy minus random, acceptance criterion 9
CAPACITY = 2  # frequencies per user


def db(power: float, reference: float = 1.0) -> float:
    return 10.0 * math.log10(power / reference)


def mean_db(objectives: list[dict], scale: float) -> dict:
    """Per-scheme objective averaged in watts over trials, in dB relative to scale."""
    return {s: db(float(np.mean([o[s] for o in objectives])), scale) for s in objectives[0]}


def _resum(table, assignment) -> float:
    total = 0.0
    for u, items in enumerate(assignment.knapsacks):
        items = sorted(items)
        for a in items:
            total += float(table.single[u, a])
            for b in items:
                if a < b:
                    total += float(table.pair[u, a, b])
    return total


def _infeasibility(assignment, n_users: int, n_freqs: int) -> str | None:
    if len(assignment.knapsacks) != n_users:
        return f"{len(assignment.knapsacks)} knapsacks for {n_users} users"
    seen = set()
    for u, items in enumerate(assignment.knapsacks):
        if len(items) > CAPACITY:
            return f"user {u} holds {len(items)} frequencies"
        if any(not 0 <= i < n_freqs for i in items):
            return f"user {u} holds an item index out of range"
        if items & seen:
            return f"user {u} shares a frequency with another user"
        seen |= items
    return None


def trial_outputs(result, tables, scored, p_t: float) -> list[str]:
    """Feasibility and brute-force objective re-sums for every scheme of one trial."""
    if len(tables) != 1:
        return [f"expected one profit table per trial, captured {len(tables)}"]
    table = tables[0]
    names = list(result.objectives_w)
    if len(scored) != len(names):
        return [f"{len(names)} schemes reported but {len(scored)} assignments scored"]
    problems = []
    n_users, n_freqs = table.single.shape
    for name, (assignment, value) in zip(names, scored):
        bad = _infeasibility(assignment, n_users, n_freqs)
        if bad:
            problems.append(f"{name}: infeasible: {bad}")
            continue
        ref = _resum(table, assignment)
        reported = result.objectives_w[name]
        if not (math.isclose(reported, ref, rel_tol=OBJECTIVE_RTOL, abs_tol=1e-18)
                and math.isclose(value, ref, rel_tol=OBJECTIVE_RTOL, abs_tol=1e-18)):
            problems.append(f"{name}: objective {reported!r} but the table re-sums to {ref!r}")
        elif not math.isclose(result.power_db[name], db(ref, n_users * p_t), abs_tol=1e-9):
            problems.append(f"{name}: power_db {result.power_db[name]!r} disagrees with the objective")
    return problems


def near_null_pairs(h_tx: float, users, hz: np.ndarray) -> np.ndarray:
    """(user, i, j) rows, i < j, of carrier pairs with a spacing null near the user's interval.

    The k-th null of the spacing oscillation sits where the phase
    (delta_omega / c) * (l_ref - l_los) equals 2*pi*k, for 1 <= k <= k_max.
    A pair counts when the basin of such a null (phase 2*pi*k +- pi)
    overlaps the phase range the interval spans, so its worst case may sit
    inside the interval rather than at an end.
    """
    geoms = [SceneGeometry(h_tx, u.h_rx) for u in users]
    q_near = np.array([channel.path_difference(g, u.interval.d_min) for g, u in zip(geoms, users)])
    q_far = np.array([channel.path_difference(g, u.interval.d_max) for g, u in zip(geoms, users)])
    h_min = np.minimum(h_tx, np.array([u.h_rx for u in users]))
    i, j = np.triu_indices(hz.size, k=1)
    rate = TWO_PI * np.abs(hz[j] - hz[i]) / SPEED_OF_LIGHT  # rad per m of path difference
    reach = rate * q_near.max() + math.pi >= TWO_PI  # otherwise no basin reaches k = 1
    i, j, rate = i[reach], j[reach], rate[reach]
    k_max = np.floor(rate * 2.0 * h_min[:, None] / TWO_PI)
    k_hi = np.minimum(k_max, np.floor((rate * q_near[:, None] + math.pi) / TWO_PI))
    k_lo = np.maximum(1.0, np.ceil((rate * q_far[:, None] - math.pi) / TWO_PI))
    u, p = np.nonzero(k_lo <= k_hi)
    return np.column_stack([u, i[p], j[p]])


def _gap(theorem: float, oracle: float) -> float:
    if not (theorem > 0 and oracle > 0 and math.isfinite(theorem) and math.isfinite(oracle)):
        return math.inf
    return abs(db(theorem) - db(oracle))


def _pair_oracle(geom, interval, pair, p_t) -> float:
    return worstcase.grid_min(
        lambda d: channel.sum_power_lower_bound(geom, d, pair, p_t),
        interval,
        worstcase.phase_uniform_grid(geom, interval, pair.delta_omega),
    ).power


def _single_oracle(geom, interval, freq, p_t) -> float:
    return worstcase.grid_min(
        lambda d: channel.receive_power_single(geom, d, freq, p_t),
        interval,
        worstcase.phase_uniform_grid(geom, interval, freq.omega),
    ).power


def table_against_oracle(table, system, rng, near_null: int = 3) -> tuple[float, list[str]]:
    """Compare a seeded sample of table entries with the grid oracle.

    The sample holds up to ``near_null`` pairs whose spacing null is near
    the user's interval (the pairs that need the exact worst case), one
    pair drawn from all pairs and one single frequency.
    """
    hz = np.array([f.f for f in table.frequencies])
    n_users, n_freqs = table.single.shape
    near = near_null_pairs(system.h_tx, table.users, hz)
    picks = [tuple(p) for p in near[rng.permutation(len(near))[:near_null]]]
    i, j = sorted(rng.choice(n_freqs, size=2, replace=False))
    picks.append((int(rng.integers(n_users)), int(i), int(j)))
    worst, problems = 0.0, []
    for u, i, j in picks:
        user = table.users[u]
        geom = SceneGeometry(system.h_tx, user.h_rx)
        value = table.single[u, i] + table.single[u, j] + table.pair[u, i, j]
        oracle = _pair_oracle(geom, user.interval, FrequencyPair.of(hz[i], hz[j]), system.p_t)
        gap = _gap(value, oracle)
        worst = max(worst, gap)
        if not gap <= ORACLE_TOL_DB:
            problems.append(f"pair (user {u}, {hz[i]:.6g} Hz, {hz[j]:.6g} Hz) is {gap:.3g} dB off the oracle")
    u, i = int(rng.integers(n_users)), int(rng.integers(n_freqs))
    user = table.users[u]
    oracle = _single_oracle(SceneGeometry(system.h_tx, user.h_rx), user.interval, CarrierFrequency(hz[i]), system.p_t)
    gap = _gap(table.single[u, i], oracle)
    worst = max(worst, gap)
    if not gap <= ORACLE_TOL_DB:
        problems.append(f"single (user {u}, {hz[i]:.6g} Hz) is {gap:.3g} dB off the oracle")
    return worst, problems


def query_outputs(interval, single, single_ref, pair, pair_ref) -> tuple[float, list[str]]:
    """Theorem against oracle, within criterion 6's tolerance, for one query."""
    problems = []
    gaps = []
    for label, thm, ref in (("single", single, single_ref), ("pair", pair, pair_ref)):
        gap = _gap(thm.power, ref.power)
        gaps.append(gap)
        if not gap <= ORACLE_TOL_DB:
            problems.append(f"{label}: theorem {thm.power!r} W vs oracle {ref.power!r} W ({gap:.3g} dB)")
        if not interval.contains(thm.argmin_distance):
            problems.append(f"{label}: argmin {thm.argmin_distance!r} m outside the interval")
    return max(gaps), problems


def criterion9(mean: dict) -> list[str]:
    """The paper row's ordering: greedy-random gap in range, rr_block worst."""
    problems = []
    gap = mean["greedy"] - mean["random"]
    lo, hi = CRITERION9_GAP_DB
    if not lo <= gap <= hi:
        problems.append(f"greedy-random gap {gap:.3f} dB outside [{lo}, {hi}]")
    worst = min(mean, key=mean.get)
    if worst != "rr_block":
        problems.append(f"worst scheme is {worst}, expected rr_block")
    return problems
