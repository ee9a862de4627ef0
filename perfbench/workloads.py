"""The benchmark's workloads: seeded inputs and the operation each one times.

Trial workloads time one ``bench.run_trial`` call per operation on a
pre-generated scenario.  ``oracle-verify`` times one verified worst-case
query per operation: the closed-form single and pair worst cases plus the
``grid_min`` oracle for both, which is the ``worst-case --verify-grid``
path.  All program calls go through module attributes so that the traced
run can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import checks
from freqassign import bench, channel, worstcase
from freqassign.bench import ScenarioConfig
from freqassign.channel import CarrierFrequency, FrequencyPair, SceneGeometry
from freqassign.profits import SystemConfig
from freqassign.worstcase import DistanceInterval

# Trial scenarios are drawn from a seeded pool this many times larger than
# the operation set, sorted by their near-null pair count, and the middle
# one of each stratum is taken, so that every seed replays the same spread
# of cheap and costly trials (see DESIGN.md, "Operation sets").
POOL_FACTOR = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: int  # size of the seeded operation set
    trace_ops: int  # operations replayed by the traced run
    config: ScenarioConfig | None = None  # None: oracle queries
    criterion9: bool = False  # check the paper's greedy-vs-baseline ordering


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-k20n50",
            "default ScenarioConfig (K=20, N=50, 2.4-2.5 GHz): the paper's large table row, mixing all layers",
            ops=48,
            trace_ops=12,
            config=ScenarioConfig(n_users=20, n_freqs=50),
            criterion9=True,
        ),
        Workload(
            "narrowband-k40n100",
            "2.400-2.410 GHz, K=40, N=100: no spacing null reaches any interval, so exact pairs are bypassed and greedy dominates",
            ops=24,
            trace_ops=6,
            config=ScenarioConfig(n_users=40, n_freqs=100, band=(2.400e9, 2.410e9)),
        ),
        Workload(
            "wideband-k8n24",
            "0.4-3 GHz, K=8, N=24: spacing nulls sit inside the intervals, so exact pair worst cases dominate",
            ops=16,
            trace_ops=5,
            config=ScenarioConfig(n_users=8, n_freqs=24, band=(0.4e9, 3e9)),
        ),
        Workload(
            "oracle-verify",
            "criterion-6 random queries, each checked by the grid oracle: the only workload running the channel kernels on whole arrays",
            ops=3000,
            trace_ops=300,
        ),
    )
}


@dataclass(frozen=True)
class Trial:
    index: int  # trial index within the seeded pool
    users: list
    freqs: list


def draw_trials(workload: Workload, seed: int, n_ops: int) -> tuple[SystemConfig, list[Trial]]:
    """Seeded, stratified set of n_ops scenarios of a trial workload."""
    config = replace(workload.config, master_seed=seed)
    system = SystemConfig(h_tx=config.h_tx, p_t=config.p_t)
    pool = [bench.generate_scenario(config, t) for t in range(POOL_FACTOR * n_ops)]
    weight = [
        len(checks.near_null_pairs(config.h_tx, users, np.array([f.f for f in freqs])))
        for users, freqs in pool
    ]
    ranked = sorted(range(len(pool)), key=lambda t: (weight[t], t))
    picks = sorted(ranked[s * POOL_FACTOR + POOL_FACTOR // 2] for s in range(n_ops))
    return system, [Trial(t, *pool[t]) for t in picks]


@dataclass(frozen=True)
class Query:
    geom: SceneGeometry
    interval: DistanceInterval
    freq: CarrierFrequency
    pair: FrequencyPair


def draw_queries(seed: int, n_ops: int) -> list[Query]:
    """Random configurations drawn as in acceptance criterion 6."""
    rng = np.random.default_rng((seed, 6))
    queries = []
    for _ in range(n_ops):
        geom = SceneGeometry(*(float(h) for h in rng.uniform(1.0, 15.0, size=2)))
        d_min = float(rng.uniform(5.0, 400.0))
        span = float(rng.uniform(1.0, min(100.0, 500.0 - d_min)))
        f1, f2 = (float(f) for f in np.sort(rng.uniform(0.4e9, 3e9, size=2)))
        queries.append(Query(geom, DistanceInterval(d_min, d_min + span), CarrierFrequency(f2), FrequencyPair(f1, f2)))
    return queries


class TrialRunner:
    """Runs ``bench.run_trial`` on the seeded scenarios and checks every output.

    While its hooks are installed, the profit table and every scored
    assignment of the trial in progress are kept for the checks: the
    hooks only store references, they do not time anything.
    """

    def __init__(self, workload: Workload, seed: int, n_ops: int):
        self.workload, self.seed = workload, seed
        self.system, self.trials = draw_trials(workload, seed, n_ops)
        self.tables, self.scored = [], []
        self.first_pass = {}  # op index -> TrialResult
        self.oracle_gap_db = 0.0

    def __len__(self) -> int:
        return len(self.trials)

    def hooks(self):
        build, score = bench.build_profit_table, bench.objective

        def build_hook(*args, **kwargs):
            table = build(*args, **kwargs)
            self.tables.append(table)
            return table

        def score_hook(instance, assignment):
            value = score(instance, assignment)
            self.scored.append((assignment, value))
            return value

        return [(bench, "build_profit_table", build_hook), (bench, "objective", score_hook)]

    def run(self, i: int):
        self.tables, self.scored = [], []
        trial = self.trials[i]
        return bench.run_trial(
            trial.users, trial.freqs, self.system, random_seed=(self.seed, trial.index, 1)
        )

    def check(self, i: int, result, deep: bool) -> list[str]:
        """Problems with the output just produced by ``run(i)``; deep adds oracle samples."""
        problems = checks.trial_outputs(result, self.tables, self.scored, self.system.p_t)
        if deep and not problems:
            rng = np.random.default_rng((self.seed, self.trials[i].index, 3))
            gap, sample_problems = checks.table_against_oracle(self.tables[0], self.system, rng)
            self.oracle_gap_db = max(self.oracle_gap_db, gap)
            problems += sample_problems
        if i not in self.first_pass:
            self.first_pass[i] = result
        elif result.objectives_w != self.first_pass[i].objectives_w:
            problems.append("objectives differ from the first pass over the same scenario")
        return problems

    def quality(self) -> dict:
        """greedy_db and greedy_vs_random_db over the first pass, linear means."""
        scale = self.workload.config.n_users * self.system.p_t
        mean_db = checks.mean_db([r.objectives_w for r in self.first_pass.values()], scale)
        return {
            "mean_db": mean_db,
            "greedy_db": mean_db["greedy"],
            "greedy_vs_random_db": mean_db["greedy"] - mean_db["random"],
            "sample_oracle_gap_db_max": self.oracle_gap_db,
        }


class QueryRunner:
    """Runs verified worst-case queries; the grid oracle is part of the operation."""

    def __init__(self, seed: int, n_ops: int):
        self.queries = draw_queries(seed, n_ops)
        self.oracle_gap_db = 0.0

    def __len__(self) -> int:
        return len(self.queries)

    def hooks(self):
        return []

    def run(self, i: int):
        q = self.queries[i]
        single = worstcase.worst_case_single(q.geom, q.interval, q.freq)
        single_ref = worstcase.grid_min(
            lambda d: channel.receive_power_single(q.geom, d, q.freq),
            q.interval,
            worstcase.phase_uniform_grid(q.geom, q.interval, q.freq.omega),
        )
        pair = worstcase.worst_case_pair(q.geom, q.interval, q.pair)
        pair_ref = worstcase.grid_min(
            lambda d: channel.sum_power_lower_bound(q.geom, d, q.pair),
            q.interval,
            worstcase.phase_uniform_grid(q.geom, q.interval, q.pair.delta_omega),
        )
        return single, single_ref, pair, pair_ref

    def check(self, i: int, result, deep: bool) -> list[str]:
        q = self.queries[i]
        gap, problems = checks.query_outputs(q.interval, *result)
        self.oracle_gap_db = max(self.oracle_gap_db, gap)
        return problems

    def quality(self) -> dict:
        return {"oracle_gap_db_max": self.oracle_gap_db}


def runner_for(workload: Workload, seed: int, n_ops: int):
    if workload.config is None:
        return QueryRunner(seed, n_ops)
    return TrialRunner(workload, seed, n_ops)
