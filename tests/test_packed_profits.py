"""Packed joint profits against the dense layout they replaced.

The ``dense_*`` functions below are the solvers' readers as they stood
when ``Instance`` held a dense (K, N, N) joint-profit tensor and read its
rows in place: ``_profit_sums``, the greedy with its trace,
``assign_rr_profits``, ``knapsack_profit`` and ``value_density``.  They
live here only as references.  On fixed trials of the paper, narrowband
and wideband configs, the packed readers must agree with them bit for bit,
and ``ProfitTable.pair`` with the tensor gathered from the full (K, P)
worst cases as the table was built before.  The memory pins check that a
table builds no dense tensor and no (K, P) temporary, and that a
benchmark trial never gathers the dense view.
"""

import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from freqassign import (
    Assignment,
    Instance,
    ScenarioConfig,
    SystemConfig,
    assign_rr_profits,
    build_profit_table,
    generate_scenario,
    greedy_construct,
    value_density,
)
from freqassign import bench, profits
from freqassign.channel import SceneGeometry
from freqassign.qmkp import GreedyStep, _profit_sums, knapsack_profit
from freqassign.worstcase import worst_cases

CONFIGS = {
    "paper": ScenarioConfig(n_users=20, n_freqs=50),
    "narrowband": ScenarioConfig(n_users=40, n_freqs=100, band=(2.400e9, 2.410e9)),
    "wideband": ScenarioConfig(n_users=8, n_freqs=24, band=(0.4e9, 3e9)),
}

Dense = namedtuple("Dense", ["weights", "capacities", "profits", "joint_profits"])


def dense_table(users, freqs, system):
    """Singles and the (K, N, N) pair tensor as the table formed them
    before the packed layout: both worst-case calls return full (power,
    argmin, kind) arrays, the joint profits are one (K, P) subtraction of
    gathered singles, and the tensor is gathered through the index map."""
    hz = np.array([f.f for f in freqs])
    where = [(SceneGeometry(system.h_tx, u.h_rx), u.interval) for u in users]
    i, j = np.triu_indices(hz.size, k=1)
    single = worst_cases(where, hz, None, system.p_t)[0]
    both = worst_cases(where, np.minimum(hz[i], hz[j]), np.maximum(hz[i], hz[j]), system.p_t)[0]
    joint = np.empty((len(users), i.size + 1))
    joint[:, -1] = -0.0
    np.subtract(both, single[:, i], out=joint[:, :-1])
    joint[:, :-1] -= single[:, j]
    index = np.full((hz.size, hz.size), i.size)
    index[i, j] = index[j, i] = np.arange(i.size)
    return single, joint[:, index]


def dense_profit_sums(profits, joint, context):
    total = np.array(profits, dtype=float)
    for j in context:
        total += joint[..., j, :]
    return total


def dense_value_density(instance, u, i, context):
    total = instance.profits[u, i]
    for j in context:
        if j != i:
            total += instance.joint_profits[u, i, j]
    return float(total / instance.weights[i])


def dense_knapsack_profit(instance, u, items):
    items = sorted(items)
    total = sum(instance.profits[u, i] for i in items)
    for a in range(len(items)):
        for b in items[a + 1 :]:
            total += instance.joint_profits[u, items[a], b]
    return float(total)


def dense_greedy_construct(instance):
    n, k = len(instance.weights), len(instance.capacities)
    p, jp, w = instance.profits, instance.joint_profits, instance.weights
    contents = [set() for _ in range(k)]
    remaining = instance.capacities.copy()
    density = np.divide(dense_profit_sums(p, jp, range(n)).T, w[:, None], out=np.empty((n, k)))
    fits = w[:, None] <= remaining
    trace = []
    while True:
        candidates = np.flatnonzero(fits)
        if candidates.size == 0:
            break
        i, u = divmod(int(candidates[np.argmax(density.ravel()[candidates])]), k)
        contents[u].add(i)
        remaining[u] -= w[i]
        fits[i] = False
        fits[:, u] &= w <= remaining[u]
        trace.append(GreedyStep(i, u, density[i, u]))
        for v in range(k) if len(trace) == 1 else (u,):
            np.divide(dense_profit_sums(p[v], jp[v], contents[v]), w, out=density[:, v])
    return Assignment(tuple(frozenset(s) for s in contents)), trace


def dense_assign_rr_profits(instance):
    n, k = len(instance.weights), len(instance.capacities)
    lists = [[] for _ in range(k)]
    free = np.ones(n, dtype=bool)
    for _ in range(2):
        for u in range(k):
            candidates = np.flatnonzero(free)
            if candidates.size == 0:
                break
            sums = dense_profit_sums(instance.profits[u], instance.joint_profits[u], lists[u])
            best = int(candidates[np.argmax((sums / instance.weights)[candidates])])
            lists[u].append(best)
            free[best] = False
    return Assignment.from_lists(lists)


def bits(values):
    return [float(v).hex() for v in values]


def assert_packed_matches_dense(instance, dense):
    n, k = instance.n_items, instance.n_knapsacks
    full = _profit_sums(instance.profits, instance.joint, instance.index, range(n))
    ref_full = dense_profit_sums(dense.profits, dense.joint_profits, range(n))
    assert full.tobytes() == ref_full.tobytes()

    greedy, trace = greedy_construct(instance, return_trace=True)
    ref, ref_trace = dense_greedy_construct(dense)
    assert greedy.as_lists() == ref.as_lists()
    assert [(s.item, s.knapsack) for s in trace] == [(s.item, s.knapsack) for s in ref_trace]
    assert bits(s.density for s in trace) == bits(s.density for s in ref_trace)
    if np.all(dense.weights == 1.0) and np.all(dense.capacities == 2.0):
        assert assign_rr_profits(instance).as_lists() == dense_assign_rr_profits(dense).as_lists()

    rng = np.random.default_rng(k * 1000 + n)
    for u, items in enumerate(greedy.knapsacks):
        profit = knapsack_profit(instance, u, items)
        assert bits([profit]) == bits([dense_knapsack_profit(dense, u, items)])
        context = list(items) + [int(j) for j in rng.permutation(n)[:3]]
        sums = _profit_sums(instance.profits[u], instance.joint[u], instance.index, context)
        ref_sums = dense_profit_sums(dense.profits[u], dense.joint_profits[u], context)
        assert sums.tobytes() == ref_sums.tobytes()
        for i in rng.permutation(n)[:5]:
            got = value_density(instance, u, int(i), context)
            assert bits([got]) == bits([dense_value_density(dense, u, int(i), context)])


@pytest.mark.parametrize("trial", [0, 1])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_table_instance_matches_the_dense_layout(name, trial):
    config = CONFIGS[name]
    users, freqs = generate_scenario(config, trial)
    system = SystemConfig(h_tx=config.h_tx, p_t=config.p_t)
    table = build_profit_table(users, freqs, system)
    single, pair = dense_table(users, freqs, system)
    assert table.single.tobytes() == single.tobytes()
    instance = Instance.from_profit_table(table)
    dense = Dense(instance.weights, instance.capacities, single, pair)
    assert_packed_matches_dense(instance, dense)
    assert "pair" not in vars(table)
    assert table.pair.tobytes() == pair.tobytes()


@pytest.mark.parametrize("general", [True, False], ids=["general", "unit"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_input_matches_the_dense_layout(seed, general):
    # Profits of both signs; general weights and capacities, or the
    # frequency shape that rr-profits takes.
    rng = np.random.default_rng(seed)
    n, k = 12, 4
    upper = np.triu(rng.normal(size=(k, n, n)), 1)
    joint = upper + upper.transpose(0, 2, 1)
    joint[:, np.arange(n), np.arange(n)] = -0.0  # the layout the dense solvers read
    weights, capacities = rng.uniform(0.5, 2.0, n), rng.uniform(1.0, 4.0, k)
    if not general:
        weights, capacities = np.ones(n), np.full(k, 2.0)
    dense = Dense(weights, capacities, rng.normal(size=(k, n)), joint)
    assert_packed_matches_dense(Instance(*dense), dense)


def test_table_peak_memory_is_the_packed_array_and_block_buffers():
    # K=40, N=100: the packed (K, P + 1) array is 1.6 MB.  Everything else
    # the table makes at once (the endpoint stage's user blocks, the gather
    # buffer, the (P,) pair data) stays below one more array of that size,
    # so a (K, N, N) tensor or any (K, P) argmin, kind or gather array
    # would cross the bound.
    config = CONFIGS["narrowband"]
    users, freqs = generate_scenario(config, 0)
    system = SystemConfig(h_tx=config.h_tx, p_t=config.p_t)
    build_profit_table(users, freqs, system)  # imports and caches warm
    tracemalloc.start()
    try:
        table = build_profit_table(users, freqs, system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.joint.shape == (40, 100 * 99 // 2 + 1)
    assert peak < 1.9 * table.joint.nbytes, f"peak {peak / 1e6:.2f} MB"


def test_trial_never_gathers_the_dense_view(monkeypatch):
    tables = []
    build = bench.build_profit_table

    def keep(*args):
        tables.append(build(*args))
        return tables[-1]

    monkeypatch.setattr(bench, "build_profit_table", keep)
    config = CONFIGS["wideband"]
    users, freqs = generate_scenario(config, 0)
    bench.run_trial(users, freqs, SystemConfig(h_tx=config.h_tx, p_t=config.p_t), random_seed=0)
    (table,) = tables
    assert "pair" not in vars(table)


def test_table_calls_form_no_argmin_or_kind_array(monkeypatch):
    # Both worst_cases calls of a table write powers into a given array; a
    # call without out= forms (users, entries) argmin and kind arrays besides.
    calls = []

    def record(*args, **kwargs):
        result = worst_cases(*args, **kwargs)
        calls.append(kwargs.get("out") is not None and result is kwargs["out"])
        return result

    monkeypatch.setattr(profits, "worst_cases", record)
    config = CONFIGS["wideband"]
    users, freqs = generate_scenario(config, 0)
    build_profit_table(users, freqs, SystemConfig(h_tx=config.h_tx, p_t=config.p_t))
    assert calls == [True, True]
