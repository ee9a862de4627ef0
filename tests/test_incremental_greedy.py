"""The incremental greedy and rr-profits against the loops they replaced.

``reference_greedy_construct`` and ``reference_assign_rr_profits`` are the
solvers as they stood before the density array: every (item, knapsack)
density recomputed with the scalar ``value_density`` after each placement,
and all N*K candidates re-sorted on every step.  They live here only as
the references of the differential tests, which require equal assignments
and bit-identical (item, knapsack, density) traces.  A mismatch is reported
with the objective gap between the two assignments.  The hypothesis
properties over general instances are in
``test_incremental_greedy_properties.py``, so these seeded tests need no
package beyond the project's own dependencies and pytest.
"""

from dataclasses import replace

import numpy as np
import pytest

from freqassign import (
    Assignment,
    CarrierFrequency,
    DistanceInterval,
    Instance,
    ScenarioConfig,
    SystemConfig,
    UserProfile,
    assign_rr_profits,
    build_profit_table,
    generate_scenario,
    greedy_construct,
    objective,
    value_density,
    value_density_matrix,
)
from freqassign.qmkp import GreedyStep, _require_frequency_shape, feasible


def reference_greedy_construct(instance, initial=None, return_trace=False):
    if initial is None:
        initial = Assignment.empty(instance.n_knapsacks)
    if not feasible(instance, initial):
        raise ValueError("initial assignment is infeasible")

    contents = [set(items) for items in initial.knapsacks]
    remaining = instance.capacities - np.array(
        [sum(instance.weights[i] for i in items) for items in contents]
    )
    unassigned = set(range(instance.n_items)) - initial.assigned_items()
    density = np.full((instance.n_items, instance.n_knapsacks), -np.inf)
    for i in unassigned:
        for u in range(instance.n_knapsacks):
            density[i, u] = value_density(instance, u, i, unassigned)

    trace = []
    while unassigned:
        ranked = sorted(
            ((density[i, u], i, u) for i in unassigned for u in range(instance.n_knapsacks)),
            key=lambda c: (-c[0], c[1], c[2]),
        )
        placed = None
        for d, i, u in ranked:
            if instance.weights[i] <= remaining[u]:
                placed = (i, u, d)
                break
        if placed is None:
            break
        i, u, d = placed
        contents[u].add(i)
        unassigned.remove(i)
        remaining[u] -= instance.weights[i]
        trace.append(GreedyStep(i, u, d))
        for j in unassigned:
            for v in range(instance.n_knapsacks):
                density[j, v] = value_density(instance, v, j, contents[v])

    result = Assignment(tuple(frozenset(s) for s in contents))
    if return_trace:
        return result, trace
    return result


def reference_assign_rr_profits(instance):
    _require_frequency_shape(instance)
    n, k = instance.n_items, instance.n_knapsacks
    lists = [[] for _ in range(k)]
    taken = set()
    for _ in range(2):
        for u in range(k):
            free = [i for i in range(n) if i not in taken]
            if not free:
                break
            best = max(free, key=lambda i: (value_density(instance, u, i, lists[u]), -i))
            lists[u].append(best)
            taken.add(best)
    return Assignment.from_lists(lists)


def _bits(trace):
    return [(step.item, step.knapsack, float(step.density).hex()) for step in trace]


def _gap(instance, new, ref):
    if feasible(instance, new):
        return objective(instance, new) - objective(instance, ref)
    return "new assignment infeasible"


def assert_greedy_matches(instance, initial=None):
    new, new_trace = greedy_construct(instance, initial, return_trace=True)
    ref, ref_trace = reference_greedy_construct(instance, initial, return_trace=True)
    message = f"greedy differs; objective gap (new - reference) {_gap(instance, new, ref)}"
    assert new.as_lists() == ref.as_lists(), message
    assert _bits(new_trace) == _bits(ref_trace), message


def assert_rr_profits_matches(instance):
    new, ref = assign_rr_profits(instance), reference_assign_rr_profits(instance)
    assert new.as_lists() == ref.as_lists(), (
        f"rr_profits differs; objective gap (new - reference) {_gap(instance, new, ref)}"
    )


def _frequency_instance(config, trial):
    users, freqs = generate_scenario(config, trial)
    system = SystemConfig(h_tx=config.h_tx, p_t=config.p_t)
    return Instance.from_profit_table(build_profit_table(users, freqs, system))


def _criterion_7_instances():
    """The 100 instances acceptance criterion 7 draws, in its order."""
    rng = np.random.default_rng(7)
    system = SystemConfig(h_tx=10.0)
    for _ in range(100):
        n_users = int(rng.integers(1, 4))
        n_freqs = int(rng.integers(2, 7))
        users = []
        for _ in range(n_users):
            d_min = rng.uniform(20.0, 40.0)
            users.append(
                UserProfile(
                    rng.uniform(1.0, 3.0),
                    DistanceInterval(d_min, d_min + rng.uniform(10.0, 100.0)),
                )
            )
        hz = np.sort(rng.uniform(2.4e9, 2.5e9, size=n_freqs))
        freqs = [CarrierFrequency(float(f)) for f in hz]
        yield Instance.from_profit_table(build_profit_table(users, freqs, system))


class TestAcceptanceSeeds:
    def test_criterion_7_instances(self):
        for instance in _criterion_7_instances():
            assert_greedy_matches(instance)

    @pytest.mark.parametrize("n_users, n_freqs", [(3, 10), (20, 50)], ids=["criterion8", "criterion9"])
    def test_benchmark_rows(self, n_users, n_freqs):
        config = ScenarioConfig(n_users=n_users, n_freqs=n_freqs, trials=100, master_seed=0)
        for trial in range(config.trials):
            instance = _frequency_instance(config, trial)
            assert_greedy_matches(instance)
            assert_rr_profits_matches(instance)


# The scenario configurations of the benchmark's three trial workloads.
WORKLOAD_CONFIGS = {
    "paper-k20n50": ScenarioConfig(n_users=20, n_freqs=50),
    "narrowband-k40n100": ScenarioConfig(n_users=40, n_freqs=100, band=(2.400e9, 2.410e9)),
    "wideband-k8n24": ScenarioConfig(n_users=8, n_freqs=24, band=(0.4e9, 3e9)),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
@pytest.mark.parametrize("seed", range(10))
def test_workload_seeds(name, seed):
    instance = _frequency_instance(replace(WORKLOAD_CONFIGS[name], master_seed=seed), 0)
    assert_greedy_matches(instance)
    assert_rr_profits_matches(instance)


class TestErrorsUnchanged:
    @pytest.mark.parametrize(
        "lists",
        [[[0, 1], []], [[0], [0]], [[5], []], [[0], [1], []]],
        ids=["over-capacity", "shared-item", "index-out-of-range", "knapsack-count"],
    )
    def test_infeasible_initial(self, lists):
        instance = Instance(
            weights=[1.0, 1.0],
            capacities=[1.0, 1.0],
            profits=[[5.0, 1.0], [4.0, 2.0]],
            joint_profits=np.zeros((2, 2, 2)),
        )
        initial = Assignment.from_lists(lists)
        for solve in (greedy_construct, reference_greedy_construct):
            with pytest.raises(ValueError):
                solve(instance, initial)

    def test_zero_weight_unassigned_item(self):
        instance = Instance(
            weights=[1.0, 0.0],
            capacities=[1.0],
            profits=[[1.0, 2.0]],
            joint_profits=np.zeros((1, 2, 2)),
        )
        for solve in (greedy_construct, reference_greedy_construct):
            with pytest.raises(ValueError, match="zero-weight"):
                solve(instance)

    def test_zero_weight_item_already_placed(self):
        # Only unassigned items get densities, so a placed zero-weight item is fine.
        instance = Instance(
            weights=[0.0, 1.0, 1.0],
            capacities=[1.0, 1.0],
            profits=[[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]],
            joint_profits=np.zeros((2, 3, 3)),
        )
        assert_greedy_matches(instance, Assignment.from_lists([[0], []]))

    def test_matrix_context_out_of_range(self):
        instance = Instance(np.ones(2), [2.0], np.zeros((1, 2)), np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="out of range"):
            value_density_matrix(instance, [2])
