"""Hypothesis properties of the incremental greedy over general instances.

The seeded differential tests and the reference solvers are in
``test_incremental_greedy.py``; this module adds randomly drawn instances
with integer-valued data (exact sums, real density ties), nonzero
diagonals, zero capacities and feasible initial assignments.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freqassign import Assignment, Instance, value_density, value_density_matrix
from test_incremental_greedy import assert_greedy_matches, assert_rr_profits_matches


@st.composite
def general_instances(draw):
    """Integer-valued data, so sums are exact and density ties really occur."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, 4))

    def ints(size, lo, hi):
        values = draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size))
        return np.array(values, dtype=float)

    upper = ints(k * n * n, -6, 3).reshape(k, n, n)
    joint = np.triu(upper, 1) + np.triu(upper, 1).transpose(0, 2, 1)
    # The diagonal is not forced to zero: Instance does not require it.
    joint[:, np.arange(n), np.arange(n)] = ints(k * n, -3, 3).reshape(k, n)
    instance = Instance(
        weights=ints(n, 1, 3),
        capacities=ints(k, 0, 6),
        profits=ints(k * n, -5, 5).reshape(k, n),
        joint_profits=joint,
    )
    lists = [[] for _ in range(k)]
    load = np.zeros(k)
    for i in range(n):
        u = draw(st.integers(-1, k - 1))  # -1 leaves item i unassigned
        if u >= 0 and load[u] + instance.weights[i] <= instance.capacities[u]:
            lists[u].append(i)
            load[u] += instance.weights[i]
    return instance, Assignment.from_lists(lists)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(general_instances())
def test_general_instances_property(case):
    instance, initial = case
    assert_greedy_matches(instance)
    assert_greedy_matches(instance, initial)
    unit = Instance(
        np.ones(instance.n_items),
        np.full(instance.n_knapsacks, 2.0),
        instance.profits,
        instance.joint_profits,
    )
    assert_rr_profits_matches(unit)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matrix_equals_scalar_density_bitwise(seed):
    # Real-valued data with a nonzero diagonal and a shuffled context: the
    # column accumulation must make the same additions as value_density.
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(1, 9)), int(rng.integers(1, 4))
    joint = rng.normal(size=(k, n, n))
    instance = Instance(
        weights=rng.uniform(0.5, 3.0, n),
        capacities=np.full(k, 2.0),
        profits=rng.normal(size=(k, n)),
        joint_profits=joint + joint.transpose(0, 2, 1),
    )
    context = [int(j) for j in rng.permutation(n)[: rng.integers(0, n + 1)]]
    matrix = value_density_matrix(instance, context)
    for i in range(n):
        for u in range(k):
            assert matrix[i, u].hex() == value_density(instance, u, i, context).hex()
