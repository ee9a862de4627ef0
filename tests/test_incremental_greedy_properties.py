"""Hypothesis properties of the incremental greedy over general instances.

The seeded differential tests and the reference solvers are in
``test_incremental_greedy.py``; this module adds randomly drawn instances
with integer-valued data (exact sums, real density ties), nonzero
diagonals and zero capacities, and instances whose profits and joint
profits are mostly signed zeros.  The greedy's column sums
(``qmkp._profit_sums``) are also compared with ``value_density`` directly.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from freqassign import Instance, value_density
from freqassign.qmkp import _profit_sums
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
    # Any diagonal: Instance packs the off-diagonal profits and never reads it.
    joint[:, np.arange(n), np.arange(n)] = ints(k * n, -3, 3).reshape(k, n)
    return Instance(
        weights=ints(n, 1, 3),
        capacities=ints(k, 0, 6),
        profits=ints(k * n, -5, 5).reshape(k, n),
        joint_profits=joint,
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(general_instances())
def test_general_instances_property(instance):
    assert_greedy_matches(instance)
    unit = Instance(
        np.ones(instance.n_items),
        np.full(instance.n_knapsacks, 2.0),
        instance.profits,
        instance.joint_profits,
    )
    assert_rr_profits_matches(unit)


def assert_sums_match_scalar_density(instance, context):
    sums = _profit_sums(instance.profits, instance.joint, instance.index, context)
    matrix = sums / instance.weights
    for u in range(instance.n_knapsacks):
        for i in range(instance.n_items):
            assert matrix[u, i].hex() == value_density(instance, u, i, context).hex()


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
    assert_sums_match_scalar_density(instance, context)


SIGNED = st.sampled_from([-0.0, 0.0, -1.0, 1.0])


@st.composite
def signed_zero_instances(draw):
    """Profits and joint profits drawn from {-0.0, +0.0, -1, +1}, with a
    nonzero diagonal: a density keeps the sign of a zero sum only if the
    j == i term adds nothing at all."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 3))

    def values(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(SIGNED, min_size=size, max_size=size))).reshape(shape)

    upper = values(k, n, n)
    # Mirror the strict upper triangle; adding a zero lower triangle, as
    # np.triu(a, 1) + np.triu(a, 1).T does, would turn -0.0 into +0.0.
    joint = np.where(np.triu(np.ones((n, n), dtype=bool), 1), upper, upper.transpose(0, 2, 1))
    joint[:, np.arange(n), np.arange(n)] = draw(st.sampled_from([-2.0, 3.0]))
    return Instance(np.ones(n), np.full(k, 2.0), values(k, n), joint)


# Item 0 is worth -0.0 + (-0.0) + (-0.0) against the first context {0, 1, 2}
# and every other item less, so the first step's density is -0.0 only if
# the diagonal term (5.0, skipped by value_density) adds nothing.
FIRST_STEP_NEGATIVE_ZERO = Instance(
    np.ones(3),
    np.array([1.0]),
    np.array([[-0.0, -1.0, -1.0]]),
    np.array([[[5.0, -0.0, -0.0], [-0.0, 5.0, -1.0], [-0.0, -1.0, 5.0]]]),
)


@settings(max_examples=300, deadline=None)
@example(FIRST_STEP_NEGATIVE_ZERO)
@given(signed_zero_instances())
def test_signed_zero_densities_match_bitwise(instance):
    assert_greedy_matches(instance)  # trace densities by .hex()
    n, k = instance.n_items, instance.n_knapsacks
    unit = Instance(np.ones(n), np.full(k, 2.0), instance.profits, instance.joint_profits)
    assert_rr_profits_matches(unit)
    for context in (range(n), range(n - 1, -1, -2)):
        assert_sums_match_scalar_density(instance, context)
