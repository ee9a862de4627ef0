import itertools

import numpy as np
import pytest

from freqassign import (
    Assignment,
    CarrierFrequency,
    DistanceInterval,
    FrequencyPair,
    Instance,
    SceneGeometry,
    SystemConfig,
    UserProfile,
    assign_random,
    assign_rr_block,
    assign_rr_profits,
    assign_rr_simple,
    build_profit_table,
    exhaustive_solve,
    feasible,
    greedy_construct,
    objective,
    per_knapsack_profits,
    value_density,
    worst_case_pair,
)
from freqassign.bench import SOLVERS
from freqassign.qmkp import _profit_sums, knapsack_profit


def toy_instance():
    # the two-knapsack hand trace: capacities 1, no joint profits
    return Instance(
        weights=[1.0, 1.0],
        capacities=[1.0, 1.0],
        profits=[[5.0, 1.0], [4.0, 2.0]],
        joint_profits=np.zeros((2, 2, 2)),
    )


def random_instance(rng, n_items, n_knapsacks):
    profits = rng.uniform(-1.0, 3.0, (n_knapsacks, n_items))
    joint = rng.uniform(-1.0, 1.0, (n_knapsacks, n_items, n_items))
    joint = (joint + joint.transpose(0, 2, 1)) / 2.0
    for u in range(n_knapsacks):
        np.fill_diagonal(joint[u], 0.0)
    return Instance(
        weights=np.ones(n_items),
        capacities=np.full(n_knapsacks, 2.0),
        profits=profits,
        joint_profits=joint,
    )


def brute_objective(instance, assignment):
    """Objective recomputed from scratch, independent of qmkp.objective."""
    total = 0.0
    for u, items in enumerate(assignment.knapsacks):
        items = sorted(items)
        for i in items:
            total += float(instance.profits[u, i])
        for a in items:
            for b in items:
                if a < b:
                    total += float(instance.joint_profits[u, a, b])
    return total


class TestAssignment:
    def test_from_lists_ignores_order_and_repeats(self):
        a = Assignment.from_lists([[2, 0, 2], [], [1]])
        assert a == Assignment.from_lists([[0, 2], [], [1]])
        assert a.as_lists() == [[0, 2], [], [1]]
        assert a.n_knapsacks == 3


class TestFeasible:
    def test_empty_assignment(self):
        inst = toy_instance()
        assert feasible(inst, Assignment.from_lists([[], []]))

    def test_capacity_violation(self):
        inst = random_instance(np.random.default_rng(1), 4, 1)
        assert not feasible(inst, Assignment.from_lists([[0, 1, 2]]))

    def test_disjointness_violation(self):
        inst = random_instance(np.random.default_rng(2), 4, 2)
        assert not feasible(inst, Assignment.from_lists([[0, 1], [1]]))

    # Python would read item -1 as the last item
    @pytest.mark.parametrize("item", [7, -1])
    def test_out_of_range_rejected(self, item):
        inst = toy_instance()
        with pytest.raises(ValueError, match=f"item index {item} out of range"):
            feasible(inst, Assignment.from_lists([[item], []]))


class TestObjective:
    def test_empty_is_zero(self):
        assert objective(toy_instance(), Assignment.from_lists([[], []])) == 0.0

    def test_single_knapsack_pair_counted_once(self):
        inst = random_instance(np.random.default_rng(3), 3, 1)
        a = Assignment.from_lists([[0, 2]])
        expected = (
            inst.profits[0, 0] + inst.profits[0, 2] + inst.joint_profits[0, 0, 2]
        )
        assert objective(inst, a) == pytest.approx(expected, rel=1e-15)

    def test_infeasible_rejected(self):
        inst = toy_instance()
        with pytest.raises(ValueError):
            objective(inst, Assignment.from_lists([[0, 1], []]))

    @pytest.mark.parametrize(
        "lists",
        [[[0, 1], []], [[0], [0]], [[5], []], [[0], [1], []]],
        ids=["over-capacity", "shared-item", "index-out-of-range", "knapsack-count"],
    )
    def test_every_kind_of_infeasible_assignment_rejected(self, lists):
        with pytest.raises(ValueError):
            objective(toy_instance(), Assignment.from_lists(lists))

    def test_matches_user_worst_cases(self):
        # frequency instantiation: the objective is the sum of each user's
        # worst-case receive power, recomputed from the channel layer
        rng = np.random.default_rng(4)
        system = SystemConfig(h_tx=10.0)
        users = [
            UserProfile(rng.uniform(1, 3), DistanceInterval(25.0, 90.0)),
            UserProfile(rng.uniform(1, 3), DistanceInterval(35.0, 120.0)),
        ]
        freqs = [CarrierFrequency(float(f)) for f in np.sort(rng.uniform(2.4e9, 2.5e9, 4))]
        table = build_profit_table(users, freqs, system)
        inst = Instance.from_profit_table(table)
        a = Assignment.from_lists([[0, 3], [1, 2]])
        expected = 0.0
        for u, (i, j) in enumerate([(0, 3), (1, 2)]):
            geom = SceneGeometry(10.0, users[u].h_rx)
            expected += worst_case_pair(
                geom, users[u].interval, FrequencyPair.of(freqs[i].f, freqs[j].f)
            ).power
        assert objective(inst, a) == pytest.approx(expected, rel=1e-12)

    def test_solvers_leave_the_shared_table_untouched(self):
        # the instance holds the table's packed arrays themselves, not copies
        rng = np.random.default_rng(8)
        users = [UserProfile(rng.uniform(1, 3), DistanceInterval(25.0, 90.0)) for _ in range(3)]
        freqs = [CarrierFrequency(float(f)) for f in np.sort(rng.uniform(2.4e9, 2.5e9, 7))]
        table = build_profit_table(users, freqs, SystemConfig(h_tx=10.0))
        single, joint, index = table.single.copy(), table.joint.copy(), table.index.copy()
        inst = Instance.from_profit_table(table)
        assert inst.profits is table.single
        assert inst.joint is table.joint and inst.index is table.index
        for solve in SOLVERS.values():
            objective(inst, solve(inst, 0))
        assert table.single.tobytes() == single.tobytes()
        assert table.joint.tobytes() == joint.tobytes()
        assert np.array_equal(table.index, index)
        assert "pair" not in vars(table)  # the solvers read packed rows only


class TestValueDensity:
    def test_empty_context(self):
        inst = toy_instance()
        assert value_density(inst, 0, 1, set()) == pytest.approx(1.0)

    def test_self_excluded_from_context(self):
        inst = random_instance(np.random.default_rng(5), 3, 2)
        assert value_density(inst, 0, 1, {1}) == value_density(inst, 0, 1, set())

    def test_single_cross_term(self):
        inst = random_instance(np.random.default_rng(6), 3, 2)
        expected = inst.profits[1, 0] + inst.joint_profits[1, 0, 2]
        assert value_density(inst, 1, 0, {2}) == pytest.approx(expected, rel=1e-15)

    def test_zero_weight_rejected(self):
        inst = Instance(
            weights=[0.0],
            capacities=[1.0],
            profits=[[1.0]],
            joint_profits=np.zeros((1, 1, 1)),
        )
        with pytest.raises(ValueError):
            value_density(inst, 0, 0, set())

    def test_matrix_shape_and_empty_context(self):
        inst = random_instance(np.random.default_rng(7), 4, 3)
        v = _profit_sums(inst.profits, inst.joint, inst.index, set()) / inst.weights
        assert v.shape == (3, 4)
        np.testing.assert_allclose(v, inst.profits)


class TestGreedy:
    def test_capacity_admits_everything(self):
        inst = Instance(
            weights=[1.0, 1.0],
            capacities=[2.0],
            profits=[[-3.0, -8.0]],
            joint_profits=np.zeros((1, 2, 2)),
        )
        assert greedy_construct(inst).as_lists() == [[0, 1]]

    def test_hand_trace(self):
        inst = toy_instance()
        result = greedy_construct(inst)
        assert result.as_lists() == [[0], [1]]
        assert objective(inst, result) == 7.0
        best = exhaustive_solve(inst)
        assert objective(inst, best) == 7.0

    def test_never_beats_exhaustive(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(2, 7)), int(rng.integers(1, 4)))
            greedy = greedy_construct(inst)
            assert feasible(inst, greedy)
            best = exhaustive_solve(inst)
            assert objective(inst, greedy) <= objective(inst, best) + 1e-9

    def test_initial_densities_use_unassigned_set(self):
        # the first pick ranks by density against all unassigned items
        rng = np.random.default_rng(10)
        inst = random_instance(rng, 5, 2)
        _, trace = greedy_construct(inst, return_trace=True)
        first = trace[0]
        everything = set(range(5))
        expected = value_density(inst, first.knapsack, first.item, everything)
        assert first.density == pytest.approx(expected, rel=1e-12)

    def test_monotone_accumulation(self):
        # after the first refresh, each step's density matches the realized
        # objective increment; the first pick is checked against the
        # knapsack contents it actually joined
        rng = np.random.default_rng(11)
        for _ in range(30):
            inst = random_instance(rng, 6, 2)
            result, trace = greedy_construct(inst, return_trace=True)
            contents = [set() for _ in range(2)]
            prev = 0.0
            for step_idx, step in enumerate(trace):
                if step_idx == 0:
                    density = value_density(inst, step.knapsack, step.item, contents[step.knapsack])
                else:
                    density = step.density
                contents[step.knapsack].add(step.item)
                partial = Assignment(tuple(frozenset(s) for s in contents))
                now = objective(inst, partial)
                increment = inst.weights[step.item] * density
                assert now == pytest.approx(prev + increment, rel=1e-9, abs=1e-12)
                prev = now
            assert prev == pytest.approx(objective(inst, result), rel=1e-12, abs=1e-12)


class TestExhaustive:
    def test_single_item_goes_to_best_knapsack(self):
        inst = Instance(
            weights=[1.0],
            capacities=[2.0, 2.0, 2.0],
            profits=[[1.0], [9.0], [2.0]],
            joint_profits=np.zeros((3, 1, 1)),
        )
        assert exhaustive_solve(inst).as_lists() == [[], [0], []]

    def test_empty_instance(self):
        inst = Instance(
            weights=np.empty(0),
            capacities=[2.0],
            profits=np.empty((1, 0)),
            joint_profits=np.empty((1, 0, 0)),
        )
        result = exhaustive_solve(inst)
        assert result.as_lists() == [[]]
        assert objective(inst, result) == 0.0

    def test_size_guard(self):
        inst = random_instance(np.random.default_rng(12), 2, 2)
        big = Instance(
            weights=np.ones(30),
            capacities=np.full(9, 2.0),
            profits=np.zeros((9, 30)),
            joint_profits=np.zeros((9, 30, 30)),
        )
        exhaustive_solve(inst)
        with pytest.raises(ValueError):
            exhaustive_solve(big)

    def test_ties_resolve_to_the_first_code(self):
        # Every feasible assignment scores 0; the first code leaves every item out.
        inst = Instance(
            weights=[1.0, 1.0, 1.0],
            capacities=[2.0, 2.0],
            profits=np.zeros((2, 3)),
            joint_profits=np.zeros((2, 3, 3)),
        )
        assert exhaustive_solve(inst).as_lists() == [[], []]

    def test_negative_profit_items_left_out(self):
        inst = Instance(
            weights=[1.0, 1.0],
            capacities=[2.0],
            profits=[[2.0, -1.0]],
            joint_profits=np.zeros((1, 2, 2)),
        )
        assert exhaustive_solve(inst).as_lists() == [[0]]


class TestHomogeneousReduction:
    def test_label_permutation_invariance(self):
        # identical profit rows reduce the model to the standard QMKP:
        # relabeling knapsacks cannot change the objective
        rng = np.random.default_rng(13)
        base_p = rng.uniform(-1.0, 3.0, 5)
        base_j = rng.uniform(-1.0, 1.0, (5, 5))
        base_j = (base_j + base_j.T) / 2.0
        np.fill_diagonal(base_j, 0.0)
        inst = Instance(
            weights=np.ones(5),
            capacities=np.full(3, 2.0),
            profits=np.tile(base_p, (3, 1)),
            joint_profits=np.tile(base_j, (3, 1, 1)),
        )
        a = Assignment.from_lists([[0, 4], [1], [2, 3]])
        value = objective(inst, a)
        for perm in itertools.permutations(range(3)):
            permuted = Assignment.from_lists([a.as_lists()[p] for p in perm])
            assert objective(inst, permuted) == pytest.approx(value, rel=1e-15)


class TestBaselines:
    def test_random_reproducible(self):
        inst = random_instance(np.random.default_rng(14), 10, 3)
        assert assign_random(inst, 123) == assign_random(inst, 123)

    def test_random_two_items_each_when_enough(self):
        inst = random_instance(np.random.default_rng(15), 10, 3)
        a = assign_random(inst, 7)
        assert all(len(items) == 2 for items in a.knapsacks)
        assert feasible(inst, a)

    def test_random_short_supply_deals_one_per_round(self):
        inst = random_instance(np.random.default_rng(16), 4, 3)
        a = assign_random(inst, 7)
        sizes = sorted(len(items) for items in a.knapsacks)
        assert sum(sizes) == 4
        assert sizes == [1, 1, 2]
        assert feasible(inst, a)

    def test_rr_simple_layout(self):
        inst = random_instance(np.random.default_rng(17), 10, 3)
        assert assign_rr_simple(inst).as_lists() == [[0, 3], [1, 4], [2, 5]]

    def test_rr_simple_single_knapsack(self):
        inst = random_instance(np.random.default_rng(18), 2, 1)
        assert assign_rr_simple(inst).as_lists() == [[0, 1]]

    def test_rr_simple_one_round_when_items_scarce(self):
        inst = random_instance(np.random.default_rng(19), 3, 3)
        assert assign_rr_simple(inst).as_lists() == [[0], [1], [2]]
        too_few = random_instance(np.random.default_rng(20), 2, 3)
        with pytest.raises(ValueError):
            assign_rr_simple(too_few)

    def test_rr_block_layout(self):
        inst = random_instance(np.random.default_rng(21), 10, 3)
        assert assign_rr_block(inst).as_lists() == [[0, 1], [2, 3], [4, 5]]
        single = random_instance(np.random.default_rng(22), 4, 1)
        assert assign_rr_block(single).as_lists() == [[0, 1]]

    def test_rr_block_drops_out_of_range(self):
        inst = random_instance(np.random.default_rng(23), 3, 2)
        assert assign_rr_block(inst).as_lists() == [[0, 1], [2]]

    def test_rr_profits_single_user_takes_best_pair_total(self):
        inst = random_instance(np.random.default_rng(24), 2, 1)
        a = assign_rr_profits(inst)
        assert a.as_lists() == [[0, 1]]

    def test_rr_profits_turn_order_matters(self):
        # two identical users: the first mover takes the global best item
        p = np.array([[1.0, 5.0, 2.0, 0.5], [1.0, 5.0, 2.0, 0.5]])
        inst = Instance(
            weights=np.ones(4),
            capacities=np.full(2, 2.0),
            profits=p,
            joint_profits=np.zeros((2, 4, 4)),
        )
        a = assign_rr_profits(inst)
        assert 1 in a.knapsacks[0]
        assert 1 not in a.knapsacks[1]

    def test_rr_profits_second_round_uses_joint_term(self):
        p = np.array([[1.0, 0.9, 0.0]])
        joint = np.zeros((1, 3, 3))
        joint[0, 0, 2] = joint[0, 2, 0] = 5.0  # huge synergy with item 2
        inst = Instance(np.ones(3), [2.0], p, joint)
        assert assign_rr_profits(inst).as_lists() == [[0, 2]]

    def test_all_baselines_feasible(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            k = int(rng.integers(1, 4))
            if n < k:
                continue
            inst = random_instance(rng, n, k)
            for a in (
                assign_random(inst, int(rng.integers(1e6))),
                assign_rr_simple(inst),
                assign_rr_block(inst),
                assign_rr_profits(inst),
            ):
                assert feasible(inst, a)

    def test_schemes_require_frequency_shape(self):
        inst = Instance(
            weights=[2.0, 1.0],
            capacities=[3.0],
            profits=[[1.0, 1.0]],
            joint_profits=np.zeros((1, 2, 2)),
        )
        for scheme in (assign_rr_simple, assign_rr_block, assign_rr_profits):
            with pytest.raises(ValueError):
                scheme(inst)
        with pytest.raises(ValueError):
            assign_random(inst, 0)


class TestSerialization:
    def test_asymmetric_joint_profits_rejected(self):
        joint = np.zeros((1, 2, 2))
        joint[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            Instance(np.ones(2), [2.0], np.zeros((1, 2)), joint)

    def test_watt_scale_antisymmetric_joint_profits_rejected(self):
        # real pair profits are about 1e-8 W, so a fixed atol of 1e-8 would pass this
        joint = np.zeros((1, 3, 3))
        joint[0, 0, 1], joint[0, 1, 0] = 5e-9, -5e-9
        with pytest.raises(ValueError):
            Instance(np.ones(3), [2.0], np.zeros((1, 3)), joint)

    def test_joint_profits_within_scaled_tolerance_rejected(self):
        # symmetric to 1e-12 of the largest entry is not exactly symmetric
        joint = random_instance(np.random.default_rng(31), 5, 3).joint_profits * 1e-8
        noise = np.triu(np.random.default_rng(32).choice([-1.0, 1.0], size=joint.shape), 1)
        joint = joint + 1e-12 * np.max(np.abs(joint)) * noise
        assert not np.array_equal(joint, joint.transpose(0, 2, 1))
        with pytest.raises(ValueError, match="exactly symmetric"):
            Instance(np.ones(5), np.full(3, 2.0), np.zeros((3, 5)), joint)

    def test_mirrored_zeros_of_opposite_sign_rejected(self):
        # equal as numbers, but a solver reading row 1 for column 1 would
        # add +0.0 where value_density adds -0.0
        joint = np.full((1, 2, 2), -0.0)
        joint[0, 1, 0] = 0.0
        with pytest.raises(ValueError, match="exactly symmetric"):
            Instance(np.ones(2), [2.0], np.zeros((1, 2)), joint)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["weights", "capacities", "profits", "joint_profits"])
    def test_non_finite_values_rejected(self, field, bad):
        inst = random_instance(np.random.default_rng(29), 3, 2)
        fields = ("weights", "capacities", "profits", "joint_profits")
        data = {name: getattr(inst, name).copy() for name in fields}
        array = data[field]
        if field == "joint_profits":
            array[0, 0, 1] = array[0, 1, 0] = bad  # symmetric, so only finiteness fails
        else:
            array.flat[-1] = bad
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Instance(**data)


class TestJointLayout:
    """``Instance`` stores the joint profits as the solvers read them."""

    @pytest.mark.parametrize("diagonal", [0.0, 2.5, -1.0])
    def test_diagonal_stored_as_negative_zero_in_a_copy(self, diagonal):
        joint = random_instance(np.random.default_rng(33), 4, 2).joint_profits.copy()
        joint[:, np.arange(4), np.arange(4)] = diagonal
        before = joint.copy()
        inst = Instance(np.ones(4), np.full(2, 2.0), np.zeros((2, 4)), joint)
        assert inst.joint_profits is not joint
        assert np.array_equal(joint.view(np.int64), before.view(np.int64))  # caller's untouched
        diag = np.diagonal(inst.joint_profits, axis1=1, axis2=2)
        assert np.all(diag == 0.0) and np.all(np.signbit(diag))
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(inst.joint_profits[:, off].view(np.int64), joint[:, off].view(np.int64))

    def test_dense_input_packed_in_triu_order(self):
        joint = random_instance(np.random.default_rng(34), 4, 2).joint_profits.copy()
        inst = Instance(np.ones(4), np.full(2, 2.0), np.zeros((2, 4)), joint)
        i, j = np.triu_indices(4, k=1)
        assert inst.joint.shape == (2, i.size + 1)
        assert np.array_equal(inst.joint[:, :-1].view(np.int64), joint[:, i, j].view(np.int64))
        assert np.all(inst.joint[:, -1] == 0.0) and np.all(np.signbit(inst.joint[:, -1]))
        assert np.array_equal(inst.index[i, j], np.arange(i.size))
        assert np.array_equal(inst.index, inst.index.T)
        assert np.all(np.diagonal(inst.index) == i.size)

    @pytest.mark.parametrize(
        "flaw, message",
        [
            ("asymmetric map", "index map must be symmetric"),
            ("diagonal off the slot", "index map must be symmetric"),
            ("+0.0 slot", "must hold -0.0"),
        ],
    )
    def test_table_with_a_broken_layout_rejected(self, flaw, message):
        # from_profit_table scans no profits for symmetry, so it checks the
        # map and the -0.0 slot that make the packed rows symmetric instead
        users = [UserProfile(2.0, DistanceInterval(25.0, 90.0)) for _ in range(2)]
        freqs = [CarrierFrequency(f) for f in (2.40e9, 2.42e9, 2.45e9, 2.47e9)]
        table = build_profit_table(users, freqs, SystemConfig(h_tx=10.0))
        if flaw == "asymmetric map":
            table.index[0, 1] = table.index[0, 2]
        elif flaw == "diagonal off the slot":
            table.index[1, 1] = 0
        else:
            table.joint[:, -1] = 0.0
        with pytest.raises(ValueError, match=message):
            Instance.from_profit_table(table)

    def test_nested_lists_get_a_negative_zero_diagonal(self):
        inst = Instance([1.0, 1.0], [2.0], [[1.0, 2.0]], [[[0.0, 3.0], [3.0, 0.0]]])
        assert inst.joint_profits.tolist() == [[[-0.0, 3.0], [3.0, -0.0]]]
        assert np.all(np.signbit(np.diagonal(inst.joint_profits, axis1=1, axis2=2)))


class TestPerKnapsackProfits:
    def test_sums_to_objective(self):
        inst = random_instance(np.random.default_rng(27), 6, 3)
        a = greedy_construct(inst)
        parts = per_knapsack_profits(inst, a)
        assert sum(parts) == pytest.approx(objective(inst, a), rel=1e-12)

    def test_brute_objective_agreement(self):
        rng = np.random.default_rng(28)
        for _ in range(30):
            inst = random_instance(rng, 6, 2)
            a = greedy_construct(inst)
            assert objective(inst, a) == pytest.approx(brute_objective(inst, a), rel=1e-12)
            assert knapsack_profit(inst, 0, sorted(a.knapsacks[0])) == pytest.approx(
                per_knapsack_profits(inst, a)[0], rel=1e-12
            )
