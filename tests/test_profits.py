import math

import numpy as np
import pytest

from freqassign import (
    CarrierFrequency,
    DistanceInterval,
    FrequencyPair,
    Instance,
    SceneGeometry,
    SystemConfig,
    UserProfile,
    build_profit_table,
    pair_profit,
    single_profit,
    to_decibel,
    worst_case_pair,
)

from conftest import EX_FREQ_HIGH, EX_FREQ_LOW

SYSTEM = SystemConfig(h_tx=10.0, p_t=1.0)
EX_USER = UserProfile(1.5, DistanceInterval(30.0, 100.0))


def random_user(rng):
    h_rx = rng.uniform(1.0, 3.0)
    d_min = rng.uniform(20.0, 40.0)
    return UserProfile(h_rx, DistanceInterval(d_min, d_min + rng.uniform(10.0, 100.0)))


def random_band_freqs(rng, n):
    return [CarrierFrequency(float(f)) for f in np.sort(rng.uniform(2.4e9, 2.5e9, n))]


class TestSingleProfit:
    def test_running_example_values(self):
        assert to_decibel(single_profit(EX_USER, EX_FREQ_HIGH, SYSTEM)) == pytest.approx(
            -125.0, abs=0.5
        )
        assert to_decibel(single_profit(EX_USER, EX_FREQ_LOW, SYSTEM)) == pytest.approx(
            -97.0, abs=0.5
        )

    def test_scales_linearly_with_transmit_power(self):
        base = single_profit(EX_USER, EX_FREQ_HIGH, SYSTEM)
        scaled = single_profit(EX_USER, EX_FREQ_HIGH, SystemConfig(h_tx=10.0, p_t=4.0))
        assert scaled == pytest.approx(4.0 * base, rel=1e-14)


class TestPairProfit:
    def test_symmetry(self):
        f_i, f_j = CarrierFrequency(2.4e9), CarrierFrequency(2.65e9)
        assert pair_profit(EX_USER, f_i, f_j, SYSTEM) == pair_profit(EX_USER, f_j, f_i, SYSTEM)

    def test_equal_frequencies_rejected(self):
        f = CarrierFrequency(2.4e9)
        with pytest.raises(ValueError):
            pair_profit(EX_USER, f, f, SYSTEM)

    def test_reconstructs_pair_worst_case(self):
        f_i, f_j = CarrierFrequency(2.4e9), CarrierFrequency(2.65e9)
        s_i = single_profit(EX_USER, f_i, SYSTEM)
        s_j = single_profit(EX_USER, f_j, SYSTEM)
        p_ij = pair_profit(EX_USER, f_i, f_j, SYSTEM)
        total = worst_case_pair(
            SceneGeometry(10.0, 1.5), EX_USER.interval, FrequencyPair(2.4e9, 2.65e9)
        ).power
        assert s_i + s_j + p_ij == pytest.approx(total, rel=1e-12)
        assert to_decibel(total) == pytest.approx(-82.9, abs=0.2)

    def test_value_from_running_example_arithmetic(self):
        # the joint profit is exactly the pair total minus both singles
        f_i, f_j = CarrierFrequency(2.4e9), CarrierFrequency(2.65e9)
        total = worst_case_pair(
            SceneGeometry(10.0, 1.5), EX_USER.interval, FrequencyPair(2.4e9, 2.65e9)
        ).power
        expected = (
            total
            - single_profit(EX_USER, f_i, SYSTEM)
            - single_profit(EX_USER, f_j, SYSTEM)
        )
        assert pair_profit(EX_USER, f_i, f_j, SYSTEM) == pytest.approx(expected, rel=1e-12)


class TestBuildProfitTable:
    def test_smallest_table(self):
        freqs = [CarrierFrequency(2.4e9), CarrierFrequency(2.45e9)]
        table = build_profit_table([EX_USER], freqs, SYSTEM)
        assert table.single.shape == (1, 2)
        assert table.pair.shape == (1, 2, 2)
        assert table.pair[0, 0, 1] != 0.0
        assert table.pair[0, 0, 0] == 0.0 and table.pair[0, 1, 1] == 0.0

    def test_duplicate_frequencies_rejected(self):
        freqs = [CarrierFrequency(2.4e9), CarrierFrequency(2.4e9)]
        with pytest.raises(ValueError):
            build_profit_table([EX_USER], freqs, SYSTEM)

    def test_no_users_rejected(self):
        with pytest.raises(ValueError):
            build_profit_table([], [CarrierFrequency(2.4e9)], SYSTEM)

    def test_identical_users_identical_rows(self):
        rng = np.random.default_rng(41)
        freqs = random_band_freqs(rng, 6)
        user = random_user(rng)
        clone = UserProfile(user.h_rx, user.interval)
        table = build_profit_table([user, clone], freqs, SYSTEM)
        assert np.array_equal(table.single[0], table.single[1])
        assert np.array_equal(table.pair[0], table.pair[1])

    def test_instance_reads_the_table_in_place(self):
        # the solvers take the packed profits and their map as built, no
        # copy, and nothing gathers the dense tensor
        rng = np.random.default_rng(47)
        table = build_profit_table(
            [random_user(rng) for _ in range(2)], random_band_freqs(rng, 3), SYSTEM
        )
        instance = Instance.from_profit_table(table)
        assert instance.profits is table.single
        assert instance.joint is table.joint and instance.index is table.index
        assert "pair" not in vars(table)
        assert table.joint.shape == (2, 3 + 1)
        assert np.array_equal(instance.weights, np.ones(3))
        assert np.array_equal(instance.capacities, np.full(2, 2.0))
        diag = np.diagonal(table.pair, axis1=1, axis2=2)
        assert not np.any(diag) and np.all(np.signbit(diag))
        assert table.pair is table.pair  # gathered once, then kept

    def test_pair_tensor_exactly_symmetric(self):
        rng = np.random.default_rng(42)
        table = build_profit_table(
            [random_user(rng) for _ in range(3)], random_band_freqs(rng, 5), SYSTEM
        )
        bits = table.pair.view(np.int64)  # signed zeros included
        for u in range(3):
            assert np.array_equal(bits[u], bits[u].T)

    def test_matches_scalar_profit_functions(self):
        rng = np.random.default_rng(43)
        users = [random_user(rng) for _ in range(2)]
        freqs = random_band_freqs(rng, 5)
        table = build_profit_table(users, freqs, SYSTEM)
        for u, user in enumerate(users):
            for i, fr in enumerate(freqs):
                assert table.single[u, i] == single_profit(user, fr, SYSTEM)
            for i in range(5):
                for j in range(i + 1, 5):
                    ref = pair_profit(user, freqs[i], freqs[j], SYSTEM)
                    assert table.pair[u, i, j] == pytest.approx(ref, rel=1e-12)

    def test_reconstruction_property(self):
        # single_i + single_j + pair_ij recovers the two-frequency worst case
        rng = np.random.default_rng(44)
        users = [random_user(rng) for _ in range(3)]
        freqs = random_band_freqs(rng, 6)
        table = build_profit_table(users, freqs, SYSTEM)
        for u, user in enumerate(users):
            geom = SceneGeometry(SYSTEM.h_tx, user.h_rx)
            for i in range(6):
                for j in range(i + 1, 6):
                    recon = table.single[u, i] + table.single[u, j] + table.pair[u, i, j]
                    direct = worst_case_pair(
                        geom, user.interval, FrequencyPair.of(freqs[i].f, freqs[j].f)
                    ).power
                    assert math.isclose(recon, direct, rel_tol=1e-12)

    def test_wideband_reconstruction_property(self):
        # frequencies far apart put spacing nulls inside the interval
        rng = np.random.default_rng(45)
        for _ in range(5):
            user = UserProfile(
                rng.uniform(1.0, 8.0),
                DistanceInterval(5.0 + rng.uniform(0, 30), 60.0 + rng.uniform(0, 60)),
            )
            freqs = [CarrierFrequency(float(f)) for f in np.sort(rng.uniform(0.4e9, 3e9, 5))]
            table = build_profit_table([user], freqs, SYSTEM)
            geom = SceneGeometry(SYSTEM.h_tx, user.h_rx)
            for i in range(5):
                for j in range(i + 1, 5):
                    recon = table.single[0, i] + table.single[0, j] + table.pair[0, i, j]
                    direct = worst_case_pair(
                        geom, user.interval, FrequencyPair.of(freqs[i].f, freqs[j].f)
                    ).power
                    assert math.isclose(recon, direct, rel_tol=1e-12)


    def test_frequency_order_only_permutes_the_table(self):
        # wideband pairs have spacing nulls inside the intervals, so a pair
        # read in the wrong order would lose its null candidates
        rng = np.random.default_rng(12)
        users = [random_user(rng) for _ in range(4)]
        freqs = [CarrierFrequency(float(f)) for f in np.sort(rng.uniform(0.4e9, 3e9, 9))]
        perm = rng.permutation(len(freqs))
        ordered = build_profit_table(users, freqs, SYSTEM)
        shuffled = build_profit_table(users, [freqs[p] for p in perm], SYSTEM)
        assert shuffled.single.tobytes() == ordered.single[:, perm].tobytes()
        # one_pair - single_i - single_j subtracts in index order, so a pair
        # may round differently once its two indices swap
        expected = ordered.pair[:, perm][:, :, perm]
        slack = 4 * np.finfo(float).eps * np.abs(ordered.single).max()
        np.testing.assert_allclose(shuffled.pair, expected, rtol=0, atol=slack)


class TestTypes:
    def test_invalid_user_rejected(self):
        with pytest.raises(ValueError):
            UserProfile(0.0, DistanceInterval(10.0, 20.0))

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValueError):
            UserProfile(math.nan, DistanceInterval(10.0, 20.0))
        with pytest.raises(ValueError):
            SystemConfig(h_tx=math.inf)
        with pytest.raises(ValueError):
            SystemConfig(h_tx=10.0, p_t=math.nan)

    def test_invalid_system_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(h_tx=-1.0)
        with pytest.raises(ValueError):
            SystemConfig(h_tx=10.0, p_t=0.0)
