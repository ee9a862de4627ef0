"""Input checks that no other test reaches.

Each test feeds one invalid input to the check that guards it and pins the
check by its message, so a check that stops firing (or fires for another
reason) fails here.
"""

import numpy as np
import pytest

from freqassign import (
    Assignment,
    CarrierFrequency,
    FrequencyPair,
    Instance,
    ScenarioConfig,
    SystemConfig,
    UserProfile,
    assign_random,
    assign_rr_block,
    assign_rr_profits,
    assign_rr_simple,
    build_profit_table,
    feasible,
    phase_uniform_grid,
    receive_power_single,
    sum_power_lower_bound,
    sum_power_two,
    worst_case_pair,
)

from conftest import EX_FREQ_HIGH, EX_GEOM, EX_INTERVAL, EX_PAIR


def instance(weights=(1.0, 1.0), capacities=(2.0,), profits=None, joint_profits=None):
    n, k = len(weights), len(capacities)
    return Instance(
        weights=weights,
        capacities=capacities,
        profits=np.ones((k, n)) if profits is None else profits,
        joint_profits=np.zeros((k, n, n)) if joint_profits is None else joint_profits,
    )


class TestScenarioConfig:
    @pytest.mark.parametrize("field", ["h_rx_range", "d_min_range", "span_range"])
    def test_range_with_lo_above_hi(self, field):
        with pytest.raises(ValueError, match="ranges must satisfy"):
            ScenarioConfig(n_users=2, n_freqs=4, **{field: (3.0, 1.0)})

    def test_negative_master_seed(self):
        with pytest.raises(ValueError, match="master seed must be nonnegative"):
            ScenarioConfig(n_users=2, n_freqs=4, master_seed=-1)


@pytest.mark.parametrize(
    "make", [CarrierFrequency, lambda f: FrequencyPair(2.4e9, f)], ids=["carrier", "pair"]
)
def test_frequency_whose_angular_rate_overflows(make):
    # the kernels square 2*pi*f, which is inf above about 2.1e153 Hz;
    # 2*pi*f itself is inf above about 2.9e307 Hz, although f is finite
    for f in (1e308, 1e307, 2.2e153):
        with pytest.raises(ValueError, match="finite angular rate"):
            make(f)
    make(2.1e153)


@pytest.mark.parametrize(
    "make", [CarrierFrequency, lambda f: FrequencyPair(f, 2.4e9)], ids=["carrier", "pair"]
)
def test_frequency_whose_squared_angular_rate_underflows(make):
    # (2*pi*f)**2 is 0.0 below about 2.5e-163 Hz, where (c/(2*omega))**2 overflows
    with pytest.raises(ValueError, match="finite angular rate"):
        make(1e-170)


@pytest.mark.parametrize(
    "make", [CarrierFrequency, lambda f: FrequencyPair(f, 2.4e9)], ids=["carrier", "pair"]
)
def test_frequency_whose_amplitude_constant_overflows(make):
    # (c/(2*omega))**2 of the single-carrier kernel is inf below about 1.8e-147 Hz,
    # where (2*pi*f)**2 is still finite and nonzero
    for f in (1e-150, 1.7e-147):
        with pytest.raises(ValueError, match="finite angular rate"):
            make(f)
    make(1.8e-147)


def _pair_table(pair, p_t):
    # the bad pair among good ones: one array check covers every entry
    freqs = [CarrierFrequency(f) for f in (pair.f1, pair.f2, 2.45e9)]
    users = [UserProfile(1.5, EX_INTERVAL), UserProfile(2.0, EX_INTERVAL)]
    return build_profit_table(users, freqs, SystemConfig(h_tx=10.0, p_t=p_t))


@pytest.mark.parametrize(
    "query",
    [
        lambda pair, p_t: sum_power_lower_bound(EX_GEOM, np.array([30.0, 100.0]), pair, p_t),
        lambda pair, p_t: worst_case_pair(EX_GEOM, EX_INTERVAL, pair, p_t),
        _pair_table,
    ],
    ids=["kernel", "worst-case", "table"],
)
@pytest.mark.parametrize(
    "f1, f2, p_t",
    [(1e-100, 2e-100, 1.0), (1e-100, 2.4e9, 1.0), (2.4e9, 2.5e9, 1e300), (2.4e9, 2.5e9, 1e-300)],
    ids=["low-pair", "one-low-carrier", "high-power", "low-power"],
)
def test_pair_bound_constant_outside_the_float_range(query, f1, f2, p_t):
    # a1**2 + a2**2 with a_i = (P_t/2)*(c/(2*omega_i))**2: inf gives nan
    # (inf - inf), 0.0 drops the bound's interference term
    with pytest.raises(ValueError, match=r"a1\*\*2 \+ a2\*\*2 outside the float range"):
        query(FrequencyPair(f1, f2), p_t)


@pytest.mark.parametrize("spacing", [0.0, -1e6])
def test_pair_from_nonpositive_spacing(spacing):
    with pytest.raises(ValueError, match="spacing must be positive"):
        FrequencyPair.from_spacing(2.4e9, spacing)


@pytest.mark.parametrize(
    "kernel, carrier",
    [
        (receive_power_single, EX_FREQ_HIGH),
        (sum_power_two, EX_PAIR),
        (sum_power_lower_bound, EX_PAIR),
    ],
    ids=["single", "sum", "lower-bound"],
)
@pytest.mark.parametrize("d", [-1.0, np.array([10.0, -1e-9, 30.0])], ids=["scalar", "array"])
def test_negative_distance(kernel, carrier, d):
    with pytest.raises(ValueError, match="ground distance must be nonnegative"):
        kernel(EX_GEOM, d, carrier)


class TestInstance:
    @pytest.mark.parametrize(
        "kwargs",
        [{"weights": (1.0, -1.0)}, {"capacities": (2.0, -0.5)}],
        ids=["weight", "capacity"],
    )
    def test_negative_weight_or_capacity(self, kwargs):
        with pytest.raises(ValueError, match="weights and capacities must be nonnegative"):
            instance(**kwargs)

    def test_misshaped_profits(self):
        with pytest.raises(ValueError, match="profits must have shape"):
            instance(profits=np.ones((1, 3)))

    @pytest.mark.parametrize("shape", [(1, 2, 3), (2, 2, 2), (1, 2)])
    def test_misshaped_joint_profits(self, shape):
        with pytest.raises(ValueError, match="joint profits must have shape"):
            instance(joint_profits=np.zeros(shape))


def test_phase_uniform_grid_with_negative_omega():
    with pytest.raises(ValueError, match="omega must be nonnegative"):
        phase_uniform_grid(EX_GEOM, EX_INTERVAL, -1.0)


def test_assignment_with_another_knapsack_count():
    with pytest.raises(ValueError, match="does not match the number of knapsacks"):
        feasible(instance(capacities=(2.0, 2.0)), Assignment.from_lists([[0]]))


@pytest.mark.parametrize(
    "scheme",
    [
        lambda inst: assign_random(inst, 0),
        assign_rr_simple,
        assign_rr_block,
        assign_rr_profits,
    ],
    ids=["random", "rr-simple", "rr-block", "rr-profits"],
)
@pytest.mark.parametrize(
    "kwargs", [{"weights": (1.0, 2.0)}, {"capacities": (3.0,)}], ids=["weight", "capacity"]
)
def test_baselines_need_unit_weights_and_capacity_2(scheme, kwargs):
    with pytest.raises(ValueError, match="unit weights and capacity 2"):
        scheme(instance(**kwargs))


def test_round_robin_with_fewer_items_than_knapsacks():
    with pytest.raises(ValueError, match="at least one item per knapsack"):
        assign_rr_simple(instance(capacities=(2.0, 2.0, 2.0)))
