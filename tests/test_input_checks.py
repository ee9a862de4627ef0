"""Input checks that no other test reaches.

Each test feeds one invalid input to the check that guards it and pins the
check by its message, so a check that stops firing (or fires for another
reason) fails here.
"""

import numpy as np
import pytest

from freqassign import (
    CarrierFrequency,
    FrequencyPair,
    Instance,
    ScenarioConfig,
    phase_uniform_grid,
    receive_power_single,
    sum_power_lower_bound,
    sum_power_two,
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
