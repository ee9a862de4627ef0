"""Input checks that no other test reaches.

Each test feeds one invalid input to the check that guards it and pins the
check by its message, so a check that stops firing (or fires for another
reason) fails here.
"""

import math

import numpy as np
import pytest

from freqassign import (
    Assignment,
    SPEED_OF_LIGHT,
    CarrierFrequency,
    DistanceInterval,
    FrequencyPair,
    Instance,
    ScenarioConfig,
    SceneGeometry,
    SystemConfig,
    UserProfile,
    assign_random,
    assign_rr_block,
    assign_rr_profits,
    assign_rr_simple,
    build_profit_table,
    feasible,
    grid_min,
    phase_uniform_grid,
    receive_power_single,
    sum_power_lower_bound,
    sum_power_two,
    to_decibel,
    worst_case_pair,
    worst_case_single,
)
from freqassign.worstcase import worst_cases

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
    # the pair among good ones: one array check covers every entry
    freqs = [CarrierFrequency(f) for f in (pair.f1, pair.f2, 2.45e9)]
    users = [UserProfile(1.5, EX_INTERVAL), UserProfile(2.0, EX_INTERVAL)]
    table = build_profit_table(users, freqs, SystemConfig(h_tx=10.0, p_t=p_t))
    assert np.all(table.single > 0.0)
    return np.concatenate((table.single, table.joint), axis=None)


def _pair_kernel(pair, p_t):
    return sum_power_lower_bound(EX_GEOM, np.array([30.0, 100.0]), pair, p_t)


def _pair_worst_case(pair, p_t):
    power = worst_case_pair(EX_GEOM, EX_INTERVAL, pair, p_t).power
    oracle = grid_min(lambda d: sum_power_lower_bound(EX_GEOM, d, pair, p_t), EX_INTERVAL,
                      phase_uniform_grid(EX_GEOM, EX_INTERVAL, pair.delta_omega))
    assert abs(to_decibel(power) - to_decibel(oracle.power)) <= 0.01
    return power


@pytest.mark.parametrize("query", [_pair_kernel, _pair_worst_case, _pair_table],
                         ids=["kernel", "worst-case", "table"])
@pytest.mark.parametrize(
    "f1, f2, p_t",
    [(1e-100, 2e-100, 1.0), (1e-100, 2.4e9, 1.0), (2.4e9, 2.5e9, 1e300), (2.4e9, 2.5e9, 1e-300),
     (1e-100, 2e-100, 1e100), (1e150, 1.5e150, 1e-300)],
    ids=["low-pair", "one-low-carrier", "high-power", "low-power",
         "low-pair-high-power", "high-pair-low-power"],
)
def test_pair_bound_constant_outside_the_float_range(query, f1, f2, p_t):
    # A = a1 + a2, a_i = (P_t/2)*(c/(2*omega_i))**2, is the bound's one constant.
    # The first four pairs keep A in the float range and are computed.  The
    # last two put A itself at inf and at 0.0.  A lies between half
    # and all of the lower carrier's P_t*(c/(2*omega1))**2, so a table, which
    # checks its carriers first, refuses those two with the carrier's message.
    pair = FrequencyPair(f1, f2)
    a1 = 0.5 * p_t * (SPEED_OF_LIGHT / (4.0 * math.pi * f1)) ** 2
    if not 0.0 < a1 * (1.0 + (f1 / f2) ** 2) < math.inf:
        which = r"P_t\*\(c/\(2\*omega\)\)\*\*2" if query is _pair_table else r"a1 \+ a2"
        with pytest.raises(ValueError, match=which + " outside the float range"):
            query(pair, p_t)
        return
    got = query(pair, p_t)
    assert np.all(np.isfinite(got)) and (query is _pair_table or np.all(got > 0.0))


def _carrier_table(freq, p_t):
    # the bad carrier among good ones: one array check covers every entry
    freqs = [freq, CarrierFrequency(2.4e9), CarrierFrequency(2.45e9)]
    users = [UserProfile(1.5, EX_INTERVAL), UserProfile(2.0, EX_INTERVAL)]
    return build_profit_table(users, freqs, SystemConfig(h_tx=10.0, p_t=p_t))


@pytest.mark.parametrize(
    "query",
    [
        lambda freq, p_t: receive_power_single(EX_GEOM, np.array([30.0, 100.0]), freq, p_t),
        lambda freq, p_t: sum_power_two(
            EX_GEOM, np.array([30.0, 100.0]), FrequencyPair.of(freq.f, 2.4e9), 2.0 * p_t
        ),
        lambda freq, p_t: worst_case_single(EX_GEOM, EX_INTERVAL, freq, p_t),
        _carrier_table,
    ],
    ids=["kernel", "sum-kernel", "worst-case", "table"],
)
@pytest.mark.parametrize(
    "f, p_t", [(1e-140, 1e20), (1e150, 1e-300)], ids=["low-carrier", "high-carrier"]
)
def test_carrier_constant_outside_the_float_range(query, f, p_t):
    # P_t*(c/(2*omega))**2 of a carrier that CarrierFrequency accepts: inf gave
    # an inf power, 0.0 a power of zero at every distance
    with pytest.raises(ValueError, match=r"P_t\*\(c/\(2\*omega\)\)\*\*2 outside the float range"):
        query(CarrierFrequency(f), p_t)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "query",
    [
        lambda f, p_t: receive_power_single(EX_GEOM, 60.0, CarrierFrequency(f), p_t),
        lambda f, p_t: sum_power_lower_bound(EX_GEOM, 60.0, FrequencyPair(f, 2.0 * f), p_t),
        lambda f, p_t: worst_case_pair(EX_GEOM, EX_INTERVAL, FrequencyPair(f, 2.0 * f), p_t),
    ],
    ids=["carrier-kernel", "pair-kernel", "pair-worst-case"],
)
def test_numpy_scalar_constant_that_overflows_raises_no_warning(query):
    # At 1e-140 Hz and 1e20 W the kernel constant overflows on numpy scalars,
    # which warn where Python floats do not: the refusal comes alone, so a
    # caller that turns warnings into errors still sees the ValueError.
    with pytest.raises(ValueError, match="outside the float range"):
        query(np.float64(1e-140), np.float64(1e20))


@pytest.mark.parametrize(
    "query",
    [
        lambda p_t: worst_case_single(EX_GEOM, EX_INTERVAL, EX_FREQ_HIGH, p_t),
        lambda p_t: worst_case_pair(EX_GEOM, EX_INTERVAL, EX_PAIR, p_t),
    ],
    ids=["single", "pair"],
)
@pytest.mark.parametrize("p_t", [0.0, -1.0, np.nan, np.inf])
def test_worst_case_names_an_invalid_transmit_power(query, p_t):
    # the carrier and pair constant checks refuse these too, but name the
    # float range instead of the transmit power
    with pytest.raises(ValueError, match="transmit power must be positive and finite"):
        query(p_t)


_TRANSMIT = "transmit power must be positive and finite"
_CARRIER = "carrier and transmit power put P_t*(c/(2*omega))**2 outside the float range"
_PAIR = "carriers and transmit power put a1 + a2 outside the float range"
# From next to the lowest carrier that CarrierFrequency accepts to next to the highest.
_EDGE_FREQS = (1.8e-147, 1e-140, 1e-67, 1.0, 2.4e9, 1e150, 2.1e153)
_EDGE_PAIRS = [(f, 1.5 * f) for f in _EDGE_FREQS[:-1]] + [(1.8e-147, 2.4e9), (1e150, 2.1e153)]


def _carrier_constant(f, p_t):
    a = SPEED_OF_LIGHT / (2.0 * (2.0 * math.pi * f))
    return p_t * (a * a)


def _pair_constant(f1, f2, p_t):
    # A = a1 + a2 = a1*(1 + (f1/f2)**2), a1 the lower carrier's constant at P_t/2
    return _carrier_constant(f1, 0.5 * p_t) * (1.0 + (f1 / f2) ** 2)


def _expected(p_t, message, *constants):
    if not 0.0 < p_t < math.inf:
        return _TRANSMIT
    return None if all(0.0 < c < math.inf for c in constants) else message


def _refusal(query):
    try:
        query()
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kind", ["float", "numpy", "array"])
@pytest.mark.parametrize(
    "p_t",
    [5e-324, 1e-323, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e20, 1e300,
     1.7976931348623157e308, 0.0, -0.0, -5e-324, math.inf, -math.inf, math.nan],
)
def test_one_refusal_rule_for_scalar_queries_and_tables(kind, p_t):
    # The kernels and worst_cases refuse the same inputs with the same message:
    # the transmit power first, then the constant that can leave the float
    # range, P_t*(c/(2*omega))**2 per carrier (at P_t/2 in sum_power_two) or a
    # pair's a1 + a2.  At 5e-324 W the half of sum_power_two underflows to 0.0,
    # a carrier constant of zero, although P_t itself is positive.  A numpy
    # scalar's constant that overflows raises the refusal alone, no warning.
    number = np.float64 if kind == "numpy" else float
    d = np.array([30.0, 60.0, 100.0]) if kind == "array" else 60.0
    f_of = (lambda f: np.array([f])) if kind == "array" else number
    where, power = [(EX_GEOM, EX_INTERVAL)], number(p_t)
    got, expected = [], []
    for f in _EDGE_FREQS:
        carrier = CarrierFrequency(number(f))
        rule = _expected(p_t, _CARRIER, _carrier_constant(f, p_t))
        got += [_refusal(lambda: receive_power_single(EX_GEOM, d, carrier, power)),
                _refusal(lambda: worst_cases(where, f_of(f), None, power))]
        expected += [(f, rule)] * 2
    for f1, f2 in _EDGE_PAIRS:
        pair = FrequencyPair(number(f1), number(f2))
        halves = (_carrier_constant(f, p_t / 2) for f in (f1, f2))
        got += [_refusal(lambda: sum_power_two(EX_GEOM, d, pair, power)),
                _refusal(lambda: sum_power_lower_bound(EX_GEOM, d, pair, power)),
                _refusal(lambda: worst_cases(where, f_of(f1), f_of(f2), power))]
        bound = _expected(p_t, _PAIR, _pair_constant(f1, f2, p_t))
        expected += [((f1, f2), _expected(p_t, _CARRIER, *halves))] + [((f1, f2), bound)] * 2
    assert list(zip([f for f, _ in expected], got)) == expected


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


@pytest.mark.parametrize(
    "omega", [CarrierFrequency(1e12).omega, math.inf], ids=["above-the-cap", "inf"]
)
def test_phase_uniform_grid_beyond_its_cap(omega):
    # at 1e12 Hz over [1, 2] m, 10/10 m, the grid would need about 1.9e6 points
    with pytest.raises(ValueError, match="oracle grid needs more than 1000000 points"):
        phase_uniform_grid(SceneGeometry(10.0, 10.0), DistanceInterval(1.0, 2.0), omega)


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
