import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from freqassign import (
    CarrierFrequency,
    DistanceInterval,
    FrequencyPair,
    SceneGeometry,
    grid_min,
    null_distances,
    phase_shift,
    phase_uniform_grid,
    receive_power_single,
    sum_power_lower_bound,
    sum_power_two,
    to_decibel,
    worst_case_pair,
    worst_case_single,
)
from freqassign.channel import _height_terms, _lower_bound_coeffs
from freqassign.worstcase import INTERIOR_NULL, LOWER_ENDPOINT, UPPER_ENDPOINT, _basin_minimum

from conftest import EX_FREQ_HIGH, EX_FREQ_LOW, EX_GEOM, EX_INTERVAL, EX_PAIR


def random_config(rng):
    geom = SceneGeometry(*rng.uniform(1.0, 15.0, size=2))
    d_min = rng.uniform(5.0, 400.0)
    d_max = d_min + rng.uniform(1.0, min(100.0, 500.0 - d_min))
    return geom, DistanceInterval(d_min, d_max)


class TestDistanceInterval:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            DistanceInterval(0.0, 10.0)
        with pytest.raises(ValueError):
            DistanceInterval(20.0, 10.0)

    @pytest.mark.parametrize("bounds", [(30.0, np.inf), (np.nan, 40.0), (30.0, np.nan)])
    def test_non_finite_rejected(self, bounds):
        with pytest.raises(ValueError):
            DistanceInterval(*bounds)

    def test_degenerate_allowed(self):
        iv = DistanceInterval(30.0, 30.0)
        assert iv.contains(30.0)


class TestWorstCaseSingle:
    def test_low_band_running_example(self):
        result = worst_case_single(EX_GEOM, EX_INTERVAL, EX_FREQ_LOW)
        assert to_decibel(result.power) == pytest.approx(-97.0, abs=0.5)
        assert result.argmin_distance == pytest.approx(46.7, abs=0.05)
        assert result.candidate_kind == INTERIOR_NULL

    def test_high_band_running_example(self):
        result = worst_case_single(EX_GEOM, EX_INTERVAL, EX_FREQ_HIGH)
        assert to_decibel(result.power) == pytest.approx(-125.0, abs=0.5)
        assert result.argmin_distance == pytest.approx(79.4, abs=0.1)

    def test_degenerate_interval(self):
        iv = DistanceInterval(42.0, 42.0)
        result = worst_case_single(EX_GEOM, iv, EX_FREQ_LOW)
        assert result.power == receive_power_single(EX_GEOM, 42.0, EX_FREQ_LOW)
        assert result.candidate_kind == LOWER_ENDPOINT

    @pytest.mark.parametrize("f, d_max", [(1e3, 1e6), (2e8, 1e12)], ids=["no-null", "two-nulls"])
    def test_phase_at_d_max_within_the_rounding_margin(self, f, d_max):
        # the phase at d_max is below 2*pi*1e-9, so the null index would round
        # to 0 without its floor at 1 (and divide by zero).  1 kHz has no null
        # at 10/1.5 m and is dropped before the null index; 200 MHz has two.
        iv = DistanceInterval(d_max / 2, d_max)
        carrier = CarrierFrequency(f)
        result = worst_case_single(EX_GEOM, iv, carrier)
        p_lo, p_hi = (receive_power_single(EX_GEOM, d, carrier) for d in (iv.d_min, iv.d_max))
        assert result.power == min(p_lo, p_hi)
        # ties go to the lower endpoint: at 1e12 m both powers round to 0.0
        assert result.candidate_kind == (LOWER_ENDPOINT if p_lo <= p_hi else UPPER_ENDPOINT)

    @pytest.mark.parametrize("f", [1e76, 1e150, 2.1e153])
    def test_finite_up_to_the_highest_accepted_carrier(self, f):
        # the null distance from (c*pi*k)**2 - (omega*h)**2 overflowed from
        # about 1e76 Hz up, although CarrierFrequency accepts up to 2.1e153 Hz
        carrier = CarrierFrequency(f)
        with np.errstate(over="raise", invalid="raise"):
            result = worst_case_single(EX_GEOM, EX_INTERVAL, carrier)
        assert 0.0 < result.power < np.inf
        assert EX_INTERVAL.contains(result.argmin_distance)
        assert result.power == receive_power_single(EX_GEOM, result.argmin_distance, carrier)

    def test_endpoints_compete_without_interior_null(self):
        # every null of the low carrier sits below this interval
        iv = DistanceInterval(60.0, 100.0)
        result = worst_case_single(EX_GEOM, iv, EX_FREQ_LOW)
        assert result.candidate_kind in (LOWER_ENDPOINT, UPPER_ENDPOINT)
        assert result.argmin_distance in (60.0, 100.0)

    def test_candidate_completeness(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            geom, iv = random_config(rng)
            freq = CarrierFrequency(rng.uniform(0.4e9, 3e9))
            result = worst_case_single(geom, iv, freq)
            nulls = null_distances(geom, freq)
            allowed = {iv.d_min, iv.d_max} | set(nulls.tolist())
            assert result.argmin_distance in allowed
            assert iv.d_min <= result.argmin_distance <= iv.d_max
            assert result.power == receive_power_single(geom, result.argmin_distance, freq)


class TestWorstCasePair:
    def test_running_example(self):
        result = worst_case_pair(EX_GEOM, EX_INTERVAL, EX_PAIR)
        assert to_decibel(result.power) == pytest.approx(-82.9, abs=0.2)

    def test_spacing_nulls_outside_interval(self):
        nulls = null_distances(EX_GEOM, CarrierFrequency(EX_PAIR.delta_f))
        np.testing.assert_allclose(nulls, [22.9, 7.5], atol=0.1)
        result = worst_case_pair(EX_GEOM, EX_INTERVAL, EX_PAIR)
        assert result.candidate_kind in (LOWER_ENDPOINT, UPPER_ENDPOINT)

    def test_degenerate_interval(self):
        iv = DistanceInterval(50.0, 50.0)
        result = worst_case_pair(EX_GEOM, iv, EX_PAIR)
        assert result.power == sum_power_lower_bound(EX_GEOM, 50.0, EX_PAIR)
        assert result.candidate_kind == LOWER_ENDPOINT

    def test_invalid_transmit_power_rejected(self):
        for p_t in (0.0, np.nan):
            with pytest.raises(ValueError):
                worst_case_pair(EX_GEOM, EX_INTERVAL, EX_PAIR, p_t)
            with pytest.raises(ValueError):
                worst_case_single(EX_GEOM, EX_INTERVAL, EX_FREQ_HIGH, p_t)

    def test_reported_power_matches_argmin(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            geom, iv = random_config(rng)
            f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, size=2))
            pair = FrequencyPair(f1, f2)
            result = worst_case_pair(geom, iv, pair)
            assert iv.d_min <= result.argmin_distance <= iv.d_max
            assert result.power == pytest.approx(
                float(sum_power_lower_bound(geom, result.argmin_distance, pair)),
                rel=1e-15,
            )

    def test_never_exceeds_true_sum_power_minimum(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            geom, iv = random_config(rng)
            f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, size=2))
            pair = FrequencyPair(f1, f2)
            bound = worst_case_pair(geom, iv, pair).power
            oracle = grid_min(
                lambda d: sum_power_two(geom, d, pair),
                iv,
                phase_uniform_grid(geom, iv, CarrierFrequency(pair.f2).omega),
            )
            assert bound <= oracle.power + 1e-12


class TestGridMin:
    def test_constant_function_returns_endpoint(self):
        iv = DistanceInterval(10.0, 20.0)
        grid = np.linspace(iv.d_min, iv.d_max, 101)
        result = grid_min(lambda d: np.full_like(np.asarray(d, dtype=float), 3.0), iv, grid)
        assert result.power == 3.0
        assert result.argmin_distance == 10.0
        assert result.candidate_kind == LOWER_ENDPOINT

    def test_agrees_with_theorem_single(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            geom, iv = random_config(rng)
            freq = CarrierFrequency(rng.uniform(0.4e9, 3e9))
            thm = worst_case_single(geom, iv, freq)
            oracle = grid_min(
                lambda d: receive_power_single(geom, d, freq),
                iv,
                phase_uniform_grid(geom, iv, freq.omega),
            )
            assert abs(to_decibel(thm.power) - to_decibel(oracle.power)) <= 0.01

    def test_agrees_with_theorem_pair(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            geom, iv = random_config(rng)
            f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, size=2))
            pair = FrequencyPair(f1, f2)
            thm = worst_case_pair(geom, iv, pair)
            oracle = grid_min(
                lambda d: sum_power_lower_bound(geom, d, pair),
                iv,
                phase_uniform_grid(geom, iv, pair.delta_omega),
            )
            assert abs(to_decibel(thm.power) - to_decibel(oracle.power)) <= 0.01

    def test_phase_grid_resolution(self):
        iv = DistanceInterval(5.0, 500.0)
        grid = phase_uniform_grid(EX_GEOM, iv, EX_FREQ_HIGH.omega)
        assert grid[0] == iv.d_min and grid[-1] == iv.d_max
        assert np.all(np.diff(grid) > 0)
        phases = phase_shift(EX_GEOM, grid, EX_FREQ_HIGH)
        assert np.max(np.abs(np.diff(phases))) <= 0.01 + 1e-9

    def test_degenerate_interval_grid(self):
        iv = DistanceInterval(30.0, 30.0)
        grid = phase_uniform_grid(EX_GEOM, iv, EX_FREQ_HIGH.omega)
        assert grid.tolist() == [30.0]
        result = grid_min(lambda d: receive_power_single(EX_GEOM, d, EX_FREQ_HIGH), iv, grid)
        assert result.argmin_distance == 30.0

    @pytest.mark.parametrize("argmin", [1.03, 1.97])
    def test_minimum_between_an_endpoint_and_its_neighbour(self, argmin):
        # no interior sample is a local minimum, so only the edge bracket
        # (grid[0], grid[1]) or (grid[-2], grid[-1]) can find it
        iv = DistanceInterval(1.0, 2.0)
        grid = np.linspace(iv.d_min, iv.d_max, 11)
        result = grid_min(lambda d: (d - argmin) ** 2 + 1.0, iv, grid)
        assert result.power == pytest.approx(1.0, rel=0, abs=1e-12)
        assert result.argmin_distance == pytest.approx(argmin, rel=1e-5)
        assert result.candidate_kind == INTERIOR_NULL


class TestBasinMinimum:
    def test_samples_end_at_the_bracket_end(self):
        # lo + 32*((hi - lo)/32) can round one float above hi; on a bound
        # that falls towards hi the search must still stop at hi
        rng = np.random.default_rng(7)
        lo = rng.uniform(10.0, 100.0, 2000)
        hi = rng.uniform(20.0, 300.0, 2000)
        over = (lo < hi) & (lo + 32.0 * ((hi - lo) / 32.0) > hi)
        lo, hi = lo[over], hi[over]
        assert lo.size > 10
        # 1 MHz apart: no spacing null, so the bound falls with distance
        f1, f2 = np.full(lo.size, 2.400e9), np.full(lo.size, 2.401e9)
        heights = _height_terms(np.full(lo.size, 10.0), np.full(lo.size, 1.5))
        power, argmin = _basin_minimum(heights, _lower_bound_coeffs(f1, f2, 1.0), lo, hi)
        assert argmin.tolist() == hi.tolist()
        pair = FrequencyPair(2.400e9, 2.401e9)
        assert power.tolist() == sum_power_lower_bound(SceneGeometry(10.0, 1.5), hi, pair).tolist()

    def test_samples_start_at_the_bracket_start(self):
        # 500 MHz apart at these heights, the bound rises with distance from
        # its spacing null at 49 m to the crest near 85 m; the search must
        # stop at lo and report the power there
        rng = np.random.default_rng(8)
        lo = rng.uniform(49.5, 65.0, 200)
        hi = lo + rng.uniform(1e-6, 15.0, 200)
        f1, f2 = np.full(lo.size, 2.0e9), np.full(lo.size, 2.5e9)
        heights = _height_terms(np.full(lo.size, 10.0), np.full(lo.size, 1.5))
        power, argmin = _basin_minimum(heights, _lower_bound_coeffs(f1, f2, 1.0), lo, hi)
        assert argmin.tolist() == lo.tolist()
        pair = FrequencyPair(2.0e9, 2.5e9)
        assert power.tolist() == sum_power_lower_bound(SceneGeometry(10.0, 1.5), lo, pair).tolist()

    def test_flat_bound_settles_at_the_bracket_start(self):
        # nanometres from the mast d^2 lies below the roundoff of the height
        # terms, so the bound is one number on the whole bracket; ties go
        # to the lower end, as between candidates
        geom, pair = SceneGeometry(10.0, 1.5), FrequencyPair(2.0e9, 2.5e9)
        lo = np.array([1e-9, 2e-9, 5e-9])
        hi = 3.0 * lo
        flat = sum_power_lower_bound(geom, np.linspace(lo, hi, 1001), pair)
        assert np.all(flat == flat[0])  # the case occurs
        heights = _height_terms(np.full(3, 10.0), np.full(3, 1.5))
        coeffs = _lower_bound_coeffs(np.full(3, 2.0e9), np.full(3, 2.5e9), 1.0)
        power, argmin = _basin_minimum(heights, coeffs, lo, hi)
        assert argmin.tolist() == lo.tolist()
        assert power.tolist() == flat[0].tolist()

    def test_bound_dipping_inside_the_bracket(self):
        # On [28, 80] m the bound rises from lo to a crest near 33 m, falls
        # into the spacing null near 49 m and rises again to hi: it rises at
        # both ends, yet its minimum is inside, far below either end
        geom, pair = SceneGeometry(10.0, 1.5), FrequencyPair(2.0e9, 2.5e9)
        heights = _height_terms(np.array([10.0]), np.array([1.5]))
        coeffs = _lower_bound_coeffs(np.array([2.0e9]), np.array([2.5e9]), 1.0)
        power, argmin = _basin_minimum(heights, coeffs, np.array([28.0]), np.array([80.0]))
        bound = lambda d: float(sum_power_lower_bound(geom, d, pair))
        near_null = minimize_scalar(bound, bounds=(45.0, 55.0), method="bounded", options={"xatol": 55e-12})
        assert 45.0 < argmin[0] < 55.0
        assert power[0] <= near_null.fun * (1.0 + 1e-9)
        assert power[0] < 1e-3 * min(bound(28.0), bound(80.0))
        assert power[0] == bound(argmin[0])
