import math

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
from freqassign import worstcase
from freqassign.channel import (
    SPEED_OF_LIGHT,
    TWO_PI,
    _height_terms,
    _invert_path_difference,
    _lower_bound_coeffs,
    _lower_bound_slope,
    _ray_terms,
)
from freqassign.worstcase import (
    INTERIOR_NULL,
    LOWER_ENDPOINT,
    UPPER_ENDPOINT,
    _basin_minimum,
    worst_cases,
)

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
    def test_phase_at_d_max_far_below_the_first_null(self, f, d_max):
        # the phase at d_max is below 2*pi*1e-9, so the null index is 1: 1 kHz
        # has no null at 10/1.5 m (and is dropped before the null index), and
        # the first of 200 MHz's two nulls lies below d_min.
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

    def test_null_just_inside_the_upper_endpoint(self):
        # d_max lies 4.6e-10 of a turn below null 2, so null 3 is the last
        # null inside; at d/lambda of about 1e9, d_max's phase 5.8e-9 rad off
        # null 2 is far from as deep as null 3.
        geom, carrier = SceneGeometry(1e4, 2e3), CarrierFrequency(2.4e9)
        iv = DistanceInterval(8.0055382685168892e7, 1.6011076529602095e8)
        result = worst_case_single(geom, iv, carrier)
        null_3 = null_distances(geom, carrier)[2]
        assert (result.argmin_distance, result.candidate_kind) == (null_3, INTERIOR_NULL)
        assert result.power == receive_power_single(geom, null_3, carrier)
        assert result.power < 0.8 * receive_power_single(geom, iv.d_max, carrier)

    def test_user_whose_phase_underflows_to_zero(self):
        # 1e-170 m antennas: 4*h_tx*h_rx, so q and the phase at d_max, are 0.0,
        # and the null index ceil(0) is held at 1 (null 0 would divide 0 by 0).
        # The carrier keeps its null test for the other user, who has nulls.
        iv = DistanceInterval(30.0, 100.0)
        where = [(EX_GEOM, iv), (SceneGeometry(1e-170, 1e-170), iv)]
        power, argmin, kind = worst_cases(where, EX_FREQ_HIGH.f)
        assert (power[1, 0], argmin[1, 0], kind[1, 0]) == (0.0, 30.0, 0)
        assert power[0, 0] == worst_case_single(EX_GEOM, iv, EX_FREQ_HIGH).power

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
    @pytest.mark.parametrize("f", [1e100, 1e120, 1e150])
    def test_finite_for_very_high_carriers(self, f):
        # A = a1 + a2, about 4e-188 to 4e-288 W, is in the float range.
        with np.errstate(all="raise"):
            result = worst_case_pair(EX_GEOM, EX_INTERVAL, FrequencyPair(f, 1.5 * f))
        assert 0.0 < result.power < np.inf

    def test_amplitude_near_the_float_max(self):
        # The 2.0/2.5 GHz pair at 10/1.5 m, with every frequency divided by
        # and every length multiplied by 1000: its minimum lies inside the
        # basin, beyond the null near 49 km, so the search runs.  At the
        # transmit power that puts A one float below the float max, the
        # slope per unit amplitude overflows nowhere, and the search takes
        # the same steps as at 1 W: the same argmin, the power times p_t.
        geom, iv, pair = SceneGeometry(1e4, 1.5e3), DistanceInterval(3e4, 8e4), FrequencyPair(2e6, 2.5e6)
        p_t = float(np.nextafter(np.finfo(float).max, 0.0)) / _lower_bound_coeffs(2e6, 2.5e6, 1.0)[0]
        assert _lower_bound_coeffs(2e6, 2.5e6, p_t)[0] > 1.7e308
        with np.errstate(all="raise"):
            loud = worst_case_pair(geom, iv, pair, p_t)
        quiet = worst_case_pair(geom, iv, pair)
        assert loud.candidate_kind == quiet.candidate_kind == INTERIOR_NULL
        assert loud.argmin_distance == quiet.argmin_distance
        assert 0.0 < loud.power < np.inf
        assert loud.power == pytest.approx(p_t * quiet.power, rel=1e-14)

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


def basin_bracket(geom, pair, k=1):
    """(a, b, hi) of the basin of the k-th spacing null, unclipped: the
    distances at spacing phases 2*pi*k, 2*pi*k - pi/2 and 2*pi*k - pi."""
    rate = pair.delta_omega / SPEED_OF_LIGHT
    return tuple(
        float(_invert_path_difference(geom._heights, (TWO_PI * k - shift) / rate))
        for shift in (0.0, 0.5 * math.pi, math.pi)
    )


class TestBasinMinimum:
    def test_bound_falling_at_a_and_b_takes_the_lower_end(self):
        # 1 MHz apart: no spacing null, so the bound falls with distance and
        # the lower of a and hi is hi, with b anywhere in [a, hi]
        rng = np.random.default_rng(7)
        a = rng.uniform(10.0, 100.0, 200)
        hi = a + rng.uniform(1e-6, 200.0, 200)
        b = a + rng.uniform(0.0, 1.0, 200) * (hi - a)
        b[0], b[1] = a[0], hi[1]
        f1, f2 = np.full(a.size, 2.400e9), np.full(a.size, 2.401e9)
        heights = _height_terms(np.full(a.size, 10.0), np.full(a.size, 1.5))
        power, argmin = _basin_minimum(heights, _lower_bound_coeffs(f1, f2, 1.0), a, b, hi)
        assert argmin.tolist() == hi.tolist()
        pair = FrequencyPair(2.400e9, 2.401e9)
        assert power.tolist() == sum_power_lower_bound(SceneGeometry(10.0, 1.5), hi, pair).tolist()

    def test_bound_rising_at_a_takes_a(self):
        # 500 MHz apart at these heights, the bound rises with distance from
        # its spacing null at 49 m to the crest near 85 m; a row whose slope
        # rises at a takes a and reports the power there
        rng = np.random.default_rng(8)
        a = rng.uniform(49.5, 65.0, 200)
        hi = a + rng.uniform(1e-6, 15.0, 200)
        b = a + rng.uniform(0.0, 1.0, 200) * (hi - a)
        f1, f2 = np.full(a.size, 2.0e9), np.full(a.size, 2.5e9)
        heights = _height_terms(np.full(a.size, 10.0), np.full(a.size, 1.5))
        power, argmin = _basin_minimum(heights, _lower_bound_coeffs(f1, f2, 1.0), a, b, hi)
        assert argmin.tolist() == a.tolist()
        pair = FrequencyPair(2.0e9, 2.5e9)
        assert power.tolist() == sum_power_lower_bound(SceneGeometry(10.0, 1.5), a, pair).tolist()

    def test_flat_bound_ties_to_a(self):
        # nanometres from the mast d^2 lies below the roundoff of the height
        # terms, so the bound is one number on the whole bracket; the slope
        # still falls at a and b, and the tie between a and hi goes to a, as
        # between candidates
        geom, pair = SceneGeometry(10.0, 1.5), FrequencyPair(2.0e9, 2.5e9)
        a = np.array([1e-9, 2e-9, 5e-9])
        hi = 3.0 * a
        flat = sum_power_lower_bound(geom, np.linspace(a, hi, 1001), pair)
        assert np.all(flat == flat[0])  # the case occurs
        heights = _height_terms(np.full(3, 10.0), np.full(3, 1.5))
        coeffs = _lower_bound_coeffs(np.full(3, 2.0e9), np.full(3, 2.5e9), 1.0)
        power, argmin = _basin_minimum(heights, coeffs, a, 2.0 * a, hi)
        assert argmin.tolist() == a.tolist()
        assert power.tolist() == flat[0].tolist()

    def test_bound_dipping_inside_the_bracket(self):
        # From the spacing null d_k near 49 m the bound falls a little further,
        # as the amplitude shifts the minimum off d_k, then rises through b
        # (phase 3*pi/2) to the crest hi (phase pi): the search finds the
        # minimum between a and b, below the bound at d_k
        geom, pair = SceneGeometry(10.0, 1.5), FrequencyPair(2.0e9, 2.5e9)
        a, b, hi = basin_bracket(geom, pair)
        heights = _height_terms(np.array([10.0]), np.array([1.5]))
        coeffs = _lower_bound_coeffs(np.array([2.0e9]), np.array([2.5e9]), 1.0)
        ends = np.array([[a], [b]])
        slopes = _lower_bound_slope(coeffs, ends, *_ray_terms(heights, ends))
        assert slopes[0] < 0.0 < slopes[1]  # the case occurs
        power, argmin = _basin_minimum(heights, coeffs, np.array([a]), np.array([b]), np.array([hi]))
        bound = lambda d: float(sum_power_lower_bound(geom, d, pair))
        floor = minimize_scalar(bound, bounds=(a, b), method="bounded", options={"xatol": 1e-12 * hi})
        assert a < argmin[0] < b
        assert power[0] <= floor.fun * (1.0 + 1e-9)
        assert power[0] < bound(a)
        assert power[0] == bound(argmin[0])

    def test_equal_successive_slopes_bisect(self, monkeypatch):
        # A slope that is -1 below 50 m and +1 from there on: the secant start
        # is 50 m, whose slope equals the slope at b, and later iterates repeat
        # -1; each such pass has no secant rate and bisects, without dividing
        # by zero, and the search stops within its tolerance of the sign change
        monkeypatch.setattr(worstcase, "_lower_bound_slope", lambda c, d, *terms: np.where(d < 50.0, -1.0, 1.0))
        geom, pair = SceneGeometry(10.0, 1.5), FrequencyPair(2.0e9, 2.5e9)
        heights = _height_terms(np.array([10.0]), np.array([1.5]))
        coeffs = _lower_bound_coeffs(np.array([2.0e9]), np.array([2.5e9]), 1.0)
        power, argmin = _basin_minimum(heights, coeffs, np.array([40.0]), np.array([60.0]), np.array([80.0]))
        tol = math.sqrt(np.finfo(float).eps) * 50.0 + 1e-12 * 80.0 / 3.0
        assert abs(argmin[0] - 50.0) <= tol
        assert power[0] == float(sum_power_lower_bound(geom, argmin[0], pair))

    def test_secant_start_rounding_to_b(self, monkeypatch):
        # A slope of -1 below 50 m and 1e-20 from there on: the secant point
        # of the slopes at a and b rounds to b, so the search starts one float
        # below b, and its first secant has a length
        monkeypatch.setattr(worstcase, "_lower_bound_slope", lambda c, d, *terms: np.where(d < 50.0, -1.0, 1e-20))
        geom, pair = SceneGeometry(10.0, 1.5), FrequencyPair(2.0e9, 2.5e9)
        heights = _height_terms(np.array([10.0]), np.array([1.5]))
        coeffs = _lower_bound_coeffs(np.array([2.0e9]), np.array([2.5e9]), 1.0)
        power, argmin = _basin_minimum(heights, coeffs, np.array([40.0]), np.array([50.0]), np.array([80.0]))
        tol = math.sqrt(np.finfo(float).eps) * 50.0 + 1e-12 * 80.0 / 3.0
        assert 50.0 - tol <= argmin[0] <= 50.0
        assert power[0] == float(sum_power_lower_bound(geom, argmin[0], pair))
