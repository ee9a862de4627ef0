import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

from freqassign import (
    SPEED_OF_LIGHT,
    CarrierFrequency,
    FrequencyPair,
    SceneGeometry,
    envelope_identity_residual,
    k_max,
    max_phase_shift,
    null_distances,
    path_lengths,
    phase_shift,
    receive_power_single,
    sum_power_lower_bound,
    sum_power_two,
    to_decibel,
)
from freqassign import channel
from freqassign.channel import SPEED_OF_LIGHT, _lower_bound_coeffs, path_difference
from conftest import EX_FREQ_HIGH, EX_FREQ_LOW, EX_GEOM

TWO_PI = 2.0 * math.pi


def random_geometry(rng):
    h_tx, h_rx = rng.uniform(1.0, 15.0, size=2)
    return SceneGeometry(h_tx, h_rx)


# pi to 50 digits, for the 40-digit reference below.
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _decimal_sin(x):
    """sin of a Decimal by its Taylor series, after reducing x into [-pi/2, pi/2]."""
    n = (x / _PI).to_integral_value()
    x -= n * _PI
    term = total = x
    k = 1
    while abs(term) > abs(total) * Decimal("1e-45"):
        term *= -x * x / ((k + 1) * (k + 2))
        total += term
        k += 2
    return -total if n % 2 else total


def reference_power_single(h_tx, h_rx, d, f, p_t=1.0):
    """receive_power_single in 40-digit decimal arithmetic, its float inputs
    taken as exact: P_t*(c/(2*omega))^2*((q/(l*lr))^2 + 4*sin^2(omega*q/(2c))/(l*lr))
    with q = lr - l = 4*h_tx*h_rx/(l + lr), so that no two terms cancel."""
    with localcontext() as ctx:
        ctx.prec = 40
        h_tx, h_rx, d, f, p_t, c = map(Decimal, (h_tx, h_rx, d, f, p_t, SPEED_OF_LIGHT))
        l_los = ((h_tx - h_rx) ** 2 + d * d).sqrt()
        l_ref = ((h_tx + h_rx) ** 2 + d * d).sqrt()
        q = 4 * h_tx * h_rx / (l_los + l_ref)
        omega = 2 * _PI * f
        half = _decimal_sin(omega * q / (2 * c))
        ll = l_los * l_ref
        return p_t * (c / (2 * omega)) ** 2 * ((q / ll) ** 2 + 4 * half * half / ll)


def reference_lower_bound(h_tx, h_rx, d, f1, f2, p_t=1.0):
    """sum_power_lower_bound in 40-digit decimal arithmetic, its float inputs
    taken as exact: with a_i = (P_t/2)*(c/(2*omega_i))^2, A = a1 + a2 and
    gap = 4*a1*a2*sin^2(delta_omega*q/(2c)), the bound is
    A*(q/(l*lr))^2 + (2/(l*lr))*gap/(A + sqrt(A^2 - gap)), A^2 - gap >= (a1 - a2)^2."""
    with localcontext() as ctx:
        ctx.prec = 40
        h_tx, h_rx, d, f1, f2, p_t, c = map(Decimal, (h_tx, h_rx, d, f1, f2, p_t, SPEED_OF_LIGHT))
        l_los = ((h_tx - h_rx) ** 2 + d * d).sqrt()
        l_ref = ((h_tx + h_rx) ** 2 + d * d).sqrt()
        q = 4 * h_tx * h_rx / (l_los + l_ref)
        a1, a2 = (p_t / 2 * (c / (4 * _PI * f)) ** 2 for f in (f1, f2))
        half = _decimal_sin(_PI * (f2 - f1) * q / c)
        gap = 4 * a1 * a2 * half * half
        amplitude, ll = a1 + a2, l_los * l_ref
        return amplitude * (q / ll) ** 2 + 2 * gap / (ll * (amplitude + (amplitude**2 - gap).sqrt()))


def reference_null(h_tx, h_rx, f, k):
    """(d_k, l_ref at d_k) of the k-th null in 40-digit decimal arithmetic, the
    float inputs taken as exact: with s = q/2 at the null's path difference
    q = 2*pi*k*c/omega = k*c/f, d_k^2 = (s^2 - h_rx^2)*(s^2 - h_tx^2)/s^2."""
    with localcontext() as ctx:
        ctx.prec = 40
        h_tx, h_rx, f, c = map(Decimal, (h_tx, h_rx, f, SPEED_OF_LIGHT))
        s_sq = (k * c / (2 * f)) ** 2
        d_sq = max((s_sq - h_rx * h_rx) * (s_sq - h_tx * h_tx) / s_sq, Decimal(0))
        return d_sq.sqrt(), ((h_tx + h_rx) ** 2 + d_sq).sqrt()


def count_local_minima(geom, freq, d_lo=0.05, d_hi=5000.0, n=2_000_000):
    """Independent check of k_max: count power minima on a fine grid."""
    d = np.geomspace(d_lo, d_hi, n)
    p = receive_power_single(geom, d, freq)
    interior = p[1:-1]
    return int(np.sum((interior < p[:-2]) & (interior < p[2:])))


class TestPathLengths:
    def test_zero_distance_collapses_to_heights(self):
        lens = path_lengths(SceneGeometry(10.0, 1.5), 0.0)
        assert lens.l_los == pytest.approx(8.5)
        assert lens.l_ref == pytest.approx(11.5)

    def test_pythagorean_heights(self):
        lens = path_lengths(SceneGeometry(3.0, 4.0), 0.0)
        assert lens.l_los == pytest.approx(1.0)
        assert lens.l_ref == pytest.approx(7.0)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="ground distance must be nonnegative"):
            path_lengths(EX_GEOM, -1.0)
        with pytest.raises(ValueError, match="ground distance must be nonnegative"):
            path_lengths(EX_GEOM, np.array([10.0, -1e-9, 30.0]))

    def test_length_identity(self):
        # l_ref^2 - l_los^2 = 4 h_tx h_rx regardless of distance; the
        # difference of the rounded squares carries O(eps * l_ref^2) noise
        rng = np.random.default_rng(11)
        for _ in range(200):
            geom = random_geometry(rng)
            d = rng.uniform(0.0, 1e4)
            lens = path_lengths(geom, d)
            tol = 32.0 * np.finfo(float).eps * lens.l_ref**2
            assert lens.l_ref**2 - lens.l_los**2 == pytest.approx(
                4.0 * geom.h_tx * geom.h_rx, abs=tol
            )

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SceneGeometry(0.0, 1.0)
        with pytest.raises(ValueError):
            SceneGeometry(1.0, -2.0)


class TestPhaseShift:
    def test_first_null_marker(self):
        # Figure marker: phase reaches 2*pi near d = 46.66 m
        assert phase_shift(EX_GEOM, 46.66, EX_FREQ_LOW) == pytest.approx(TWO_PI, abs=1e-3)

    def test_limit_towards_zero_distance(self):
        assert phase_shift(EX_GEOM, 0.0, EX_FREQ_LOW) == pytest.approx(30.0, rel=1e-12)

    def test_vanishes_at_huge_distance(self):
        assert phase_shift(EX_GEOM, 1e9, EX_FREQ_LOW) < 1e-6

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            geom = random_geometry(rng)
            freq = CarrierFrequency(rng.uniform(0.1e9, 3e9))
            d = np.sort(rng.uniform(0.01, 2000.0, size=100))
            shifts = phase_shift(geom, d, freq)
            assert np.all(np.diff(shifts) < 0)

    def test_bounded_by_max_phase_shift(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            geom = random_geometry(rng)
            freq = CarrierFrequency(rng.uniform(0.1e9, 3e9))
            bound = max_phase_shift(geom, freq)
            d = rng.uniform(0.0, 500.0, size=64)
            assert np.all(phase_shift(geom, d, freq) <= bound + 1e-12)


class TestMaxPhaseShift:
    def test_running_example(self):
        assert max_phase_shift(EX_GEOM, EX_FREQ_LOW) == pytest.approx(30.0, rel=1e-12)

    def test_symmetric_heights(self):
        geom = SceneGeometry(4.0, 4.0)
        freq = CarrierFrequency(1e9)
        expected = 2.0 * freq.omega * 4.0 / SPEED_OF_LIGHT
        assert max_phase_shift(geom, freq) == pytest.approx(expected, rel=1e-12)

    def test_high_band_value(self):
        expected = 2.0 * (TWO_PI * 2.4e9 / SPEED_OF_LIGHT) * 1.5
        assert max_phase_shift(EX_GEOM, EX_FREQ_HIGH) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(150.9, abs=0.05)


class TestKMax:
    def test_running_example(self):
        assert k_max(EX_GEOM, EX_FREQ_LOW) == 4

    def test_no_minima_for_low_frequency(self):
        assert k_max(EX_GEOM, CarrierFrequency(1e7)) == 0

    def test_high_band_value(self):
        assert k_max(EX_GEOM, EX_FREQ_HIGH) == 24

    @pytest.mark.parametrize("freq", [EX_FREQ_LOW, EX_FREQ_HIGH])
    def test_matches_grid_count_of_minima(self, freq):
        assert count_local_minima(EX_GEOM, freq) == k_max(EX_GEOM, freq)


class TestNullDistances:
    def test_running_example(self):
        nulls = null_distances(EX_GEOM, EX_FREQ_LOW)
        np.testing.assert_allclose(nulls, [46.7, 21.6, 12.3, 6.5], atol=0.05)

    def test_empty_when_no_minima(self):
        assert null_distances(EX_GEOM, CarrierFrequency(1e7)).size == 0

    def test_high_band_third_null(self):
        nulls = null_distances(EX_GEOM, EX_FREQ_HIGH)
        assert nulls[2] == pytest.approx(79.4, abs=0.1)

    def test_more_than_the_limit_refused_with_the_count(self):
        # k_max = MAX_NULLS + 1; the refusal comes before any array is built
        freq = CarrierFrequency((channel.MAX_NULLS + 1.5) * SPEED_OF_LIGHT / 3.0)
        assert k_max(EX_GEOM, freq) == channel.MAX_NULLS + 1
        with pytest.raises(ValueError, match=f"^{channel.MAX_NULLS + 1} interference minima"):
            null_distances(EX_GEOM, freq)

    def test_limit_itself_listed(self, monkeypatch):
        monkeypatch.setattr(channel, "MAX_NULLS", 3)
        assert null_distances(EX_GEOM, CarrierFrequency(3.5 * SPEED_OF_LIGHT / 3.0)).size == 3
        with pytest.raises(ValueError, match="^4 interference minima"):
            null_distances(EX_GEOM, CarrierFrequency(4.5 * SPEED_OF_LIGHT / 3.0))

    def test_sorted_descending(self):
        nulls = null_distances(EX_GEOM, EX_FREQ_HIGH)
        assert np.all(np.diff(nulls) < 0)

    def test_phase_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            geom = random_geometry(rng)
            freq = CarrierFrequency(rng.uniform(0.1e9, 3e9))
            for k, d_k in enumerate(null_distances(geom, freq), start=1):
                assert abs(phase_shift(geom, d_k, freq) - TWO_PI * k) < 1e-9

    def test_no_negative_radicands(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            geom = random_geometry(rng)
            freq = CarrierFrequency(rng.uniform(0.01e9, 5e9))
            nulls = null_distances(geom, freq)
            assert np.all(np.isfinite(nulls))

    def test_accurate_against_a_decimal_reference(self):
        # d_k is ill-conditioned in q next to the mast, by (l_ref/d_k)^2, so the
        # relative error is held to 4*eps times that: |got - want|*want <= 4*eps*l_ref^2.
        rng = np.random.default_rng(23)
        draws = [(*rng.uniform(1.0, 15.0, 2), rng.uniform(0.4e9, 3e9)) for _ in range(200)]
        draws += [(*10.0 ** rng.uniform(-3.0, 5.0, 2), 10.0 ** rng.uniform(0.0, 14.0))
                  for _ in range(1000)]
        worst, samples = 0.0, 0
        for h_tx, h_rx, f in draws:
            geom, freq = SceneGeometry(h_tx, h_rx), CarrierFrequency(f)
            count = k_max(geom, freq)
            if not 1 <= count <= channel.MAX_NULLS:
                continue
            nulls = null_distances(geom, freq)
            for k in {1, count, int(rng.integers(1, count + 1))}:
                want, l_ref = reference_null(h_tx, h_rx, f, k)
                error = abs(Decimal(float(nulls[k - 1])) - want) * want / (l_ref * l_ref)
                worst = max(worst, float(error) / np.finfo(float).eps)
                samples += 1
        assert samples > 1000
        assert worst <= 4.0

    def test_null_at_the_mast_is_zero(self):
        # one float below 33*c/(2*h_rx) the phase supremum rounds to 33 full
        # turns, while the 33rd null's path difference 2*pi*33*c/omega rounds
        # above 2*h_rx, the supremum of q
        freq = CarrierFrequency(float(np.nextafter(33 * SPEED_OF_LIGHT / 4.0, 0.0)))
        geom = SceneGeometry(10.0, 2.0)
        nulls = null_distances(geom, freq)
        assert nulls.size == k_max(geom, freq) == 33
        assert nulls[-1] == 0.0 and np.all(nulls[:-1] > 0.0)


class TestReceivePowerSingle:
    def test_low_band_endpoint(self):
        p = receive_power_single(EX_GEOM, 30.0, EX_FREQ_LOW)
        assert to_decibel(p) == pytest.approx(-50.0, abs=0.5)

    def test_high_band_endpoint(self):
        p = receive_power_single(EX_GEOM, 100.0, EX_FREQ_HIGH)
        assert to_decibel(p) == pytest.approx(-75.0, abs=0.5)

    def test_height_swap_symmetry(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            h_tx, h_rx = rng.uniform(1.0, 15.0, size=2)
            d = rng.uniform(1.0, 500.0)
            freq = CarrierFrequency(rng.uniform(0.1e9, 3e9))
            a = receive_power_single(SceneGeometry(h_tx, h_rx), d, freq)
            b = receive_power_single(SceneGeometry(h_rx, h_tx), d, freq)
            assert a == b

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            geom = random_geometry(rng)
            freq = CarrierFrequency(rng.uniform(0.1e9, 3e9))
            d = rng.uniform(0.01, 2000.0, size=400)
            assert np.all(receive_power_single(geom, d, freq) >= 0.0)

    def test_equal_heights_singular_at_zero(self):
        for d in (0.0, np.array([10.0, 0.0, 30.0])):
            with pytest.raises(ValueError, match="singular geometry"):
                receive_power_single(SceneGeometry(5.0, 5.0), d, EX_FREQ_LOW)
            # distinct heights keep d = 0 regular
            receive_power_single(SceneGeometry(5.0, 4.0), d, EX_FREQ_LOW)

    def test_transmit_power_scaling(self):
        p1 = receive_power_single(EX_GEOM, 50.0, EX_FREQ_LOW, 1.0)
        p3 = receive_power_single(EX_GEOM, 50.0, EX_FREQ_LOW, 3.0)
        assert p3 == pytest.approx(3.0 * p1, rel=1e-14)

    def test_accurate_at_the_nulls_and_in_the_far_field(self):
        # Against the 40-digit reference.  Evaluated as 1/l - 1/lr and
        # 1 - cos(phase), the kernel was off by up to 4.4e-10 within 1e-9 of a
        # null, and returned 0 W on 420 of the 2000 far-field draws.
        rng = np.random.default_rng(21)
        samples = []
        for h_rx in (1.0, 2.0, 3.0):
            for f in (0.4e9, 1e9, 2.4e9, 3e9):
                geom, freq = SceneGeometry(10.0, h_rx), CarrierFrequency(f)
                d_k = null_distances(geom, freq)
                d_k *= 1.0 + rng.uniform(-1e-9, 1e-9, d_k.size)
                samples += [(geom, freq, d) for d in d_k]
        n = 2000  # log-uniform far-field draws
        h_tx, h_rx = 10.0 ** rng.uniform(-1.0, 2.0, (2, n))
        f, d = 10.0 ** rng.uniform(6.0, 11.0, n), 10.0 ** rng.uniform(3.0, 12.0, n)
        samples += [(SceneGeometry(*h), CarrierFrequency(f_i), d_i)
                    for *h, f_i, d_i in zip(h_tx, h_rx, f, d)]
        worst = 0.0
        for geom, freq, d in samples:
            want = reference_power_single(geom.h_tx, geom.h_rx, d, freq.f)
            got = Decimal(receive_power_single(geom, d, freq))
            worst = max(worst, float(abs(got - want) / want))
        assert worst <= 1e-12

    def test_peak_memory_on_a_grid(self):
        # The three ray terms and at most three arrays besides, computed in
        # place: six grid-size arrays, as before the exact form.
        d = np.linspace(1.0, 1e4, 200_000)
        receive_power_single(EX_GEOM, d, EX_FREQ_LOW)  # imports and caches warm
        tracemalloc.start()
        try:
            receive_power_single(EX_GEOM, d, EX_FREQ_LOW)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * d.nbytes, f"peak {peak / d.nbytes:.2f} grid-size arrays"


POWER_KERNELS = [
    lambda p_t: receive_power_single(EX_GEOM, 50.0, EX_FREQ_LOW, p_t),
    lambda p_t: sum_power_two(EX_GEOM, 50.0, FrequencyPair(2.4e9, 2.45e9), p_t),
    lambda p_t: sum_power_lower_bound(EX_GEOM, 50.0, FrequencyPair(2.4e9, 2.45e9), p_t),
]


@pytest.mark.parametrize("p_t", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("kernel", POWER_KERNELS, ids=["single", "sum", "lower_bound"])
def test_transmit_power_must_be_positive_and_finite(kernel, p_t):
    # the whole message: the float-range refusal names the transmit power too
    with pytest.raises(ValueError, match="transmit power must be positive and finite"):
        kernel(p_t)


def half_power_splits():
    """Seeded (geom, d, pair, p_t, split) draws, split being the pair's two
    carriers each at P_t/2 through receive_power_single."""
    rng = np.random.default_rng(18)
    for _ in range(500):
        geom = random_geometry(rng)
        f1, f2 = np.sort(rng.uniform(0.1e9, 3e9, size=2))
        if f1 == f2:
            continue
        d = rng.uniform(1.0, 1000.0)
        p_t = rng.uniform(0.1, 10.0)
        split = receive_power_single(
            geom, d, CarrierFrequency(f1), p_t / 2
        ) + receive_power_single(geom, d, CarrierFrequency(f2), p_t / 2)
        yield geom, d, FrequencyPair(f1, f2), p_t, split


class TestSumPowerTwo:
    def test_matches_two_half_power_singles(self):
        for geom, d, pair, p_t, split in half_power_splits():
            assert sum_power_two(geom, d, pair, p_t) == pytest.approx(split, rel=1e-12)

    def test_is_exactly_two_half_power_singles(self):
        # the pair power runs the single-carrier kernel twice, so the split
        # is reproduced bit for bit
        for geom, d, pair, p_t, split in half_power_splits():
            assert sum_power_two(geom, d, pair, p_t) == split

    def test_equal_frequency_limit_recombines(self):
        # splitting P_t across two transmissions of the same carrier is a
        # single full-power transmission
        d = 75.0
        full = receive_power_single(EX_GEOM, d, EX_FREQ_HIGH, 1.0)
        halves = 2.0 * receive_power_single(EX_GEOM, d, EX_FREQ_HIGH, 0.5)
        assert halves == pytest.approx(full, rel=1e-15)


class TestSumPowerLowerBound:
    def test_dominated_by_sum_power(self):
        rng = np.random.default_rng(19)
        for _ in range(10_000):
            geom = random_geometry(rng)
            f1, f2 = np.sort(rng.uniform(0.1e9, 3e9, size=2))
            if f1 == f2:
                continue
            pair = FrequencyPair(f1, f2)
            d = rng.uniform(0.5, 2000.0)
            bound = sum_power_lower_bound(geom, d, pair)
            total = sum_power_two(geom, d, pair)
            assert bound <= total + 1e-12

    def test_touches_sum_power_near_alignment(self):
        # scan a window around a spacing null: the gap to the true sum
        # power closes where both carriers align constructively
        pair = FrequencyPair.from_spacing(2.4e9, 250e6)
        d = np.linspace(20.0, 26.0, 200_001)  # window around d_1(delta) = 22.9
        gap = sum_power_two(EX_GEOM, d, pair) - sum_power_lower_bound(EX_GEOM, d, pair)
        assert gap.min() < 1e-6

    def test_far_field_bound_does_not_cancel(self):
        # 1 mHz apart the spacing phase is ~1e-12 rad, so the bound is
        # (a1 + a2)*(1/l - 1/lr)^2 = (a1 + a2)*(q/(l*lr))^2 to ~1e-20: ten
        # digits below the two terms whose difference it is, and it falls
        # with d.  The difference of those terms was off by up to 4e-6 here.
        geom, pair = SceneGeometry(10.0, 1.5), FrequencyPair(2.4e9, 2.4e9 + 1e-3)
        d = np.linspace(1498.5, 1500.0, 2001)
        lens = path_lengths(geom, d)
        ratio = path_difference(geom, d) / (lens.l_los * lens.l_ref)
        exact = _lower_bound_coeffs(pair.f1, pair.f2, 1.0)[0] * ratio * ratio
        bound = sum_power_lower_bound(geom, d, pair)
        assert np.max(np.abs(bound / exact - 1.0)) <= 1e-12
        assert np.all(np.diff(bound) <= 0.0)

    def test_accurate_against_a_decimal_reference(self):
        # Against the 40-digit reference: physical draws (1-15 m, 0.4-3 GHz,
        # 1-2000 m), close carriers (spacings of 1e-9 to 1e-3 of f1, heights
        # to 10 km), spacing nulls (1e-9 relative either side of each), the far
        # field (to 1e12 m) and carriers up to 1e8 apart in ratio.  The worst
        # errors, 1.4e-13 (physical) and 7.8e-12 (wide), come from rounding the
        # spacing phase (up to 1.6e3 rad on the physical draws).
        rng = np.random.default_rng(23)
        families = {name: [] for name in ("physical", "close", "nulls", "far", "wide")}
        for _ in range(300):
            f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, 2))
            families["physical"].append((*rng.uniform(1.0, 15.0, 2), rng.uniform(1.0, 2000.0), f1, f2))
            f1 = rng.uniform(0.4e9, 3e9)
            f2 = f1 * (1.0 + 10.0 ** rng.uniform(-9.0, -3.0))
            families["close"].append((*10.0 ** rng.uniform(0.0, 4.0, 2), 10.0 ** rng.uniform(0.0, 5.0), f1, f2))
            f1 = 10.0 ** rng.uniform(6.0, 11.0)
            f2 = f1 * (1.0 + 10.0 ** rng.uniform(-6.0, 0.0))
            families["far"].append((*10.0 ** rng.uniform(-1.0, 2.0, 2), 10.0 ** rng.uniform(3.0, 12.0), f1, f2))
            f1 = 10.0 ** rng.uniform(6.0, 9.0)
            f2 = f1 * 10.0 ** rng.uniform(0.0, 8.0)
            families["wide"].append((*10.0 ** rng.uniform(0.0, 1.2, 2), 10.0 ** rng.uniform(0.0, 5.0), f1, f2))
        for h_rx in (1.0, 2.0, 3.0):
            for f1, f2 in ((2.4e9, 2.5e9), (2.4e9, 2.65e9), (2.4e9, 2.9e9), (0.4e9, 3e9)):
                d_k = null_distances(SceneGeometry(10.0, h_rx), CarrierFrequency(f2 - f1))
                d_k = np.outer(d_k, 1.0 + rng.uniform(-1e-9, 1e-9, 2)).ravel()
                families["nulls"] += [(10.0, h_rx, d, f1, f2) for d in d_k]
        for name, samples in families.items():
            worst = 0.0
            for h_tx, h_rx, d, f1, f2 in samples:
                want = reference_lower_bound(h_tx, h_rx, d, f1, f2)
                got = Decimal(sum_power_lower_bound(SceneGeometry(h_tx, h_rx), d, FrequencyPair(f1, f2)))
                worst = max(worst, float(abs(got - want) / want))
            assert worst <= (1e-10 if name == "wide" else 1e-12), name

    def test_finite_where_the_envelope_rounds_below_zero(self):
        # With (f2 - f1)/f1 = 4e-9 the envelope's floor (a1 - a2)^2 lies below
        # the roundoff of a1^2 + a2^2, and for this pair the bound's earlier
        # radicand a1^2 + a2^2 + 2*a1*a2 - 4*a1*a2*sin^2(phase/2) rounds to a
        # negative number, which needed a clamp.  1 - g, g <= 1, needs none.
        # Heights of c/(4*delta_f) bring the spacing phase pi, where
        # sin^2 = 1, into reach.
        f1, delta_f = 2493507242.378777, 10.0
        pair = FrequencyPair(f1, f1 + delta_f)
        geom = SceneGeometry(1e7, 1e7)
        # phase pi at q = c/(2*delta_f); with equal heights d = (4h^2 - q^2)/(2q)
        q = SPEED_OF_LIGHT / (2.0 * delta_f)
        d0 = (4.0 * 1e14 - q * q) / (2.0 * q)
        d = d0 * (1.0 + np.linspace(-1e-7, 1e-7, 1001))
        scale = 0.5 * (0.5 * SPEED_OF_LIGHT) ** 2
        a1, a2 = (scale / (TWO_PI * f) ** 2 for f in (f1, f1 + delta_f))
        half = np.sin(0.5 * pair.delta_omega / SPEED_OF_LIGHT * path_difference(geom, d))
        env_sq = a1 * a1 + a2 * a2 + 2.0 * a1 * a2 - 4.0 * a1 * a2 * (half * half)
        assert np.any(env_sq < 0.0)  # the case occurs on this grid
        bound = sum_power_lower_bound(geom, d, pair)
        assert np.all(np.isfinite(bound)) and np.all(bound > 0.0)


class TestEnvelopeIdentity:
    def test_zero_time(self):
        assert envelope_identity_residual(1e9, 2.3e9, 0.0) <= 1e-13

    def test_random_triples(self):
        rng = np.random.default_rng(20)
        w1 = TWO_PI * rng.uniform(0.1e9, 3e9, size=100_000)
        w2 = TWO_PI * rng.uniform(0.1e9, 3e9, size=100_000)
        t = rng.uniform(0.0, 1e-7, size=100_000)
        assert np.max(envelope_identity_residual(w1, w2, t)) < 1e-12

    def test_degenerate_equal_frequencies(self):
        rng = np.random.default_rng(21)
        w = TWO_PI * rng.uniform(0.1e9, 3e9, size=1000)
        t = rng.uniform(0.0, 1e-7, size=1000)
        assert np.max(envelope_identity_residual(w, w, t)) < 1e-12

    @pytest.mark.parametrize("omegas", [(-1.0, 1.0), (1.0, 0.0)], ids=["lower", "upper"])
    def test_rejects_nonpositive_frequencies(self, omegas):
        with pytest.raises(ValueError, match="angular frequencies must be positive"):
            envelope_identity_residual(*omegas, 0.0)


class TestToDecibel:
    def test_unit_ratio(self):
        assert to_decibel(1.0, 1.0) == 0.0

    def test_half_power(self):
        assert to_decibel(0.5, 1.0) == pytest.approx(-3.0103, abs=1e-4)

    def test_zero_maps_to_neg_inf(self):
        assert to_decibel(0.0) == -math.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            to_decibel(-1.0)
        with pytest.raises(ValueError):
            to_decibel(1.0, 0.0)

    @pytest.mark.parametrize("power", [math.nan, math.inf, [1.0, math.nan], [0.0, math.inf]])
    def test_non_finite_power_rejected(self, power):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            to_decibel(power)

    def test_zero_in_an_array_maps_to_neg_inf(self):
        assert to_decibel(np.array([0.0, 1.0])).tolist() == [-math.inf, 0.0]

    @pytest.mark.parametrize("reference", [math.nan, math.inf])
    def test_non_finite_reference_rejected(self, reference):
        with pytest.raises(ValueError, match="reference power"):
            to_decibel(1.0, reference)

    def test_worst_case_running_example(self):
        d1 = null_distances(EX_GEOM, EX_FREQ_LOW)[0]
        p = receive_power_single(EX_GEOM, d1, EX_FREQ_LOW)
        assert to_decibel(p, 1.0) == pytest.approx(-97.0, abs=0.5)


class TestConstants:
    def test_default_speed_of_light(self):
        assert SPEED_OF_LIGHT == 299_792_458.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SceneGeometry(math.nan, 1.5),
            lambda: SceneGeometry(10.0, math.inf),
            lambda: CarrierFrequency(math.nan),
            lambda: CarrierFrequency(math.inf),
            lambda: FrequencyPair(math.nan, 2.4e9),
            lambda: FrequencyPair(2.4e9, math.inf),
        ],
    )
    def test_non_finite_values_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_frequency_types(self):
        freq = CarrierFrequency(2.4e9)
        assert freq.omega == pytest.approx(TWO_PI * 2.4e9, rel=1e-15)
        pair = FrequencyPair.of(2.5e9, 2.4e9)
        assert (pair.f1, pair.f2) == (2.4e9, 2.5e9)
        assert pair.delta_omega == pytest.approx(TWO_PI * 1e8, rel=1e-15)
        with pytest.raises(ValueError):
            FrequencyPair(2.4e9, 2.4e9)
        with pytest.raises(ValueError):
            FrequencyPair.of(2.4e9, 2.4e9)
        with pytest.raises(ValueError):
            CarrierFrequency(0.0)
