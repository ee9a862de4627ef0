"""The one-pass profit table against the per-user table it replaced.

``reference_build_profit_table`` is the table as it stood before the
one-pass build: one batched worst-case call for all carriers and one for
all pairs, per user, each pair batch with its own basin search.  Its
worst-case routine and basin search are copied here as they were, so the
test compares against the whole old path.  The new table must equal it
bit for bit.
"""

import math

import numpy as np
import pytest

from freqassign import (
    CarrierFrequency,
    DistanceInterval,
    FrequencyPair,
    SceneGeometry,
    SystemConfig,
    UserProfile,
    build_profit_table,
    null_distances,
    worst_case_pair,
    worst_case_single,
)
from freqassign.bench import ScenarioConfig, generate_scenario
from freqassign.channel import (
    SPEED_OF_LIGHT,
    TWO_PI,
    _invert_path_difference,
    _k_max,
    _lower_bound_coeffs,
    _lower_bound_power,
    _null_distance,
    _single_coeffs,
    _single_power,
)

_ZOOM_POINTS = 33
_ZOOM_STEPS = np.arange(_ZOOM_POINTS, dtype=float)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _reference_ray_terms(geom, d):
    dh = geom.h_tx - geom.h_rx
    hs = geom.h_tx + geom.h_rx
    d_sq = d * d
    l_los = np.sqrt(dh * dh + d_sq)
    l_ref = np.sqrt(hs * hs + d_sq)
    return l_los, l_ref, 4.0 * geom.h_tx * geom.h_rx / (l_los + l_ref)


def _reference_basin_minimum(geom, coeffs, lo, hi):
    out_p = np.empty(lo.size)
    out_x = np.empty(lo.size)
    rows = np.arange(lo.size)
    coeffs = [a[:, None] for a in coeffs]
    tol = np.maximum(1e-12, 1e-12 * hi) / 3.0
    while rows.size:
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        x = lo[:, None] + step[:, None] * _ZOOM_STEPS
        x[:, -1] = hi
        p = _lower_bound_power(coeffs, *_reference_ray_terms(geom, x))
        at = p.argmin(axis=1)
        r = np.arange(rows.size)
        x_at = x[r, at]
        lo = x[r, np.maximum(at - 1, 0)]
        hi = x[r, np.minimum(at + 1, _ZOOM_POINTS - 1)]
        done = step <= _SQRT_EPS * x_at + tol
        if done.any():
            out_p[rows[done]] = p[r[done], at[done]]
            out_x[rows[done]] = x_at[done]
            keep = ~done
            rows, lo, hi, tol = rows[keep], lo[keep], hi[keep], tol[keep]
            coeffs = [a[keep] for a in coeffs]
    return out_p, out_x


def _reference_worst_cases(geom, interval, f1, f2=None, p_t=1.0):
    if f2 is None:
        omega = TWO_PI * f1
        coeffs = _single_coeffs(omega, p_t)
        power = _single_power
    else:
        omega = TWO_PI * (f2 - f1)
        coeffs = _lower_bound_coeffs(f1, f2, p_t)
        power = _lower_bound_power
    d_min, d_max = interval.d_min, interval.d_max
    at_min = _reference_ray_terms(geom, d_min)
    at_max = _reference_ray_terms(geom, d_max)
    k = np.maximum(1.0, np.ceil(omega / SPEED_OF_LIGHT * at_max[2] / TWO_PI - 1e-9))
    d_k = _null_distance(geom, omega, k)
    short = d_k > d_max
    if np.any(short):
        k = k + short
        d_k = _null_distance(geom, omega, k)
    has_null = k <= _k_max(geom, omega)
    d_null = np.where(has_null & (d_k >= d_min) & (d_k <= d_max), d_k, d_min)
    p_lo = power(coeffs, *at_min)
    p_hi = power(coeffs, *at_max)
    best_p = np.minimum(
        np.minimum(p_lo, p_hi), power(coeffs, *_reference_ray_terms(geom, d_null))
    )
    kind = np.where(p_lo == best_p, 0, np.where(p_hi == best_p, 1, 2))
    best_x = np.where(kind == 0, d_min, np.where(kind == 1, d_max, d_null))
    if f2 is None:
        return best_p, best_x, kind
    q_scale = SPEED_OF_LIGHT / omega
    d_hi = np.minimum(
        _invert_path_difference(geom, (TWO_PI * k - math.pi) * q_scale), d_max
    )
    d_lo = np.maximum(
        _invert_path_difference(geom, (TWO_PI * k + math.pi) * q_scale), d_min
    )
    rows = np.flatnonzero(has_null & (d_lo < d_hi))
    if rows.size:
        best_p, best_x, kind = np.atleast_1d(best_p, best_x, kind)
        basin_p, basin_x = _reference_basin_minimum(
            geom,
            [np.atleast_1d(a)[rows] for a in coeffs],
            np.atleast_1d(d_lo)[rows],
            np.atleast_1d(d_hi)[rows],
        )
        lower = basin_p < best_p[rows]
        rows = rows[lower]
        best_p[rows] = basin_p[lower]
        best_x[rows] = basin_x[lower]
        kind[rows] = 2
    return best_p, best_x, kind


def _reference_user_worst_cases(user, hz, system):
    geom = SceneGeometry(system.h_tx, user.h_rx)
    single = _reference_worst_cases(geom, user.interval, hz, None, system.p_t)[0]
    i, j = np.triu_indices(hz.size, k=1)
    lo, hi = np.minimum(hz[i], hz[j]), np.maximum(hz[i], hz[j])
    both = _reference_worst_cases(geom, user.interval, lo, hi, system.p_t)[0]
    upper = np.zeros((hz.size, hz.size))
    upper[i, j] = both - single[i] - single[j]
    return single, upper + upper.T


def reference_build_profit_table(users, freqs, system):
    hz = np.array([fr.f for fr in freqs])
    single = np.zeros((len(users), hz.size))
    pair = np.zeros((len(users), hz.size, hz.size))
    for u, user in enumerate(users):
        single[u], pair[u] = _reference_user_worst_cases(user, hz, system)
    return single, pair


def assert_bitwise_equal(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def assert_matches_reference(users, freqs, system):
    table = build_profit_table(users, freqs, system)
    single, pair = reference_build_profit_table(users, freqs, system)
    assert_bitwise_equal(table.single, single)
    assert_bitwise_equal(table.pair, pair)
    return table


# The three trial workloads of the benchmark in perfbench/workloads.py.
BENCHMARK_CONFIGS = {
    "paper-k20n50": dict(n_users=20, n_freqs=50),
    "narrowband-k40n100": dict(n_users=40, n_freqs=100, band=(2.400e9, 2.410e9)),
    "wideband-k8n24": dict(n_users=8, n_freqs=24, band=(0.4e9, 3e9)),
}


def scenario(name, seed, trial=0):
    config = ScenarioConfig(master_seed=seed, **BENCHMARK_CONFIGS[name])
    users, freqs = generate_scenario(config, trial)
    return users, freqs, SystemConfig(h_tx=config.h_tx, p_t=config.p_t)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("name", list(BENCHMARK_CONFIGS))
def test_benchmark_trials_match_reference(name, seed):
    assert_matches_reference(*scenario(name, seed))


WIDEBAND_HZ = np.sort(np.random.default_rng(81).uniform(0.4e9, 3e9, 14))
NARROWBAND_HZ = np.sort(np.random.default_rng(82).uniform(2.40e9, 2.41e9, 9))


def edge_users():
    """Users at the corners of the candidate logic."""
    h_tx = 10.0
    return [
        UserProfile(h_tx, DistanceInterval(30.0, 100.0)),  # h_rx == h_tx
        UserProfile(h_tx * (1 - 1e-12), DistanceInterval(30.0, 100.0)),
        UserProfile(h_tx * (1 + 1e-9), DistanceInterval(5.0, 400.0)),
        UserProfile(1.5, DistanceInterval(46.7, 46.7)),  # degenerate, near a null
        UserProfile(2.0, DistanceInterval(80.0, 80.0)),  # degenerate
        UserProfile(1.5, DistanceInterval(30.0, 100.0)),
        UserProfile(7.5, DistanceInterval(1.0, 500.0)),  # wide
        UserProfile(3.0, DistanceInterval(200.0, 201.0)),  # short and far
        UserProfile(1.5, DistanceInterval(0.2, 3.0)),  # the nulls nearest the mast
        UserProfile(9.0, DistanceInterval(0.5, 8.0)),
    ]


def users_ending_below_nulls(hz, h_tx=10.0, h_rx=1.5):
    """Intervals whose d_max sits one float below a null distance.

    The phase at d_max then lies a hair above 2*pi*k, so the closed-form k
    comes out one short and has to be corrected on the computed d_k.
    """
    geom = SceneGeometry(h_tx, h_rx)
    spacing = CarrierFrequency(float(hz[-1] - hz[0]))
    nulls = [null_distances(geom, CarrierFrequency(float(hz[0])))[k] for k in (0, 1, -1)]
    nulls += list(null_distances(geom, spacing)[:2])
    return [
        UserProfile(h_rx, DistanceInterval(d / 3.0, float(np.nextafter(d, 0.0))))
        for d in nulls
    ]


@pytest.mark.parametrize("hz", [WIDEBAND_HZ, NARROWBAND_HZ], ids=["wideband", "narrowband"])
@pytest.mark.parametrize("p_t", [1.0, 2.5])
def test_edge_users_match_reference(hz, p_t):
    freqs = [CarrierFrequency(float(f)) for f in hz]
    table = assert_matches_reference(edge_users(), freqs, SystemConfig(10.0, p_t))
    assert np.all(np.isfinite(table.pair))


def test_intervals_ending_below_a_null_match_reference():
    freqs = [CarrierFrequency(float(f)) for f in WIDEBAND_HZ]
    assert_matches_reference(users_ending_below_nulls(WIDEBAND_HZ), freqs, SystemConfig(10.0))


@pytest.mark.parametrize("seed", [3, 4])
def test_wideband_users_match_reference(seed):
    rng = np.random.default_rng(seed)
    users = [
        UserProfile(
            float(rng.uniform(1.0, 12.0)),
            DistanceInterval(d_min, d_min + float(rng.uniform(0.0, 120.0))),
        )
        for d_min in rng.uniform(2.0, 300.0, 10)
    ]
    freqs = [CarrierFrequency(float(f)) for f in np.sort(rng.uniform(0.4e9, 3e9, 16))]
    assert_matches_reference(users, freqs, SystemConfig(h_tx=float(rng.uniform(4.0, 15.0))))


@pytest.mark.parametrize(
    "name,seed", [("wideband-k8n24", 0), ("wideband-k8n24", 5), ("paper-k20n50", 2)]
)
def test_rows_do_not_depend_on_other_users(name, seed):
    # the basin search is shared by all users, so each row must come out
    # as it does with its user alone
    users, freqs, system = scenario(name, seed)
    table = build_profit_table(users, freqs, system)
    for u, user in enumerate(users):
        alone = build_profit_table([user], freqs, system)
        assert_bitwise_equal(table.single[u], alone.single[0])
        assert_bitwise_equal(table.pair[u], alone.pair[0])
    reordered = build_profit_table(users[::-1], freqs, system)
    assert_bitwise_equal(reordered.single, table.single[::-1])
    assert_bitwise_equal(reordered.pair, table.pair[::-1])


def test_table_agrees_with_scalar_path_bit_for_bit():
    users, freqs, system = scenario("wideband-k8n24", 1)
    table = build_profit_table(users, freqs, system)
    for u in (0, 5):
        geom = SceneGeometry(system.h_tx, users[u].h_rx)
        iv = users[u].interval
        singles = [worst_case_single(geom, iv, fr, system.p_t).power for fr in freqs]
        assert singles == table.single[u].tolist()
        for i, j in [(0, 1), (2, 17), (5, 23), (11, 12)]:
            pair = FrequencyPair.of(freqs[i].f, freqs[j].f)
            both = worst_case_pair(geom, iv, pair, system.p_t).power
            assert table.pair[u, i, j] == table.pair[u, j, i] == both - singles[i] - singles[j]


def test_single_frequency_and_single_pair_tables():
    users, freqs, system = scenario("paper-k20n50", 0)
    for n in (1, 2):
        table = assert_matches_reference(users[:3], freqs[:n], system)
        assert table.pair.shape == (3, n, n)
