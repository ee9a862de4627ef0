"""The one-pass profit table against the per-user table it replaced.

``reference_build_profit_table`` is the table as it stood before the
one-pass build: one batched worst-case call for all carriers and one for
all pairs, per user, each pair batch with its own basin search, a
zooming grid.  Its worst-case routine, basin search and the null and
basin-edge helpers of ``freqassign.channel`` are copied here as they were,
so the test compares against the whole old path and a change to a shared
helper cannot hide behind the reference.  The power kernels themselves
are shared with ``src/``; ``tests/test_channel.py`` checks them.  The new
table must equal the reference bit for bit, except for the pair worst
cases that the reference's basin search set: the basin is now searched by
bounded Brent, and those worst cases are compared as powers, within
:data:`BASIN_REL`.
"""

import math
from unittest import mock

import numpy as np
import pytest

from freqassign import (
    CarrierFrequency,
    DistanceInterval,
    FrequencyPair,
    SceneGeometry,
    SystemConfig,
    UserProfile,
    WorstCaseResult,
    build_profit_table,
    k_max,
    null_distances,
    worst_case_pair,
    worst_case_single,
)
from freqassign.bench import ScenarioConfig, generate_scenario
from freqassign.channel import (
    SPEED_OF_LIGHT,
    TWO_PI,
    _lower_bound_coeffs,
    _lower_bound_power,
    _single_coeffs,
    _single_power,
    receive_power_single,
    sum_power_lower_bound,
)
from freqassign import worstcase
from freqassign.worstcase import _KINDS, INTERIOR_NULL, worst_cases

_ZOOM_POINTS = 33
_ZOOM_STEPS = np.arange(_ZOOM_POINTS, dtype=float)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _invert_path_difference(geom, q):
    q = np.minimum(q, 2.0 * np.minimum(geom.h_tx, geom.h_rx))
    l_los = (4.0 * geom.h_tx * geom.h_rx - q * q) / (2.0 * q)
    dh = geom.h_tx - geom.h_rx
    return np.sqrt(np.maximum(l_los * l_los - dh * dh, 0.0))


def _k_max(geom, omega):
    return np.floor(2.0 * omega * np.minimum(geom.h_tx, geom.h_rx) / SPEED_OF_LIGHT / TWO_PI)


def _null_distance(geom, omega, k):
    ck = SPEED_OF_LIGHT * math.pi * k
    w_rx = omega * geom.h_rx
    w_tx = omega * geom.h_tx
    a = ck * ck - w_rx * w_rx
    b = ck * ck - w_tx * w_tx
    scale = omega * SPEED_OF_LIGHT * math.pi * k
    return np.sqrt(np.maximum(a * b, 0.0) / (scale * scale))


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


# A worst case the reference's basin search set may move by this much
# relative to it, and may never rise by more: the grid and bounded Brent
# both stop within sqrt(eps)*x + xatol/3 of the minimum, not on it.
BASIN_REL = 1e-9


def _never_lower(geom, coeffs, lo, hi):
    return np.full(lo.size, np.inf), lo


def reference_with_basin_mask(geom, interval, f1, f2, p_t=1.0):
    """The reference worst cases of pairs (f1[m], f2[m]), and a mask of the
    entries its basin search set: those that change when the search can
    never undercut a candidate."""
    expected = _reference_worst_cases(geom, interval, f1, f2, p_t)
    with mock.patch.dict(globals(), {"_reference_basin_minimum": _never_lower}):
        candidates = _reference_worst_cases(geom, interval, f1, f2, p_t)
    return expected, expected[0] != candidates[0]


def assert_basin_power(power, expected):
    rel = (power - expected) / expected
    assert np.all(power <= expected * (1.0 + BASIN_REL)), f"above the reference by {rel}"
    assert np.all(np.abs(rel) <= BASIN_REL), f"off the reference by {rel}"


def assert_matches_reference(users, freqs, system):
    """Singles and every pair entry outside the reference's basin search bit
    for bit; the worst cases of the others as powers, within BASIN_REL."""
    table = build_profit_table(users, freqs, system)
    single, pair = reference_build_profit_table(users, freqs, system)
    assert_bitwise_equal(table.single, single)
    hz = np.array([fr.f for fr in freqs])
    i, j = np.triu_indices(hz.size, k=1)
    lo, hi = np.minimum(hz[i], hz[j]), np.maximum(hz[i], hz[j])
    for u, user in enumerate(users):
        geom = SceneGeometry(system.h_tx, user.h_rx)
        (expected, _, _), basin = reference_with_basin_mask(geom, user.interval, lo, hi, system.p_t)
        both = worst_cases([(geom, user.interval)], lo, hi, system.p_t)[0][0]
        assert_bitwise_equal(table.pair[u, i, j], both - single[u, i] - single[u, j])
        assert_bitwise_equal(table.pair[u, i, j][~basin], pair[u, i, j][~basin])
        assert_basin_power(both[basin], expected[basin])
    assert_bitwise_equal(table.pair, table.pair.transpose(0, 2, 1))
    return table


def assert_query_matches(result, expected, basin):
    """A scalar query equals its reference entry bit for bit, or, where the
    reference's basin search set it, is an interior null whose power matches
    within BASIN_REL."""
    power, argmin, kind = expected
    if not basin:
        assert result == WorstCaseResult(power, argmin, _KINDS[kind])
        return
    assert_basin_power(result.power, power)
    assert result.candidate_kind == INTERIOR_NULL


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
    """Intervals whose d_max sits 0-3 floats below a null distance.

    Below the null the phase at d_max lies a hair above 2*pi*k, so the
    closed-form k can come out one short, with its null just outside.
    """
    geom = SceneGeometry(h_tx, h_rx)
    spacing = CarrierFrequency(float(hz[-1] - hz[0]))
    nulls = [null_distances(geom, CarrierFrequency(float(hz[0])))[k] for k in (0, 1, -1)]
    nulls += list(null_distances(geom, spacing)[:2])
    users = []
    for d in nulls:
        d_max = float(d)
        for _ in range(4):
            users.append(UserProfile(h_rx, DistanceInterval(d / 3.0, d_max)))
            d_max = float(np.nextafter(d_max, 0.0))
    return users


@pytest.mark.parametrize("hz", [WIDEBAND_HZ, NARROWBAND_HZ], ids=["wideband", "narrowband"])
@pytest.mark.parametrize("p_t", [1.0, 2.5])
def test_edge_users_match_reference(hz, p_t):
    freqs = [CarrierFrequency(float(f)) for f in hz]
    table = assert_matches_reference(edge_users(), freqs, SystemConfig(10.0, p_t))
    assert np.all(np.isfinite(table.pair))


def test_spacing_null_of_the_tallest_user_alone_matches_reference():
    # With h_tx = 10 m the 33 MHz spacing has k_max = floor(2*df*h_rx/c) = 1
    # at h_rx = 9 m and 0 for every other user, so the entry must survive the
    # prefilter on the tallest user alone: not on k_max > 1, nor on a mean
    # height.  The tallest user's worst case is at its one spacing null.
    spacing = CarrierFrequency(33e6)
    hz = 2.4e9 + np.array([0.0, 5e6, spacing.f])
    tall = SceneGeometry(10.0, 9.0)
    d_1 = float(null_distances(tall, spacing)[0])
    users = [UserProfile(h, DistanceInterval(20.0, 60.0)) for h in (1.5, 3.0, 4.0)]
    users.insert(1, UserProfile(9.0, DistanceInterval(d_1 / 2.0, 2.0 * d_1)))
    assert [k_max(SceneGeometry(10.0, u.h_rx), spacing) for u in users] == [0, 1, 0, 0]
    freqs = [CarrierFrequency(float(f)) for f in hz]
    table = assert_matches_reference(users, freqs, SystemConfig(10.0))
    both = worst_case_pair(tall, users[1].interval, FrequencyPair(hz[0], hz[2]))
    assert both.candidate_kind == INTERIOR_NULL
    assert table.pair[1, 0, 2] == both.power - table.single[1, 0] - table.single[1, 2]


def test_intervals_ending_below_a_null_match_reference():
    freqs = [CarrierFrequency(float(f)) for f in WIDEBAND_HZ]
    assert_matches_reference(users_ending_below_nulls(WIDEBAND_HZ), freqs, SystemConfig(10.0))


@pytest.mark.parametrize("hz", [WIDEBAND_HZ, NARROWBAND_HZ], ids=["wideband", "narrowband"])
def test_queries_ending_below_a_null_match_reference(hz):
    # argmin and kind as well as the power, for every carrier and pair
    i, j = np.triu_indices(hz.size, k=1)
    for user in users_ending_below_nulls(hz):
        geom = SceneGeometry(10.0, user.h_rx)
        iv = user.interval
        expected = zip(*_reference_worst_cases(geom, iv, hz))
        for f, (power, argmin, kind) in zip(hz, expected):
            result = worst_case_single(geom, iv, CarrierFrequency(float(f)))
            assert result == WorstCaseResult(power, argmin, _KINDS[kind])
        expected, basin = reference_with_basin_mask(geom, iv, hz[i], hz[j])
        for m, entry in enumerate(zip(*expected)):
            result = worst_case_pair(geom, iv, FrequencyPair(float(hz[i][m]), float(hz[j][m])))
            assert_query_matches(result, entry, basin[m])


def queries_ending_above_nulls(hz, h_tx=10.0, h_rx=1.5):
    """(f1, f2, d_k, interval) with the interval [d_k/2, d_k + 1 float] for
    every null d_k of every carrier (f2 None) and of every pair's spacing.

    One float above d_k the phase at d_max lies a hair below 2*pi*k, where
    the closed-form k can come out one too large and miss d_k.
    """
    geom = SceneGeometry(h_tx, h_rx)
    i, j = np.triu_indices(hz.size, k=1)
    entries = [(float(f), None, float(f)) for f in hz]
    entries += [(float(f1), float(f2), float(f2 - f1)) for f1, f2 in zip(hz[i], hz[j])]
    queries = []
    for f1, f2, rate in entries:
        for d_k in null_distances(geom, CarrierFrequency(rate)):
            d_max = float(np.nextafter(d_k, np.inf))
            queries.append((f1, f2, float(d_k), DistanceInterval(d_k / 2.0, d_max)))
    return geom, queries


def test_queries_ending_one_float_above_a_null_match_reference():
    # argmin and kind as well as the power; the null inside the interval is
    # a candidate, so no worst case may exceed the power there
    geom, queries = queries_ending_above_nulls(WIDEBAND_HZ)
    for f1, f2, d_k, iv in queries:
        power, argmin, kind = (a.item() for a in _reference_worst_cases(geom, iv, f1, f2))
        if f2 is None:
            result = worst_case_single(geom, iv, CarrierFrequency(f1))
            at_null = receive_power_single(geom, d_k, CarrierFrequency(f1))
        else:
            result = worst_case_pair(geom, iv, FrequencyPair(f1, f2))
            at_null = sum_power_lower_bound(geom, d_k, FrequencyPair(f1, f2))
        assert result == WorstCaseResult(power, argmin, _KINDS[kind])
        assert result.power <= at_null


def test_pairs_without_a_spacing_null_match_reference():
    # spacings of 1 mHz-1 kHz have no spacing null at these heights, so only
    # the endpoints compete
    spacings = np.geomspace(1e-3, 1e3, 13)
    hz = 2.4e9 + np.concatenate([[0.0], spacings])
    geom = SceneGeometry(10.0, 1.5)
    for d in (50.0, 500.0, 5000.0):
        iv = DistanceInterval(d, 3.0 * d)
        expected = _reference_worst_cases(geom, iv, np.full(spacings.size, hz[0]), hz[1:])
        for f2, (power, argmin, kind) in zip(hz[1:], zip(*expected)):
            result = worst_case_pair(geom, iv, FrequencyPair(float(hz[0]), float(f2)))
            assert result == WorstCaseResult(power, argmin, _KINDS[kind])
            assert result.candidate_kind != "interior_null"


def near_mast_queries():
    """(h_rx, f1, f2, interval) around spacing nulls a few micrometres from
    the mast, where the spacing puts the k-th null just beyond d = 0.  Only
    at such distances does the floor of the basin search's tolerance bind."""
    h_tx, f1 = 10.0, 2.4e9
    queries = []
    for h_rx in (1.5, 2.0):
        for k in (1, 2, 3):
            for eps in np.geomspace(1e-14, 1e-11, 12):
                f2 = f1 + k * SPEED_OF_LIGHT / (2.0 * h_rx) * (1.0 + eps)
                geom = SceneGeometry(h_tx, h_rx)
                d_k = float(_null_distance(geom, TWO_PI * (f2 - f1), k))
                for lo, hi in ((0.999 * d_k, 1.001 * d_k), (0.5 * d_k, 2.0 * d_k)):
                    queries.append((h_rx, f1, f2, DistanceInterval(lo, hi)))
    return h_tx, queries


def test_queries_near_the_mast_match_reference():
    h_tx, queries = near_mast_queries()
    for h_rx, f1, f2, iv in queries:
        geom = SceneGeometry(h_tx, h_rx)
        power, argmin, kind = (a.item() for a in _reference_worst_cases(geom, iv, f1, f2))
        result = worst_case_pair(geom, iv, FrequencyPair(f1, f2))
        assert result == WorstCaseResult(power, argmin, _KINDS[kind])


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
    "name,seed",
    [
        ("wideband-k8n24", 0),
        ("wideband-k8n24", 5),
        ("paper-k20n50", 2),
        # the only trial config whose pairs split into several user blocks
        ("narrowband-k40n100", 1),
        ("narrowband-k40n100", 6),
    ],
)
@pytest.mark.parametrize(
    "user_block",
    [lambda k, pairs: 1, lambda k, pairs: k * pairs, lambda k, pairs: (k - 1) * pairs],
    ids=["one-user-a-block", "all-users-one-block", "last-user-spills"],
)
def test_rows_do_not_depend_on_other_users(name, seed, user_block):
    # the prefilter and the basin search are shared by all users and the
    # endpoint stage runs over blocks of users, so each row must come out
    # as it does with its user alone, in any order and however the users
    # split into blocks: one user a block, all K users' pairs in exactly one
    # block, or the last user's pairs spilling into a second block
    users, freqs, system = scenario(name, seed)
    table = build_profit_table(users, freqs, system)
    for u, user in enumerate(users):
        alone = build_profit_table([user], freqs, system)
        assert_bitwise_equal(table.single[u], alone.single[0])
        assert_bitwise_equal(table.pair[u], alone.pair[0])
    reordered = build_profit_table(users[::-1], freqs, system)
    assert_bitwise_equal(reordered.single, table.single[::-1])
    assert_bitwise_equal(reordered.pair, table.pair[::-1])
    pairs = len(freqs) * (len(freqs) - 1) // 2
    with mock.patch.object(worstcase, "_USER_BLOCK", user_block(len(users), pairs)):
        blocked = build_profit_table(users, freqs, system)
    assert_bitwise_equal(blocked.single, table.single)
    assert_bitwise_equal(blocked.pair, table.pair)


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
