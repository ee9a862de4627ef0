"""The batched worst-case routine against itself and the scipy path it replaced.

``reference_worst_case_pair`` is the scalar worst case as it stood before
the batched routine: endpoint and null candidates picked one at a time,
and the null's basin polished by scipy's bounded Brent search.  It lives
here only as the reference of the differential test.  The basin search's
rows are also held against scipy's bounded search on the part of their
bracket that the bound's slopes at its a and b leave.
"""

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
    phase_uniform_grid,
    sum_power_lower_bound,
    to_decibel,
    worst_case_pair,
    worst_case_single,
)
from freqassign import worstcase
from freqassign.bench import ScenarioConfig, generate_scenario
from freqassign.channel import (
    SPEED_OF_LIGHT,
    TWO_PI,
    _invert_path_difference,
    _lower_bound_power,
    _lower_bound_slope,
    _ray_terms,
    path_difference,
)
from freqassign.worstcase import _KINDS, WorstCaseResult, worst_cases


def _reference_min_over_candidates(power_fn, interval, nulls):
    distances = [interval.d_min, interval.d_max]
    kinds = [_KINDS[0], _KINDS[1]]
    inside = nulls[(nulls >= interval.d_min) & (nulls <= interval.d_max)]
    if inside.size:
        distances.append(float(np.max(inside)))
        kinds.append(_KINDS[2])
    powers = np.asarray(power_fn(np.array(distances)))
    best = None
    for p, d, kind in zip(powers, distances, kinds):
        if best is None or p < best.power:
            best = WorstCaseResult(float(p), d, kind)
    return best


def _reference_invert_path_difference(geom, q):
    q = min(q, 2.0 * min(geom.h_tx, geom.h_rx))
    l_los = (4.0 * geom.h_tx * geom.h_rx - q * q) / (2.0 * q)
    return math.sqrt(max(l_los * l_los - (geom.h_tx - geom.h_rx) ** 2, 0.0))


def _reference_polish_null_basin(power_fn, geom, interval, nulls, omega, c):
    below = np.nonzero(nulls <= interval.d_max)[0]
    if below.size == 0:
        return None
    k = int(below[0]) + 1
    d_hi = min(_reference_invert_path_difference(geom, (TWO_PI * k - math.pi) * c / omega), interval.d_max)
    d_lo = max(_reference_invert_path_difference(geom, (TWO_PI * k + math.pi) * c / omega), interval.d_min)
    if not d_lo < d_hi:
        return None
    res = minimize_scalar(
        lambda d: float(power_fn(d)),
        bounds=(d_lo, d_hi),
        method="bounded",
        options={"xatol": max(1e-12, 1e-12 * d_hi)},
    )
    return float(res.fun), float(res.x)


def reference_worst_case_pair(geom, interval, pair, p_t=1.0, c=299_792_458.0):
    power_fn = lambda d: sum_power_lower_bound(geom, d, pair, p_t)
    spacing_nulls = null_distances(geom, CarrierFrequency(pair.delta_f))
    best = _reference_min_over_candidates(power_fn, interval, spacing_nulls)
    polished = _reference_polish_null_basin(
        power_fn, geom, interval, spacing_nulls, pair.delta_omega, c
    )
    if polished is not None and polished[0] < best.power:
        best = WorstCaseResult(polished[0], polished[1], _KINDS[2])
    return best


def wideband_user(rng):
    """Geometry, interval and 0.4-3 GHz carriers whose spacing nulls fall inside."""
    geom = SceneGeometry(10.0, float(rng.uniform(1.0, 8.0)))
    d_min = float(rng.uniform(5.0, 35.0))
    interval = DistanceInterval(d_min, d_min + float(rng.uniform(40.0, 90.0)))
    hz = np.sort(rng.uniform(0.4e9, 3e9, 12))
    return geom, interval, hz


def all_pairs(hz):
    i, j = np.triu_indices(hz.size, k=1)
    return hz[i], hz[j]


def as_rows(result, user=0):
    """(power, argmin, kind) of every entry of one user."""
    return list(zip(*(a[user].tolist() for a in result)))


def wideband_trial(seed):
    """Users (geometry, interval) of trial 0 of the wideband benchmark
    workload, its carriers and all their pairs, and the transmit power."""
    config = ScenarioConfig(n_users=8, n_freqs=24, band=(0.4e9, 3e9), master_seed=seed)
    users, freqs = generate_scenario(config, 0)
    where = [(SceneGeometry(config.h_tx, u.h_rx), u.interval) for u in users]
    hz = np.array([fr.f for fr in freqs])
    return where, freqs, hz, all_pairs(hz), config.p_t


def basin_rows(monkeypatch, *args):
    """``worst_cases(*args)`` and the (heights, coeffs, a, b, hi) rows it
    passed to the basin search."""
    rows = []
    search = worstcase._basin_minimum

    def record(*row):
        rows.append(row)
        return search(*row)

    with monkeypatch.context() as patch:
        patch.setattr(worstcase, "_basin_minimum", record)
        result = worst_cases(*args)
    (row,) = rows
    return result, row


class TestBatchIndependence:
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_pairs_alone_full_and_shuffled(self, seed):
        rng = np.random.default_rng(seed)
        geom, iv, hz = wideband_user(rng)
        f1, f2 = all_pairs(hz)
        full = as_rows(worst_cases([(geom, iv)], f1, f2))
        assert 2 in {kind for _, _, kind in full}  # basin searches took part
        order = rng.permutation(f1.size)
        shuffled = as_rows(worst_cases([(geom, iv)], f1[order], f2[order]))
        for m in range(f1.size):
            alone = as_rows(worst_cases([(geom, iv)], f1[m : m + 1], f2[m : m + 1]))[0]
            scalar = as_rows(worst_cases([(geom, iv)], float(f1[m]), float(f2[m])))[0]
            assert full[m] == alone == scalar
        assert [full[m] for m in order] == shuffled

    @pytest.mark.parametrize("seed", [64, 65])
    def test_singles_alone_full_and_shuffled(self, seed):
        rng = np.random.default_rng(seed)
        geom, iv, hz = wideband_user(rng)
        full = as_rows(worst_cases([(geom, iv)], hz))
        assert 2 in {kind for _, _, kind in full}  # carrier nulls took part
        order = rng.permutation(hz.size)
        shuffled = as_rows(worst_cases([(geom, iv)], hz[order]))
        for m in range(hz.size):
            alone = as_rows(worst_cases([(geom, iv)], hz[m : m + 1]))[0]
            scalar = as_rows(worst_cases([(geom, iv)], float(hz[m])))[0]
            assert full[m] == alone == scalar
            result = worst_case_single(geom, iv, CarrierFrequency(float(hz[m])))
            assert (result.power, result.argmin_distance) == full[m][:2]
        assert [full[m] for m in order] == shuffled


class TestUsersIndependence:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_each_user_row_matches_one_user_and_scalar_calls(self, seed, monkeypatch):
        where, freqs, hz, (f1, f2), p_t = wideband_trial(seed)
        singles = worst_cases(where, hz, None, p_t)
        # Basin rows of all users are searched together: enough of them to
        # leave the slope search at many different passes.
        pairs, row = basin_rows(monkeypatch, where, f1, f2, p_t)
        _, passes = slope_passes(monkeypatch, *row)
        assert len(set(passes[1:])) > 4
        assert {a.shape for a in singles} == {(len(where), hz.size)}
        assert {a.shape for a in pairs} == {(len(where), f1.size)}
        assert set(pairs[2].ravel().tolist()) == {0, 1, 2}  # every candidate kind occurs
        for u, (geom, iv) in enumerate(where):
            alone = worst_cases([(geom, iv)], hz, None, p_t)
            assert as_rows(singles, u) == as_rows(alone)
            for m, fr in enumerate(freqs):
                result = worst_case_single(geom, iv, fr, p_t)
                power, argmin, kind = as_rows(singles, u)[m]
                assert result == WorstCaseResult(power, argmin, _KINDS[kind])
            alone = worst_cases([(geom, iv)], f1, f2, p_t)
            assert as_rows(pairs, u) == as_rows(alone)
            for m in range(f1.size):
                pair = FrequencyPair(float(f1[m]), float(f2[m]))
                result = worst_case_pair(geom, iv, pair, p_t)
                power, argmin, kind = as_rows(pairs, u)[m]
                assert result == WorstCaseResult(power, argmin, _KINDS[kind])

    @pytest.mark.parametrize("seed", [81, 82])
    def test_mixed_geometries_match_one_user_and_scalar_calls(self, seed):
        # Each user has its own h_tx: h_rx above h_tx makes min(h_tx, h_rx)
        # pick h_tx on some rows and h_rx on others, and h_rx == h_tx has no
        # height difference at all.
        rng = np.random.default_rng(seed)
        heights = [(10.0, 3.0), (4.0, 9.0), (2.5, 12.0), (6.0, 6.0), (12.0, 1.5), (3.0, 3.5)]
        where = []
        for h_tx, h_rx in heights:
            d_min = float(rng.uniform(5.0, 35.0))
            span = float(rng.uniform(40.0, 90.0))
            where.append((SceneGeometry(h_tx, h_rx), DistanceInterval(d_min, d_min + span)))
        # Beyond the largest null of most carriers, so endpoints win there.
        where.append((SceneGeometry(3.0, 1.0), DistanceInterval(60.0, 140.0)))
        # Close in and higher than the first user, so its nulls there have
        # indices k above the first user's null count k_max.
        where.append((SceneGeometry(9.0, 12.0), DistanceInterval(2.0, 15.0)))
        hz = np.sort(rng.uniform(0.4e9, 3e9, 12))
        f1, f2 = all_pairs(hz)
        singles = worst_cases(where, hz)
        pairs = worst_cases(where, f1, f2)
        assert set(singles[2].ravel().tolist()) == {0, 1, 2}  # every candidate kind occurs
        assert set(pairs[2].ravel().tolist()) == {0, 1, 2}
        for u, (geom, iv) in enumerate(where):
            assert as_rows(singles, u) == as_rows(worst_cases([(geom, iv)], hz))
            assert as_rows(pairs, u) == as_rows(worst_cases([(geom, iv)], f1, f2))
            for m, f in enumerate(hz.tolist()):
                power, argmin, kind = as_rows(singles, u)[m]
                result = worst_case_single(geom, iv, CarrierFrequency(f))
                assert result == WorstCaseResult(power, argmin, _KINDS[kind])
            for m in range(f1.size):
                power, argmin, kind = as_rows(pairs, u)[m]
                result = worst_case_pair(geom, iv, FrequencyPair(float(f1[m]), float(f2[m])))
                assert result == WorstCaseResult(power, argmin, _KINDS[kind])


def differential_cases():
    """(label, geometry, interval, pair) on fixed seeds."""
    rng = np.random.default_rng(71)
    cases = []
    for n in range(12):
        geom, iv, hz = wideband_user(rng)
        f1, f2 = np.sort(rng.choice(hz, size=2, replace=False))
        cases.append((f"wideband-{n}", geom, iv, FrequencyPair(float(f1), float(f2))))
    for n in range(6):
        h = float(rng.uniform(1.0, 15.0))
        geom = SceneGeometry(h, h * (1.0 + float(rng.uniform(-1e-6, 1e-6))))
        d_min = float(rng.uniform(5.0, 100.0))
        iv = DistanceInterval(d_min, d_min + float(rng.uniform(20.0, 200.0)))
        f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, 2))
        cases.append((f"h_rx~h_tx-{n}", geom, iv, FrequencyPair(float(f1), float(f2))))
    for n in range(6):
        geom = SceneGeometry(*(float(h) for h in rng.uniform(1.0, 15.0, 2)))
        d = float(rng.uniform(5.0, 200.0))
        f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, 2))
        cases.append((f"degenerate-{n}", geom, DistanceInterval(d, d), FrequencyPair(float(f1), float(f2))))
    for n in range(6):
        geom = SceneGeometry(*(float(h) for h in rng.uniform(1.0, 15.0, 2)))
        iv = DistanceInterval(float(rng.uniform(1.0, 5.0)), float(rng.uniform(300.0, 500.0)))
        f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, 2))
        cases.append((f"wide-{n}", geom, iv, FrequencyPair(float(f1), float(f2))))
    return cases


class TestAgainstScipyReference:
    @pytest.mark.parametrize("case", differential_cases(), ids=lambda c: c[0])
    def test_matches_reference_and_grid_oracle(self, case):
        _, geom, iv, pair = case
        new = worst_case_pair(geom, iv, pair)
        ref = reference_worst_case_pair(geom, iv, pair)
        rel_gap = (new.power - ref.power) / ref.power
        assert new.power <= ref.power * (1.0 + 1e-9), f"batched above reference by {rel_gap:.3g}"
        assert abs(rel_gap) <= 1e-8, f"relative gap {rel_gap:.3g}"
        oracle = grid_min(
            lambda d: sum_power_lower_bound(geom, d, pair),
            iv,
            phase_uniform_grid(geom, iv, pair.delta_omega),
        )
        gap_db = abs(to_decibel(new.power) - to_decibel(oracle.power))
        assert gap_db <= 0.01, f"{gap_db:.3g} dB off the grid oracle"


SQRT_EPS = math.sqrt(np.finfo(float).eps)


def bracket_slopes(heights, coeffs, a, b):
    """The bound's slope per unit amplitude at each row's a and at its b."""
    return tuple(_lower_bound_slope(coeffs, x, *_ray_terms(heights, x)) for x in (a, b))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basin_brackets_sit_at_the_phases_around_the_null(seed, monkeypatch):
    # Each basin row's bracket comes from its null's index k: a = max(d_k,
    # d_min), at spacing phase 2*pi*k; hi = min(crest, d_max), the crest at
    # 2*pi*k - pi; b at 2*pi*k - pi/2, clipped to [a, hi].  The phases are
    # read forward, in turns from the null, at the distances the search got.
    where, _, _, (f1, f2), p_t = wideband_trial(seed)
    _, (heights, coeffs, a, b, hi) = basin_rows(monkeypatch, where, f1, f2, p_t)
    d_min, d_max, k, _ = basin_row_intervals(where, f1, f2)
    assert a.size == k.size > 1000
    turns = lambda d: coeffs[2] * _ray_terms(heights, d)[2] / TWO_PI - k
    near = lambda d, at: np.abs(turns(d) - at) <= 1e-9 * k
    assert np.all((a == d_min) & (turns(d_min) <= 1e-9 * k) | (a > d_min) & near(a, 0.0))
    assert np.all((hi == d_max) & (turns(d_max) >= -0.5 - 1e-9 * k) | (hi < d_max) & near(hi, -0.5))
    clipped = (b == a) & (turns(a) <= -0.25 + 1e-9 * k) | (b == hi) & (turns(hi) >= -0.25 - 1e-9 * k)
    assert np.all(clipped | (a < b) & (b < hi) & near(b, -0.25))
    assert 0 < clipped.sum() < 0.5 * a.size  # both kinds occur


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basin_rows_match_scipy_bounded_brent(seed, monkeypatch):
    # Every basin row of a wideband trial comes out no more than 1e-9 above
    # scipy's bounded search (Brent's method) with the same xatol, on [a, b]
    # where the slope falls at a and rises at b and on [a, hi] elsewhere,
    # and its argmin lies inside that bracket.
    where, _, _, (f1, f2), p_t = wideband_trial(seed)
    _, (heights, coeffs, a, b, hi) = basin_rows(monkeypatch, where, f1, f2, p_t)
    basin_p, basin_x = worstcase._basin_minimum(heights, coeffs, a, b, hi)
    s_a, s_b = bracket_slopes(heights, coeffs, a, b)
    end = np.where((s_a < 0.0) & (s_b > 0.0), b, hi)
    scipy_p = np.empty(a.size)
    for m in range(a.size):
        row_coeffs, row_heights = [c[m] for c in coeffs], [h[m] for h in heights]
        res = minimize_scalar(
            lambda d: float(_lower_bound_power(row_coeffs, *_ray_terms(row_heights, d))),
            bounds=(a[m], end[m]),
            method="bounded",
            options={"xatol": max(1e-12, 1e-12 * end[m])},
        )
        scipy_p[m] = res.fun
    rel = (basin_p - scipy_p) / scipy_p
    assert rel.max() <= 1e-9, f"row {rel.argmax()} above scipy by {rel.max():.3g}"
    assert np.all((a <= basin_x) & (basin_x <= end))


def slope_passes(monkeypatch, *rows):
    """``_basin_minimum(*rows)`` and the number of points of each slope
    evaluation: the bracket's a and b of every row, then one per loop pass
    and row."""
    passes = []
    slope = worstcase._lower_bound_slope

    def counting(c, d, *terms):
        passes.append(d.size)
        return slope(c, d, *terms)

    with monkeypatch.context() as patch:
        patch.setattr(worstcase, "_lower_bound_slope", counting)
        result = worstcase._basin_minimum(*rows)
    return result, passes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_basin_rows_stop_within_tolerance_of_the_slope_sign_change(seed, monkeypatch):
    # The rows whose slope falls at a and rises at b, and only those, enter
    # the loop; each takes the point where its search stopped, with the bound
    # falling at that point minus tol and rising at that point plus tol,
    # tol = sqrt(eps)*x + 1e-12*hi/3: the point lies within tol of a minimum.
    where, _, _, (f1, f2), p_t = wideband_trial(seed)
    _, (heights, coeffs, a, b, hi) = basin_rows(monkeypatch, where, f1, f2, p_t)
    (basin_p, basin_x), passes = slope_passes(monkeypatch, heights, coeffs, a, b, hi)
    s_a, s_b = bracket_slopes(heights, coeffs, a, b)
    dips = (s_a < 0.0) & (s_b > 0.0)
    assert passes[:2] == [2 * a.size, dips.sum()] and dips.sum() > 0.8 * a.size
    x, h, c = basin_x[dips], [v[dips] for v in heights], [v[dips] for v in coeffs]
    tol = SQRT_EPS * x + 1e-12 * hi[dips] / 3.0
    below = _lower_bound_slope(c, x - tol, *_ray_terms(h, x - tol))
    above = _lower_bound_slope(c, x + tol, *_ray_terms(h, x + tol))
    assert np.all(below <= 0.0) and np.all(above >= 0.0)
    assert np.all(basin_p[dips] == _lower_bound_power(c, *_ray_terms(h, x)))


@pytest.mark.parametrize("seed", [2, 3])
def test_one_row_iterates_keep_the_bracket_and_stop_at_the_first_small_step(seed, monkeypatch):
    # Each basin row of a wideband trial, searched alone: the slope is first
    # taken at a and b.  A row whose slope falls at a and rises at b starts
    # at the secant point of those two slopes, and every iterate lies in the
    # bracket that the slope's signs at the earlier iterates keep, starting
    # from [a, b].  Each step before the last is longer than
    # tol = sqrt(eps)*x + 1e-12*hi/3 at its start x, and the row took one
    # more step, of at most tol, from its last iterate to a point inside the
    # bracket.  Any other row takes a or hi with no further slope.  On these
    # trials a Newton step leaves the bracket in a few rows, and steps of up
    # to twice tol occur.
    where, _, _, (f1, f2), p_t = wideband_trial(seed)
    _, (heights, coeffs, a, b, hi) = basin_rows(monkeypatch, where, f1, f2, p_t)
    iterates = []
    slope = worstcase._lower_bound_slope

    def recording(c, d, *terms):
        s = slope(c, d, *terms)
        iterates.append((d.ravel().tolist(), s.ravel().tolist()))
        return s

    monkeypatch.setattr(worstcase, "_lower_bound_slope", recording)
    searched = 0
    for m in range(a.size):
        iterates.clear()
        row = [h[m : m + 1] for h in heights], [c[m : m + 1] for c in coeffs], a[m : m + 1], b[m : m + 1], hi[m : m + 1]
        (power,), (argmin,) = worstcase._basin_minimum(*row)
        (ends, (s_a, s_b)), *loop = iterates
        assert ends == [a[m], b[m]], f"row {m}"
        if not s_a < 0.0 < s_b:
            assert not loop and argmin in (a[m], hi[m]), f"row {m}"
            continue
        tol = lambda x: SQRT_EPS * x + 1e-12 * hi[m] / 3.0
        assert loop[0][0][0] == pytest.approx((a[m] * s_b - b[m] * s_a) / (s_b - s_a), rel=1e-12, abs=0.0)
        lo, up = a[m], b[m]
        for k, ((x,), (s,)) in enumerate(loop):
            assert lo <= x <= up, f"row {m}, pass {k}"
            if k:
                previous = loop[k - 1][0][0]
                assert abs(x - previous) > tol(previous), f"row {m}, pass {k}"
            lo, up = (lo, x) if s > 0.0 else (x, up)
        last = loop[-1][0][0]
        assert abs(argmin - last) <= tol(last) and lo <= argmin <= up, f"row {m}"
        searched += 1
    assert searched > 1000


def test_slope_passes_capped(monkeypatch):
    # The search raises once a row has had _SLOPE_PASSES loop passes without
    # stopping, rather than loop on: the cap, patched down to the passes a
    # wideband trial needs, gives the same result bit for bit, and one fewer
    # raises.
    where, _, _, (f1, f2), p_t = wideband_trial(0)
    _, rows = basin_rows(monkeypatch, where, f1, f2, p_t)
    expected, passes = slope_passes(monkeypatch, *rows)
    passes = len(passes) - 1  # the first slope evaluation is the bracket's
    assert 0 < passes < worstcase._SLOPE_PASSES // 10
    monkeypatch.setattr(worstcase, "_SLOPE_PASSES", passes)
    for got, want in zip(worstcase._basin_minimum(*rows), expected):
        assert got.tobytes() == want.tobytes()
    monkeypatch.setattr(worstcase, "_SLOPE_PASSES", passes - 1)
    with pytest.raises(RuntimeError, match=f"after {passes - 1} slope passes"):
        worstcase._basin_minimum(*rows)


def basin_row_intervals(where, f1, f2):
    """(d_min, d_max, k, min(h_tx, h_rx)) of each basin row of
    ``worst_cases(where, f1, f2)``, in its order, from forward phases alone:
    every (user, pair) with a spacing null at or below d_max, the largest of
    index k, whose interval starts before the crest beyond it, at phase
    2*pi*k - pi."""
    rate = TWO_PI * (f2 - f1) / SPEED_OF_LIGHT
    rows = []
    for geom, iv in where:
        low = min(geom.h_tx, geom.h_rx)
        phase_min, phase_max = (rate * path_difference(geom, d) for d in (iv.d_min, iv.d_max))
        k = np.maximum(1.0, np.ceil(phase_max / TWO_PI))
        keep = (k <= np.floor(2.0 * rate * low / TWO_PI)) & (phase_min > TWO_PI * k - math.pi)
        keep &= iv.d_min < iv.d_max
        rows += [(iv.d_min, iv.d_max, float(k_m), low) for k_m in k[keep]]
    return np.array(rows).reshape(-1, 4).T


def _distance_at_phase(geom, omega, phase):
    """Distance at which the phase of the oscillation at ``omega`` (a carrier's,
    or a pair's spacing) is ``phase``."""
    q = phase * SPEED_OF_LIGHT / omega
    return float(_invert_path_difference(geom._heights, q))


def _first_distance_past_the_margin(geom, d_min):
    """Smallest d_max whose (l*lr) is at least (1 + _FALL_MARGIN) times
    that at d_min, as the endpoint stage of :func:`worst_cases` tests it."""

    def past(d):
        l_los, l_ref, _ = _ray_terms(geom._heights, d)
        return l_los * l_ref / (1.0 + worstcase._FALL_MARGIN) >= ll_min

    l_los, l_ref, _ = _ray_terms(geom._heights, d_min)
    ll_min = l_los * l_ref
    lo, hi = d_min, 1.01 * d_min
    while np.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    return hi


def lower_endpoint_cases():
    """(label, geometry, d_min, d_max, f1, f2, p_t, lower endpoint skipped);
    f2 None for a carrier."""
    geom = SceneGeometry(10.0, 1.5)
    pair = FrequencyPair(2.40e9, 2.45e9)
    below_pi = _distance_at_phase(geom, pair.delta_omega, math.pi * (1.0 - 1e-9))
    above_pi = _distance_at_phase(geom, pair.delta_omega, math.pi * (1.0 + 1e-9))
    edge = _first_distance_past_the_margin(geom, 300.0)
    # a1 ~ a2: 1 kHz apart, so 1 - g = 1 - (1 - t**2)*sin^2(phi/2) nearly cancels at phi = pi.
    tall, close = SceneGeometry(2e5, 1e5), FrequencyPair(2.4e9, 2.4e9 + 1e3)
    cancel = _distance_at_phase(tall, close.delta_omega, math.pi * (1.0 - 1e-9))
    wide = FrequencyPair(2.4e9, 2.7e9)  # three nulls at 10/1.5 m
    cases = [
        ("phase-just-below-pi", geom, below_pi, 1.5 * below_pi, pair, 1.0, True),
        ("phase-just-above-pi", geom, above_pi, 1.5 * above_pi, pair, 1.0, False),
        ("degenerate", geom, 300.0, 300.0, pair, 1.0, False),
        ("next-float", geom, 300.0, float(np.nextafter(300.0, math.inf)), pair, 1.0, False),
        ("rho-just-past-margin", geom, 300.0, edge, pair, 1.0, True),
        ("rho-just-short-of-margin", geom, 300.0, float(np.nextafter(edge, 0.0)), pair, 1.0, False),
        # l*lr is the same float at both ends: the bound ties, and the tie
        # goes to the lower endpoint.
        ("nanometres-from-the-mast", geom, 1e-9, 2e-9, pair, 1.0, False),
        # Both endpoint powers round to 0.0 and tie: about 2.4e-372 W at d_min,
        # below the least subnormal.
        ("far-field-tiny-power", geom, 1e30, 2e30, pair, 1e-250, False),
        # (a1 + a2) ~ 5e148 times a subnormal (q/(l*lr))**2 rounds to the same
        # power at both ends although l*lr grows by 1.2e-6.
        ("subnormal-radial-term", geom, 3.189770215466338e53, 3.189772129328467e53,
         FrequencyPair(1e-67, 2e-67), 1.0, False),
        # d*d underflows, so l_los is 0 and the bound +inf at both ends: a tie.
        ("equal-heights-at-1e-200", SceneGeometry(1.0, 1.0), 1e-200, 2e-200, pair, 1.0, False),
        ("cancelling-envelope", tall, cancel, 1.2 * cancel, close, 1.0, True),
        # Past the first null: the phase falls from 1.8*pi to pi, so the bound
        # rises and the lower endpoint wins.
        ("rising-past-a-null", geom, _distance_at_phase(geom, wide.delta_omega, 1.8 * math.pi),
         _distance_at_phase(geom, wide.delta_omega, math.pi), wide, 1.0, False),
    ]
    cases = [(label, g, lo, hi, p.f1, p.f2, p_t, skip) for label, g, lo, hi, p, p_t, skip in cases]

    # The same rule on the single-carrier kernel, whose phase is the carrier's.
    omega = TWO_PI * 2.4e9
    below_pi = _distance_at_phase(geom, omega, math.pi * (1.0 - 1e-9))
    above_pi = _distance_at_phase(geom, omega, math.pi * (1.0 + 1e-9))
    edge = _first_distance_past_the_margin(geom, 1000.0)  # phase 1.5 rad at 1000 m
    return cases + [
        (f"carrier-{label}", g, lo, hi, f, None, 1.0, skip) for label, g, lo, hi, f, skip in [
            ("phase-just-below-pi", geom, below_pi, 1.5 * below_pi, 2.4e9, True),
            ("phase-just-above-pi", geom, above_pi, 1.5 * above_pi, 2.4e9, False),
            # 1 Hz far out, where the power is a normal number below 1e-22 W.
            ("far-field-1-hz", geom, 5e6, 5e6 * (1.0 + 1e-5), 1.0, True),
            ("degenerate", geom, 1000.0, 1000.0, 2.4e9, False),
            ("next-float", geom, 1000.0, float(np.nextafter(1000.0, math.inf)), 2.4e9, False),
            ("rho-just-past-margin", geom, 1000.0, edge, 2.4e9, True),
            ("rho-just-short-of-margin", geom, 1000.0, float(np.nextafter(edge, 0.0)), 2.4e9,
             False),
            # 10 MHz keeps the phase below pi even at the mast, where l*lr is
            # the same float at both ends and the power ties.
            ("nanometres-from-the-mast", geom, 1e-9, 2e-9, 1e7, False),
            # Both terms underflow: the power is 0.0 at both ends.
            ("far-field-zero-power", geom, 1e100, 2e100, 2.4e9, False),
            # P_t*(c/(2*omega))**2 ~ 5.7e294 times a subnormal (q/(l*lr))**2
            # rounds to the same normal power at both ends although l*lr
            # grows by 1.2e-6.
            ("subnormal-radial-term", geom, 1e54, 1e54 * (1.0 + 6e-7), 1e-140, False),
            # l_los is 0 and the power +inf at both ends: a tie.
            ("equal-heights-at-1e-200", SceneGeometry(1.0, 1.0), 1e-200, 2e-200, 1e7, False),
            # The phase falls from 1.8*pi to pi, away from the first null, so
            # the power rises and the lower endpoint wins.
            ("rising-past-a-null", geom, _distance_at_phase(geom, omega, 1.8 * math.pi),
             _distance_at_phase(geom, omega, math.pi), 2.4e9, False),
        ]
    ]


@pytest.mark.parametrize("case", lower_endpoint_cases(), ids=lambda c: c[0])
def test_lower_endpoint_skipped_only_where_it_cannot_win(case, monkeypatch):
    # The lower endpoint is skipped where the power provably falls across the
    # interval; the result stays that of both endpoints and the tie rule.
    # No case has a carrier null inside its interval.
    _, geom, d_min, d_max, f1, f2, p_t, skipped = case
    # The kernel's arithmetic, without _power's refusal of l_los = 0.
    _, coeffs, power = worstcase._kernel(f1, f2, p_t)
    with np.errstate(divide="ignore"):
        p_lo, p_hi = power(coeffs, *_ray_terms(geom._heights, np.array([d_min, d_max])))
    expected = (p_lo, d_min, 0) if p_lo <= p_hi else (p_hi, d_max, 1)
    calls = []  # the basin search calls the pair kernel itself
    make_kernel = worstcase._kernel

    def record(*args):
        omega, coeffs, power = make_kernel(*args)
        return omega, coeffs, lambda *a, **kw: calls.append(1) or power(*a, **kw)

    monkeypatch.setattr(worstcase, "_kernel", record)
    where = [(geom, DistanceInterval(d_min, d_max))]
    with np.errstate(over="raise", invalid="raise", divide="ignore"):  # as in the CLI
        result = worst_cases(where, f1, f2, p_t)
    power, argmin, kind = (a.item() for a in result)
    assert np.float64(power).view(np.int64) == np.float64(expected[0]).view(np.int64)
    assert (argmin, kind) == expected[1:]
    # Carriers evaluate their null candidate once more, on the rows with a null.
    assert len(calls) == (1 if skipped else 2) + (f2 is None)
