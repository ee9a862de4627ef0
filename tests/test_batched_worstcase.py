"""The batched worst-case routine against itself and the scipy path it replaced.

``reference_worst_case_pair`` is the scalar worst case as it stood before
the batched routine: endpoint and null candidates picked one at a time,
and the null's basin polished by scipy's bounded Brent search.  It lives
here only as the reference of the differential test.
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
from freqassign.bench import ScenarioConfig, generate_scenario
from freqassign.channel import TWO_PI
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
    def test_each_user_row_matches_one_user_and_scalar_calls(self, seed):
        config = ScenarioConfig(n_users=8, n_freqs=24, band=(0.4e9, 3e9), master_seed=seed)
        users, freqs = generate_scenario(config, 0)
        where = [(SceneGeometry(config.h_tx, u.h_rx), u.interval) for u in users]
        hz = np.array([fr.f for fr in freqs])
        f1, f2 = all_pairs(hz)
        singles = worst_cases(where, hz, None, config.p_t)
        pairs = worst_cases(where, f1, f2, config.p_t)
        assert {a.shape for a in singles} == {(len(users), hz.size)}
        assert {a.shape for a in pairs} == {(len(users), f1.size)}
        assert set(pairs[2].ravel().tolist()) == {0, 1, 2}  # every candidate kind occurs
        for u, (geom, iv) in enumerate(where):
            alone = worst_cases([(geom, iv)], hz, None, config.p_t)
            assert as_rows(singles, u) == as_rows(alone)
            for m, fr in enumerate(freqs):
                result = worst_case_single(geom, iv, fr, config.p_t)
                power, argmin, kind = as_rows(singles, u)[m]
                assert result == WorstCaseResult(power, argmin, _KINDS[kind])
            alone = worst_cases([(geom, iv)], f1, f2, config.p_t)
            assert as_rows(pairs, u) == as_rows(alone)
            for m in range(f1.size):
                pair = FrequencyPair(float(f1[m]), float(f2[m]))
                result = worst_case_pair(geom, iv, pair, config.p_t)
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
