"""The basin stage's one closing evaluation against the two it replaced.

``two_site_basin_minimum`` is ``worstcase._basin_minimum`` as it stood
before: the rows that do not search were gathered and evaluated at a and hi
in one block, the searching rows evaluated again at their stops, and the
results scattered into two new arrays.  It lives here only as the reference
of this differential test; it reads ``worstcase._SLOPE_PASSES`` at call
time, so both raise alike when the cap is patched down.  Now every row ends
as the lower of the bound at its two candidates, a and hi, or its stop
twice, in one evaluation.  (power, argmin) must be the same bit for bit.
"""

import math

import numpy as np
import pytest

from freqassign import DistanceInterval, SceneGeometry, worstcase
from freqassign.bench import ScenarioConfig, generate_scenario
from freqassign.channel import _lower_bound_power, _lower_bound_slope, _ray_terms
from test_batched_worstcase import all_pairs, basin_rows
from test_table_pass import near_mast_queries

_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def two_site_basin_minimum(heights, coeffs, a, b, hi):
    if not a.size:
        return a, a
    ends = np.array([a, b])
    s_a, s_b = _lower_bound_slope(coeffs, ends, *_ray_terms(heights, ends))
    dips = (s_a < 0.0) & (s_b > 0.0)
    power, argmin = np.empty(a.size), np.empty(a.size)
    rows = np.flatnonzero(~dips)
    ends = np.array([a[rows], hi[rows]])
    p = _lower_bound_power([c[rows] for c in coeffs], *_ray_terms([h[rows] for h in heights], ends))
    power[rows], argmin[rows] = p.min(axis=0), np.where(p[1] < p[0], ends[1], ends[0])
    rows = np.flatnonzero(dips)
    if not rows.size:
        return power, argmin
    a, b, s_a, s_b = a[rows], b[rows], s_a[rows], s_b[rows]
    start = np.minimum(a - s_a * ((b - a) / (s_b - s_a)), np.nextafter(b, a))
    constants = np.vstack([1e-12 * hi / 3.0, *coeffs, *heights])[:, rows]
    state = np.vstack([a, b, start, b, s_b, b - a, b - a, constants])
    at = np.arange(rows.size)
    stops = np.empty(rows.size)
    for _ in range(worstcase._SLOPE_PASSES):
        if not at.size:
            break
        a, b, x, x_prev, s_prev, before_last, last, xatol3 = state[:8]
        s = _lower_bound_slope(state[8:11], x, *_ray_terms(state[11:], x))
        rate = (s - s_prev) / (x - x_prev)
        rises = s > 0.0
        a, b = np.where(rises, a, x), np.where(rises, x, b)
        step = np.divide(-s, rate, out=np.full_like(s, math.inf), where=rate > 0.0)
        u = x + step
        newton = (np.abs(step) <= 0.5 * before_last) & (a <= u) & (u <= b)
        u = np.where(newton, u, 0.5 * (a + b))
        step = np.abs(u - x)
        stop = step <= _SQRT_EPS * x + xatol3
        state[:7] = np.array([a, b, u, x, s, last, step])
        if stop.any():
            stops[at[stop]] = u[stop]
            keep = ~stop
            at, state = at[keep], state[:, keep]
    if at.size:
        raise RuntimeError(f"basin search still running after {worstcase._SLOPE_PASSES} slope passes")
    power[rows] = _lower_bound_power(constants[1:4], *_ray_terms(constants[4:], stops))
    argmin[rows] = stops
    return power, argmin


def assert_same_bits(row):
    got = worstcase._basin_minimum(*row)
    want = two_site_basin_minimum(*row)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def wideband_where(seed, trial):
    config = ScenarioConfig(n_users=8, n_freqs=24, band=(0.4e9, 3e9), master_seed=seed)
    users, freqs = generate_scenario(config, trial)
    where = [(SceneGeometry(config.h_tx, u.h_rx), u.interval) for u in users]
    return where, all_pairs(np.array([fr.f for fr in freqs])), config.p_t


def criterion_6_queries(seed, n):
    """(where, f1, f2) of n one-user pair queries drawn as in acceptance criterion 6."""
    rng = np.random.default_rng((seed, 6))
    for _ in range(n):
        geom = SceneGeometry(*(float(h) for h in rng.uniform(1.0, 15.0, size=2)))
        d_min = float(rng.uniform(5.0, 400.0))
        span = float(rng.uniform(1.0, min(100.0, 500.0 - d_min)))
        f1, f2 = (float(f) for f in np.sort(rng.uniform(0.4e9, 3e9, size=2)))
        yield [(geom, DistanceInterval(d_min, d_min + span))], np.array([f1]), np.array([f2])


@pytest.mark.parametrize("seed", [0, 4242])
def test_wideband_trials(seed, monkeypatch):
    rows = 0
    for trial in range(30):
        where, (f1, f2), p_t = wideband_where(seed, trial)
        _, row = basin_rows(monkeypatch, where, f1, f2, p_t)
        assert_same_bits(row)
        rows += row[2].size
    assert rows > 30_000


@pytest.mark.parametrize("seed", [0, 4242])
def test_one_row_criterion_6_queries(seed, monkeypatch):
    searched = 0
    for where, f1, f2 in criterion_6_queries(seed, 300):
        _, row = basin_rows(monkeypatch, where, f1, f2, 1.0)
        assert_same_bits(row)
        searched += row[2].size
    assert searched > 100


def test_near_mast_queries(monkeypatch):
    h_tx, queries = near_mast_queries()
    for h_rx, f1, f2, iv in queries:
        where = [(SceneGeometry(h_tx, h_rx), iv)]
        _, row = basin_rows(monkeypatch, where, np.array([f1]), np.array([f2]), 1.0)
        assert_same_bits(row)


def test_pass_cap_and_runtime_error(monkeypatch):
    # With the cap at the passes a trial needs both give the same bits; one
    # pass fewer, both raise the same RuntimeError; at zero passes too.
    where, (f1, f2), p_t = wideband_where(0, 0)
    _, row = basin_rows(monkeypatch, where, f1, f2, p_t)
    passes = []
    slope = worstcase._lower_bound_slope
    monkeypatch.setattr(worstcase, "_lower_bound_slope", lambda c, d, *t: passes.append(1) or slope(c, d, *t))
    worstcase._basin_minimum(*row)
    monkeypatch.setattr(worstcase, "_lower_bound_slope", slope)
    needed = len(passes) - 1  # the first evaluation is the bracket's
    monkeypatch.setattr(worstcase, "_SLOPE_PASSES", needed)
    assert_same_bits(row)
    for cap in (needed - 1, 0):
        monkeypatch.setattr(worstcase, "_SLOPE_PASSES", cap)
        messages = []
        for search in (worstcase._basin_minimum, two_site_basin_minimum):
            with pytest.raises(RuntimeError) as raised:
                search(*row)
            messages.append(str(raised.value))
        assert messages[0] == messages[1] == f"basin search still running after {cap} slope passes"


def test_one_closing_evaluation_per_call_with_a_basin_row(monkeypatch):
    # worstcase._lower_bound_power is the basin stage's own name for the bound
    # (the endpoints call the kernel's): once per call that has a basin row,
    # never on an empty block, whether the row searches or not.
    calls, slopes = [], []
    power, slope = worstcase._lower_bound_power, worstcase._lower_bound_slope
    monkeypatch.setattr(worstcase, "_lower_bound_power", lambda c, *t: calls.append(t[2].size) or power(c, *t))
    monkeypatch.setattr(worstcase, "_lower_bound_slope", lambda c, d, *t: slopes.append(1) or slope(c, d, *t))
    kinds = {"none": 0, "takes an end": 0, "searches": 0}
    cases = [(w, f1, f2, 1.0) for w, f1, f2 in criterion_6_queries(0, 300)]
    cases += [(w, f1, f2, p_t) for w, (f1, f2), p_t in (wideband_where(0, t) for t in range(3))]
    for where, f1, f2, p_t in cases:
        calls.clear(), slopes.clear()
        worstcase.worst_cases(where, f1, f2, p_t)
        if not slopes:  # no basin row
            assert calls == []
            kinds["none"] += 1
            continue
        assert len(calls) == 1 and calls[0] > 0
        kinds["searches" if len(slopes) > 1 else "takes an end"] += 1
    assert all(kinds.values()), kinds
