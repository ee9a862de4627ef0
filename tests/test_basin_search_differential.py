"""The basin search against the 33-sample search it replaced.

``basin_minimum_33`` is ``worstcase._basin_minimum`` as it stood with 33
locating samples, 256 rows at a time, copied verbatim with its constants;
it lives here only as the reference of this differential test.  It searches
each row's whole basin [d_lo, hi] within the interval, from phase
2*pi*k + pi, computed here, to the crest at 2*pi*k - pi; the search now
starts at max(d_k, d_min), at phase 2*pi*k, and finds the sign change of the
bound's slope, so a row may stop elsewhere within its tolerance.  On every
basin row of the wideband trials of seeds 0-4, of 120 trials over 0.1-6 GHz
and of 300 criterion-6 queries, each query searched alone as a one-row
call, its minimum stays within 1e-9 relative of the old one, so nothing in
[d_lo, d_k) lies lower, and its argmin inside [a, hi].
"""

import math

import numpy as np
import pytest

from freqassign import DistanceInterval, SceneGeometry, worstcase
from freqassign.bench import ScenarioConfig, generate_scenario
from freqassign.channel import TWO_PI, _invert_path_difference, _lower_bound_power, _ray_terms
from test_batched_worstcase import all_pairs, basin_row_intervals, basin_rows, wideband_trial

_BASIN_POINTS = 33
_BASIN_STEPS = np.arange(_BASIN_POINTS, dtype=float)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_BASIN_BLOCK = 256


def basin_minimum_33(heights, coeffs, lo: np.ndarray, hi: np.ndarray):
    """Minimum of the envelope bound on each row's bracket [lo, hi].

    Row m has pair constants ``coeffs[.][m]`` and the height terms
    ``heights[.][m]`` of its own geometry (``SceneGeometry._heights``).  One
    locating round samples every bracket at 33 evenly spaced distances.  A
    row whose lowest sample is a bracket end x, and whose bound rises within
    tol = sqrt(eps)*x + 1e-12*hi/3 of it, takes that end.  Every
    other row runs scipy's bounded Brent search (``_minimize_scalar_bounded``)
    on the two sample spacings around its lowest sample, seeded with that
    sample and its neighbours.  Rows iterate together as arrays, each frozen
    on scipy's stopping test, so no row depends on its batch; 0 < lo < hi.
    """
    xatol3 = 1e-12 * hi / 3.0
    # Per row: the lowest sample, its lower and its upper neighbour (the
    # sample itself at a bracket end), each as (distance, power).
    near = np.empty((3, 2, lo.size))
    for start in range(0, lo.size, _BASIN_BLOCK):
        block = slice(start, start + _BASIN_BLOCK)
        # Samples run down axis 0 and rows along axis 1, so per-row values
        # broadcast along the contiguous axis.
        step = (hi[block] - lo[block]) / (_BASIN_POINTS - 1)
        x = lo[block] + step * _BASIN_STEPS[:, None]
        x[-1] = hi[block]
        terms = _ray_terms([a[block] for a in heights], x)
        p = _lower_bound_power([a[block] for a in coeffs], *terms)
        at = p.argmin(axis=0)
        at3 = np.stack([at, np.maximum(at - 1, 0), np.minimum(at + 1, _BASIN_POINTS - 1)])
        near[:, :, block] = np.stack([x[at3, np.arange(at.size)], p[at3, np.arange(at.size)]], 1)

    (x, fx), lower, upper = near
    inward = (lower[0] == x) - (upper[0] == x) * 1.0  # +1 at lo, -1 at hi, else 0
    ends = np.flatnonzero(inward)
    probe = x[ends] + inward[ends] * (_SQRT_EPS * x[ends] + xatol3[ends])
    terms = _ray_terms([a[ends] for a in heights], probe)
    settled = np.zeros(lo.size, dtype=bool)
    settled[ends] = _lower_bound_power([a[ends] for a in coeffs], *terms) >= fx[ends]
    rows = np.flatnonzero(~settled)

    # Brent's state per row: bracket [a, b]; lowest point x, second lowest w
    # and previous w, v, each with its power; step before last e and last
    # step rat, seeded so that the first step may fit the three samples.
    w, v = np.where(lower[1] <= upper[1], near[1:], near[:0:-1])
    e = upper[0] - lower[0]
    state = np.vstack([lower[0], upper[0], x, fx, w, v, e, 0.5 * e, xatol3])[:, rows]
    out = near[0].copy()
    coeffs, heights = [c[rows] for c in coeffs], [h[rows] for h in heights]
    while rows.size:
        a, b, x, fx, w, fw, v, fv, e, rat, xatol3 = state
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * x + xatol3
        tol2 = 2.0 * tol1
        run = np.abs(x - xm) > tol2 - 0.5 * (b - a)
        if not run.all():
            out[:, rows[~run]] = state[2:4, ~run]
            state, rows = state[:, run], rows[run]
            coeffs, heights = [c[run] for c in coeffs], [h[run] for h in heights]
            continue
        # The parabola through x, w and v where it falls well inside the
        # bracket and moves less than half the step before last; otherwise
        # a golden-section step into the larger side.
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
        parabolic &= (p > q * (a - x)) & (p < q * (b - x))
        golden = np.where(x >= xm, a - x, b - x)
        e = np.where(parabolic, rat, golden)
        rat = np.divide(p, q, out=_GOLDEN * golden, where=parabolic)
        edge = parabolic & ((x + rat - a < tol2) | (b - (x + rat) < tol2))
        rat = np.where(edge, np.where(xm < x, -tol1, tol1), rat)
        u = x + np.where(rat < 0.0, -1.0, 1.0) * np.maximum(np.abs(rat), tol1)
        fu = _lower_bound_power(coeffs, *_ray_terms(heights, u))

        better = fu <= fx
        shift = better | (fu <= fw) | (w == x)
        fresh_v = ~shift & ((fu <= fv) | (v == x) | (v == w))
        new_end = np.where(better, x, u)
        state[:2] = np.where(better == (u >= x), (new_end, b), (a, new_end))
        U, X, W, V = np.stack([u, fu]), state[2:4], state[4:6], state[6:8]
        new_x = np.where(better, U, X)
        new_w = np.where(better, X, np.where(shift, U, W))
        new_v = np.where(shift, W, np.where(fresh_v, U, V))
        state[2:10] = *new_x, *new_w, *new_v, e, rat
    return out[1], out[0]


def old_bracket_start(row, intervals):
    """The start d_lo of the basin [d_lo, hi] that ``basin_minimum_33``
    searched: phase 2*pi*k + pi (the supremum where that lies beyond it),
    within the interval."""
    heights, coeffs = row[:2]
    d_min, _, k, low = intervals
    q_lo = np.minimum((TWO_PI * k + math.pi) / coeffs[2], 2.0 * low)
    return np.maximum(_invert_path_difference(heights, q_lo), d_min)


def assert_matches_the_33_sample_search(row, intervals):
    heights, coeffs, a, _, hi = row
    d_lo = old_bracket_start(row, intervals)
    assert np.all(d_lo <= a)
    new_p, new_x = worstcase._basin_minimum(*row)
    old_p, _ = basin_minimum_33(heights, coeffs, d_lo, hi)
    assert np.all(new_p <= old_p * (1.0 + 1e-9))
    rel = np.abs(new_p - old_p) / old_p
    assert np.all(rel <= 1e-9), f"row {rel.argmax()} moved by {rel.max():.3g}"
    assert np.all((a <= new_x) & (new_x <= hi))


def basin_rows_and_intervals(monkeypatch, where, f1, f2, p_t):
    _, row = basin_rows(monkeypatch, where, f1, f2, p_t)
    return row, basin_row_intervals(where, f1, f2)


@pytest.mark.parametrize("seed", range(5))
def test_wideband_basin_rows(seed, monkeypatch):
    where, _, _, (f1, f2), p_t = wideband_trial(seed)
    row, intervals = basin_rows_and_intervals(monkeypatch, where, f1, f2, p_t)
    assert row[2].size > 1000
    assert_matches_the_33_sample_search(row, intervals)


@pytest.mark.parametrize("seed", range(4))
def test_basin_rows_over_0_1_to_6_ghz(seed, monkeypatch):
    # 30 trials of the wideband workload's users with carriers from 0.1 to
    # 6 GHz, where more nulls, and more of them next to the mast, fall in
    # each basin row's interval; all rows of a seed searched as one batch.
    config = ScenarioConfig(n_users=8, n_freqs=24, band=(0.1e9, 6e9), master_seed=seed)
    rows, intervals = [], []
    for trial in range(30):
        users, freqs = generate_scenario(config, trial)
        where = [(SceneGeometry(config.h_tx, u.h_rx), u.interval) for u in users]
        f1, f2 = all_pairs(np.array([fr.f for fr in freqs]))
        row, interval = basin_rows_and_intervals(monkeypatch, where, f1, f2, config.p_t)
        rows.append(row)
        intervals.append(interval)
    row = tuple(
        [np.concatenate(parts) for parts in zip(*group)] if isinstance(group[0], list) else np.concatenate(group)
        for group in zip(*rows)
    )
    assert row[2].size > 50_000
    assert_matches_the_33_sample_search(row, np.concatenate(intervals, axis=1))


def test_one_row_criterion_6_queries(monkeypatch):
    # Drawn as in acceptance criterion 6 (and the benchmark's oracle-verify
    # queries at seed 0).
    rng = np.random.default_rng((0, 6))
    searched = 0
    for _ in range(300):
        geom = SceneGeometry(*(float(h) for h in rng.uniform(1.0, 15.0, size=2)))
        d_min = float(rng.uniform(5.0, 400.0))
        span = float(rng.uniform(1.0, min(100.0, 500.0 - d_min)))
        f1, f2 = (float(f) for f in np.sort(rng.uniform(0.4e9, 3e9, size=2)))
        where = [(geom, DistanceInterval(d_min, d_min + span))]
        row, intervals = basin_rows_and_intervals(monkeypatch, where, np.array([f1]), np.array([f2]), 1.0)
        searched += row[2].size
        assert_matches_the_33_sample_search(row, intervals)
    assert searched > 100
