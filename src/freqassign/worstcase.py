"""Minimum receive power over a distance-uncertainty interval.

The receiver sits somewhere in [d_min, d_max] but the exact distance is
unknown.  The worst case of the single-carrier power (and of the
two-carrier envelope bound) is attained either at an interval endpoint or
at the largest interference null inside the interval, so it can be read
off from three closed-form evaluations.  For a carrier pair the slow
spacing oscillation lets the distance-dependent amplitude move the true
minimum measurably off its null, so the null's basin is searched as well.
One routine, :func:`worst_cases`, serves every caller: it takes a list of
users (geometry and interval each) and a whole array of carriers or pairs,
finds the candidates of every (user, entry) in one numpy broadcast, and
searches the basins of all users in one batch.  A profit table is one call
for its carriers and one for its pairs; a single query is the same
broadcast on (1, 1) arrays.  An exhaustive phase-resolved grid scan doubles
as an independent oracle for the claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    SPEED_OF_LIGHT,
    TWO_PI,
    CarrierFrequency,
    FrequencyPair,
    SceneGeometry,
    _invert_path_difference,
    _k_max,
    _lower_bound_coeffs,
    _lower_bound_power,
    _null_distance,
    _positive_finite,
    _ray_terms,
    _single_coeffs,
    _single_power,
    path_difference,
)
# Not used here, but kept importable from this module: the benchmark's
# traced run (perfbench/spans.py) patches these names on it.
from .channel import receive_power_single, sum_power_lower_bound  # noqa: F401

LOWER_ENDPOINT = "lower_endpoint"
UPPER_ENDPOINT = "upper_endpoint"
INTERIOR_NULL = "interior_null"
_KINDS = (LOWER_ENDPOINT, UPPER_ENDPOINT, INTERIOR_NULL)  # candidate codes 0, 1, 2

# Basin search: every round samples each bracket at _ZOOM_POINTS evenly
# spaced distances and keeps the two spacings around the lowest sample,
# so the bracket shrinks 16-fold per round.
_ZOOM_POINTS = 33
_ZOOM_STEPS = np.arange(_ZOOM_POINTS, dtype=float)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
# Basin rows of all users are searched this many at a time, which keeps the
# grid's temporaries small enough to stay in cache.
_BASIN_BLOCK = 256

# Oracle grid: the phase moves by at most this much per step [rad], and
# every grid has at least this many points.
_GRID_PHASE_STEP = 0.01
_GRID_MIN_POINTS = 1024


@dataclass(frozen=True)
class DistanceInterval:
    """Known range of possible transmitter-receiver distances, in meters."""

    d_min: float
    d_max: float

    def __post_init__(self):
        if not (_positive_finite(self.d_min, self.d_max) and self.d_min <= self.d_max):
            raise ValueError("interval requires finite 0 < d_min <= d_max")

    def contains(self, d: float) -> bool:
        return self.d_min <= d <= self.d_max


@dataclass(frozen=True)
class WorstCaseResult:
    """Worst-case power and where in the interval it is attained."""

    power: float
    argmin_distance: float
    candidate_kind: str


class _Batch(NamedTuple):
    """Frequency-only data of a batch of carriers or pairs, as (entries,) arrays.

    Nothing here depends on the user, so :func:`worst_cases` builds it once
    and shares it between all users.
    """

    omega: np.ndarray  # angular rate of the oscillation: the carrier, or the pair's spacing
    coeffs: tuple  # constants of ``power``; the last one is omega / c
    power: Callable  # _single_power or _lower_bound_power
    q_scale: object  # c / omega for pairs, None for carriers


def _batch(f1, f2, p_t: float) -> _Batch:
    """Carriers ``f1`` (``f2`` None) or pairs (f1[m], f2[m]), f1 < f2, at power ``p_t``.

    A scalar carrier or pair is a batch of one.
    """
    if not _positive_finite(p_t):
        raise ValueError("transmit power must be positive and finite")
    f1 = np.array(f1, dtype=float, ndmin=1)
    if f2 is None:
        omega = TWO_PI * f1
        return _Batch(omega, _single_coeffs(omega, p_t), _single_power, None)
    f2 = np.array(f2, dtype=float, ndmin=1)
    omega = TWO_PI * (f2 - f1)
    coeffs = _lower_bound_coeffs(f1, f2, p_t)
    return _Batch(omega, coeffs, _lower_bound_power, SPEED_OF_LIGHT / omega)


# Antenna heights of many users or rows, in place of a SceneGeometry: the
# private helpers of freqassign.channel read only h_tx and h_rx, and
# broadcast over them.
_Heights = NamedTuple("_Heights", [("h_tx", np.ndarray), ("h_rx", np.ndarray)])


def _basin_minimum(heights, coeffs, lo: np.ndarray, hi: np.ndarray):
    """Minimum of the envelope bound on each row's bracket [lo, hi].

    Row m has pair constants ``coeffs[.][m]`` and the height terms
    ``heights[.][m]`` of its own geometry (``SceneGeometry._heights``).  A
    vectorised zooming grid: each round keeps, per row, the bracket around
    its lowest sample.  A row stops once its sample spacing is within
    sqrt(eps)*x + xatol/3 of its lowest sample x, the accuracy of a bounded
    Brent search with xatol = max(1e-12, 1e-12*hi), and its result is
    frozen there, so no row depends on which rows share its batch.  Every
    bracket must be finite with 0 < lo < hi.
    """
    out_p = np.empty(lo.size)
    out_x = np.empty(lo.size)
    rows = np.arange(lo.size)  # the output row of each row still searching
    tol = np.maximum(1e-12, 1e-12 * hi) / 3.0
    while rows.size:
        # Samples run down axis 0 and rows along axis 1, so per-row values
        # broadcast along the contiguous axis.
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        x = lo + step * _ZOOM_STEPS[:, None]
        x[-1] = hi
        p = _lower_bound_power(coeffs, *_ray_terms(heights, x))
        at = p.argmin(axis=0)
        r = np.arange(rows.size)
        x_at = x[at, r]
        lo = x[np.maximum(at - 1, 0), r]
        hi = x[np.minimum(at + 1, _ZOOM_POINTS - 1), r]
        done = step <= _SQRT_EPS * x_at + tol
        if done.any():
            out_p[rows[done]] = p[at[done], r[done]]
            out_x[rows[done]] = x_at[done]
            keep = ~done
            rows, lo, hi, tol = rows[keep], lo[keep], hi[keep], tol[keep]
            coeffs = [a[keep] for a in coeffs]
            heights = [a[keep] for a in heights]
    return out_p, out_x


def _take_lower(result, at, power, argmin) -> None:
    """Where ``power`` undercuts ``result`` at the (user, entry) rows ``at``,
    write it there as an interior null; ties keep the earlier candidate."""
    best_p, best_x, kind = result
    lower = power < best_p[at]
    at = tuple(a[lower] for a in at)
    best_p[at], best_x[at], kind[at] = power[lower], argmin[lower], 2


def worst_cases(where, f1, f2=None, p_t: float = 1.0):
    """Worst cases of a batch of carriers or pairs, for every user.

    ``where`` lists one ``(SceneGeometry, DistanceInterval)`` per user.
    With ``f2`` None each entry of ``f1`` is a single carrier and the power
    is :func:`freqassign.channel.receive_power_single`; otherwise entry m is
    the pair (f1[m], f2[m]), f1 < f2, and the power is
    :func:`freqassign.channel.sum_power_lower_bound`.  A scalar is one
    entry.  Returns ``(power, argmin_distance, kind)``, each of shape
    (users, entries), ``kind`` indexing :data:`_KINDS`.

    Candidates are both endpoints and the largest null d_k of the
    oscillation (the carrier, or the pair's spacing) inside the interval.
    The endpoints and the null index k are one broadcast of the users'
    heights and intervals, as (users, 1) columns, against the
    frequency-only data built once (:func:`_batch`).  The null and, for
    pairs, its basin are then computed only on the (user, entry) rows that
    have a null, each row with its own user's heights; the basins are
    searched :data:`_BASIN_BLOCK` rows at a time.  Every entry is computed
    elementwise, so its result depends neither on the rest of the batch nor
    on the other users.
    """
    batch = _batch(f1, f2, p_t)
    # One row per user: its heights, their cached height terms, its interval.
    users = np.array([(g.h_tx, g.h_rx, *g._heights, iv.d_min, iv.d_max) for g, iv in where])
    h_tx, h_rx, *heights, d_min, d_max = users.T[:, :, None]
    at_max = _ray_terms(heights, d_max)
    # Null distances fall with k, so the largest null at or below d_max has
    # the smallest k whose phase 2*pi*k is at least the phase at d_max.  k is
    # that phase over 2*pi, rounded up from below so that roundoff can only
    # leave it one short.  That happens only when d_max lies within roundoff
    # below the null d_k, which then falls outside; the endpoint d_max stands
    # in for it, and the next null down is shallower.  A row whose k exceeds
    # its null count k_max has no null at or below d_max and is skipped; in a
    # narrow band that is every pair.  This runs before the endpoint powers
    # so that its (users, entries) temporaries are freed before those exist.
    k = np.maximum(1.0, np.ceil(batch.coeffs[-1] * at_max[2] / TWO_PI - 1e-9))
    at = np.nonzero(k <= _k_max(_Heights(h_tx, h_rx), batch.omega))
    k = k[at]

    p_lo = batch.power(batch.coeffs, *_ray_terms(heights, d_min))
    p_hi = batch.power(batch.coeffs, *at_max)
    # Ties go to the earlier candidate: lower endpoint, upper endpoint, null.
    at_lo = p_lo <= p_hi
    result = np.where(at_lo, p_lo, p_hi), np.where(at_lo, d_min, d_max), np.where(at_lo, 0, 1)

    u, m = at
    h_tx, h_rx, *heights, d_min, d_max = users[u].T
    rows = _Heights(h_tx, h_rx)
    coeffs = [a[m] for a in batch.coeffs]
    d_k = _null_distance(rows, batch.omega[m], k)
    # Without a null inside, the third candidate repeats d_min and ties it.
    d_null = np.where((d_k >= d_min) & (d_k <= d_max), d_k, d_min)
    _take_lower(result, at, batch.power(coeffs, *_ray_terms(heights, d_null)), d_null)
    if batch.q_scale is None:
        return result

    # The amplitude shifts a pair's minimum off d_k towards larger d; nulls
    # above d_max cannot matter because the shift never moves a minimum to
    # smaller distances.  For k = k_max the phase 2*pi*k + pi can lie beyond
    # the supremum, where d_lo means nothing; it then trims only the part of
    # the basin next to the mast, where 1/l^2 makes the bound fall with d.
    q_scale = batch.q_scale[m]
    d_hi = np.minimum(_invert_path_difference(rows, (TWO_PI * k - math.pi) * q_scale), d_max)
    d_lo = np.maximum(_invert_path_difference(rows, (TWO_PI * k + math.pi) * q_scale), d_min)
    search = d_lo < d_hi
    at = u[search], m[search]
    heights = [a[search] for a in heights]
    coeffs = [a[search] for a in coeffs]
    d_lo, d_hi = d_lo[search], d_hi[search]
    basin_p, basin_x = np.empty(d_lo.size), np.empty(d_lo.size)
    for start in range(0, d_lo.size, _BASIN_BLOCK):
        block = slice(start, start + _BASIN_BLOCK)
        basin_p[block], basin_x[block] = _basin_minimum(
            [a[block] for a in heights], [a[block] for a in coeffs], d_lo[block], d_hi[block]
        )
    _take_lower(result, at, basin_p, basin_x)
    return result


def _one(result) -> WorstCaseResult:
    power, argmin, kind = (a.item() for a in result)
    return WorstCaseResult(power, argmin, _KINDS[kind])


def worst_case_single(
    geom: SceneGeometry,
    interval: DistanceInterval,
    freq: CarrierFrequency,
    p_t: float = 1.0,
) -> WorstCaseResult:
    """Minimum single-carrier receive power over the interval.

    Takes the minimum of P_r at d_min, at d_max, and at the largest null
    distance d_k falling inside the closed interval.  When no null lies in
    the interval only the endpoints compete.
    """
    return _one(worst_cases([(geom, interval)], freq.f, None, p_t))


def worst_case_pair(
    geom: SceneGeometry,
    interval: DistanceInterval,
    pair: FrequencyPair,
    p_t: float = 1.0,
) -> WorstCaseResult:
    """Minimum of the two-carrier envelope bound over the interval.

    Same candidate structure as :func:`worst_case_single`, with the null
    distances computed from the spacing delta_omega instead of the carrier
    and the envelope lower bound as the evaluated power.  Because the
    spacing oscillation is slow, the interior minimum can sit measurably
    off the nominal null distance, so the basin around the deepest relevant
    null is additionally searched to the accuracy of a bounded Brent search.
    """
    return _one(worst_cases([(geom, interval)], pair.f1, pair.f2, p_t))


def phase_uniform_grid(
    geom: SceneGeometry, interval: DistanceInterval, omega: float
) -> np.ndarray:
    """Distance grid whose phase argument advances <= 0.01 rad per step.

    The two-ray phase (omega/c)*(l_ref - l_los) is monotone in d, so a grid
    uniform in the path difference q = l_ref - l_los resolves the fastest
    oscillation everywhere; uniform-in-d grids undersample small distances.
    ``omega`` is the angular rate of the oscillation of interest (the
    carrier for P_r, the spacing delta_omega for the envelope bound).
    The grid has at least 1024 points.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if interval.d_min == interval.d_max:
        return np.array([interval.d_min])
    q_hi = path_difference(geom, interval.d_min)
    q_lo = path_difference(geom, interval.d_max)
    span = (q_hi - q_lo) * omega / SPEED_OF_LIGHT
    n = max(_GRID_MIN_POINTS, int(math.ceil(span / _GRID_PHASE_STEP)) + 1)
    d = _invert_path_difference(geom, np.linspace(q_hi, q_lo, n))
    d[0] = interval.d_min
    d[-1] = interval.d_max
    return d


def grid_min(
    power_fn: Callable, interval: DistanceInterval, grid: np.ndarray
) -> WorstCaseResult:
    """Global minimum of a power curve over the interval by exhaustive scan.

    ``power_fn`` must accept ndarray distances.  ``grid`` is the scan
    resolution policy; build it with :func:`phase_uniform_grid` so that the
    phase argument moves by at most 0.01 rad per step.  Every sampled local
    minimum is then polished by a bounded scalar minimization before the
    basins are ranked: near a deep null the grid samples sit well above the
    basin floor, so ranking raw samples could pick the wrong basin.  Serves
    as the independent oracle for the closed-form worst-case evaluations.
    """
    # The oracle is the only user of scipy; importing it here keeps the
    # theorem path and ``import freqassign`` free of scipy.optimize.
    from scipy.optimize import minimize_scalar

    powers = np.asarray(power_fn(grid))
    candidates = [(float(powers[0]), float(grid[0]))]
    if grid.size > 1:
        candidates.append((float(powers[-1]), float(grid[-1])))
    if grid.size > 2:
        interior = powers[1:-1]
        is_min = (
            (interior <= powers[:-2])
            & (interior <= powers[2:])
            & ((interior < powers[:-2]) | (interior < powers[2:]))
        )
        brackets = [(int(i - 1), int(i + 1)) for i in np.nonzero(is_min)[0] + 1]
        # A minimum falling between an endpoint and its neighbor leaves no
        # interior sample to flag, so the two edge brackets always count.
        brackets.append((0, 1))
        brackets.append((grid.size - 2, grid.size - 1))
        for i_lo, i_hi in brackets:
            lo, hi = float(grid[i_lo]), float(grid[i_hi])
            mid = (i_lo + i_hi) // 2
            best_p, best_d = float(powers[mid]), float(grid[mid])
            if hi > lo:
                res = minimize_scalar(
                    lambda d: float(power_fn(d)),
                    bounds=(lo, hi),
                    method="bounded",
                    options={"xatol": max(1e-12, 1e-12 * hi)},
                )
                if res.fun < best_p:
                    best_p, best_d = float(res.fun), float(res.x)
            candidates.append((best_p, best_d))
    best_p, best_d = min(candidates, key=lambda c: c[0])
    if best_d == interval.d_min:
        kind = LOWER_ENDPOINT
    elif best_d == interval.d_max:
        kind = UPPER_ENDPOINT
    else:
        kind = INTERIOR_NULL
    return WorstCaseResult(best_p, best_d, kind)
