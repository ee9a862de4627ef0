"""Minimum receive power over a distance-uncertainty interval.

The receiver sits somewhere in [d_min, d_max] but the exact distance is
unknown.  The worst case of the single-carrier power (and of the
two-carrier envelope bound) is attained either at an interval endpoint or
at the largest interference null inside the interval, so it can be read
off from three closed-form evaluations.  For a carrier pair the slow
spacing oscillation lets the distance-dependent amplitude move the true
minimum measurably off its null, so the null's basin is searched instead,
by 33 samples and then bounded Brent on numpy arrays of rows.  One routine,
:func:`worst_cases`, serves every caller: it takes a list of users
(geometry and interval each) and a whole array of carriers or pairs,
finds the candidates of every (user, entry) by numpy broadcasts over
blocks of users sized to stay in cache, and searches the basins of all
users in one batch.  Entries that have no null for the tallest user (the
largest min(h_tx, h_rx)) have none for any user, so they are dropped from
the null test up front.  A profit table is one call for its carriers and
one for its pairs; a single query is the same call on (1, 1) arrays.  An
exhaustive phase-resolved grid scan doubles as an independent oracle for
the claim.
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

# Basin search: _BASIN_POINTS evenly spaced samples of each bracket, then
# bounded Brent on the two spacings around the lowest one.
_BASIN_POINTS = 33
_BASIN_STEPS = np.arange(_BASIN_POINTS, dtype=float)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# The locating round samples this many rows at a time, which keeps its
# (samples, rows) temporaries small enough to stay in cache.
_BASIN_BLOCK = 256

# The endpoint stage of worst_cases runs over blocks of users whose
# (users, entries) temporaries hold about this many elements.
_USER_BLOCK = 24576

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
    with np.errstate(over="ignore"):  # refused below instead
        coeffs = _lower_bound_coeffs(f1, f2, p_t)
    if not ((0.0 < coeffs[1]) & (coeffs[1] < math.inf)).all():
        raise ValueError("carriers and transmit power put a1**2 + a2**2 outside the float range")
    return _Batch(omega, coeffs, _lower_bound_power, SPEED_OF_LIGHT / omega)


def _basin_minimum(heights, coeffs, lo: np.ndarray, hi: np.ndarray):
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


def _take_lower(result, at, power, argmin) -> None:
    """Where ``power`` undercuts ``result`` at the (user, entry) rows ``at``,
    write it there as an interior null; ties keep the earlier candidate."""
    best_p, best_x, kind = result
    lower = power < best_p[at]
    at = tuple(a[lower] for a in at)
    best_p[at], best_x[at], kind[at] = power[lower], argmin[lower], 2


def _endpoints(batch: _Batch, users: np.ndarray, entries: np.ndarray, out):
    """The endpoint candidates of ``users`` (rows as in :func:`worst_cases`)
    against every entry of ``batch``, written into ``out``, the users' rows
    of the ``(power, argmin, kind)`` arrays, and the null index k of each
    (user, entry) row that has a null at or below d_max, among ``entries``.

    Returns the rows ``(u, m)`` that have a null, u indexing ``users`` and m
    the batch, and their k.
    """
    rate, omega = batch.coeffs[-1][entries], batch.omega[entries]
    h_tx, h_rx, *heights, d_min, d_max = users.T[:, :, None]
    at_max = _ray_terms(heights, d_max)
    # Null distances fall with k, so the largest null at or below d_max has
    # the smallest k whose phase 2*pi*k is at least the phase at d_max.  k is
    # that phase over 2*pi, rounded up from below so that roundoff can only
    # leave it one short, with d_k just above d_max, where d_max stands in
    # for it and the next null down is shallower.  d_k then lies within
    # roundoff of d_max, or up to 7e-4 relative next to the mast, where the
    # phase and the bound are flat in d.  A row whose k exceeds its null
    # count k_max has no null at or below d_max and is skipped.  This runs
    # before the endpoint powers so that its temporaries are freed before
    # those exist.
    k = np.maximum(1.0, np.ceil(rate * at_max[2] / TWO_PI - 1e-9))
    at = np.nonzero(k <= _k_max(np.minimum(h_tx, h_rx), omega))
    k = k[at]

    p_lo = batch.power(batch.coeffs, *_ray_terms(heights, d_min))
    p_hi = batch.power(batch.coeffs, *at_max)
    # Ties go to the earlier candidate: lower endpoint, upper endpoint, null.
    at_lo = p_lo <= p_hi
    for a, lo, hi in zip(out, (p_lo, d_min, 0), (p_hi, d_max, 1)):
        np.copyto(a, hi)
        np.copyto(a, lo, where=at_lo)
    return at[0], entries[at[1]], k


def _users_per_block(n_entries: int) -> int:
    """Users per block of a batch of ``n_entries`` entries: (users, entries)
    temporaries of about :data:`_USER_BLOCK` elements, one user at least."""
    return max(1, _USER_BLOCK // max(1, n_entries))


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
    The endpoints and the null index k are broadcasts of the users'
    heights and intervals, as (users, 1) columns, against the
    frequency-only data built once (:func:`_batch`), run over blocks of
    users whose (block, entries) temporaries hold about
    :data:`_USER_BLOCK` elements, so that they stay in cache.  Entries
    without a null even at the largest min(h_tx, h_rx) of the batch are
    dropped from the null test first, on (entries,) arrays: the null count
    grows with that height, so no entry dropped has a null for any user.
    In a narrow band that is every pair.
    The null of a carrier, or the basin of a pair's null, is then computed
    only on the (user, entry) rows that have a null, each row with its own
    user's heights; the basins of all users are searched in one call of
    :func:`_basin_minimum`.  Every entry is computed elementwise, so its
    result depends neither on the rest of the batch nor on the other users.
    """
    batch = _batch(f1, f2, p_t)
    # One row per user: its heights, their cached height terms, its interval.
    users = np.array([(g.h_tx, g.h_rx, *g._heights, iv.d_min, iv.d_max) for g, iv in where])
    top = np.minimum(users[:, 0], users[:, 1]).max()
    entries = np.flatnonzero(_k_max(top, batch.omega) >= 1.0)
    result = tuple(np.empty((len(users), batch.omega.size), t) for t in (float, float, int))
    per_block = _users_per_block(batch.omega.size)
    found = []
    for start in range(0, len(users), per_block):
        block = slice(start, start + per_block)
        u, m, k = _endpoints(batch, users[block], entries, [a[block] for a in result])
        found.append((u + start, m, k))
    u, m, k = (np.concatenate(a) for a in zip(*found))
    at = u, m
    h_tx, h_rx, *heights, d_min, d_max = users[u].T
    coeffs = [a[m] for a in batch.coeffs]
    if batch.q_scale is None:
        d_k = _null_distance(h_tx, h_rx, batch.omega[m], k)
        # Without a null inside, the third candidate repeats d_min and ties it.
        d_null = np.where((d_k >= d_min) & (d_k <= d_max), d_k, d_min)
        _take_lower(result, at, batch.power(coeffs, *_ray_terms(heights, d_null)), d_null)
        return result

    # A pair's null d_k lies inside its basin, so the basin search stands in
    # for evaluating d_k.  The amplitude shifts the minimum off d_k towards
    # larger d, so the basins of nulls above d_max hold nothing below the
    # bound at d_max; next to the mast, where a basin is flat to 1e-14
    # relative, only to roundoff.
    # For k = k_max the phase 2*pi*k + pi can lie beyond the supremum, where
    # d_lo means nothing; it then trims only the part of the basin next to
    # the mast, where 1/l^2 makes the bound fall with d.
    q_scale = batch.q_scale[m]
    d_hi = np.minimum(_invert_path_difference(heights, (TWO_PI * k - math.pi) * q_scale), d_max)
    d_lo = np.maximum(_invert_path_difference(heights, (TWO_PI * k + math.pi) * q_scale), d_min)
    search = d_lo < d_hi
    at = u[search], m[search]
    heights, coeffs = [a[search] for a in heights], [a[search] for a in coeffs]
    d_lo, d_hi = d_lo[search], d_hi[search]
    _take_lower(result, at, *_basin_minimum(heights, coeffs, d_lo, d_hi))
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
    null is searched in its place: 33 samples, then bounded Brent.
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
    d = _invert_path_difference(geom._heights, np.linspace(q_hi, q_lo, n))
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
