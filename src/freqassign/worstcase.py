"""Minimum receive power over a distance-uncertainty interval.

The receiver sits somewhere in [d_min, d_max].  The worst case of the
single-carrier power (and of the two-carrier envelope bound) is attained
at an interval endpoint or at the largest interference null inside, so it
is read off from three closed-form evaluations.  For a carrier pair the
slow spacing oscillation lets the amplitude move the minimum measurably off
its null, so the null's basin is searched instead: 17 samples, then
bounded Brent on numpy arrays of rows.  One routine, :func:`worst_cases`,
serves every caller: a list of users (geometry and interval each) against
an array of carriers or pairs, by broadcasts over blocks of users, with the
basins of all users searched in one batch.  A profit table is one call for
its carriers and one for its pairs; a single query is the same call on
(1, 1) arrays.  An exhaustive phase-resolved grid scan is the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (
    SPEED_OF_LIGHT,
    TWO_PI,
    CarrierFrequency,
    FrequencyPair,
    SceneGeometry,
    _invert_path_difference,
    _k_max,
    _kernel,
    _lower_bound_power,
    _positive_finite,
    _ray_terms,
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
_BASIN_POINTS = 17
_BASIN_STEPS = np.arange(_BASIN_POINTS, dtype=float)
_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
# The locating round samples this many rows at a time, which keeps its
# (samples, rows) temporaries small enough to stay in cache.
_BASIN_BLOCK = 512
_BRENT_MAXFUN = 500  # scipy's maxfun: a row not stopped after this many passes raises

# The endpoint stage of worst_cases runs over blocks of users whose
# (users, entries) temporaries hold about this many elements.
_USER_BLOCK = 24576

# p_lo cannot win where the power falls across [d_min, d_max].  If the phase
# rate*q (a carrier's, or a pair's spacing) is <= pi at d_min it is throughout
# (q falls with d), so sin(phi/2)**2 falls: with A the kernel's amplitude, the
# radial term A*(q/(l*lr))**2 falls by rho**2 and the sine term by
# rho = (l*lr)(d_max)/(l*lr)(d_min).  Rounding moves a carrier's power by a few
# ulp; a pair's 1 - g by a few eps where g = (1 - t**2)*sin^2 is near 1, so its
# root, and the power, by up to about sqrt(3*eps) = 2.6e-8 relative, as the root
# enters 1 + sqrt(1 - g) >= 1.  rho >= 1 + _FALL_MARGIN gives p_lo > p_hi where
# p_hi is finite and it and (q/(l*lr))**2 are normal at d_max, lest A (to
# 1.8e308) scale up a subnormal.
_FALL_MARGIN = 1e-6
_TINY = np.finfo(float).tiny

# Oracle grid: the phase moves by at most this much per step [rad], and
# every grid has from _GRID_MIN_POINTS to _GRID_MAX_POINTS points (8 MB per
# array at the most).
_GRID_PHASE_STEP = 0.01
_GRID_MIN_POINTS = 1024
_GRID_MAX_POINTS = 10**6


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


def _basin_minimum(heights, coeffs, lo: np.ndarray, hi: np.ndarray):
    """Minimum of the envelope bound on each row's bracket [lo, hi].

    Row m has pair constants ``coeffs[.][m]`` and the height terms
    ``heights[.][m]`` of its own geometry (``SceneGeometry._heights``).  One
    locating round samples every bracket at 17 evenly spaced distances, 512
    rows at a time.  A row whose lowest sample is a bracket end x, and whose
    bound rises within tol = sqrt(eps)*x + 1e-12*hi/3 of it, takes that end.
    Every other row runs scipy's bounded Brent search (``_minimize_scalar_bounded``)
    on the two sample spacings around its lowest sample, seeded with that
    sample and its neighbours.  Rows iterate together as arrays, each leaving
    on scipy's stopping test, so no row depends on its batch; 0 < lo < hi.
    A row that has not stopped after :data:`_BRENT_MAXFUN` passes raises.
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
        at3 = np.array([at, np.maximum(at - 1, 0), np.minimum(at + 1, _BASIN_POINTS - 1)])
        at3 = at3, np.arange(at.size)
        near[:, 0, block], near[:, 1, block] = x[at3], p[at3]

    (x, fx), lower, upper = near
    inward = (lower[0] == x) - (upper[0] == x) * 1.0  # +1 at lo, -1 at hi, else 0
    ends = np.flatnonzero(inward)
    probe = x[ends] + inward[ends] * (_SQRT_EPS * x[ends] + xatol3[ends])
    terms = _ray_terms([a[ends] for a in heights], probe)
    settled = np.zeros(lo.size, dtype=bool)
    settled[ends] = _lower_bound_power([a[ends] for a in coeffs], *terms) >= fx[ends]
    rows = np.flatnonzero(~settled)

    # Brent's state per row: bracket [a, b]; lowest point x, second lowest w and previous
    # w, v, each as (distance, power); step before last e and last step rat, seeded so that
    # the first step may fit the three samples; the row's tolerance term and constants.
    w, v = np.where(lower[1] <= upper[1], near[1:], near[:0:-1])
    e = upper[0] - lower[0]
    state = [lower[0], upper[0], near[0], w, v, e, 0.5 * e, xatol3]
    state = [s.take(rows, -1) for s in (*state, np.array(coeffs), np.array(heights))]
    out = near[0].copy()
    for _ in range(_BRENT_MAXFUN + 1):  # a stopping test follows each pass
        if not rows.size:
            break
        a, b, (x, _), *_, xatol3 = state[:8]
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * x + xatol3
        tol2 = 2.0 * tol1
        run = np.abs(x - xm) > tol2 - 0.5 * (b - a)
        if not run.all():  # rows that stop leave in this pass
            stop, run = np.flatnonzero(~run), np.flatnonzero(run)
            out[:, rows[stop]] = state[2].take(stop, 1)
            rows, xm, tol1, tol2, *state = (s.take(run, -1) for s in (rows, xm, tol1, tol2, *state))
            if not rows.size:
                break
        a, b, X, W, V, e, rat, xatol3, coeffs, heights = state
        (x, fx), (w, fw), (v, fv) = X, W, V
        # The parabola through x, w and v where it falls well inside the
        # bracket and moves less than half the step before last; otherwise
        # a golden-section step into the larger side.
        xw, xv, ax, bx = x - w, x - v, a - x, b - x
        r = xw * (fx - fv)
        q = xv * (fx - fw)
        p = xv * q - xw * r
        q = 2.0 * (q - r)
        p = np.where(q > 0.0, -p, p)
        q = np.abs(q)
        parabolic = (np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
        parabolic &= (p > q * ax) & (p < q * bx)
        golden = np.where(x >= xm, ax, bx)
        e = np.where(parabolic, rat, golden)
        rat = np.divide(p, q, out=_GOLDEN * golden, where=parabolic)
        xr = x + rat
        edge = parabolic & ((xr - a < tol2) | (b - xr < tol2))
        rat = np.where(edge, np.copysign(tol1, xm - x), rat)  # -tol1 where xm < x
        u = x + np.where(rat < 0.0, -1.0, 1.0) * np.maximum(np.abs(rat), tol1)
        fu = _lower_bound_power(coeffs, *_ray_terms(heights, u))

        better = fu <= fx
        shift = better | (fu <= fw) | (w == x)
        fresh_v = (fu <= fv) | (v == x) | (v == w)  # where not shift
        new_end = np.where(better, x, u)
        a, b = np.where(better == (u >= x), (new_end, b), (a, new_end))
        U = np.array([u, fu])
        V = np.where(shift, W, np.where(fresh_v, U, V))
        W = np.where(better, X, np.where(shift, U, W))
        X = np.where(better, U, X)
        state = [a, b, X, W, V, e, rat, xatol3, coeffs, heights]
    else:
        raise RuntimeError(f"basin search still running after {_BRENT_MAXFUN} Brent passes")
    return out[1], out[0]


def _take_lower(result, at, power, argmin) -> None:
    """Where ``power`` undercuts ``result`` (power, then argmin and kind if any)
    at the rows ``at``, write it as an interior null; ties keep the earlier."""
    lower = power < result[0][at]
    at = tuple(a[lower] for a in at)
    for a, value in zip(result, (power[lower], argmin[lower], 2)):
        a[at] = value


def _endpoints(kernel, users: np.ndarray, entries: np.ndarray, out):
    """Write the endpoint candidates of ``users`` (rows as in :func:`worst_cases`)
    against every entry of ``kernel`` (:func:`freqassign.channel._kernel`) into
    ``out``, their rows of the result arrays (the lower endpoint only where it may
    win).  Returns the rows ``(u, m)`` (u indexing ``users``, m the kernel's entries)
    with a null at or below d_max among ``entries``, and their null index k.
    """
    omega, coeffs, power = kernel
    rate, omega = coeffs[-1][entries], omega[entries]
    h_tx, h_rx, *heights, d_min, d_max = users.T[:, :, None]
    at_max = _ray_terms(heights, d_max)
    # Null distances fall with k, so the largest null at or below d_max has the smallest
    # k whose phase 2*pi*k is at least the phase at d_max: that phase over 2*pi, rounded
    # up (at least 1, for a phase that underflows to 0).  Roundoff moves k by one only
    # where d_max lies within roundoff of a null, whose power d_max's then stands in
    # for; the next null down, at smaller d where (q/(l*lr))**2 is larger, is no deeper.
    # d_k is good to roundoff, except next to the mast, where phase and bound are flat
    # in d and d_k is good to about 2*eps*(l_ref/d_k)**2 relative: 3.6e-6 m from a
    # 10/1.5 m mast it lies 6e-4 relative off the exact null.
    # A row whose k exceeds its null count k_max is skipped.  This runs before the
    # endpoint powers, so its temporaries are freed before those exist.
    k = np.maximum(1.0, np.ceil(rate * at_max[2] / TWO_PI))
    at = np.nonzero(k <= _k_max(np.minimum(h_tx, h_rx), omega))
    k = k[at]

    p_hi = power(coeffs, *at_max)
    at_min = _ray_terms(heights, d_min)
    cols, p_lo, at_lo = slice(None), p_hi, False  # the columns of p_lo: all, some or None
    # The kernel's own product at d_min: it overflows only where the kernel would.
    falls = (0.5 * coeffs[-1]) * at_min[2].max() <= 0.5 * math.pi
    # Unless most entries fall, skipping the rest costs more than it saves.
    if 2 * falls.sum() > falls.size:
        ll_min, ll_max = at_min[0] * at_min[1], at_max[0] * at_max[1]
        ok = (ll_max / (1.0 + _FALL_MARGIN) >= ll_min) & ((at_max[2] / ll_max) ** 2 >= _TINY)
        falls &= ok.all() & (p_hi.min(axis=0) >= _TINY) & (p_hi.max(axis=0) < math.inf)
        cols = np.flatnonzero(~falls) if not falls.all() else None
    if cols is not None:
        p_lo = power([c[cols] for c in coeffs], *at_min)
        if not isinstance(cols, slice):  # spread out; inf is above every p_hi skipped
            p_lo, evaluated = np.full_like(p_hi, math.inf), p_lo
            p_lo[:, cols] = evaluated
        # Ties go to the earlier candidate: lower endpoint, upper endpoint, null.
        at_lo = p_lo <= p_hi
    for a, lo, hi in zip(out, (p_lo, d_min, 0), (p_hi, d_max, 1)):
        np.copyto(a, hi)
        np.copyto(a, lo, where=at_lo)
    return at[0], entries[at[1]], k


def worst_cases(where, f1, f2=None, p_t: float = 1.0, out=None):
    """Worst cases of a batch of carriers or pairs, for every user.

    ``where`` lists one ``(SceneGeometry, DistanceInterval)`` per user.
    With ``f2`` None each entry of ``f1`` is a single carrier and the power
    is :func:`freqassign.channel.receive_power_single`; otherwise entry m is
    the pair (f1[m], f2[m]), f1 < f2, and the power is
    :func:`freqassign.channel.sum_power_lower_bound`.  A scalar is one
    entry.  Returns ``(power, argmin_distance, kind)``, each of shape
    (users, entries), ``kind`` indexing :data:`_KINDS`.  Given ``out``, a
    float array of that shape, the powers are written into it and it is
    returned alone: no argmin or kind array is formed.

    Candidates are both endpoints and the largest null d_k of the
    oscillation (the carrier, or the pair's spacing) inside the interval.
    The endpoints and k are broadcasts of the users' heights and intervals,
    as (users, 1) columns, against the frequency-only data
    (:func:`freqassign.channel._kernel`, built once for all users),
    over blocks of users whose temporaries hold about :data:`_USER_BLOCK`
    elements, so that they stay in cache.  Entries without a null even at
    the largest min(h_tx, h_rx) have none for any user and are dropped from
    the null test first: in a narrow band, every pair.  The lower endpoint
    is skipped where it cannot win (:data:`_FALL_MARGIN`).  The null of a
    carrier, or the basin of a pair's null, is computed only on the rows that
    have one, each with its own user's heights, all basins in one
    :func:`_basin_minimum` call.  Every entry is computed elementwise,
    independent of the rest of the batch and of the other users.
    """
    pairs = f2 is not None
    f1 = np.array(f1, dtype=float, ndmin=1)
    kernel = _kernel(f1, np.array(f2, dtype=float, ndmin=1) if pairs else None, p_t)
    omega, coeffs, power = kernel
    # One row per user: its heights, their cached height terms, its interval.
    users = np.array([(g.h_tx, g.h_rx, *g._heights, iv.d_min, iv.d_max) for g, iv in where])
    top = np.minimum(users[:, 0], users[:, 1]).max()
    entries = np.flatnonzero(_k_max(top, omega) >= 1.0)
    shape = (len(users), omega.size)
    result = (out,) if out is not None else tuple(np.empty(shape, t) for t in (float, float, int))
    per_block = max(1, _USER_BLOCK // max(1, omega.size))
    found = []
    for start in range(0, len(users), per_block):
        block = slice(start, start + per_block)
        u, m, k = _endpoints(kernel, users[block], entries, [a[block] for a in result])
        found.append((u + start, m, k))
    u, m, k = (np.concatenate(a) for a in zip(*found))
    at = u, m
    _, _, *heights, d_min, d_max = users[u].T
    coeffs = [a[m] for a in coeffs]
    q_scale = SPEED_OF_LIGHT / omega[m]
    if not pairs:
        d_k = _invert_path_difference(heights, TWO_PI * k * q_scale)
        # Without a null inside, the third candidate repeats d_min and ties it.
        d_null = np.where((d_k >= d_min) & (d_k <= d_max), d_k, d_min)
        _take_lower(result, at, power(coeffs, *_ray_terms(heights, d_null)), d_null)
        return result if out is None else out

    # A pair's null d_k lies inside its basin, so the basin search stands in
    # for evaluating d_k.  The amplitude shifts the minimum off d_k towards
    # larger d, so the basins of nulls above d_max hold nothing below the
    # bound at d_max; next to the mast, where a basin is flat to 1e-14
    # relative, only to roundoff.
    # For k = k_max the phase 2*pi*k + pi can lie beyond the supremum, where
    # d_lo means nothing; it then trims only the part of the basin next to
    # the mast, where 1/l^2 makes the bound fall with d.
    d_hi = np.minimum(_invert_path_difference(heights, (TWO_PI * k - math.pi) * q_scale), d_max)
    d_lo = np.maximum(_invert_path_difference(heights, (TWO_PI * k + math.pi) * q_scale), d_min)
    search = d_lo < d_hi
    at = u[search], m[search]
    heights, coeffs = [a[search] for a in heights], [a[search] for a in coeffs]
    d_lo, d_hi = d_lo[search], d_hi[search]
    _take_lower(result, at, *_basin_minimum(heights, coeffs, d_lo, d_hi))
    return result if out is None else out


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
    null is searched in its place: 17 samples, then bounded Brent.
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
    The grid has at least 1024 and at most 10**6 points; a query that needs
    more is refused.
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if interval.d_min == interval.d_max:
        return np.array([interval.d_min])
    q_hi = path_difference(geom, interval.d_min)
    q_lo = path_difference(geom, interval.d_max)
    span = (q_hi - q_lo) * omega / SPEED_OF_LIGHT
    if not span / _GRID_PHASE_STEP <= _GRID_MAX_POINTS - 1:  # nan and inf fail too
        raise ValueError(f"the oracle grid needs more than {_GRID_MAX_POINTS} points")
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
