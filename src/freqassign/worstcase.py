"""Minimum receive power over a distance-uncertainty interval.

The receiver sits somewhere in [d_min, d_max].  The worst case of the
single-carrier power (and of the two-carrier envelope bound) is attained
at an interval endpoint or at the largest interference null inside, so it
is read off from three closed-form evaluations.  For a carrier pair the
slow spacing oscillation lets the amplitude move the minimum measurably off
its null, so the null's basin is searched instead: the bound's closed-form
slope at two distances fixed by the spacing phase, then, where it falls at
the first and rises at the second, a bracketed Newton-secant search for its
sign change between them, on numpy arrays of rows.  One routine, :func:`worst_cases`,
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
    _lower_bound_slope,
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

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
# A basin row not stopped after this many slope passes raises.  Bisection alone
# stops a row within 42: its bracket is at most hi wide, tol >= 1e-12*hi/3.
_SLOPE_PASSES = 100

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

# The constants of scipy 1.17's bounded Brent search, as it writes them: its
# sqrt(2.2e-16) is not sqrt(eps), and its evaluation cap is maxiter's default.
_BRENT_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAXFUN = 500


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


def _basin_minimum(heights, coeffs, a, b, hi):
    """Minimum of the envelope bound on each row's basin bracket [a, hi].

    Row m has pair constants ``coeffs[.][m]`` and the height terms
    ``heights[.][m]`` of its own geometry (``SceneGeometry._heights``);
    0 < a <= b <= hi, with the bound falling at a unless a is the interval's
    d_min.  The bound's slope (:func:`freqassign.channel._lower_bound_slope`)
    is evaluated once at a and once at b.  A row whose bound falls at a and
    rises at b takes the stop of :func:`_slope_search` as both candidates,
    every other row a and hi; one closing evaluation of the bound at each
    row's two candidates takes the lower, ties to the first.
    """
    if not a.size:  # as in every narrow-band call
        return a, a
    ends = np.array([a, b])
    s_a, s_b = _lower_bound_slope(coeffs, ends, *_ray_terms(heights, ends))
    ends[1] = hi
    rows = np.flatnonzero((s_a < 0.0) & (s_b > 0.0))
    if rows.size:  # none in a paper call; the search's setup costs ~60 us
        ends[:, rows] = _slope_search(*(x[rows] for x in (a, b, s_a, s_b, hi, *coeffs, *heights)))
    p = _lower_bound_power(coeffs, *_ray_terms(heights, ends))
    return p.min(axis=0), np.where(p[1] < p[0], ends[1], ends[0])


def _slope_search(a, b, s_a, s_b, hi, *constants):
    """The stop of each searching row of :func:`_basin_minimum` (at least
    one) on its bracket [a, b], with slopes s_a < 0 < s_b there; ``constants``
    are the rows' pair constants, then height terms.  One slope evaluation
    per pass: from the secant point of s_a and s_b, Newton steps on secant
    slopes, each kept inside the bracket that the signs leave; a step out of
    it, or not below half the step before last, is a bisection instead.  A
    row stops once its step is within tol = sqrt(eps)*x + 1e-12*hi/3 of its
    iterate x, at the step's end.  Rows iterate together as arrays, each
    leaving in the pass that stops it, so no row depends on its batch.  A
    row not stopped after :data:`_SLOPE_PASSES` passes raises.
    """
    # Per row: bracket [a, b], iterate x, previous iterate and its slope, the
    # lengths of the step before last and of the last step; then the row's
    # tolerance term, constants and heights.  The secant point rounds to b
    # where s_b is below eps/2 times -s_a; the row starts one float below b
    # then, so that its first secant has a length.
    start = np.minimum(a - s_a * ((b - a) / (s_b - s_a)), np.nextafter(b, a))
    state = np.vstack([a, b, start, b, s_b, b - a, b - a, 1e-12 * hi / 3.0, *constants])
    at, stops = np.arange(a.size), np.empty(a.size)  # at: each row's place in stops
    for _ in range(_SLOPE_PASSES):
        a, b, x, x_prev, s_prev, before_last, last, xatol3 = state[:8]
        s = _lower_bound_slope(state[8:11], x, *_ray_terms(state[11:], x))
        rate = (s - s_prev) / (x - x_prev)
        # The slope's sign keeps the bracket.  A Newton step on the secant
        # rate stands where it stays in the bracket and is at most half the
        # step before last; otherwise the row bisects.
        rises = s > 0.0
        a, b = np.where(rises, a, x), np.where(rises, x, b)
        step = np.divide(-s, rate, out=np.full_like(s, math.inf), where=rate > 0.0)
        u = x + step
        newton = (np.abs(step) <= 0.5 * before_last) & (a <= u) & (u <= b)
        u = np.where(newton, u, 0.5 * (a + b))
        step = np.abs(u - x)
        stop = step <= _SQRT_EPS * x + xatol3
        state[:7] = np.array([a, b, u, x, s, last, step])  # x and last are views of state
        if stop.any():
            stops[at[stop]] = u[stop]
            at, state = at[~stop], state[:, ~stop]
            if not at.size:
                return stops
    raise RuntimeError(f"basin search still running after {_SLOPE_PASSES} slope passes")


def _take_lower(result, at, power, argmin) -> None:
    """Where ``power`` undercuts ``result`` (power, then argmin and kind if any)
    at the rows ``at``, write it as an interior null; ties keep the earlier."""
    lower = power < result[0][at]
    at = tuple(a[lower] for a in at)
    for a, value in zip(result, (power[lower], argmin[lower], 2)):
        a[at] = value


def _endpoints(kernel, users: np.ndarray, out) -> None:
    """Write the endpoint candidates of ``users`` (rows as in :func:`worst_cases`)
    against every entry of ``kernel`` (:func:`freqassign.channel._kernel`) into ``out``,
    their rows of the result arrays; the lower endpoint only where it may win.
    The upper endpoint's powers are computed in ``out[0]`` itself."""
    _, coeffs, power = kernel
    _, *heights, d_min, d_max = users.T[:, :, None]
    at_max = _ray_terms(heights, d_max)
    p_hi = power(coeffs, *at_max, out=out[0])
    at_min = _ray_terms(heights, d_min)
    cols, at_lo = slice(None), False  # the columns of p_lo: all, some or None
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
        np.copyto(p_hi, p_lo, where=at_lo)
    for a, lo, hi in zip(out[1:], (d_min, 0), (d_max, 1)):
        np.copyto(a, hi)
        np.copyto(a, lo, where=at_lo)


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
    The users' lower antennas, height terms and intervals, as (users, 1)
    columns, are broadcast against the frequency-only data
    (:func:`freqassign.channel._kernel`, built once for all users).  k is
    found once per call: entries without a null even at the tallest
    min(h_tx, h_rx) have none for any user and are dropped first (in a
    narrow band, every pair), and a row keeps k only where it is at most
    the row's null count.  The endpoint powers run over blocks of users
    whose temporaries hold about :data:`_USER_BLOCK` elements, so that they
    stay in cache; the lower endpoint is skipped where it cannot win
    (:data:`_FALL_MARGIN`).  The null of a
    carrier, or the basin of a pair's null, is computed only on the rows that
    have one, each with its own user's heights, all basins in one
    :func:`_basin_minimum` call.  Every entry is computed elementwise,
    independent of the rest of the batch and of the other users.
    """
    pairs = f2 is not None
    f1 = np.array(f1, dtype=float, ndmin=1)
    kernel = _kernel(f1, np.array(f2, dtype=float, ndmin=1) if pairs else None, p_t)
    omega, coeffs, power = kernel
    # One row per user: its lower antenna, its cached height terms, its interval.
    users = np.array([(min(g.h_tx, g.h_rx), *g._heights, iv.d_min, iv.d_max) for g, iv in where])
    low, *heights, _, d_max = users.T[:, :, None]
    # Null distances fall with k, so the largest null at or below d_max has the smallest
    # k whose phase 2*pi*k is at least the phase at d_max: that phase over 2*pi, rounded
    # up (at least 1, for a phase that underflows to 0).  Roundoff moves k by one only
    # where d_max lies within roundoff of a null, whose power d_max's then stands in
    # for; the next null down, at smaller d where (q/(l*lr))**2 is larger, is no deeper.
    # d_k is good to roundoff, except next to the mast, where phase and bound are flat
    # in d and d_k is good to about 2*eps*(l_ref/d_k)**2 relative: 3.6e-6 m from a
    # 10/1.5 m mast it lies 6e-4 relative off the exact null.
    # A row whose k exceeds its null count k_max is skipped.
    entries = np.flatnonzero(_k_max(low.max(), omega) >= 1.0)
    k = np.maximum(1.0, np.ceil(coeffs[-1][entries] * _ray_terms(heights, d_max)[2] / TWO_PI))
    u, m = np.nonzero(k <= _k_max(low, omega[entries]))
    k, m = k[u, m], entries[m]
    shape = (len(users), omega.size)
    result = (out,) if out is not None else tuple(np.empty(shape, t) for t in (float, float, int))
    per_block = max(1, _USER_BLOCK // max(1, omega.size))
    for start in range(0, len(users), per_block):
        block = slice(start, start + per_block)
        _endpoints(kernel, users[block], [a[block] for a in result])
    _, *heights, d_min, d_max = users[u].T
    coeffs = [a[m] for a in coeffs]
    q_scale = SPEED_OF_LIGHT / omega[m]
    d_k = _invert_path_difference(heights, TWO_PI * k * q_scale)
    if not pairs:
        # Without a null inside, the third candidate repeats d_min and ties it.
        d_null = np.where((d_k >= d_min) & (d_k <= d_max), d_k, d_min)
        minimum = power(coeffs, *_ray_terms(heights, d_null)), d_null
    else:
        # A pair's null d_k lies in a basin that runs from phase 2*pi*k + pi
        # through d_k to the crest at 2*pi*k - pi.  Up to d_k every term of the
        # bound falls with d (sin(phi/2)**2, so g; q/(l*lr); 1/(l*lr)), so
        # nothing there undercuts d_k: the basin search covers a = max(d_k,
        # d_min) to hi = min(crest, d_max), with b at phase 2*pi*k - pi/2, and
        # stands in for evaluating d_k.  The amplitude shifts the minimum off
        # d_k towards larger d, so the basins
        # of nulls above d_max hold nothing below the bound at d_max; next to
        # the mast, where a basin is flat to 1e-14 relative, only to roundoff.
        hi = np.minimum(_invert_path_difference(heights, (TWO_PI * k - math.pi) * q_scale), d_max)
        a = np.maximum(d_k, d_min)
        search = a < hi
        u, m, k, q_scale, a, hi = (x[search] for x in (u, m, k, q_scale, a, hi))
        heights, coeffs = [x[search] for x in heights], [x[search] for x in coeffs]
        b = _invert_path_difference(heights, (TWO_PI * k - 0.5 * math.pi) * q_scale)
        minimum = _basin_minimum(heights, coeffs, a, np.clip(b, a, hi), hi)
    _take_lower(result, (u, m), *minimum)
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
    off the nominal null distance, so the basin beyond the deepest relevant
    null is searched in its place: where the bound's slope falls at the null
    and rises a quarter period beyond it, for the slope's sign change
    between the two.
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


def _bounded_brent(func, lo: float, hi: float, xatol: float):
    """``(x, func(x), evaluations)``: Brent's bounded minimization of ``func`` on
    [lo, hi] (R. P. Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 5), ported from scipy 1.17's ``_minimize_scalar_bounded`` to
    Python floats with its constants, steps and stopping test, so that it
    takes the same points bit for bit.  Golden-section steps, or parabolic
    ones through the three best points where those stay inside and shrink;
    each step at least tol1 = sqrt(2.2e-16)*|x| + xatol/3.  After
    :data:`_BRENT_MAXFUN` evaluations it returns its best point so far.  NaN
    values compare as in scipy: one is never taken as the best unless it is the
    first, and then it is returned.  Bounds must be finite, lo <= hi, as scipy
    requires.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise ValueError("bounds must be finite, lower bound first")
    a, b = lo, hi
    xf = nfc = fulc = a + _GOLDEN_MEAN * (b - a)  # best, second best, third best
    rat = e = 0.0  # the last step and the one before
    fx = fnfc = ffulc = func(xf)
    num = 1
    xm = 0.5 * (a + b)
    tol1 = _BRENT_SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q  # + 0.0 as in scipy: -0.0 becomes 0.0
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:  # no closer than tol1 to an end
                    rat = tol1 if xm - xf >= 0.0 else -tol1  # a, b and xf are not NaN here
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN_MEAN * e
        step = max(abs(rat), tol1)  # times sign(rat) + (rat == 0), as in scipy
        x = xf - step if rat < 0.0 else xf + step
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _BRENT_SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx, num


def grid_min(
    power_fn: Callable, interval: DistanceInterval, grid: np.ndarray
) -> WorstCaseResult:
    """Global minimum of a power curve over the interval by exhaustive scan.

    ``power_fn`` must accept ndarray distances.  ``grid`` is the scan
    resolution policy; build it with :func:`phase_uniform_grid` so that the
    phase argument moves by at most 0.01 rad per step.  Every sampled local
    minimum is then polished by Brent's bounded search (:func:`_bounded_brent`)
    before the basins are ranked: near a deep null the grid samples sit well
    above the basin floor, so ranking raw samples could pick the wrong basin.
    Serves as the independent oracle for the closed-form worst-case evaluations.
    """
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
                x, fun, _ = _bounded_brent(lambda d: float(power_fn(d)), lo, hi, max(1e-12, 1e-12 * hi))
                if fun < best_p:
                    best_p, best_d = fun, x
            candidates.append((best_p, best_d))
    best_p, best_d = min(candidates, key=lambda c: c[0])
    if best_d == interval.d_min:
        kind = LOWER_ENDPOINT
    elif best_d == interval.d_max:
        kind = UPPER_ENDPOINT
    else:
        kind = INTERIOR_NULL
    return WorstCaseResult(best_p, best_d, kind)
