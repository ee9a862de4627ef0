"""Minimum receive power over a distance-uncertainty interval.

The receiver sits somewhere in [d_min, d_max] but the exact distance is
unknown.  The worst case of the single-carrier power (and of the
two-carrier envelope bound) is attained either at an interval endpoint or
at the largest interference null inside the interval, so it can be read
off from three closed-form evaluations.  For a carrier pair the slow
spacing oscillation lets the distance-dependent amplitude move the true
minimum measurably off its null, so the null's basin is searched as well.
All of this runs on whole arrays of carriers at once.  An exhaustive
phase-resolved grid scan doubles as an independent oracle for the claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .channel import (
    DEFAULT_CONSTANTS,
    TWO_PI,
    CarrierFrequency,
    FrequencyPair,
    PhysicalConstants,
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


def _basin_minimum(geom: SceneGeometry, coeffs, lo: np.ndarray, hi: np.ndarray):
    """Minimum of the envelope bound on each row's bracket [lo, hi].

    A vectorised zooming grid: each round keeps, per row, the bracket
    around its lowest sample.  A row stops once its sample spacing is
    within sqrt(eps)*x + xatol/3 of its lowest sample x, the accuracy of
    a bounded Brent search with xatol = max(1e-12, 1e-12*hi), and its
    result is frozen there, so no row depends on which rows share its
    batch.  Every bracket must be finite with 0 < lo < hi.
    """
    out_p = np.empty(lo.size)
    out_x = np.empty(lo.size)
    rows = np.arange(lo.size)  # the output row of each row still searching
    coeffs = [a[:, None] for a in coeffs]
    tol = np.maximum(1e-12, 1e-12 * hi) / 3.0
    while rows.size:
        step = (hi - lo) / (_ZOOM_POINTS - 1)
        x = lo[:, None] + step[:, None] * _ZOOM_STEPS
        x[:, -1] = hi
        p = _lower_bound_power(coeffs, *_ray_terms(geom, x))
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


def _worst_cases(
    geom: SceneGeometry,
    interval: DistanceInterval,
    f1,
    f2=None,
    p_t: float = 1.0,
    c: float = DEFAULT_CONSTANTS.c,
):
    """Worst cases over one interval for a batch of carriers or pairs.

    With ``f2`` None each entry of ``f1`` is a single carrier and the
    power is :func:`freqassign.channel.receive_power_single`; otherwise
    entry m is the pair (f1[m], f2[m]), f1 < f2, and the power is
    :func:`freqassign.channel.sum_power_lower_bound`.  Returns
    ``(power, argmin_distance, kind)`` shaped like the carriers, ``kind``
    indexing :data:`_KINDS`.  Scalar carriers are a batch of one and run
    on numpy scalars, which is much cheaper than one-element arrays.

    Candidates are both endpoints and the largest null d_k of the
    oscillation (the carrier, or the pair's spacing) inside the interval.
    Null distances fall with k, so that is the smallest k whose phase
    2*pi*k is at least the phase at d_max, found in closed form and
    confirmed on the computed d_k.  For pairs the basin of that null
    (phase 2*pi*k +- pi, clipped to the interval) is searched as well,
    since the amplitude shifts the minimum off d_k towards larger d;
    nulls above d_max cannot matter because the shift never moves a
    minimum to smaller distances.  Every entry is computed elementwise,
    so its result does not depend on the rest of the batch.
    """
    if not _positive_finite(p_t):
        raise ValueError("transmit power must be positive and finite")
    if f2 is None:
        omega = TWO_PI * f1
        coeffs = _single_coeffs(omega, p_t, c)
        power = _single_power
    else:
        omega = TWO_PI * (f2 - f1)
        coeffs = _lower_bound_coeffs(f1, f2, p_t, c)
        power = _lower_bound_power
    d_min, d_max = interval.d_min, interval.d_max
    at_min = _ray_terms(geom, d_min)
    at_max = _ray_terms(geom, d_max)

    # First null at or below d_max: k is the ceiling of the phase there over
    # 2*pi, taken from below so that roundoff can only leave it one short.
    k = np.maximum(1.0, np.ceil(omega / c * at_max[2] / TWO_PI - 1e-9))
    d_k = _null_distance(geom, omega, k, c)
    short = d_k > d_max
    if np.any(short):
        k = k + short
        d_k = _null_distance(geom, omega, k, c)
    has_null = k <= _k_max(geom, omega, c)
    # Without a null inside, the third candidate repeats d_min and ties it.
    d_null = np.where(has_null & (d_k >= d_min) & (d_k <= d_max), d_k, d_min)

    p_lo = power(coeffs, *at_min)
    p_hi = power(coeffs, *at_max)
    best_p = np.minimum(np.minimum(p_lo, p_hi), power(coeffs, *_ray_terms(geom, d_null)))
    # Ties go to the earlier candidate: lower endpoint, upper endpoint, null.
    kind = np.where(p_lo == best_p, 0, np.where(p_hi == best_p, 1, 2))
    best_x = np.where(kind == 0, d_min, np.where(kind == 1, d_max, d_null))
    if f2 is None:
        return best_p, best_x, kind

    q_scale = c / omega
    d_hi = np.minimum(_invert_path_difference(geom, (TWO_PI * k - math.pi) * q_scale), d_max)
    d_lo = np.maximum(_invert_path_difference(geom, (TWO_PI * k + math.pi) * q_scale), d_min)
    rows = np.flatnonzero(has_null & (d_lo < d_hi))
    if rows.size:
        best_p, best_x, kind = np.atleast_1d(best_p, best_x, kind)
        basin_p, basin_x = _basin_minimum(
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


def _one(result) -> WorstCaseResult:
    power, argmin, kind = (np.asarray(a).item() for a in result)
    return WorstCaseResult(power, argmin, _KINDS[kind])


def worst_case_single(
    geom: SceneGeometry,
    interval: DistanceInterval,
    freq: CarrierFrequency,
    p_t: float = 1.0,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> WorstCaseResult:
    """Minimum single-carrier receive power over the interval.

    Takes the minimum of P_r at d_min, at d_max, and at the largest null
    distance d_k falling inside the closed interval.  When no null lies in
    the interval only the endpoints compete.
    """
    return _one(_worst_cases(geom, interval, freq.f, None, p_t, constants.c))


def worst_case_pair(
    geom: SceneGeometry,
    interval: DistanceInterval,
    pair: FrequencyPair,
    p_t: float = 1.0,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> WorstCaseResult:
    """Minimum of the two-carrier envelope bound over the interval.

    Same candidate structure as :func:`worst_case_single`, with the null
    distances computed from the spacing delta_omega instead of the carrier
    and the envelope lower bound as the evaluated power.  Because the
    spacing oscillation is slow, the interior minimum can sit measurably
    off the nominal null distance, so the basin around the deepest relevant
    null is additionally searched to the accuracy of a bounded Brent search.
    """
    return _one(_worst_cases(geom, interval, pair.f1, pair.f2, p_t, constants.c))


def phase_uniform_grid(
    geom: SceneGeometry,
    interval: DistanceInterval,
    omega: float,
    max_phase_step: float = 0.01,
    min_points: int = 1024,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> np.ndarray:
    """Distance grid whose phase argument advances <= max_phase_step per step.

    The two-ray phase (omega/c)*(l_ref - l_los) is monotone in d, so a grid
    uniform in the path difference q = l_ref - l_los resolves the fastest
    oscillation everywhere; uniform-in-d grids undersample small distances.
    ``omega`` is the angular rate of the oscillation of interest (the
    carrier for P_r, the spacing delta_omega for the envelope bound).
    """
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    if interval.d_min == interval.d_max:
        return np.array([interval.d_min])
    q_hi = path_difference(geom, interval.d_min)
    q_lo = path_difference(geom, interval.d_max)
    span = (q_hi - q_lo) * omega / constants.c
    n = max(min_points, int(math.ceil(span / max_phase_step)) + 1)
    d = _invert_path_difference(geom, np.linspace(q_hi, q_lo, n))
    d[0] = interval.d_min
    d[-1] = interval.d_max
    return d


def grid_min(
    power_fn: Callable,
    interval: DistanceInterval,
    grid: np.ndarray | None = None,
    refine: bool = True,
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

    if grid is None:
        grid = np.linspace(interval.d_min, interval.d_max, 4096)
    powers = np.asarray(power_fn(grid))
    candidates = [(float(powers[0]), float(grid[0]))]
    if grid.size > 1:
        candidates.append((float(powers[-1]), float(grid[-1])))
    if refine and grid.size > 2:
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
