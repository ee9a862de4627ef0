"""Closed-form two-ray ground-reflection propagation math.

A transmitter at height ``h_tx`` and a receiver at height ``h_rx`` above a
flat, perfectly reflecting ground are separated by a ground distance ``d``.
The received signal is the superposition of the line-of-sight ray and one
ground-reflected ray; their relative phase decides between constructive and
destructive interference.  All functions are pure and accept scalar or
ndarray distances.

Powers are handled in linear watts throughout; conversion to decibels
happens only at presentation boundaries via :func:`to_decibel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

TWO_PI = 2.0 * math.pi

# null_distances lists at most this many minima (8 MB per array of them).
MAX_NULLS = 10**6


def _positive_finite(*values) -> bool:
    """True when every value is a finite number above zero (NaN fails)."""
    for v in values:  # a loop, not all(): the power kernels call this per query
        if not 0.0 < v < math.inf:
            return False
    return True


@dataclass(frozen=True)
class SceneGeometry:
    """Antenna heights above the reflecting ground plane, in meters."""

    h_tx: float
    h_rx: float

    def __post_init__(self):
        if not _positive_finite(self.h_tx, self.h_rx):
            raise ValueError("antenna heights must be positive and finite")

    @cached_property
    def _heights(self):
        """:func:`_height_terms` of this geometry, computed on first use."""
        return _height_terms(self.h_tx, self.h_rx)


@dataclass(frozen=True)
class CarrierFrequency:
    """A carrier frequency in hertz with its derived angular frequency."""

    f: float

    def __post_init__(self):
        # The kernels square omega, which overflows above about 2.1e153 Hz,
        # and c/(2*omega), which overflows below about 1.8e-147 Hz.
        omega = self.omega
        amplitude = SPEED_OF_LIGHT / (2.0 * omega) if omega else math.inf
        if not _positive_finite(self.f, omega * omega, amplitude * amplitude):
            raise ValueError("frequency must be positive, with a finite angular rate 2*pi*f "
                             "whose square and (c/(2*omega))**2 are finite and nonzero "
                             "(f from about 1.8e-147 to 2.1e153 Hz)")

    @property
    def omega(self) -> float:
        """Angular frequency 2*pi*f [rad/s]."""
        return TWO_PI * self.f


@dataclass(frozen=True)
class FrequencyPair:
    """Two carriers used in parallel, canonically ordered f1 < f2."""

    f1: float
    f2: float

    def __post_init__(self):
        for f in (self.f1, self.f2):
            CarrierFrequency(f)  # the same range as a single carrier
        if not self.f1 < self.f2:
            raise ValueError("pair requires f1 < f2")

    @classmethod
    def of(cls, f_a: float, f_b: float) -> "FrequencyPair":
        """Build a pair from two distinct frequencies in either order."""
        if f_a == f_b:
            raise ValueError("pair requires two distinct frequencies")
        return cls(min(f_a, f_b), max(f_a, f_b))

    @classmethod
    def from_spacing(cls, f1: float, delta_f: float) -> "FrequencyPair":
        """Build a pair from the lower carrier and a positive spacing."""
        if delta_f <= 0:
            raise ValueError("spacing must be positive")
        return cls(f1, f1 + delta_f)

    @property
    def omega1(self) -> float:
        return TWO_PI * self.f1

    @property
    def omega2(self) -> float:
        return TWO_PI * self.f2

    @property
    def delta_f(self) -> float:
        """Frequency spacing f2 - f1 [Hz]."""
        return self.f2 - self.f1

    @property
    def delta_omega(self) -> float:
        """Angular frequency spacing omega2 - omega1 [rad/s]."""
        return TWO_PI * self.delta_f


@dataclass(frozen=True)
class PathLengths:
    """Line-of-sight and reflected path lengths, in meters."""

    l_los: float
    l_ref: float


def _height_terms(h_tx, h_rx):
    """(dh^2, hs^2, 4*h_tx*h_rx) for :func:`_ray_terms`, dh and hs the height
    difference and sum; broadcasts, so rows may carry their own h_rx."""
    dh = h_tx - h_rx
    hs = h_tx + h_rx
    return dh * dh, hs * hs, 4.0 * h_tx * h_rx


def _ray_terms(heights, d):
    """Unchecked (l_los, l_ref, q) at distances d, q = l_ref - l_los; broadcasts."""
    dh_sq, hs_sq, q_num = heights
    d_sq = d * d
    l_los = np.sqrt(dh_sq + d_sq)
    l_ref = np.sqrt(hs_sq + d_sq)
    return l_los, l_ref, q_num / (l_los + l_ref)


def _checked_ray_terms(geom: SceneGeometry, d, p_t: float):
    """Validate a power query and return its (l_los, l_ref, q)."""
    if not _positive_finite(p_t):
        raise ValueError("transmit power must be positive and finite")
    d = np.asarray(d, dtype=float)
    if (d < 0).any():
        raise ValueError("ground distance must be nonnegative")
    l_los, l_ref, q = _ray_terms(geom._heights, d)
    if (l_los == 0.0).any():
        raise ValueError("singular geometry: d=0 with h_tx == h_rx")
    return l_los, l_ref, q


def path_lengths(geom: SceneGeometry, d) -> PathLengths:
    """Path lengths of the direct and ground-reflected rays.

    l_los = sqrt((h_tx - h_rx)^2 + d^2)
    l_ref = sqrt((h_tx + h_rx)^2 + d^2)

    ``d`` may be a scalar or an ndarray of ground distances in meters.
    """
    d = np.asarray(d, dtype=float)
    if (d < 0).any():
        raise ValueError("ground distance must be nonnegative")
    l_los, l_ref, _ = _ray_terms(geom._heights, d)
    if d.ndim == 0:
        return PathLengths(float(l_los), float(l_ref))
    return PathLengths(l_los, l_ref)


def path_difference(geom: SceneGeometry, d):
    """Excess length l_ref - l_los of the reflected ray, in meters.

    Evaluated as 4*h_tx*h_rx / (l_los + l_ref), which is exact and avoids
    the catastrophic cancellation of the direct difference once d greatly
    exceeds the antenna heights.
    """
    lens = path_lengths(geom, d)
    return 4.0 * geom.h_tx * geom.h_rx / (lens.l_los + lens.l_ref)


def _invert_path_difference(heights, q):
    """Distance at which :func:`_ray_terms`' q = l_ref - l_los, on the same
    height terms, equals q, 0 < q <= 2*min(h_tx, h_rx).

    l_los = (4*h_tx*h_rx - q^2)/(2q) and d^2 = l_los^2 - (h_tx - h_rx)^2,
    clamped at zero against roundoff at the supremum.  Broadcasts.
    """
    dh_sq, _, q_num = heights
    l_los = (q_num - q * q) / (2.0 * q)
    return np.sqrt(np.maximum(l_los * l_los - dh_sq, 0.0))


def phase_shift(geom: SceneGeometry, d, freq: CarrierFrequency):
    """Relative phase (omega/c)*(l_ref - l_los) between the two rays [rad].

    Strictly decreasing in d: it falls from :func:`max_phase_shift` at d=0
    towards zero as d grows.  Destructive interference occurs at multiples
    of 2*pi.
    """
    return freq.omega / SPEED_OF_LIGHT * path_difference(geom, d)


def _max_phase(h_min, omega):
    """Phase supremum 2*omega*h_min/c, h_min = min(h_tx, h_rx); broadcasts."""
    return 2.0 * omega * h_min / SPEED_OF_LIGHT


def max_phase_shift(geom: SceneGeometry, freq: CarrierFrequency) -> float:
    """Supremum of the phase shift, reached in the limit d -> 0 [rad].

    Equals 2*omega*min(h_tx, h_rx)/c.
    """
    return float(_max_phase(min(geom.h_tx, geom.h_rx), freq.omega))


def _k_max(h_min, omega):
    """Number of nulls at angular rate(s) omega, as float; broadcasts."""
    return np.floor(_max_phase(h_min, omega) / TWO_PI)


def k_max(geom: SceneGeometry, freq: CarrierFrequency) -> int:
    """Number of destructive-interference minima over d in (0, inf)."""
    return int(_k_max(min(geom.h_tx, geom.h_rx), freq.omega))


def _null_distance(h_tx, h_rx, omega, k):
    """Distance of the k-th null at angular rate omega; broadcasts over all four.

    Only meaningful for 1 <= k <= k_max; see :func:`null_distances`.
    """
    ck = SPEED_OF_LIGHT * math.pi * k
    w_rx = omega * h_rx
    w_tx = omega * h_tx
    a = ck * ck - w_rx * w_rx
    b = ck * ck - w_tx * w_tx
    scale = omega * SPEED_OF_LIGHT * math.pi * k
    # Both factors are <= 0 for k <= k_max; clamp the tiny negative products
    # that roundoff can produce right at the k_max boundary.
    return np.sqrt(np.maximum(a * b, 0.0) / (scale * scale))


def null_distances(geom: SceneGeometry, freq: CarrierFrequency) -> np.ndarray:
    """Distances d_k of the receive-power minima, largest first.

    The k-th minimum solves phase_shift(d_k) = 2*pi*k and is located at

        d_k^2 = ((c*pi*k)^2 - (omega*h_rx)^2) * ((c*pi*k)^2 - (omega*h_tx)^2)
                / (omega*c*pi*k)^2

    for k = 1..k_max, of which there may be at most :data:`MAX_NULLS`.
    """
    count = k_max(geom, freq)
    if count > MAX_NULLS:
        raise ValueError(f"{count} interference minima; at most {MAX_NULLS} are listed")
    k = np.arange(1, count + 1, dtype=float)
    return _null_distance(geom.h_tx, geom.h_rx, freq.omega, k)


def _single_coeffs(omega, p_t: float):
    """Per-carrier constants of :func:`receive_power_single`; broadcasts."""
    a = SPEED_OF_LIGHT / (2.0 * omega)
    return p_t * (a * a), omega / SPEED_OF_LIGHT


def _single_power(coeffs, l_los, l_ref, q):
    """Single-carrier power from :func:`_single_coeffs` and ray terms."""
    amplitude, rate = coeffs
    radial = 1.0 / l_los - 1.0 / l_ref
    cross = 2.0 * (1.0 - np.cos(rate * q)) / (l_los * l_ref)
    return amplitude * (radial * radial + cross)


def _lower_bound_coeffs(f1, f2, p_t: float):
    """Per-pair constants of :func:`sum_power_lower_bound`; broadcasts.

    With a_i = (P_t/2)*(c/2)^2/omega_i^2 the bound reads
    (a1 + a2)*(1/l^2 + 1/lr^2) - (2/(l*lr))*sqrt(a1^2 + a2^2 + 2*a1*a2*cos(phase)).
    """
    w1 = TWO_PI * f1
    w2 = TWO_PI * f2
    half_c = 0.5 * SPEED_OF_LIGHT
    scale = 0.5 * p_t * (half_c * half_c)
    a1 = scale / (w1 * w1)
    a2 = scale / (w2 * w2)
    return a1 + a2, a1 * a1 + a2 * a2, 2.0 * a1 * a2, TWO_PI * (f2 - f1) / SPEED_OF_LIGHT


def _lower_bound_power(coeffs, l_los, l_ref, q):
    """Envelope lower bound from :func:`_lower_bound_coeffs` and ray terms."""
    radial_coeff, env_const, env_cross, rate = coeffs
    inv_ll = 1.0 / (l_los * l_ref)
    radial = q * inv_ll  # 1/l - 1/lr
    # In place: a profit table evaluates this on its whole pair tensor.
    gap = np.sin(0.5 * rate * q)
    gap *= gap
    gap *= 2.0 * env_cross
    # env_sq >= (a1 - a2)^2 analytically; clamp fp undershoot.
    root = np.sqrt(np.maximum(env_const + env_cross - gap, 0.0))
    root += radial_coeff
    gap /= root
    gap *= 2.0 * inv_ll
    gap += radial_coeff * (radial * radial)
    return gap


def receive_power_single(
    geom: SceneGeometry,
    d,
    freq: CarrierFrequency,
    p_t: float = 1.0,
):
    """Receive power of a single carrier over the two-ray channel [W].

    P_r = P_t * (c/(2*omega))^2 *
          (1/l_los^2 + 1/l_ref^2 - 2*cos(dphi)/(l_los*l_ref))

    with dphi the phase shift between the rays.  The implementation groups
    the bracket as (1/l_los - 1/l_ref)^2 + 2*(1 - cos(dphi))/(l_los*l_ref),
    which is algebraically identical and never rounds below zero.

    Parameters
    ----------
    geom : SceneGeometry
        Antenna heights [m].
    d : float or ndarray
        Ground distance(s) [m]; d=0 is rejected when h_tx == h_rx because
        the line-of-sight length vanishes there.
    freq : CarrierFrequency
        Carrier.
    p_t : float
        Transmit power [W].
    """
    terms = _checked_ray_terms(geom, d, p_t)
    return _single_power(_single_coeffs(freq.omega, p_t), *terms)


def sum_power_two(
    geom: SceneGeometry,
    d,
    pair: FrequencyPair,
    p_t: float = 1.0,
):
    """Total receive power of two carriers sharing the transmit power [W].

    Each carrier transmits at P_t/2; the closed form is

    P_s = (P_t/2) * (c/2)^2 * [ (1/omega1^2 + 1/omega2^2) * (1/l^2 + 1/lr^2)
          - (2/(l*lr)) * (cos(dphi1)/omega1^2 + cos(dphi2)/omega2^2) ]

    It is evaluated as that sum: the single-carrier kernel of
    :func:`receive_power_single` at omega1 plus at omega2, each at P_t/2,
    on one set of ray terms.
    """
    terms = _checked_ray_terms(geom, d, p_t)
    lower = _single_power(_single_coeffs(pair.omega1, p_t / 2), *terms)
    upper = _single_power(_single_coeffs(pair.omega2, p_t / 2), *terms)
    return lower + upper


def sum_power_lower_bound(
    geom: SceneGeometry,
    d,
    pair: FrequencyPair,
    p_t: float = 1.0,
):
    """Lower envelope of the two-carrier sum power [W].

    Replaces the oscillating cosine pair in :func:`sum_power_two` by the
    magnitude of its analytic signal, leaving an oscillation at the spacing
    delta_omega only:

    lb = (P_t/2) * (c/2)^2 * [ (1/omega1^2 + 1/omega2^2) * (1/l^2 + 1/lr^2)
         - (2/(l*lr)) * sqrt(1/omega1^4 + 1/omega2^4
                             + 2*cos(delta_omega*(lr-l)/c)/(omega1^2*omega2^2)) ]

    Guaranteed <= sum_power_two(d) for every distance.  With a_i the two
    carriers' weights and gap = 4*a1*a2*sin^2(delta_omega*(lr-l)/(2c)), it is
    evaluated as (a1+a2)*(1/l-1/lr)^2 + (2/(l*lr))*gap/((a1+a2) + sqrt(env)),
    env = (a1+a2)^2 - gap: no two large terms cancel, unlike in the form above.
    """
    terms = _checked_ray_terms(geom, d, p_t)
    coeffs = _lower_bound_coeffs(pair.f1, pair.f2, p_t)
    if not _positive_finite(coeffs[1]):  # Python floats: no numpy call per query
        raise ValueError("carriers and transmit power put a1**2 + a2**2 outside the float range")
    return _lower_bound_power(coeffs, *terms)


def envelope_identity_residual(omega1, omega2, t):
    """Residual of the analytic-signal envelope identity, dimensionless.

    Evaluates |s + j*s_hat|^2 two ways for s = cos(omega1*t)/omega1^2 +
    cos(omega2*t)/omega2^2:

      expanded:    (cos a/w1^2 + cos b/w2^2)^2 + (sin a/w1^2 + sin b/w2^2)^2
      closed form: 1/w1^4 + 1/w2^4 + 2*cos((w2-w1)*t)/(w1^2*w2^2)

    and returns their absolute difference normalized by the envelope's
    maximum (1/w1^2 + 1/w2^2)^2, which keeps the residual meaningful even
    where the two near-equal sides almost cancel.  All arguments broadcast.
    """
    omega1 = np.asarray(omega1, dtype=float)
    omega2 = np.asarray(omega2, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(omega1 <= 0) or np.any(omega2 <= 0):
        raise ValueError("angular frequencies must be positive")
    a = omega1 * t
    b = omega2 * t
    iw1, iw2 = 1.0 / omega1**2, 1.0 / omega2**2
    expanded = (np.cos(a) * iw1 + np.cos(b) * iw2) ** 2 + (
        np.sin(a) * iw1 + np.sin(b) * iw2
    ) ** 2
    closed = iw1**2 + iw2**2 + 2.0 * np.cos((omega2 - omega1) * t) * iw1 * iw2
    out = np.abs(expanded - closed) / (iw1 + iw2) ** 2
    if out.ndim == 0:
        return float(out)
    return out


def to_decibel(p, reference: float = 1.0):
    """Convert a linear power ratio to decibels: 10*log10(p/reference).

    Zero powers map to -inf instead of raising; negative powers are
    rejected, and so is a reference that is not positive and finite.
    """
    if not _positive_finite(reference):
        raise ValueError("reference power must be positive and finite")
    p = np.asarray(p, dtype=float)
    if np.any(p < 0):
        raise ValueError("power must be nonnegative")
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(p / reference)
    if out.ndim == 0:
        return float(out)
    return out
