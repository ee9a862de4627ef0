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
    for v in values:  # a loop, not all(): the input types call this per query
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
        # The kernels square c/(2*omega), which overflows below about 1.8e-147 Hz.
        # No kernel squares omega; its square bounds the range above, at 2.1e153 Hz.
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


def _checked_ray_terms(geom: SceneGeometry, d):
    """(l_los, l_ref, q) of :func:`_ray_terms` at ground distances d >= 0."""
    d = np.asarray(d, dtype=float)
    if (d < 0).any():
        raise ValueError("ground distance must be nonnegative")
    return _ray_terms(geom._heights, d)


def path_lengths(geom: SceneGeometry, d) -> PathLengths:
    """Path lengths of the direct and ground-reflected rays.

    l_los = sqrt((h_tx - h_rx)^2 + d^2)
    l_ref = sqrt((h_tx + h_rx)^2 + d^2)

    ``d`` may be a scalar or an ndarray of ground distances in meters.
    """
    l_los, l_ref, _ = _checked_ray_terms(geom, d)
    if l_los.ndim == 0:
        return PathLengths(float(l_los), float(l_ref))
    return PathLengths(l_los, l_ref)


def path_difference(geom: SceneGeometry, d):
    """Excess length l_ref - l_los of the reflected ray, in meters.

    Evaluated as 4*h_tx*h_rx / (l_los + l_ref), which is exact and avoids
    the catastrophic cancellation of the direct difference once d greatly
    exceeds the antenna heights.
    """
    q = _checked_ray_terms(geom, d)[2]
    return float(q) if q.ndim == 0 else q


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


def null_distances(geom: SceneGeometry, freq: CarrierFrequency) -> np.ndarray:
    """Distances d_k of the receive-power minima, largest first.

    The k-th minimum solves phase_shift(d_k) = 2*pi*k and is located at

        d_k^2 = ((c*pi*k)^2 - (omega*h_rx)^2) * ((c*pi*k)^2 - (omega*h_tx)^2)
                / (omega*c*pi*k)^2

    for k = 1..k_max, of which there may be at most :data:`MAX_NULLS`.  It is
    computed as :func:`_invert_path_difference` of the path difference
    q = 2*pi*k*c/omega, which forms no power of omega and so stays finite over
    the whole range of :class:`CarrierFrequency`.
    """
    count = k_max(geom, freq)
    if count > MAX_NULLS:
        raise ValueError(f"{count} interference minima; at most {MAX_NULLS} are listed")
    k = np.arange(1, count + 1, dtype=float)
    return _invert_path_difference(geom._heights, TWO_PI * k * (SPEED_OF_LIGHT / freq.omega))


def _single_coeffs(omega, p_t: float):
    """Per-carrier constants of :func:`receive_power_single`; broadcasts."""
    a = SPEED_OF_LIGHT / (2.0 * omega)
    return p_t * (a * a), omega / SPEED_OF_LIGHT


def _amplitude_bracket(amplitude, sine, scale, l_los, l_ref, q):
    """amplitude*((q/(l*lr))**2 + scale*sine/(l*lr)), the shape of both kernels,
    in place on ``sine``: at most three arrays beside the ray terms."""
    inv_ll = 1.0 / (l_los * l_ref)
    sine *= scale * inv_ll
    radial = q * inv_ll  # 1/l - 1/lr
    radial *= radial
    sine += radial
    sine *= amplitude
    return sine


def _single_power(coeffs, l_los, l_ref, q):
    """Single-carrier power from :func:`_single_coeffs` and ray terms."""
    amplitude, rate = coeffs
    power = np.sin(0.5 * rate * q)
    power *= power
    return _amplitude_bracket(amplitude, power, 4.0, l_los, l_ref, q)  # 2*(1 - cos(phase))


def _lower_bound_coeffs(f1, f2, p_t: float):
    """Per-pair constants (A, 1 - t**2, rate) of :func:`sum_power_lower_bound`;
    broadcasts.  With a_i = (P_t/2)*(c/(2*omega_i))**2 and rho = (f1/f2)**2 = a2/a1:
    A = a1 + a2 = a1*(1 + rho), t = (a1 - a2)/A and 1 - t = 2*rho/(1 + rho), so
    (1 - t)*(1 + t) is good to a few ulp for every rho, and <= 1 in floats too;
    1 - t*t cancels as rho falls: 3e-5 off at f2/f1 = 1e6, 0.44 at 1e8."""
    rho = (f1 / f2) ** 2
    one_minus_t = 2.0 * rho / (1.0 + rho)
    amplitude = _single_coeffs(TWO_PI * f1, 0.5 * p_t)[0] * (1.0 + rho)
    return amplitude, one_minus_t * (2.0 - one_minus_t), TWO_PI * (f2 - f1) / SPEED_OF_LIGHT


def _lower_bound_power(coeffs, l_los, l_ref, q):
    """Envelope lower bound from :func:`_lower_bound_coeffs` and ray terms."""
    amplitude, cross, rate = coeffs
    power = np.sin(0.5 * rate * q)
    power *= power
    power *= cross  # g = (1 - t**2)*sin^2(phase/2) <= 1, so the root needs no clamp
    power /= 1.0 + np.sqrt(1.0 - power)  # 1 - sqrt(1 - g), without cancelling
    return _amplitude_bracket(amplitude, power, 2.0, l_los, l_ref, q)


def _kernel(f1, f2, p_t: float, shares: int = 1):
    """``(omega, coeffs, power)`` of carriers ``f1`` (``f2`` None), each sent at
    p_t/shares, or of pairs (f1, f2), f1 < f2, sharing p_t: omega the rate of
    the oscillation (the carrier, or the pair's spacing), power
    :func:`_single_power` or :func:`_lower_bound_power`, coeffs its constants,
    the first one the amplitude and the last one omega / c.  Refuses a transmit
    power that is not positive and finite, then an amplitude that leaves the
    float range: a carrier's P_t*(c/(2*omega))**2, a pair's a1 + a2.  The
    constants are formed without numpy's overflow warning, so an overflow is
    only the refusal, and arrays are checked with one ``.all()``.
    """
    if not 0.0 < p_t < math.inf:  # NaN fails too
        raise ValueError("transmit power must be positive and finite")
    with np.errstate(over="ignore"):
        if f2 is None:
            omega = TWO_PI * f1
            coeffs, power = _single_coeffs(omega, p_t / shares), _single_power
            what = "carrier and transmit power put P_t*(c/(2*omega))**2"
        else:
            omega = TWO_PI * (f2 - f1)
            coeffs, power = _lower_bound_coeffs(f1, f2, p_t), _lower_bound_power
            what = "carriers and transmit power put a1 + a2"
    v = coeffs[0]
    if not (0.0 < v < math.inf if type(v) is float else ((0.0 < v) & (v < math.inf)).all()):
        raise ValueError(what + " outside the float range")
    return omega, coeffs, power


def _power(geom: SceneGeometry, d, kernel, other=None):
    """Power of a :func:`_kernel` result, plus ``other``'s if given, at ground distances d [W]."""
    terms = _checked_ray_terms(geom, d)
    if (terms[0] == 0.0).any():
        raise ValueError("singular geometry: d=0 with h_tx == h_rx")
    power = kernel[2](kernel[1], *terms)
    return power if other is None else power + other[2](other[1], *terms)


def receive_power_single(
    geom: SceneGeometry,
    d,
    freq: CarrierFrequency,
    p_t: float = 1.0,
):
    """Receive power of a single carrier over the two-ray channel [W].

    P_r = P_t * (c/(2*omega))^2 *
          (1/l_los^2 + 1/l_ref^2 - 2*cos(dphi)/(l_los*l_ref))

    with dphi the phase shift between the rays.  The bracket is evaluated as
    (q/(l_los*l_ref))^2 + 4*sin^2(dphi/2)/(l_los*l_ref), q = l_ref - l_los: two
    nonnegative terms, accurate in the far field and at the nulls alike.

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
    return _power(geom, d, _kernel(freq.f, None, p_t))


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
    return _power(geom, d, _kernel(pair.f1, None, p_t, 2), _kernel(pair.f2, None, p_t, 2))


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

    In exact arithmetic it is <= sum_power_two(d) at every distance.  In floats
    it can exceed it where the carrier phases (omega_i/c)*q are large: at 1e7 m
    heights (7.8e8 rad, whose ulp is 1.2e-7 rad) by up to 5.3e-8 relative.  It
    is evaluated in the single-carrier kernel's shape, where no terms cancel:
    lb = A*[(1/l - 1/lr)^2 + (2/(l*lr))*g/(1 + sqrt(1 - g))], A = a1 + a2 with
    a_i = (P_t/2)*(c/(2*omega_i))^2, g = (1 - t^2)*sin^2(delta_omega*(lr-l)/(2c))
    and t = (a1 - a2)/A.
    """
    return _power(geom, d, _kernel(pair.f1, pair.f2, p_t))


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

    Zero powers map to -inf; negative and non-finite powers are rejected,
    and so is a reference that is not positive and finite.
    """
    if not _positive_finite(reference):
        raise ValueError("reference power must be positive and finite")
    p = np.asarray(p, dtype=float)
    if not ((p >= 0) & (p < math.inf)).all():  # NaN fails too
        raise ValueError("power must be nonnegative and finite")
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(p / reference)
    if out.ndim == 0:
        return float(out)
    return out
