"""Scalar calls of the channel kernels: one distance check on a numpy scalar,
and kernel constants from a small cache.

The grid oracle's Brent polish calls the public kernels with one Python
float distance about a hundred times per query, nearly always at the carrier
or pair and transmit power of the call before.  ``_checked_ray_terms`` makes
d a numpy scalar rather than a 0-d array and counts its guards with
``np.count_nonzero``, and ``receive_power_single``, ``sum_power_two`` and
``sum_power_lower_bound`` take their constants from ``channel._cached_kernel``.
Every result keeps the bits and the type of the expressions these replace,
kept below as the reference, and every argument is accepted or refused as
before; only a NaN distance, which the reference let through, is refused.
A carrier or a transmit power that is not a number (``channel._is_number``:
a bool, a str, None, an array of any shape) is refused with its named
ValueError, by the constructors and the kernels alike.
"""

import math

import numpy as np
import pytest

from freqassign import (
    SPEED_OF_LIGHT,
    CarrierFrequency,
    FrequencyPair,
    PathLengths,
    SceneGeometry,
    path_lengths,
    phase_shift,
    receive_power_single,
    sum_power_lower_bound,
    sum_power_two,
)
from freqassign import channel
from freqassign.channel import _kernel, _ray_terms, path_difference
from conftest import EX_FREQ_HIGH, EX_GEOM, EX_PAIR


def _reference_terms(geom, d):
    d = np.asarray(d, dtype=float)
    if (d < 0).any():
        raise ValueError("ground distance must be nonnegative")
    return _ray_terms(geom._heights, d)


def _reference_power(geom, d, kernel, other=None):
    terms = _reference_terms(geom, d)
    if (terms[0] == 0.0).any():
        raise ValueError("singular geometry: d=0 with h_tx == h_rx")
    power = kernel[2](kernel[1], *terms)
    return power if other is None else power + other[2](other[1], *terms)


def _reference_path_lengths(geom, d):
    l_los, l_ref, _ = _reference_terms(geom, d)
    if l_los.ndim == 0:
        return PathLengths(float(l_los), float(l_ref))
    return PathLengths(l_los, l_ref)


def _reference_path_difference(geom, d):
    q = _reference_terms(geom, d)[2]
    return float(q) if q.ndim == 0 else q


# name: (function under test, reference); each takes (geom, d, freq, pair, p_t).
FUNCTIONS = {
    "receive_power_single": (
        lambda geom, d, freq, pair, p_t: receive_power_single(geom, d, freq, p_t),
        lambda geom, d, freq, pair, p_t: _reference_power(geom, d, _kernel(freq.f, None, p_t)),
    ),
    "sum_power_two": (
        lambda geom, d, freq, pair, p_t: sum_power_two(geom, d, pair, p_t),
        lambda geom, d, freq, pair, p_t: _reference_power(
            geom, d, _kernel(pair.f1, None, p_t, 2), _kernel(pair.f2, None, p_t, 2)
        ),
    ),
    "sum_power_lower_bound": (
        lambda geom, d, freq, pair, p_t: sum_power_lower_bound(geom, d, pair, p_t),
        lambda geom, d, freq, pair, p_t: _reference_power(geom, d, _kernel(pair.f1, pair.f2, p_t)),
    ),
    "path_lengths": (
        lambda geom, d, freq, pair, p_t: path_lengths(geom, d),
        lambda geom, d, freq, pair, p_t: _reference_path_lengths(geom, d),
    ),
    "path_difference": (
        lambda geom, d, freq, pair, p_t: path_difference(geom, d),
        lambda geom, d, freq, pair, p_t: _reference_path_difference(geom, d),
    ),
    "phase_shift": (
        lambda geom, d, freq, pair, p_t: phase_shift(geom, d, freq),
        lambda geom, d, freq, pair, p_t: freq.omega / SPEED_OF_LIGHT * _reference_path_difference(geom, d),
    ),
}
KERNELS = ("receive_power_single", "sum_power_two", "sum_power_lower_bound")

DISTANCES = [0.0, 1.5, 46.66, 123.4, 1e6, math.inf]
DISTANCE_FORMS = {
    "float": 123.4,
    "int": 123,
    "float64": np.float64(123.4),
    "0-d array": np.array(123.4),
    "list": DISTANCES,
    "1-D array": np.array(DISTANCES),
    "2-D array": np.array(DISTANCES).reshape(2, 3),
}


def _same(a, b) -> bool:
    """Same type, and the same shape and bits (field by field for PathLengths)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, PathLengths):
        return _same(a.l_los, b.l_los) and _same(a.l_ref, b.l_ref)
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(call):
    """("value", result) or ("raises", exception type, message) of ``call()``."""
    try:
        return ("value", call())
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return ("raises", type(exc), str(exc))


def _same_outcome(a, b) -> bool:
    if a[0] != b[0]:
        return False
    return _same(a[1], b[1]) if a[0] == "value" else a[1:] == b[1:]


@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("form", DISTANCE_FORMS)
@pytest.mark.parametrize("geom", [EX_GEOM, SceneGeometry(5.0, 5.0)], ids=["10/1.5 m", "5/5 m"])
def test_same_bits_and_types_as_the_reference(name, form, geom):
    """At equal heights the arrays hold d=0, which both refuse alike."""
    new, reference = FUNCTIONS[name]
    args = (geom, DISTANCE_FORMS[form], EX_FREQ_HIGH, EX_PAIR, 1.0)
    for _ in range(2):  # a cold cache, then a warm one
        assert _same_outcome(_outcome(lambda: new(*args)), _outcome(lambda: reference(*args)))


def test_infinite_distance_gives_zero_power():
    for name in KERNELS:
        assert FUNCTIONS[name][0](EX_GEOM, math.inf, EX_FREQ_HIGH, EX_PAIR, 1.0) == 0.0
    assert path_lengths(EX_GEOM, math.inf) == PathLengths(math.inf, math.inf)
    assert path_difference(EX_GEOM, math.inf) == 0.0


def test_repeated_calls_build_the_kernel_once():
    channel._cached_kernel.cache_clear()
    for d in (30.0, 40.0, 50.0):
        receive_power_single(EX_GEOM, d, EX_FREQ_HIGH)
    info = channel._cached_kernel.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize(
    "freq, p_t, match",
    [
        (EX_FREQ_HIGH, -1.0, "transmit power must be positive and finite"),
        (EX_FREQ_HIGH, math.nan, "transmit power must be positive and finite"),
        (CarrierFrequency(1e-140), 1e20, "outside the float range"),
    ],
    ids=["negative", "nan", "amplitude overflow"],
)
@pytest.mark.parametrize("name", KERNELS)
def test_refusal_raises_on_every_call(name, freq, p_t, match):
    channel._cached_kernel.cache_clear()
    pair = FrequencyPair(freq.f, 2.0 * freq.f)
    for _ in range(2):
        with pytest.raises(ValueError, match=match):
            FUNCTIONS[name][0](EX_GEOM, 30.0, freq, pair, p_t)


@pytest.mark.parametrize("name", KERNELS)
def test_one_carrier_at_two_transmit_powers(name):
    channel._cached_kernel.cache_clear()
    new, reference = FUNCTIONS[name]
    d = np.array([30.0, 77.7])
    results = {}
    for p_t in (1.0, 2.0, 1.0, 2.0):
        results.setdefault(p_t, []).append(new(EX_GEOM, d, EX_FREQ_HIGH, EX_PAIR, p_t))
    for p_t, calls in results.items():
        for power in calls:
            assert _same(power, reference(EX_GEOM, d, EX_FREQ_HIGH, EX_PAIR, p_t))
    assert not _same(results[1.0][0], results[2.0][0])


def test_sum_after_single_at_the_same_carrier_and_power():
    """sum_power_two builds its carriers at p_t/2 (shares 2): a carrier cached
    at the full p_t must not stand in for them, nor the other way round."""
    channel._cached_kernel.cache_clear()
    d, p_t = 61.0, 3.0
    first = sum_power_two(EX_GEOM, d, EX_PAIR, p_t)
    singles = [receive_power_single(EX_GEOM, d, CarrierFrequency(f), p_t) for f in (EX_PAIR.f1, EX_PAIR.f2)]
    assert _same(sum_power_two(EX_GEOM, d, EX_PAIR, p_t), first)
    assert _same(first, FUNCTIONS["sum_power_two"][1](EX_GEOM, d, None, EX_PAIR, p_t))
    assert _same(first, singles[0] / 2.0 + singles[1] / 2.0)


@pytest.mark.parametrize("name", KERNELS)
def test_float64_and_float_keys_give_equal_bits(name):
    new = FUNCTIONS[name][0]
    d = 88.8
    as_float = (CarrierFrequency(2.4e9), FrequencyPair(2.4e9, 2.5e9), 1.0)
    as_float64 = (
        CarrierFrequency(np.float64(2.4e9)),
        FrequencyPair(np.float64(2.4e9), np.float64(2.5e9)),
        np.float64(1.0),
    )
    channel._cached_kernel.cache_clear()
    first = new(EX_GEOM, d, *as_float)
    assert _same(new(EX_GEOM, d, *as_float64), first)
    channel._cached_kernel.cache_clear()
    assert _same(new(EX_GEOM, d, *as_float64), first)


# Carrier (f1, f2) and transmit power forms; the float32 values equal the
# float ones exactly, so they hash alike but compute in float32.
FREQUENCY_FORMS = {
    "float": (2.4e9, 2.5e9),
    "int": (2_400_000_000, 2_500_000_000),
    "float64": (np.float64(2.4e9), np.float64(2.5e9)),
    "float32": (np.float32(2.4e9), np.float32(2.5e9)),
    "0-d array": (np.array(2.4e9), np.array(2.5e9)),
    "1-element array": (np.array([2.4e9]), np.array([2.5e9])),
}
POWER_FORMS = {
    "float": 0.5,
    "int": 2,
    "bool": True,
    "float64": np.float64(0.5),
    "float32": np.float32(0.5),
    "0-d array": np.array(0.5),
    "1-element array": np.array([0.5]),
    "2-element array": np.array([0.5, 1.0]),
    "str": "0.5",
    "None": None,
    "zero": 0.0,
    "inf": math.inf,
}
REFUSED_FREQUENCIES = ("0-d array", "1-element array")
REFUSED_POWERS = ("bool", "0-d array", "1-element array", "2-element array", "str", "None", "zero", "inf")


@pytest.mark.parametrize("p_t", POWER_FORMS)
@pytest.mark.parametrize("freqs", FREQUENCY_FORMS)
@pytest.mark.parametrize("name", KERNELS)
def test_argument_types_accepted_or_refused_as_before(name, freqs, p_t):
    """Each form after a float call at equal values, whose kernel is cached:
    the result must be the reference's, a refusal the same exception, and
    no argument may become an unhashable-key TypeError.  A carrier that is
    not a number is refused by its constructors, and a transmit power that
    is not a positive number by the kernels, each with its named ValueError."""
    new, reference = FUNCTIONS[name]
    f1, f2 = FREQUENCY_FORMS[freqs]
    if freqs in REFUSED_FREQUENCIES:
        for make in (lambda: CarrierFrequency(f1), lambda: FrequencyPair(f1, f2)):
            with pytest.raises(ValueError, match="^frequency must be positive, with a finite"):
                make()
        return
    freq, pair = CarrierFrequency(f1), FrequencyPair(f1, f2)
    refused = p_t in REFUSED_POWERS
    p_t = POWER_FORMS[p_t]
    d = np.array([30.0, 77.7])
    new(EX_GEOM, d, CarrierFrequency(2.4e9), FrequencyPair(2.4e9, 2.5e9), 0.5)
    expected = _outcome(lambda: reference(EX_GEOM, d, freq, pair, p_t))
    if refused:
        assert expected == ("raises", ValueError, "transmit power must be positive and finite")
    else:
        assert expected[0] == "value"
    for _ in range(2):
        got = _outcome(lambda: new(EX_GEOM, d, freq, pair, p_t))
        assert _same_outcome(got, expected), (got, expected)
