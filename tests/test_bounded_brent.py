"""The grid oracle's bounded Brent search against scipy's, bit for bit.

``worstcase._bounded_brent`` is scipy 1.17's ``_minimize_scalar_bounded``
on Python floats.  Here scipy is the reference: for every bracket, the port
must return the same ``x``, the same ``fun`` and the same evaluation count as
``scipy.optimize.minimize_scalar(method="bounded")`` with the same ``xatol``.
The brackets are those that ``grid_min`` polishes on criterion-6 draws, plus
synthetic functions for the branches that smooth powers seldom reach: ties,
a minimum at a bracket end, parabolic steps of +0.0 and -0.0, the
500-evaluation cap, and NaN or infinite values, where the port mirrors scipy
rather than refusing.
"""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from freqassign import (
    CarrierFrequency,
    DistanceInterval,
    FrequencyPair,
    SceneGeometry,
    grid_min,
    phase_uniform_grid,
    receive_power_single,
    sum_power_lower_bound,
)
from freqassign import worstcase
from freqassign.worstcase import _bounded_brent

SRC = Path(__file__).resolve().parent.parent / "src"


def _bits(value) -> bytes:
    return struct.pack("<d", float(value))


def _scipy(func, lo, hi, xatol):
    # scipy's numpy scalars warn on inf - inf and on overflow; the port's floats do not.
    with np.errstate(invalid="ignore", over="ignore"):
        res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return res.x, res.fun, res.nfev


def _assert_same(func, lo, hi, xatol):
    """The port and scipy on one bracket: same x, fun and count, bit for bit."""
    x, fun, count = _bounded_brent(func, lo, hi, xatol)
    ref_x, ref_fun, ref_count = _scipy(func, lo, hi, xatol)
    assert (_bits(x), _bits(fun), count) == (_bits(ref_x), _bits(ref_fun), ref_count)
    return x, fun, count


def test_every_polish_bracket_of_criterion_6_draws(monkeypatch):
    # grid_min's own calls of the port, each held against scipy as it runs.
    brackets = []

    def checked(func, lo, hi, xatol):
        brackets.append(_assert_same(func, lo, hi, xatol))
        return brackets[-1]

    monkeypatch.setattr(worstcase, "_bounded_brent", checked)
    rng = np.random.default_rng(27)
    for _ in range(300):  # drawn as in criterion 6
        geom = SceneGeometry(*rng.uniform(1.0, 15.0, size=2))
        d_min = rng.uniform(5.0, 400.0)
        interval = DistanceInterval(d_min, d_min + rng.uniform(1.0, min(100.0, 500.0 - d_min)))
        f1, f2 = np.sort(rng.uniform(0.4e9, 3e9, size=2))
        freq, pair = CarrierFrequency(f2), FrequencyPair(f1, f2)
        grid_min(lambda d: receive_power_single(geom, d, freq), interval,
                 phase_uniform_grid(geom, interval, freq.omega))
        grid_min(lambda d: sum_power_lower_bound(geom, d, pair), interval,
                 phase_uniform_grid(geom, interval, pair.delta_omega))
    # Two edge brackets per call at least, and interior ones beside them.
    assert len(brackets) > 4 * 300


def _vee(x):
    return max(x, -2.0 * x)


@pytest.mark.parametrize(
    "func, lo, hi, xatol",
    [
        pytest.param(lambda x: 1.0, 0.0, 1.0, 1e-12, id="flat-ties"),
        pytest.param(lambda x: x, 0.0, 1.0, 1e-12, id="rising-minimum-at-lo"),
        pytest.param(lambda x: -x, 0.0, 1.0, 1e-12, id="falling-minimum-at-hi"),
        # The parabola lands on the vertex, and the next one steps by p/q with
        # p = +0.0 and p = -0.0 respectively.
        pytest.param(lambda x: (x - 0.5) ** 2, 0.0, 1.0, 1e-12, id="zero-parabolic-step"),
        pytest.param(lambda x: (x - 0.25) ** 2, -1.0, 1.0, 1e-12, id="minus-zero-parabolic-step"),
        pytest.param(lambda x: float(math.floor((x - 0.25) * 8.0)) ** 2, 0.0, 1.0, 1e-12, id="staircase"),
        pytest.param(lambda x: (x - 1.0) ** 2 * 8.0, -3.0, 1.0, 0.1, id="coarse-xatol"),
        pytest.param(lambda x: (x - 1.0) ** 4 + 0.25 * (x - 1.0) ** 2, -3.0, -2.0, 1e-3, id="quartic-at-hi"),
        pytest.param(lambda x: max(x + 1.875, -(x + 1.875)), -4.0, 2.0, 0.01, id="abs-kink"),
        # With xatol 0 and the minimum at 0, tol1 shrinks with x: no stop
        # before the cap, and both return their best point after 500 calls.
        pytest.param(abs, 0.0, 1.0, 0.0, id="cap-abs"),
        pytest.param(_vee, -2.0, 1.0, 0.0, id="cap-vee"),
        pytest.param(lambda x: x**4 + x**2, 0.0, 3.0, 0.0, id="cap-quartic"),
        pytest.param(lambda x: x * x, -1.0, 1.0, 0.0, id="cap-square"),
        pytest.param(lambda x: 5.0, 2.0, 2.0, 1e-12, id="empty-bracket"),
        pytest.param(lambda x: math.nan, 0.0, 1.0, 1e-12, id="nan-everywhere"),
        pytest.param(lambda x: math.nan if x < 0.5 else (x - 0.7) ** 2, 0.0, 1.0, 1e-12, id="nan-first-point"),
        pytest.param(lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2, 0.0, 1.0, 1e-12, id="nan-past-the-minimum"),
        pytest.param(lambda x: math.inf if x < 0.2 else x, 0.0, 1.0, 1e-12, id="inf-below"),
        pytest.param(lambda x: -math.inf if x > 0.9 else -x, 0.0, 1.0, 1e-12, id="minus-inf-above"),
        pytest.param(lambda x: math.nan, 0.0, 1.0, math.nan, id="nan-xatol"),
        # A step past the float maximum: x = inf, where both stop.
        pytest.param(lambda x: -x, 1e308, 1.7976931348623157e308, 0.0, id="step-overflows"),
    ],
)
def test_synthetic_brackets(func, lo, hi, xatol):
    _assert_same(func, lo, hi, xatol)


def test_cap_cases_reach_the_cap():
    assert _bounded_brent(abs, 0.0, 1.0, 0.0)[2] == worstcase._BRENT_MAXFUN == 500


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (2.0, 1.0)])
def test_bounds_scipy_refuses_are_refused(lo, hi):
    with pytest.raises(ValueError):
        _scipy(abs, lo, hi, 1e-12)
    with pytest.raises(ValueError):
        _bounded_brent(abs, lo, hi, 1e-12)


def test_grid_min_leaves_scipy_unimported():
    # In a fresh interpreter: the oracle runs, single and pair, on no scipy.
    code = (
        "import sys\n"
        "from freqassign import *\n"
        "g, iv = SceneGeometry(10.0, 1.5), DistanceInterval(30.0, 100.0)\n"
        "f, p = CarrierFrequency(2.4e9), FrequencyPair(2.4e9, 2.65e9)\n"
        "grid_min(lambda d: receive_power_single(g, d, f), iv, phase_uniform_grid(g, iv, f.omega))\n"
        "grid_min(lambda d: sum_power_lower_bound(g, d, p), iv, phase_uniform_grid(g, iv, p.delta_omega))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
