"""The channel kernels written into ``out``, and the page faults that saves.

Given ``out``, ``channel._single_power`` and ``channel._lower_bound_power``
compute their sine in it and their root on one temporary, and the table's
endpoint stage hands them its result block.  Without ``out`` they keep the
plain expressions, which scalars need.  Either way every bit must be that of
the expressions they replace, and only ``out`` may be written.

Without that, a paper-size trial (K=20, N=50) faulted about 120 pages a trial
in an interpreter that had not imported ``scipy.optimize``: its (users,
entries) temporaries of about 196 KB left and re-entered the heap each trial.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freqassign import SceneGeometry
from freqassign.channel import (
    _amplitude_bracket,
    _checked_ray_terms,
    _height_terms,
    _kernel,
    _ray_terms,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _old_single(coeffs, l_los, l_ref, q):
    amplitude, rate = coeffs
    power = np.sin(0.5 * rate * q)
    power *= power
    return _amplitude_bracket(amplitude, power, 4.0, l_los, l_ref, q)


def _old_bound(coeffs, l_los, l_ref, q):
    amplitude, cross, rate = coeffs
    power = np.sin(0.5 * rate * q)
    power *= power
    power *= cross
    power /= 1.0 + np.sqrt(1.0 - power)
    return _amplitude_bracket(amplitude, power, 2.0, l_los, l_ref, q)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def _kernel_and_old(pairs, f1, f2):
    _, coeffs, power = _kernel(f1, f2 if pairs else None, 1.0)
    return coeffs, power, _old_bound if pairs else _old_single


def _block(users, entries, seed):
    """Constants of ``entries`` carriers or pairs and ray terms of ``users``
    (columns), drawn as in a wideband table: the shapes of the endpoint stage."""
    rng = np.random.default_rng(seed)
    f = np.sort(rng.uniform(0.4e9, 3e9, size=(2, entries)), axis=0)
    heights = _height_terms(10.0, rng.uniform(1.0, 15.0, size=(users, 1)))
    return f, _ray_terms(heights, rng.uniform(5.0, 500.0, size=(users, 1)))


@pytest.mark.parametrize("pairs", [False, True], ids=["carrier", "pair"])
@pytest.mark.parametrize("users, entries", [(7, 40), (1, 1), (20, 1225)])
def test_arrays_match_the_old_expressions_and_write_only_out(pairs, users, entries):
    f, terms = _block(users, entries, seed=users + entries)
    coeffs, power, old = _kernel_and_old(pairs, f[0], f[1])
    inputs = [np.array(a, copy=True) for a in (*coeffs, *terms)]
    expected = old(coeffs, *terms)
    assert np.array_equal(_bits(power(coeffs, *terms)), _bits(expected))
    # ``out`` as the table hands it over: a view of a wider array.
    wider = np.full((users, entries + 1), -7.0)
    out = wider[:, :-1]
    assert power(coeffs, *terms, out=out) is out
    assert np.array_equal(_bits(out), _bits(expected))
    assert np.all(wider[:, -1] == -7.0)
    for before, after in zip(inputs, (*coeffs, *terms)):
        assert np.array_equal(_bits(before), _bits(after))


@pytest.mark.parametrize("pairs", [False, True], ids=["carrier", "pair"])
@pytest.mark.parametrize("d", [0.0, 3.7, 37.3, 412.0, 1e7])
def test_numpy_scalars_of_a_scalar_distance(pairs, d):
    # What _power passes for a scalar d: numpy float64 ray terms, float constants.
    terms = _checked_ray_terms(SceneGeometry(10.0, 1.5), d)
    coeffs, power, old = _kernel_and_old(pairs, 2.4e9, 2.65e9)
    result = power(coeffs, *terms)
    assert type(result) is np.float64
    assert _bits(result) == _bits(old(coeffs, *terms))


_FAULTS = r"""
import resource, sys
from freqassign.bench import ScenarioConfig, generate_scenario, run_trial
from freqassign.profits import SystemConfig

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

config = ScenarioConfig(n_users=20, n_freqs=50, master_seed=0)
system = SystemConfig(config.h_tx, config.p_t)
scenarios = [generate_scenario(config, t) for t in range(13)]
for users, freqs in scenarios:  # warm-up: three trials, then the ten measured
    run_trial(users, freqs, system)
counts = []
for users, freqs in scenarios[3:]:
    before = faults()
    run_trial(users, freqs, system)
    counts.append(faults() - before)
print("scipy.optimize" in sys.modules, *counts)
"""


def test_paper_trials_take_no_page_faults_without_scipy():
    # A fresh interpreter that never imports scipy.optimize.  The warm-up runs
    # the measured trials too: a trial that needs more heap than the three
    # before it grows it once, by tens of pages, and that is not the
    # per-trial churn this test is for (before the kernels wrote into out:
    # 86-153 faults every trial).
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _FAULTS], env=env, capture_output=True, text=True, check=True)
    loaded, *counts = out.stdout.split()
    assert loaded == "False"
    assert len(counts) == 10
    assert max(int(c) for c in counts) <= 10, counts
