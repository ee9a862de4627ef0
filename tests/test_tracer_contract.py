"""The benchmark tracer's contract with the package.

A traced benchmark run (perfbench/spans.py) swaps module attributes of
freqassign for timing wrappers.  Every name it patches must exist, a
traced call must return what the untraced call returns, and every
attribute must be back afterwards.  The tracer's source is compiled from
its file here, so the benchmark's directory is only read.
"""

import inspect
import types
from pathlib import Path

from freqassign import DistanceInterval, FrequencyPair, SceneGeometry
from freqassign import bench, worstcase
from freqassign.bench import ScenarioConfig, generate_scenario
from freqassign.profits import SystemConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_traced_calls_match_untraced_and_every_attribute_is_restored():
    spans = load_spans()
    config = ScenarioConfig(n_users=3, n_freqs=8, band=(0.4e9, 3e9), master_seed=2)
    users, freqs = generate_scenario(config, 0)
    system = SystemConfig(h_tx=config.h_tx, p_t=config.p_t)
    geom, interval = SceneGeometry(10.0, 1.5), DistanceInterval(30.0, 100.0)
    pair = FrequencyPair(0.9e9, 2.4e9)
    trial = bench.run_trial(users, freqs, system)
    worst = worstcase.worst_case_pair(geom, interval, pair)

    tracer = spans.Tracer()
    replacements = spans.layer_wrappers(tracer)
    before = [(owner, name, inspect.getattr_static(owner, name)) for owner, name, _ in replacements]
    with spans.swapped(replacements):
        for owner, name, wrapper in replacements:
            assert inspect.getattr_static(owner, name) is wrapper
        tracer.op = 0
        traced_trial = bench.run_trial(users, freqs, system)
        traced_worst = worstcase.worst_case_pair(geom, interval, pair)
        tracer.op = None

    assert traced_trial.objectives_w == trial.objectives_w
    assert traced_trial.power_db == trial.power_db
    assert traced_worst == worst
    assert {"profits.table", "qmkp.greedy", "worstcase.pair"} <= {s["name"] for s in tracer.spans}
    for owner, name, original in before:
        assert inspect.getattr_static(owner, name) is original
