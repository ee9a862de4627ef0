"""Monte-Carlo benchmark of the assignment schemes.

Each trial draws a fresh scenario (frequencies from a band, users with
random heights and distance intervals), builds the profit table once, and
runs the greedy solver plus the four baselines on it.  Per-scheme
objectives are averaged in linear watts across trials and reported in dB
relative to K * P_t.  All randomness derives from (master_seed,
trial_index), so trials are reproducible and order-independent.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
import sys
import tempfile
import time
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .channel import CarrierFrequency, to_decibel
from .profits import SystemConfig, UserProfile, build_profit_table
from .qmkp import (
    Instance,
    assign_random,
    assign_rr_block,
    assign_rr_profits,
    assign_rr_simple,
    greedy_construct,
    objective,
)
from .worstcase import DistanceInterval

# The one scheme registry: name -> solver(instance, seed).  The lambdas look
# the solvers up in this module's globals at call time, so a caller that
# rebinds ``bench.greedy_construct`` (a tracer, say) sees its calls.
SOLVERS = {
    "greedy": lambda instance, seed: greedy_construct(instance),
    "random": lambda instance, seed: assign_random(instance, seed),
    "rr_simple": lambda instance, seed: assign_rr_simple(instance),
    "rr_block": lambda instance, seed: assign_rr_block(instance),
    "rr_profits": lambda instance, seed: assign_rr_profits(instance),
}


def _is_number(value) -> bool:
    """A finite real number; bool is an int, but never a number here."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# Type checks of ScenarioConfig's fields by annotation, run before any
# comparison: a config file may hold any JSON value.
_FIELD_CHECKS = {
    "int": lambda v: _is_number(v) and isinstance(v, numbers.Integral),
    "float": _is_number,
    "tuple[float, float]": lambda v: (
        isinstance(v, (tuple, list)) and len(v) == 2 and all(map(_is_number, v))
    ),
    "str": lambda v: isinstance(v, str),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Distributions and sizes for scenario generation."""

    n_users: int
    n_freqs: int
    band: tuple[float, float] = (2.4e9, 2.5e9)
    h_tx: float = 10.0
    p_t: float = 1.0
    h_rx_range: tuple[float, float] = (1.0, 3.0)
    d_min_range: tuple[float, float] = (20.0, 40.0)
    span_range: tuple[float, float] = (10.0, 100.0)
    trials: int = 100
    master_seed: int = 0
    freq_mode: str = "uniform"  # "uniform": i.i.d. draws; "grid": evenly spaced

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _FIELD_CHECKS[f.type](value):
                raise ValueError(f"{f.name}: expected {f.type}, got {value!r}")
        if self.n_users < 1 or self.n_freqs < 1:
            raise ValueError("need at least one user and one frequency")
        if not 0 < self.band[0] < self.band[1]:
            raise ValueError("band must satisfy 0 < f_lo < f_hi")
        for lo, hi in (self.h_rx_range, self.d_min_range, self.span_range):
            if not 0 < lo <= hi:
                raise ValueError("ranges must satisfy 0 < lo <= hi")
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        if self.freq_mode not in ("uniform", "grid"):
            raise ValueError("freq_mode must be 'uniform' or 'grid'")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ValueError("scenario config must be a JSON object")
        names = {f.name: f for f in fields(cls)}
        for key in data:
            if key not in names:
                raise ValueError(f"unknown scenario config key {key!r}")
        for f in names.values():
            if f.default is MISSING and f.name not in data:
                raise ValueError(f"scenario config lacks {f.name!r}")
        data = {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}
        return cls(**data)


def generate_scenario(
    config: ScenarioConfig, trial_index: int
) -> tuple[list[UserProfile], list[CarrierFrequency]]:
    """Draw one scenario, deterministic in (master_seed, trial_index).

    Frequencies are i.i.d. uniform over the band (redrawn on the
    astronomically unlikely collision) and returned sorted ascending; in
    "grid" mode they are evenly spaced over the band instead.  Users get
    h_rx, d_min and the interval span from their configured uniform ranges.
    """
    rng = np.random.default_rng((config.master_seed, trial_index, 0))
    f_lo, f_hi = config.band
    if config.freq_mode == "grid":
        hz = np.linspace(f_lo, f_hi, config.n_freqs)
    else:
        for _ in range(8):  # in a sane band a draw collides with probability ~1e-11
            hz = rng.uniform(f_lo, f_hi, size=config.n_freqs)
            if np.unique(hz).size == config.n_freqs:
                break
        else:
            raise ValueError(f"band too narrow for n_freqs={config.n_freqs} distinct draws")
        hz = np.sort(hz)
    freqs = [CarrierFrequency(float(f)) for f in hz]
    users = []
    for _ in range(config.n_users):
        h_rx = rng.uniform(*config.h_rx_range)
        d_min = rng.uniform(*config.d_min_range)
        span = rng.uniform(*config.span_range)
        users.append(UserProfile(h_rx, DistanceInterval(d_min, d_min + span)))
    return users, freqs


@dataclass
class TrialResult:
    """Objectives and timing of one benchmark trial."""

    objectives_w: dict[str, float]  # per scheme, watts
    power_db: dict[str, float]  # per scheme, 10*log10(objective / (K * P_t))
    greedy_time_s: float

    def to_dict(self) -> dict:
        return {
            "objectives_w": dict(self.objectives_w),
            "power_db": dict(self.power_db),
            "greedy_time_s": self.greedy_time_s,
        }


def run_trial(
    users: list[UserProfile],
    freqs: list[CarrierFrequency],
    system: SystemConfig,
    random_seed=0,
) -> TrialResult:
    """Build the profit table once and evaluate all five schemes on it."""
    table = build_profit_table(users, freqs, system)
    instance = Instance.from_profit_table(table)
    assignments = {}
    for name, solve in SOLVERS.items():
        start = time.perf_counter()
        assignments[name] = solve(instance, random_seed)
        if name == "greedy":
            greedy_time = time.perf_counter() - start
    scale = len(users) * system.p_t
    objectives = {name: objective(instance, a) for name, a in assignments.items()}
    power_db = {name: to_decibel(obj, scale) for name, obj in objectives.items()}
    return TrialResult(objectives, power_db, greedy_time)


@dataclass
class BenchReport:
    """Aggregated benchmark outcome, reproducible from the config."""

    config: ScenarioConfig
    mean_db: dict[str, float]  # linear-average objective per user, in dB
    greedy_time_s: dict[str, float]  # mean / min / max
    trial_results: list[TrialResult] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "mean_db": dict(self.mean_db),
            "greedy_time_s": dict(self.greedy_time_s),
            "trials": [t.to_dict() for t in self.trial_results],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["K", "N", "scheme", "mean_db", "time_mean_s", "time_min_s", "time_max_s"])
        for scheme in SOLVERS:
            row = [self.config.n_users, self.config.n_freqs, scheme, f"{self.mean_db[scheme]:.6g}"]
            if scheme == "greedy":
                row += [f"{self.greedy_time_s[stat]:.6g}" for stat in ("mean", "min", "max")]
            else:
                row += ["", "", ""]
            writer.writerow(row)
        return out.getvalue()


def run_benchmark(config: ScenarioConfig) -> BenchReport:
    """Run the configured number of independent trials and aggregate.

    Objectives are averaged in linear watts before the dB conversion; the
    wall-clock statistics cover the greedy solver only.
    """
    system = SystemConfig(h_tx=config.h_tx, p_t=config.p_t)
    results = [
        run_trial(
            *generate_scenario(config, t),
            system,
            random_seed=(config.master_seed, t, 1),
        )
        for t in range(config.trials)
    ]
    scale = config.n_users * config.p_t
    mean_db = {
        scheme: to_decibel(
            float(np.mean([r.objectives_w[scheme] for r in results])), scale
        )
        for scheme in SOLVERS
    }
    times = np.array([r.greedy_time_s for r in results])
    stats = {"mean": float(times.mean()), "min": float(times.min()), "max": float(times.max())}
    return BenchReport(config, mean_db, stats, results)


def write_output(text: str, destination) -> None:
    """Write ``text`` to a file-like object, to stdout (None or "-"), or to a path.

    A path is written whole or not at all: the text goes to a temporary file
    in the destination's directory, which is then renamed over it.
    """
    if destination is None or destination == "-":
        destination = sys.stdout
    if hasattr(destination, "write"):
        destination.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(destination)), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give it the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, destination)
    except OSError as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        raise OSError(f"cannot write {destination}: {exc}") from exc


def export_report(report: BenchReport, fmt: str, destination) -> None:
    """Write a report as CSV or JSON with :func:`write_output`."""
    if fmt == "csv":
        text = report.to_csv()
    elif fmt == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    else:
        raise ValueError("format must be 'csv' or 'json'")
    write_output(text, destination)
