"""In-memory span tracing at the freqassign layer boundaries.

The traced run swaps module attributes for timing wrappers (and puts the
originals back afterwards), so every call the program makes across a
layer boundary is seen without touching the program's sources.  A span
records its name, start, end, parent and operation id.  Hot leaf calls
(the channel kernels and ``value_density``, tens of thousands per trial)
are not kept one by one: they are summed per (operation, parent span,
leaf) so memory stays bounded, and their time still counts against the
parent's self time.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from freqassign import bench, channel, profits, qmkp, worstcase
from freqassign.worstcase import INTERIOR_NULL


@contextmanager
def swapped(replacements):
    """Set ``owner.name = value`` for each triple; restore on exit."""
    saved = [(owner, name, inspect.getattr_static(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Tracer:
    """Collects spans and leaf counters while ``op`` is set."""

    def __init__(self):
        self.op = None  # id of the operation in progress; None disables recording
        self.spans = []  # closed spans: dicts, see span()
        self.leaves = {}  # (op, parent name, leaf name) -> [calls, seconds, points]
        self._stack = []  # open spans: [id, name, start, child seconds]
        self._ids = 0

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span; ``attrs(args, result)`` adds fields."""

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._ids += 1
            parent = self._stack[-1] if self._stack else None
            frame = [self._ids, name, perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                if parent is not None:
                    parent[3] += duration
                record = {
                    "id": frame[0],
                    "name": name,
                    "parent": parent[0] if parent else None,
                    "op": self.op,
                    "start": frame[2],
                    "end": end,
                    "self": duration - frame[3],
                }
                self.spans.append(record)
            if attrs is not None:
                record.update(attrs(args, result))
            return result

        return wrapper

    def leaf(self, name, fn, points=None, timed=True):
        """Wrap a hot call: count it (and time it) under the enclosing span."""

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            key = (self.op, parent[1] if parent else None, name)
            stat = self.leaves.get(key)
            if stat is None:
                stat = self.leaves[key] = [0, 0.0, 0]
            stat[0] += 1
            if points is not None:
                stat[2] += points(args)
            if not timed:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat[1] += elapsed
                if parent is not None:
                    parent[3] += elapsed

        return wrapper

    def dump(self, path) -> None:
        """Write spans and leaf totals as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
            for (op, parent, name), (calls, seconds, points) in self.leaves.items():
                leaf = {"leaf": name, "op": op, "parent": parent, "calls": calls,
                        "seconds": seconds, "points": points}
                fh.write(json.dumps(leaf) + "\n")


def _distances(args) -> int:
    return int(np.size(args[1]))  # (geom, d, ...) for both channel kernels


def _interior(args, result) -> dict:
    return {"interior": result.candidate_kind == INTERIOR_NULL}


def _table_pairs(args, result) -> dict:
    users, freqs = args[0], args[1]
    return {"pairs": len(users) * len(freqs) * (len(freqs) - 1) // 2}


def _steps(args, result) -> dict:
    return {"steps": sum(len(items) for items in result.knapsacks)}


def _grid_points(args, result) -> dict:
    grid = args[2] if len(args) > 2 else None
    return {"points": int(np.size(grid)) if grid is not None else 0}


def layer_wrappers(tracer: Tracer):
    """(owner, attribute, wrapper) triples for every traced layer boundary.

    A function imported into several modules is wrapped once and set on
    each of them, so calls from any layer land in the same span name.
    """
    rx = tracer.leaf("channel.rx", channel.receive_power_single, points=_distances)
    lb = tracer.leaf("channel.lb", channel.sum_power_lower_bound, points=_distances)
    single = tracer.span("worstcase.single", worstcase.worst_case_single, _interior)
    pair = tracer.span("worstcase.pair", worstcase.worst_case_pair, _interior)
    from_table = qmkp.Instance.from_profit_table  # bound classmethod
    return [
        (channel, "receive_power_single", rx),
        (worstcase, "receive_power_single", rx),
        (channel, "sum_power_lower_bound", lb),
        (worstcase, "sum_power_lower_bound", lb),
        (worstcase, "worst_case_single", single),
        (profits, "worst_case_single", single),
        (worstcase, "worst_case_pair", pair),
        (profits, "worst_case_pair", pair),
        (worstcase, "grid_min", tracer.span("worstcase.grid_min", worstcase.grid_min, _grid_points)),
        (worstcase, "phase_uniform_grid",
         tracer.span("worstcase.phase_grid", worstcase.phase_uniform_grid)),
        (bench, "build_profit_table",
         tracer.span("profits.table", bench.build_profit_table, _table_pairs)),
        (qmkp.Instance, "from_profit_table",
         staticmethod(tracer.span("qmkp.instance", from_table))),
        (bench, "greedy_construct", tracer.span("qmkp.greedy", bench.greedy_construct, _steps)),
        (qmkp, "value_density", tracer.leaf("qmkp.value_density", qmkp.value_density, timed=False)),
        (bench, "assign_random", tracer.span("qmkp.random", bench.assign_random)),
        (bench, "assign_rr_simple", tracer.span("qmkp.rr_simple", bench.assign_rr_simple)),
        (bench, "assign_rr_block", tracer.span("qmkp.rr_block", bench.assign_rr_block)),
        (bench, "assign_rr_profits", tracer.span("qmkp.rr_profits", bench.assign_rr_profits)),
        (bench, "objective", tracer.span("qmkp.objective", bench.objective)),
        (bench, "generate_scenario", tracer.span("bench.scenario", bench.generate_scenario)),
    ]


ROOT_SPAN = "op"


def summarize(tracer: Tracer):
    """Per-name totals: spans {name: [calls, seconds, self seconds, attrs]}, leaves {name: [...]}."""
    spans = {}
    for record in tracer.spans:
        row = spans.setdefault(record["name"], [0, 0.0, 0.0, {}])
        row[0] += 1
        row[1] += record["end"] - record["start"]
        row[2] += record["self"]
        for key in ("interior", "pairs", "steps", "points"):
            if key in record:
                row[3][key] = row[3].get(key, 0) + int(record[key])
    leaves = {}
    for (_, parent, name), (calls, seconds, points) in tracer.leaves.items():
        row = leaves.setdefault(name, [0, 0.0, 0])
        row[0] += calls
        row[1] += seconds
        row[2] += points
    return spans, leaves


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """The per-layer metrics, per operation (times in ms, counts exact)."""
    spans, leaves = summarize(tracer)
    empty = [0, 0.0, 0.0, {}]

    def ms(name):
        return spans.get(name, empty)[1] * 1e3 / n_ops

    def calls(name):
        return spans.get(name, empty)[0] / n_ops

    def frac(name, key, base):
        return spans[name][3].get(key, 0) / base if base else 0.0

    rx = leaves.get("channel.rx", [0, 0.0, 0])
    lb = leaves.get("channel.lb", [0, 0.0, 0])
    kernel_s = rx[1] + lb[1]
    n_single = spans.get("worstcase.single", empty)[0]
    n_pair = spans.get("worstcase.pair", empty)[0]
    table_pairs = spans.get("profits.table", empty)[3].get("pairs", 0)
    vd_greedy = sum(
        c for (_, parent, name), (c, _, _) in tracer.leaves.items()
        if name == "qmkp.value_density" and parent == "qmkp.greedy"
    )
    return {
        "channel.rx_calls": rx[0] / n_ops,
        "channel.rx_ms": rx[1] * 1e3 / n_ops,
        "channel.lb_calls": lb[0] / n_ops,
        "channel.lb_points": lb[2] / n_ops,
        "channel.lb_ms": lb[1] * 1e3 / n_ops,
        "channel.points_per_s": (rx[2] + lb[2]) / kernel_s if kernel_s else 0.0,
        "worstcase.pair_calls": calls("worstcase.pair"),
        "worstcase.pair_ms": ms("worstcase.pair"),
        "worstcase.pair_interior_frac": frac("worstcase.pair", "interior", n_pair),
        "worstcase.single_calls": calls("worstcase.single"),
        "worstcase.single_ms": ms("worstcase.single"),
        "worstcase.single_interior_frac": frac("worstcase.single", "interior", n_single),
        "worstcase.grid_min_calls": calls("worstcase.grid_min"),
        "worstcase.grid_min_ms": ms("worstcase.grid_min"),
        "worstcase.grid_points": spans.get("worstcase.grid_min", empty)[3].get("points", 0) / n_ops,
        "profits.table_ms": ms("profits.table"),
        "profits.table_self_ms": spans.get("profits.table", empty)[2] * 1e3 / n_ops,
        "profits.exact_pair_frac": n_pair / table_pairs if table_pairs else 0.0,
        "qmkp.greedy_ms": ms("qmkp.greedy"),
        "qmkp.greedy_steps": spans.get("qmkp.greedy", empty)[3].get("steps", 0) / n_ops,
        "qmkp.value_density_calls": vd_greedy / n_ops,
        "qmkp.instance_ms": ms("qmkp.instance"),
        "qmkp.rr_profits_ms": ms("qmkp.rr_profits"),
        "qmkp.baselines_ms": ms("qmkp.random") + ms("qmkp.rr_simple") + ms("qmkp.rr_block"),
        "qmkp.objective_ms": ms("qmkp.objective"),
        "bench.scenario_ms": ms("bench.scenario"),
        "bench.trial_self_ms": spans.get(ROOT_SPAN, empty)[2] * 1e3 / n_ops if table_pairs else 0.0,
    }


def layer_table(tracer: Tracer, n_ops: int) -> str:
    """Text table of calls, total and self time per span or leaf, per operation."""
    spans, leaves = summarize(tracer)
    op_s = spans.get(ROOT_SPAN, [0, 0.0, 0.0, {}])[1]
    rows = [(name, c, s, own) for name, (c, s, own, _) in spans.items()]
    rows += [(name, c, s, s) for name, (c, s, _) in leaves.items()]
    rows.sort(key=lambda r: -r[3])
    lines = [f"{'span':<22}{'calls/op':>12}{'ms/op':>11}{'self ms/op':>12}{'self %':>8}"]
    for name, c, s, own in rows:
        share = 100.0 * own / op_s if op_s and name != "bench.scenario" else float("nan")
        lines.append(
            f"{name:<22}{c / n_ops:>12.1f}{s * 1e3 / n_ops:>11.3f}{own * 1e3 / n_ops:>12.3f}{share:>8.1f}"
        )
    shares = {}
    for name, _, _, own in rows:
        if name != "bench.scenario":
            layer = "bench" if name == ROOT_SPAN else name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + own
    if op_s:
        lines.append(
            "layer self-time shares of an operation: "
            + ", ".join(f"{k} {100.0 * v / op_s:.1f}%" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        )
    return "\n".join(lines)
