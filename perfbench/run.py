"""freqassign benchmark: one seeded workload, timed end to end or traced per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-k20n50 --seed 0 --seconds 20 --trace 0

Each workload is a single-threaded, closed-loop series of operations over a
seeded operation set (see DESIGN.md).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` replays a fixed prefix
of the set, each operation untraced and then traced, and reports the
per-layer metrics.
Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
record with run metadata goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
HARD_LIMIT_S = 150.0  # stop starting operations; the whole run must end within 180 s
DEFAULT_SEED = 0
HELD_OUT_SEED = 4242  # re-check claims on this seed; never tune on it

REFERENCE_S = 2e-3  # nominal time of one reference loop; sets the ref-ms scale
REFERENCE_EVERY_S = 0.05

# The bounded metrics of BENCHMARK.json, in the final JSON line.
END_TO_END_UNITS = {
    "ref_ops_per_s": "1/ref-s",
    "ref_op_ms_p50": "ref-ms",
    "ref_op_ms_tail": "ref-ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded as well.
REPORTED_UNITS = dict(
    END_TO_END_UNITS, ops_per_s="1/s", op_ms_p50="ms", op_ms_tail="ms", setup_wall_s="s", failed_frac="1",
    greedy_db="dB", greedy_vs_random_db="dB", oracle_gap_db_max="dB", sample_oracle_gap_db_max="dB",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0, help="measurement budget; the first pass always completes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, help="smaller operation set, for smoke tests (skips the criterion-9 check)")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put the checkout's src/ first on the path and import freqassign from it."""
    src = ROOT / "src"
    if not (src / "freqassign" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no freqassign package under {src}")
    sys.path.insert(0, str(src))
    import freqassign

    if Path(freqassign.__file__).resolve().parent != src / "freqassign":
        raise SystemExit(f"perfbench: imported freqassign from {freqassign.__file__}, not {src}")
    return freqassign


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args, n_ops: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "command": shlex.join([Path(sys.orig_argv[0]).name, *sys.orig_argv[1:]]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": n_ops,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def setup_seconds(args) -> tuple[float, float]:
    """Median time of a fresh interpreter importing freqassign and building the inputs.

    Returns (host-corrected seconds, wall seconds): each start is divided
    by the host slowness measured just before and just after it, as the
    ``ref_`` timings are.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload, "--seed", str(args.seed)]
    if args.ops is not None:
        cmd += ["--ops", str(args.ops)]
    corrected, walls = [], []
    for _ in range(SETUP_REPEATS):
        before = host_slowness()
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        wall = time.perf_counter() - start
        walls.append(wall)
        corrected.append(wall / (0.5 * (before + host_slowness())))
    return statistics.median(corrected), statistics.median(walls)


class Tally:
    """Attempted and failed operations; problems go to standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, runner, i: int, deep: bool, timer=None):
        """Run and check operation i; return its wall time, or None if it failed."""
        self.attempted += 1
        call = timer or runner.run
        try:
            start = time.perf_counter()
            out = call(i)
            elapsed = time.perf_counter() - start
        except Exception:  # a failing operation is counted, the run goes on
            self.failed += 1
            print(f"operation {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        problems = runner.check(i, out, deep)
        if problems:
            self.failed += 1
            print(f"operation {i} failed its checks: " + "; ".join(problems), file=sys.stderr)
        return elapsed

    def aggregate(self, problems: list[str]) -> None:
        """A whole-run check counts as one attempted unit."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print("aggregate check failed: " + "; ".join(problems), file=sys.stderr)


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, 1-based rank) of the highest percentile with >= 10 samples above it."""
    if n <= 10:
        return 100, n
    pct = (100 * (n - 10)) // n
    return pct, math.ceil(pct * n / 100)


_REF_X = np.linspace(1.0, 2.0, 64)


def reference_loop() -> float:
    """Seconds for a fixed mix of small numpy calls and Python dict, list and sort work.

    It does not touch freqassign, so it measures only how fast this CPU
    runs interpreter-bound code right now.  It takes about 2 ms on an idle
    2-core x86-64 VM with Python 3.11 and numpy 2.4.
    """
    start = time.perf_counter()
    acc = 0.0
    for k in range(300):
        y = np.sqrt(_REF_X * k + 1.0)
        acc += float(y[k & 63]) * 0.5 + math.cos(k)
    counts, items = {}, []
    for k in range(3000):
        counts[k % 97] = counts.get(k % 97, 0) + k
        items.append((k * 7919) % 1009)
    items.sort()
    return time.perf_counter() - start


def host_slowness() -> float:
    """Mean of three reference loops, as a multiple of REFERENCE_S."""
    return statistics.fmean(reference_loop() for _ in range(3)) / REFERENCE_S


def time_stats(per_op: list[float]) -> tuple[float, float, float, int]:
    """(ops per second, p50 ms, tail ms, tail percentile) of per-operation seconds."""
    per_op = sorted(per_op)
    pct, rank = tail_rank(len(per_op))
    return len(per_op) / sum(per_op), statistics.median(per_op) * 1e3, per_op[rank - 1] * 1e3, pct


def timed_run(args, runner, tally, start_s):
    """Passes over the operation set until --seconds is used; per-op medians.

    Between operations, at most every 50 ms, the reference loop measures
    how slow the host runs right now.  Each operation is charged the mean
    of the measurements just before and just after it, and the run's
    slowness is the time-weighted mean of those charges.  The ``ref_``
    metrics divide wall times by it: they read what the run would take on
    a host that runs the reference loop in REFERENCE_S.  On a shared host
    whose CPU speed drifts they repeat far more closely than wall times.
    """
    wall = [[] for _ in range(len(runner))]
    pending = charged = weight = 0.0  # pending: operation seconds since the last measurement
    before = host_slowness()
    last = time.perf_counter()

    def measure():
        nonlocal before, last, pending, charged, weight
        after = host_slowness()
        charged += pending * 0.5 * (before + after)
        weight += pending
        before, last, pending = after, time.perf_counter(), 0.0

    passes = 0
    loop_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for i in range(len(runner)):
            elapsed = tally.run(runner, i, deep=passes == 0)
            if elapsed is not None:
                wall[i].append(elapsed)
                pending += elapsed
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                measure()
            if time.perf_counter() - start_s > HARD_LIMIT_S:
                break
        passes += 1
        now = time.perf_counter()
        if now - start_s > HARD_LIMIT_S:
            print(f"stopped at the {HARD_LIMIT_S:.0f} s limit", file=sys.stderr)
            break
        if now - loop_start + (now - pass_start) > args.seconds:
            break
    measure()
    per_op = [statistics.median(s) for s in wall if s]  # in operation order
    if not per_op:
        return {}, {"passes": passes}
    slowness = charged / weight
    ops, p50, tail, pct = time_stats(per_op)
    metrics = {"ref_ops_per_s": ops * slowness, "ref_op_ms_p50": p50 / slowness,
               "ref_op_ms_tail": tail / slowness, "ops_per_s": ops, "op_ms_p50": p50, "op_ms_tail": tail}
    timing = {"passes": passes, "host_slowness": slowness, "op_ms_tail_percentile": pct,
              "op_ms_tail_samples": len(per_op), "op_wall_ms": [1e3 * t for t in per_op]}
    return metrics, timing


def cli_ms(workload, runner, seed: int) -> float:
    """Per-operation wall time of the in-process CLI on the workload's inputs."""
    from freqassign import cli

    work = OUT / "cli"
    work.mkdir(parents=True, exist_ok=True)
    if workload.config is None:
        queries = runner.queries[:20]
        argvs = []
        for q in queries:
            base = ["worst-case", "--htx", repr(q.geom.h_tx), "--hrx", repr(q.geom.h_rx),
                    "--dmin", repr(q.interval.d_min), "--dmax", repr(q.interval.d_max), "--verify-grid",
                    "--out", str(work / "worst-case.txt")]
            argvs.append(base + ["--freq", repr(q.freq.f)])
            argvs.append(base + ["--freq", repr(q.pair.f1), "--freq2", repr(q.pair.f2)])
        per = len(queries)
    else:
        trials = 2
        config = dict(workload.config.to_dict(), trials=trials, master_seed=seed)
        path = work / "config.json"
        path.write_text(json.dumps(config))
        argvs = [["bench", "--config", str(path), "--out", str(work / "bench")]]
        per = trials
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in argvs]
    elapsed = time.perf_counter() - start
    if any(codes):
        raise RuntimeError(f"CLI exited with {codes}")
    return elapsed * 1e3 / per


def export_ms(workload, runner) -> float:
    """Median time to export the traced trials' report as CSV and JSON."""
    from freqassign import bench

    if workload.config is None:
        return 0.0
    results = list(runner.first_pass.values())
    greedy_s = [r.greedy_time_s for r in results]
    stats = {"mean": statistics.fmean(greedy_s), "min": min(greedy_s), "max": max(greedy_s)}
    report = bench.BenchReport(workload.config, runner.quality()["mean_db"], stats, results)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        bench.export_report(report, "csv", OUT / "report.csv")
        bench.export_report(report, "json", OUT / "report.json")
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def traced_run(args, workload, runner, tally, tag):
    """Each operation of a fixed prefix untraced, then traced; per-layer metrics and span dump."""
    import spans
    from freqassign import bench

    n = len(runner) if args.ops is not None else min(workload.trace_ops, len(runner))
    tracer = spans.Tracer()
    root = tracer.span(spans.ROOT_SPAN, runner.run)
    wrappers = spans.layer_wrappers(tracer)
    config = replace(workload.config, master_seed=args.seed) if workload.config is not None else None
    untraced_s = 0.0
    for i in range(n):  # each operation untraced, then traced, so drift cancels in the overhead
        untraced_s += tally.run(runner, i, deep=True) or 0.0
        with spans.swapped(wrappers):
            tracer.op = i
            if config is not None:
                bench.generate_scenario(config, runner.trials[i].index)
            tally.run(runner, i, deep=False, timer=root)
            tracer.op = None
    metrics = spans.layer_metrics(tracer, n)
    traced_s = sum(r["end"] - r["start"] for r in tracer.spans if r["name"] == spans.ROOT_SPAN)
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - untraced_s / traced_s) if traced_s else 0.0
    metrics["bench.export_ms"] = export_ms(workload, runner)
    metrics["cli.bench_ms"] = cli_ms(workload, runner, args.seed)
    tracer.dump(OUT / f"{tag}-spans.jsonl")
    table = spans.layer_table(tracer, n)
    (OUT / f"{tag}-layers.txt").write_text(table + "\n")
    print(f"traced {n} operations; spans in {OUT.name}/{tag}-spans.jsonl")
    print(table)
    print(f"tracing overhead: {metrics['trace.overhead_pct']:.1f}% of untraced ops_per_s "
          f"({n / untraced_s:.4g} untraced vs {n / traced_s:.4g} traced)")
    print("counts per operation: " + ", ".join(
        f"{k} {metrics[k]:.6g}" for k in
        ("profits.exact_pair_frac", "qmkp.value_density_calls", "qmkp.greedy_steps", "worstcase.pair_calls")))
    print(role_line(workload.name, metrics))
    return metrics


def role_line(name: str, m: dict) -> str:
    """Whether the traced numbers still show why the workload exists (informational)."""
    op_ms = m["profits.table_ms"] + m["qmkp.greedy_ms"] + m["qmkp.instance_ms"] + m["qmkp.rr_profits_ms"] \
        + m["qmkp.baselines_ms"] + m["qmkp.objective_ms"] + m["bench.trial_self_ms"]
    roles = {
        "paper-k20n50": ("exact pairs, singles and greedy all carry time",
                         m["profits.exact_pair_frac"] > 0 and min(m["worstcase.pair_ms"], m["worstcase.single_ms"], m["qmkp.greedy_ms"]) > 0),
        "narrowband-k40n100": ("no exact pairs and greedy is the largest layer",
                               m["profits.exact_pair_frac"] == 0 and m["qmkp.greedy_ms"] > max(m["worstcase.single_ms"], m["worstcase.pair_ms"], m["profits.table_self_ms"])),
        "wideband-k8n24": ("worst_case_pair is the majority of a trial",
                           m["worstcase.pair_ms"] > 0.5 * op_ms),
        "oracle-verify": ("grid_min is the majority of an operation",
                          m["worstcase.grid_min_ms"] > 0.5 * (m["worstcase.grid_min_ms"] + m["worstcase.single_ms"] + m["worstcase.pair_ms"])),
    }
    text, ok = roles[name]
    return f"role: {text}: {'yes' if ok else 'NO'}"


def main(argv=None) -> int:
    start_s = time.perf_counter()
    args = parse_args(argv)
    import_program()
    import checks
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    n_ops = args.ops if args.ops is not None else workload.ops
    if n_ops < 1:
        raise SystemExit("perfbench: --ops must be at least 1")
    if args.setup_only:
        workloads.runner_for(workload, args.seed, n_ops)
        return 0

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = metadata(args, n_ops)
    setup, setup_wall = (None, None) if args.trace else setup_seconds(args)
    runner = workloads.runner_for(workload, args.seed, n_ops)
    tally = Tally()
    hooks = runner.hooks()
    from spans import swapped

    with swapped(hooks):
        runner.run(0)  # warm-up, untimed and unchecked
        if args.trace:
            metrics = traced_run(args, workload, runner, tally, tag)
        else:
            measured, timing = timed_run(args, runner, tally, start_s)
            meta.update(timing)
    quality = runner.quality()
    if workload.criterion9 and args.ops is None and not args.trace:
        tally.aggregate(checks.criterion9(quality["mean_db"]))

    if args.trace:
        report = dict(metrics)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report = dict(measured, setup_s=setup, setup_wall_s=setup_wall, peak_rss_mb=rss_mb,
                      failed_frac=tally.failed / tally.attempted)
        report.update({k: v for k, v in quality.items() if k != "mean_db"})
        metrics = {k: report[k] for k in END_TO_END_UNITS if k in report}
        for name, value in report.items():
            note = ""
            if name.endswith("op_ms_tail"):
                note = f"  (p{meta['op_ms_tail_percentile']} of {meta['op_ms_tail_samples']} operations)"
            print(f"{name} {value!r} {REPORTED_UNITS[name]}{note}")
    print("meta " + json.dumps(meta))
    record = {"meta": meta, "metrics": report, "quality": quality,
              "attempted": tally.attempted, "failed": tally.failed}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    units = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "1"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
