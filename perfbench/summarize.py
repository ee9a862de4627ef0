"""Summarize the run records in perfbench/out/ into one trajectory point.

Usage (from the root of a checkout, after running the workloads)::

    python3 perfbench/summarize.py --topic baseline --out perfbench/results/BENCH_baseline.json

For each workload it gives, per end-to-end metric, the median and the
quartiles over the timed runs (one per seed), and the per-layer metrics
of the traced runs (median over seeds; counts are exact per seed).
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def spread(values: list[float]) -> dict:
    values = sorted(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / q2 if q2 else None, "runs": len(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--topic", required=True)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    records = [json.loads(path.read_text()) for path in sorted(OUT.glob("*-seed*-trace[01].json"))]
    if not records:
        raise SystemExit(f"no run records in {OUT}")
    workloads = {}
    for rec in records:
        meta = rec["meta"]
        entry = workloads.setdefault(meta["workload"], {"timed": [], "traced": []})
        entry["traced" if meta["trace"] else "timed"].append(rec)
    summary = {}
    for name, runs in sorted(workloads.items()):
        item = {}
        if runs["timed"]:
            metrics = runs["timed"][0]["metrics"]
            item["seeds"] = sorted(r["meta"]["seed"] for r in runs["timed"])
            item["end_to_end"] = {
                m: spread([r["metrics"][m] for r in runs["timed"]])
                for m in metrics if isinstance(metrics[m], (int, float))
            }
            item["tail_percentile"] = runs["timed"][0]["meta"].get("op_ms_tail_percentile")
            item["attempted"] = sum(r["attempted"] for r in runs["timed"])
            item["failed"] = sum(r["failed"] for r in runs["timed"])
        if runs["traced"]:
            item["traced_seeds"] = sorted(r["meta"]["seed"] for r in runs["traced"])
            item["per_layer"] = {
                m: statistics.median(r["metrics"][m] for r in runs["traced"])
                for m in runs["traced"][0]["metrics"]
            }
        summary[name] = item
    first = records[0]["meta"]
    point = {
        "topic": args.topic,
        "commit": first["commit"],
        "nproc": first["nproc"],
        "python": first["python"],
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "machine": first["machine"],
        "commands": sorted({re.sub(r"--seed \d+", "--seed <seed>", r["meta"]["command"]) for r in records}),
        "workloads": summary,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
