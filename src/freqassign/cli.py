"""Command-line front end.

Subcommands mirror the library layers: ``power-curve`` and ``minima`` emit
figure-ready data for the propagation math, ``worst-case`` answers single
interval queries, ``assign`` runs the solver schemes on a concrete user
population, and ``bench`` drives the Monte-Carlo comparison.  All data
outputs are deterministic given the flags and seed; numeric values are
formatted with six significant digits and dB values are referenced to the
transmit power.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .bench import SOLVERS, ScenarioConfig, export_report, run_benchmark
from .channel import (
    CarrierFrequency,
    FrequencyPair,
    SceneGeometry,
    _positive_finite,
    null_distances,
    receive_power_single,
    sum_power_lower_bound,
    sum_power_two,
    to_decibel,
)
from .profits import SystemConfig, UserProfile, build_profit_table
from .qmkp import Instance, objective, per_knapsack_profits
from .worstcase import (
    DistanceInterval,
    grid_min,
    phase_uniform_grid,
    worst_case_pair,
    worst_case_single,
)

# The bench registry's names, hyphenated as command-line words.
SCHEME_CHOICES = tuple(name.replace("_", "-") for name in SOLVERS) + ("all",)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _write_output(text: str, path: str | None) -> None:
    """Write atomically so a failure never leaves a partial file."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _geometry(args) -> SceneGeometry:
    return SceneGeometry(args.htx, args.hrx)


def cmd_power_curve(args) -> int:
    geom = _geometry(args)
    if args.samples < 2:
        raise ValueError("need at least 2 samples")
    if not (_positive_finite(args.dmin, args.dmax) and args.dmin <= args.dmax):
        raise ValueError("distance range requires finite 0 < dmin <= dmax")
    d = np.geomspace(args.dmin, args.dmax, args.samples)
    lines = [f"# reference_power_watts: {_fmt(args.pt)}"]
    if args.freq2 is None:
        freq = CarrierFrequency(args.freq)
        power = to_decibel(receive_power_single(geom, d, freq, args.pt), args.pt)
        lines.append("distance,power_db")
        lines += [f"{_fmt(di)},{_fmt(pi)}" for di, pi in zip(d, power)]
    else:
        pair = FrequencyPair.of(args.freq, args.freq2)
        p_sum = to_decibel(sum_power_two(geom, d, pair, args.pt), args.pt)
        p_low = to_decibel(sum_power_lower_bound(geom, d, pair, args.pt), args.pt)
        lines.append("distance,power_sum_db,lower_bound_db")
        lines += [
            f"{_fmt(di)},{_fmt(si)},{_fmt(li)}" for di, si, li in zip(d, p_sum, p_low)
        ]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_minima(args) -> int:
    geom = _geometry(args)
    freq = CarrierFrequency(args.freq)
    # Checked here too: with no minima the power kernel never runs.
    if not _positive_finite(args.pt):
        raise ValueError("transmit power must be positive and finite")
    nulls = null_distances(geom, freq)
    lines = [f"# reference_power_watts: {_fmt(args.pt)}", "k,distance_m,power_db"]
    for k, d_k in enumerate(nulls, start=1):
        p = to_decibel(receive_power_single(geom, d_k, freq, args.pt), args.pt)
        lines.append(f"{k},{_fmt(d_k)},{_fmt(p)}")
    if nulls.size == 0:
        lines.append("# no interference minima: the maximal phase shift stays below 2*pi")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_worst_case(args) -> int:
    geom = _geometry(args)
    interval = DistanceInterval(args.dmin, args.dmax)
    if args.freq2 is None:
        freq = CarrierFrequency(args.freq)
        result = worst_case_single(geom, interval, freq, args.pt)
        power_fn = lambda d: receive_power_single(geom, d, freq, args.pt)
        osc_omega = freq.omega
    else:
        pair = FrequencyPair.of(args.freq, args.freq2)
        result = worst_case_pair(geom, interval, pair, args.pt)
        power_fn = lambda d: sum_power_lower_bound(geom, d, pair, args.pt)
        osc_omega = pair.delta_omega
    lines = [
        f"worst_case_db: {_fmt(to_decibel(result.power, args.pt))}",
        f"argmin_distance_m: {_fmt(result.argmin_distance)}",
        f"candidate_kind: {result.candidate_kind}",
    ]
    if args.verify_grid:
        oracle = grid_min(
            power_fn, interval, phase_uniform_grid(geom, interval, osc_omega)
        )
        gap = abs(
            to_decibel(result.power, args.pt) - to_decibel(oracle.power, args.pt)
        )
        lines.append(f"grid_oracle_db: {_fmt(to_decibel(oracle.power, args.pt))}")
        lines.append(f"grid_discrepancy_db: {_fmt(gap)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _json_number(value, where: str) -> float:
    """``value`` as a float; rejects non-numbers and JSON booleans (bool is an int)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {json.dumps(value)}")
    return float(value)


def _load_users(path: str) -> list[UserProfile]:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{path}: expected a nonempty JSON array of user objects")
    users = []
    for idx, entry in enumerate(raw):
        try:
            h_rx, d_min, d_max = (
                _json_number(entry[key], key) for key in ("h_rx_m", "d_min_m", "d_max_m")
            )
            users.append(UserProfile(h_rx, DistanceInterval(d_min, d_max)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: user entry {idx}: {exc}") from exc
    return users


def _load_frequencies(args) -> list[CarrierFrequency]:
    if args.freqs is not None:
        with open(args.freqs, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, list) or not raw:
            raise ValueError(f"{args.freqs}: expected a nonempty JSON array of Hz values")
        hz = []
        for idx, value in enumerate(raw):
            where = f"{args.freqs}: entry {idx}"
            f = _json_number(value, where)
            if f <= 0:
                raise ValueError(f"{where}: not a positive frequency")
            hz.append(f)
    else:
        if args.nfreqs is None:
            raise ValueError("provide --freqs FILE or --band LO HI with --nfreqs")
        rng = np.random.default_rng(args.seed)
        lo, hi = args.band
        if not 0 < lo < hi:
            raise ValueError("band must satisfy 0 < lo < hi")
        hz = list(rng.uniform(lo, hi, size=args.nfreqs))
    # Ascending order: positional schemes index items by frequency rank.
    return [CarrierFrequency(f) for f in sorted(hz)]


def cmd_assign(args) -> int:
    users = _load_users(args.users)
    freqs = _load_frequencies(args)
    system = SystemConfig(h_tx=args.htx, p_t=args.pt)
    table = build_profit_table(users, freqs, system)
    instance = Instance.from_profit_table(table)
    schemes = SCHEME_CHOICES[:-1] if args.scheme == "all" else [args.scheme]
    blocks = []
    for scheme in schemes:
        assignment = SOLVERS[scheme.replace("-", "_")](instance, args.seed)
        per_user = per_knapsack_profits(instance, assignment)
        total = objective(instance, assignment)
        avg = total / len(users)
        blocks.append(
            {
                "scheme": scheme,
                "assignment": assignment.as_lists(),
                "frequencies_hz": [fr.f for fr in freqs],
                "objective_w": total,
                "per_user_db": [
                    to_decibel(p, args.pt) if p > 0 else None for p in per_user
                ],
                "average_db": to_decibel(avg, args.pt) if avg > 0 else None,
            }
        )
    payload = blocks[0] if len(blocks) == 1 else blocks
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_bench(args) -> int:
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            config = ScenarioConfig.from_dict(json.load(fh))
    else:
        if args.num_users is None or args.num_freqs is None:
            raise ValueError("provide --config FILE or both -K and -N")
        config = ScenarioConfig(
            n_users=args.num_users,
            n_freqs=args.num_freqs,
            trials=args.trials,
            master_seed=args.seed,
        )
    report = run_benchmark(config)
    base = args.out
    if base is None or base == "-":
        fmt = args.format or "csv"
        export_report(report, fmt, sys.stdout)
        return 0
    formats = [args.format] if args.format else ["csv", "json"]
    for fmt in formats:
        export_report(report, fmt, f"{base}.{fmt}")
        print(f"wrote {base}.{fmt}")
    return 0


def _add_geometry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--htx", type=float, required=True, help="transmitter height [m]")
    parser.add_argument("--hrx", type=float, required=True, help="receiver height [m]")


def _add_power_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pt", type=float, default=1.0, help="transmit power [W] (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqassign",
        description="Two-ray worst-case link budgets and frequency assignment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("power-curve", help="emit receive power over distance as CSV")
    _add_geometry_flags(p)
    _add_power_flag(p)
    p.add_argument("--freq", type=float, required=True, help="carrier frequency [Hz]")
    p.add_argument("--freq2", type=float, help="second carrier [Hz]; enables pair mode")
    p.add_argument("--dmin", type=float, required=True, help="smallest distance [m]")
    p.add_argument("--dmax", type=float, required=True, help="largest distance [m]")
    p.add_argument("--samples", type=int, default=500, help="log-spaced sample count")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_power_curve)

    p = sub.add_parser("minima", help="list interference null distances")
    _add_geometry_flags(p)
    _add_power_flag(p)
    p.add_argument("--freq", type=float, required=True, help="carrier frequency [Hz]")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_minima)

    p = sub.add_parser("worst-case", help="worst-case power over a distance interval")
    _add_geometry_flags(p)
    _add_power_flag(p)
    p.add_argument("--freq", type=float, required=True, help="carrier frequency [Hz]")
    p.add_argument("--freq2", type=float, help="second carrier [Hz]; enables pair mode")
    p.add_argument("--dmin", type=float, required=True, help="interval lower end [m]")
    p.add_argument("--dmax", type=float, required=True, help="interval upper end [m]")
    p.add_argument(
        "--verify-grid",
        action="store_true",
        help="also run the grid-scan oracle and report the discrepancy",
    )
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_worst_case)

    p = sub.add_parser("assign", help="assign frequencies to users from JSON inputs")
    p.add_argument("--users", required=True, help="JSON array of {h_rx_m, d_min_m, d_max_m}")
    p.add_argument("--freqs", help="JSON array of frequencies [Hz]")
    p.add_argument(
        "--band",
        type=float,
        nargs=2,
        metavar=("LO", "HI"),
        default=(2.4e9, 2.5e9),
        help="band for random frequencies when --freqs is not given",
    )
    p.add_argument("--nfreqs", type=int, help="number of random band frequencies")
    p.add_argument("--htx", type=float, default=10.0, help="transmitter height [m]")
    _add_power_flag(p)
    p.add_argument("--scheme", choices=SCHEME_CHOICES, default="greedy")
    p.add_argument("--seed", type=int, default=0, help="seed for random draws")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("bench", help="Monte-Carlo benchmark of all schemes")
    p.add_argument("--config", help="ScenarioConfig as a JSON file")
    p.add_argument("-K", "--num-users", type=int, help="number of users")
    p.add_argument("-N", "--num-freqs", type=int, help="number of frequencies")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--format", choices=("csv", "json"), help="single output format")
    p.add_argument("--out", help="output base path; writes BASE.csv and BASE.json")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
