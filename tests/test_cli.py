import argparse
import json
import os

import numpy as np
import pytest

from freqassign.cli import build_parser, main

from conftest import EX_FREQ_LOW

USERS = [
    {"h_rx_m": 1.5, "d_min_m": 30.0, "d_max_m": 100.0},
    {"h_rx_m": 2.0, "d_min_m": 25.0, "d_max_m": 80.0},
]


@pytest.fixture
def users_file(tmp_path):
    path = tmp_path / "users.json"
    path.write_text(json.dumps(USERS))
    return str(path)


@pytest.fixture
def freqs_file(tmp_path):
    path = tmp_path / "freqs.json"
    path.write_text(json.dumps([2.45e9, 2.4e9, 2.5e9, 2.42e9]))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    header, rows = lines[0], lines[1:]
    return header, [r.split(",") for r in rows]


class TestPowerCurve:
    def test_single_curve_has_null_near_first_minimum(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "power-curve",
                "--htx", "10", "--hrx", "1.5",
                "--freq", str(EX_FREQ_LOW.f),
                "--dmin", "1", "--dmax", "1000", "--samples", "4000",
            ],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "distance,power_db"
        d = np.array([float(r[0]) for r in rows])
        p = np.array([float(r[1]) for r in rows])
        assert d[0] == 1.0 and d[-1] == 1000.0
        assert abs(d[int(np.argmin(p))] - 46.7) < 1.0

    def test_pair_curve_lower_bound_dominated(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "power-curve",
                "--htx", "10", "--hrx", "1.5",
                "--freq", "2.4e9", "--freq2", "2.65e9",
                "--dmin", "1", "--dmax", "1000", "--samples", "512",
            ],
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "distance,power_sum_db,lower_bound_db"
        for _, p_sum, p_low in rows:
            assert float(p_low) <= float(p_sum) + 1e-9

    def test_two_samples_gives_two_rows(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "power-curve",
                "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
                "--dmin", "30", "--dmax", "100", "--samples", "2",
            ],
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 2
        assert [float(r[0]) for r in rows] == [30.0, 100.0]

    def test_invalid_flags_exit_nonzero(self, capsys):
        code, _, err = run(
            capsys,
            [
                "power-curve",
                "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
                "--dmin", "100", "--dmax", "30",
            ],
        )
        assert code != 0
        assert "error" in err.lower()


    @pytest.mark.parametrize("flag,value", [("--pt", "nan"), ("--pt", "inf"), ("--dmax", "inf")])
    def test_non_finite_flag_exits_2(self, capsys, flag, value):
        argv = [
            "power-curve",
            "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
            "--dmin", "1", "--dmax", "10", "--samples", "3",
        ]
        code, out, err = run(capsys, argv + [flag, value])
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_one_sample_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            [
                "power-curve",
                "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
                "--dmin", "30", "--dmax", "100", "--samples", "1",
            ],
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "samples" in err


class TestMinima:
    @pytest.mark.parametrize("freq", ["2.4e9", "1e7"])  # with minima, and without any
    @pytest.mark.parametrize("pt", ["inf", "nan"])
    def test_non_finite_power_exits_2(self, capsys, freq, pt):
        code, out, err = run(
            capsys, ["minima", "--htx", "10", "--hrx", "1.5", "--freq", freq, "--pt", pt]
        )
        assert code == 2
        assert out == ""
        assert "finite" in err

    def test_running_example_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["minima", "--htx", "10", "--hrx", "1.5", "--freq", str(EX_FREQ_LOW.f)],
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 4
        np.testing.assert_allclose(
            [float(r[1]) for r in rows], [46.7, 21.6, 12.3, 6.5], atol=0.05
        )

    def test_no_minima_notes_and_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, ["minima", "--htx", "10", "--hrx", "1.5", "--freq", "1e7"]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows == []
        assert "no interference minima" in out

    def test_high_band_row_count(self, capsys):
        code, out, _ = run(
            capsys, ["minima", "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9"]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 24


class TestWorstCase:
    def test_single_query(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "worst-case",
                "--htx", "10", "--hrx", "1.5", "--freq", str(EX_FREQ_LOW.f),
                "--dmin", "30", "--dmax", "100",
            ],
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["worst_case_db"]) == pytest.approx(-97.0, abs=0.5)
        assert float(fields["argmin_distance_m"]) == pytest.approx(46.7, abs=0.05)
        assert fields["candidate_kind"] == "interior_null"

    def test_pair_query_with_grid_verification(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "worst-case",
                "--htx", "10", "--hrx", "1.5",
                "--freq", "2.4e9", "--freq2", "2.65e9",
                "--dmin", "30", "--dmax", "100", "--verify-grid",
            ],
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["worst_case_db"]) == pytest.approx(-82.9, abs=0.2)
        assert float(fields["grid_discrepancy_db"]) <= 0.01

    def test_single_query_grid_verification(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "worst-case",
                "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
                "--dmin", "30", "--dmax", "100", "--verify-grid",
            ],
        )
        assert code == 0
        fields = dict(line.split(": ") for line in out.strip().split("\n"))
        assert float(fields["grid_discrepancy_db"]) <= 0.01

    def test_equal_pair_frequencies_name_the_cause(self, capsys):
        # two equal carriers would fail "f1 < f2"; FrequencyPair.of names
        # the cause instead
        code, out, err = run(
            capsys,
            [
                "worst-case",
                "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9", "--freq2", "2.4e9",
                "--dmin", "30", "--dmax", "100",
            ],
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "distinct" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["worst-case", "--dmin", "30", "--dmax", "100", "--freq", "1e308"],
        ["worst-case", "--dmin", "30", "--dmax", "100", "--freq", "2.4e9", "--freq2", "1e308"],
        ["worst-case", "--dmin", "30", "--dmax", "100", "--freq", "1e308", "--verify-grid"],
        ["worst-case", "--dmin", "30", "--dmax", "100", "--freq", "2.4e9", "--freq2", "1e308",
         "--verify-grid"],
        ["power-curve", "--dmin", "1", "--dmax", "10", "--freq", "1e308"],
        ["power-curve", "--dmin", "1", "--dmax", "10", "--freq", "2.4e9", "--freq2", "1e308"],
        ["minima", "--freq", "1e308"],
    ],
    ids=["worst-case", "worst-case-pair", "verify-grid", "verify-grid-pair", "power-curve",
         "power-curve-pair", "minima"],
)
def test_carrier_whose_angular_rate_overflows_exits_2(capsys, argv):
    # a finite f with an infinite 2*pi*f printed nan dB or raised OverflowError
    code, out, err = run(capsys, argv + ["--htx", "10", "--hrx", "1.5"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "angular rate" in err


class TestAssign:
    def test_single_user_gets_both_frequencies(self, capsys, tmp_path):
        users = tmp_path / "one.json"
        users.write_text(json.dumps([USERS[0]]))
        freqs = tmp_path / "two.json"
        freqs.write_text(json.dumps([2.4e9, 2.45e9]))
        code, out, _ = run(
            capsys,
            ["assign", "--users", str(users), "--freqs", str(freqs), "--scheme", "greedy"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["assignment"] == [[0, 1]]
        assert payload["average_db"] is not None

    def test_all_schemes_greedy_first(self, capsys, users_file, freqs_file):
        code, out, _ = run(
            capsys,
            ["assign", "--users", users_file, "--freqs", freqs_file, "--scheme", "all"],
        )
        assert code == 0
        payload = json.loads(out)
        assert [b["scheme"] for b in payload] == [
            "greedy", "random", "rr-simple", "rr-block", "rr-profits",
        ]
        for block in payload:
            items = [i for items in block["assignment"] for i in items]
            assert len(items) == len(set(items))

    def test_frequencies_sorted_ascending(self, capsys, users_file, freqs_file):
        code, out, _ = run(
            capsys,
            ["assign", "--users", users_file, "--freqs", freqs_file, "--scheme", "greedy"],
        )
        assert code == 0
        payload = json.loads(out)
        hz = payload["frequencies_hz"]
        assert hz == sorted(hz)

    def test_band_mode_generates_frequencies(self, capsys, users_file):
        code, out, _ = run(
            capsys,
            [
                "assign", "--users", users_file,
                "--band", "2.4e9", "2.5e9", "--nfreqs", "6",
                "--seed", "3", "--scheme", "greedy",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["frequencies_hz"]) == 6

    def test_malformed_users_reported_with_context(self, capsys, tmp_path, freqs_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"h_rx_m": 1.5, "d_min_m": 30.0}]))
        code, _, err = run(
            capsys, ["assign", "--users", str(bad), "--freqs", freqs_file]
        )
        assert code != 0
        assert "entry 0" in err

    def test_non_finite_user_values_rejected(self, capsys, tmp_path, freqs_file):
        bad = tmp_path / "nan.json"
        bad.write_text('[{"h_rx_m": NaN, "d_min_m": 30.0, "d_max_m": 60.0}]')
        code, _, err = run(
            capsys, ["assign", "--users", str(bad), "--freqs", freqs_file]
        )
        assert code != 0
        assert "entry 0" in err

    @pytest.mark.parametrize("field", ["h_rx_m", "d_min_m", "d_max_m"])
    def test_boolean_user_value_rejected(self, capsys, tmp_path, freqs_file, field):
        # JSON true loads as a Python bool, an int subclass equal to 1
        user = dict(USERS[0], **{field: True})
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps([USERS[1], user]))
        code, out, err = run(
            capsys, ["assign", "--users", str(bad), "--freqs", freqs_file]
        )
        assert code != 0 and out == ""
        assert "entry 1" in err and field in err

    def test_boolean_frequency_rejected(self, capsys, tmp_path, users_file):
        bad = tmp_path / "bool.json"
        bad.write_text(json.dumps([2.4e9, True, 2.45e9]))
        code, out, err = run(
            capsys, ["assign", "--users", users_file, "--freqs", str(bad)]
        )
        assert code != 0 and out == ""
        assert "entry 1" in err

    @pytest.mark.parametrize(
        "band, nfreqs",
        [(("1", "inf"), "3"), (("2.4e9", "2.5e9"), "0")],
        ids=["infinite-band", "no-frequencies"],
    )
    def test_invalid_band_draw_rejected(self, capsys, users_file, band, nfreqs):
        code, out, err = run(
            capsys, ["assign", "--users", users_file, "--band", *band, "--nfreqs", nfreqs]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_no_frequency_source_is_usage_error(self, capsys, users_file):
        code, out, err = run(capsys, ["assign", "--users", users_file])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--nfreqs" in err

    @pytest.mark.parametrize(
        "flags",
        [["--band", "1e9", "2e9"], ["--nfreqs", "3"], ["--band", "1e9", "2e9", "--nfreqs", "3"]],
        ids=["band", "nfreqs", "both"],
    )
    def test_band_draw_with_frequency_file_is_usage_error(
        self, capsys, users_file, freqs_file, flags
    ):
        code, out, err = run(
            capsys, ["assign", "--users", users_file, "--freqs", freqs_file, *flags]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--freqs" in err

    def test_band_defaults_to_2_4_to_2_5_ghz(self, capsys, users_file):
        args = ["assign", "--users", users_file, "--nfreqs", "6", "--seed", "3"]
        code, default_band, _ = run(capsys, args)
        assert code == 0
        _, given_band, _ = run(capsys, args + ["--band", "2.4e9", "2.5e9"])
        assert default_band == given_band

    def test_greedy_usually_beats_random(self, capsys, users_file):
        # reported, not asserted per instance: compare the two averages on
        # one fixed draw
        args = [
            "assign", "--users", users_file,
            "--band", "2.4e9", "2.5e9", "--nfreqs", "10", "--seed", "12",
        ]
        _, out_greedy, _ = run(capsys, args + ["--scheme", "greedy"])
        _, out_random, _ = run(capsys, args + ["--scheme", "random"])
        g = json.loads(out_greedy)["average_db"]
        r = json.loads(out_random)["average_db"]
        assert g >= r


class TestBench:
    def test_writes_csv_and_json(self, capsys, tmp_path):
        base = tmp_path / "rep"
        code, out, _ = run(
            capsys,
            ["bench", "-K", "2", "-N", "6", "--trials", "2", "--seed", "1", "--out", str(base)],
        )
        assert code == 0
        assert (tmp_path / "rep.csv").exists()
        assert (tmp_path / "rep.json").exists()
        header = (tmp_path / "rep.csv").read_text().split("\n")[0]
        assert header == "K,N,scheme,mean_db,time_mean_s,time_min_s,time_max_s"

    def test_single_trial_reproducible(self, capsys, tmp_path):
        argv = ["bench", "-K", "2", "-N", "6", "--trials", "1", "--seed", "9"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        rep_a = json.loads((tmp_path / "a.json").read_text())
        rep_b = json.loads((tmp_path / "b.json").read_text())
        assert rep_a["mean_db"] == rep_b["mean_db"]

    def test_config_file_input(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_users": 2, "n_freqs": 6, "trials": 2, "master_seed": 4}))
        code, out, _ = run(capsys, ["bench", "--config", str(cfg), "--format", "csv"])
        assert code == 0
        assert out.startswith("K,N,scheme")

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"n_users": 2, "n_freqs": 6, "trials": 2, "colour": "red"}, "colour"),
            ({"n_users": 2, "n_freqs": 6, "trials": 2.5}, "trials"),
            ({"n_users": 2, "n_freqs": 6, "h_rx_range": [1.0, "3"]}, "h_rx_range"),
            ([2, 6], "object"),
            ({"n_users": True, "n_freqs": 6, "trials": 2}, "n_users"),
            ({"n_users": 2, "n_freqs": 6, "band": [2.4e9, float("inf")]}, "band"),
            ({"n_users": 2, "n_freqs": 6, "h_rx_range": [1.0, float("inf")]}, "h_rx_range"),
            ({"n_freqs": 6}, "n_users"),
        ],
        ids=["unknown-key", "fractional-trials", "string-in-range", "array", "boolean-count",
             "infinite-band", "infinite-range", "missing-count"],
    )
    def test_invalid_config_file_is_usage_error(self, capsys, tmp_path, config, named):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))  # inf is written as the JSON extension Infinity
        code, out, err = run(capsys, ["bench", "--config", str(cfg), "--format", "csv"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and named in err

    def test_no_scenario_source_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["bench", "--trials", "1"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--config" in err

    @pytest.mark.parametrize("flags", [["-K", "5"], ["-N", "40"], ["-K", "5", "-N", "40"]])
    def test_counts_with_config_file_are_usage_error(self, capsys, tmp_path, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_users": 2, "n_freqs": 6, "trials": 1}))
        code, out, err = run(capsys, ["bench", "--config", str(cfg), *flags])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--config" in err

    @pytest.mark.parametrize(
        "flags", [["--trials", "1"], ["--seed", "5"], ["--trials", "1", "--seed", "5"]]
    )
    def test_trials_or_seed_with_config_file_are_usage_error(self, capsys, tmp_path, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_users": 2, "n_freqs": 7, "trials": 3, "master_seed": 4}))
        code, out, err = run(capsys, ["bench", "--config", str(cfg), "--format", "json", *flags])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "--config" in err

    @pytest.mark.parametrize(
        "flags, trials, seed", [(["--seed", "3"], 100, 3), (["--trials", "1"], 1, 0)]
    )
    def test_trials_and_seed_default_to_scenario_config(self, capsys, flags, trials, seed):
        code, out, _ = run(capsys, ["bench", "-K", "1", "-N", "2", "--format", "json", *flags])
        assert code == 0
        config = json.loads(out)["config"]
        assert (config["trials"], config["master_seed"]) == (trials, seed)

    def test_band_too_narrow_for_distinct_draws_is_usage_error(self, capsys, tmp_path):
        # at most three floats lie in this band, so ten distinct draws never come
        config = {"n_users": 1, "n_freqs": 10, "trials": 1, "band": [1e9, 1.0000000000000002e9]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, ["bench", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "band" in err and "n_freqs" in err

    def test_zero_users_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["bench", "-K", "0", "-N", "6", "--trials", "1"])
        assert code != 0
        assert "error" in err.lower()


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = [
            "power-curve",
            "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
            "--dmin", "10", "--dmax", "200", "--samples", "64",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_six_significant_digits(self, capsys):
        _, out, _ = run(
            capsys,
            [
                "power-curve",
                "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
                "--dmin", "33.333333333", "--dmax", "100", "--samples", "2",
            ],
        )
        _, rows = csv_rows(out)
        assert rows[0][0] == "33.3333"

    def test_no_partial_file_on_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, _, err = run(
            capsys,
            [
                "power-curve",
                "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
                "--dmin", "10", "--dmax", "20", "--out", str(target),
            ],
        )
        assert code != 0
        assert not target.exists()

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


BAD_USERS = {
    "infinite": '[{"h_rx_m": 1.5, "d_min_m": 30, "d_max_m": 100}, '
    '{"h_rx_m": 1.5, "d_min_m": 30, "d_max_m": Infinity}]',
    "boolean": '[{"h_rx_m": 1.5, "d_min_m": 30, "d_max_m": 100}, true]',
}
BAD_FREQS = {
    "infinite": "[2.4e9, Infinity]",
    "boolean": "[2.4e9, true]",
}


class TestInputFiles:
    """Both JSON inputs go through one loader and one rule for a number."""

    @pytest.fixture(params=["--users", "--freqs"])
    def which(self, request):
        return request.param

    def assign(self, capsys, which, path, users_file, freqs_file):
        files = {"--users": users_file, "--freqs": freqs_file, which: str(path)}
        return run(capsys, ["assign", *(x for kv in files.items() for x in kv)])

    @pytest.mark.parametrize("text", ["[]", '{"a": 1}', "2.4e9"], ids=["empty", "object", "number"])
    def test_not_a_nonempty_array(self, capsys, tmp_path, users_file, freqs_file, which, text):
        path = tmp_path / "input.json"
        path.write_text(text)
        code, out, err = self.assign(capsys, which, path, users_file, freqs_file)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(path) in err and "nonempty JSON array" in err

    @pytest.mark.parametrize("bad", ["infinite", "boolean"])
    def test_entry_not_a_number(self, capsys, tmp_path, users_file, freqs_file, which, bad):
        path = tmp_path / "input.json"
        path.write_text((BAD_USERS if which == "--users" else BAD_FREQS)[bad])
        code, out, err = self.assign(capsys, which, path, users_file, freqs_file)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: entry 1:")

    def test_nonpositive_frequency_names_its_entry(self, capsys, tmp_path, users_file):
        path = tmp_path / "freqs.json"
        path.write_text("[2.4e9, 2.45e9, -1.0]")
        code, out, err = run(capsys, ["assign", "--users", users_file, "--freqs", str(path)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: entry 2:") and "positive" in err


POWER_CURVE = [
    "power-curve", "--htx", "10", "--hrx", "1.5", "--freq", "2.4e9",
    "--dmin", "10", "--dmax", "20", "--samples", "4",
]


class TestOutputFiles:
    """Every file output is written whole or not at all, by one writer."""

    def test_out_at_existing_directory(self, capsys, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run(capsys, POWER_CURVE + ["--out", str(target)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(target) in err
        assert list(tmp_path.glob("*.tmp")) == [] and list(target.iterdir()) == []

    def test_bench_out_into_missing_directory(self, capsys, tmp_path):
        base = tmp_path / "missing" / "rep"
        code, out, err = run(
            capsys, ["bench", "-K", "2", "-N", "4", "--trials", "1", "--out", str(base)]
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "rep.csv" in err
        assert list(tmp_path.rglob("*.tmp")) == [] and not base.parent.exists()

    def test_bench_out_over_existing_directory_leaves_no_temp_file(self, capsys, tmp_path):
        (tmp_path / "rep.csv").mkdir()
        code, out, err = run(
            capsys,
            ["bench", "-K", "2", "-N", "4", "--trials", "1", "--out", str(tmp_path / "rep")],
        )
        assert code == 2 and out == ""
        assert "rep.csv" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["rep.csv"]

    def test_files_get_the_mode_open_would_give(self, capsys, tmp_path):
        umask = os.umask(0o022)
        try:
            assert main(POWER_CURVE + ["--out", str(tmp_path / "curve.csv")]) == 0
            assert main(["bench", "-K", "2", "-N", "4", "--trials", "1",
                         "--out", str(tmp_path / "rep")]) == 0
        finally:
            os.umask(umask)
        capsys.readouterr()
        for name in ("curve.csv", "rep.csv", "rep.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name

    def test_file_and_stdout_outputs_are_equal(self, capsys, tmp_path):
        _, out, _ = run(capsys, POWER_CURVE)
        assert main(POWER_CURVE + ["--out", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").read_text() == out


# (type, default, required, choices, nargs) of every option, as the parser
# had them before the shared flags moved into parent parsers.
PARSER_TABLE = {
    "power-curve": {
        ("--htx",): (float, None, True, None, None),
        ("--hrx",): (float, None, True, None, None),
        ("--pt",): (float, 1.0, False, None, None),
        ("--freq",): (float, None, True, None, None),
        ("--freq2",): (float, None, False, None, None),
        ("--dmin",): (float, None, True, None, None),
        ("--dmax",): (float, None, True, None, None),
        ("--samples",): (int, 500, False, None, None),
        ("--out",): (None, None, False, None, None),
    },
    "minima": {
        ("--htx",): (float, None, True, None, None),
        ("--hrx",): (float, None, True, None, None),
        ("--pt",): (float, 1.0, False, None, None),
        ("--freq",): (float, None, True, None, None),
        ("--out",): (None, None, False, None, None),
    },
    "worst-case": {
        ("--htx",): (float, None, True, None, None),
        ("--hrx",): (float, None, True, None, None),
        ("--pt",): (float, 1.0, False, None, None),
        ("--freq",): (float, None, True, None, None),
        ("--freq2",): (float, None, False, None, None),
        ("--dmin",): (float, None, True, None, None),
        ("--dmax",): (float, None, True, None, None),
        ("--verify-grid",): (None, False, False, None, 0),
        ("--out",): (None, None, False, None, None),
    },
    "assign": {
        ("--users",): (None, None, True, None, None),
        ("--freqs",): (None, None, False, None, None),
        ("--band",): (float, None, False, None, 2),
        ("--nfreqs",): (int, None, False, None, None),
        ("--htx",): (float, 10.0, False, None, None),
        ("--pt",): (float, 1.0, False, None, None),
        ("--scheme",): (
            None, "greedy", False,
            ("greedy", "random", "rr-simple", "rr-block", "rr-profits", "all"), None,
        ),
        ("--seed",): (int, 0, False, None, None),
        ("--out",): (None, None, False, None, None),
    },
    "bench": {
        ("--config",): (None, None, False, None, None),
        ("-K", "--num-users"): (int, None, False, None, None),
        ("-N", "--num-freqs"): (int, None, False, None, None),
        ("--trials",): (int, None, False, None, None),
        ("--seed",): (int, None, False, None, None),
        ("--format",): (None, None, False, ("csv", "json"), None),
        ("--out",): (None, None, False, None, None),
    },
}


def test_parser_options_are_pinned():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    table = {
        name: {
            tuple(a.option_strings): (a.type, a.default, a.required, a.choices, a.nargs)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in sub.choices.items()
    }
    assert table == PARSER_TABLE
