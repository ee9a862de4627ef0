import json

import numpy as np
import pytest

from freqassign.cli import main

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
