import json
import math

import numpy as np
import pytest

from freqassign import (
    ScenarioConfig,
    SystemConfig,
    export_report,
    generate_scenario,
    run_benchmark,
    run_trial,
)
from freqassign import bench
from freqassign.bench import SCHEMES, SOLVERS
from freqassign.cli import SCHEME_CHOICES

SMALL = ScenarioConfig(n_users=2, n_freqs=6, trials=3, master_seed=99)


class TestScenarioConfig:
    def test_defaults_match_reference_setup(self):
        cfg = ScenarioConfig(n_users=3, n_freqs=10)
        assert cfg.band == (2.4e9, 2.5e9)
        assert cfg.h_tx == 10.0 and cfg.p_t == 1.0
        assert cfg.h_rx_range == (1.0, 3.0)
        assert cfg.d_min_range == (20.0, 40.0)
        assert cfg.span_range == (10.0, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_users=0, n_freqs=5)
        with pytest.raises(ValueError):
            ScenarioConfig(n_users=1, n_freqs=1, band=(2.5e9, 2.4e9))
        with pytest.raises(ValueError):
            ScenarioConfig(n_users=1, n_freqs=1, trials=0)
        with pytest.raises(ValueError):
            ScenarioConfig(n_users=1, n_freqs=1, freq_mode="nope")

    def test_dict_round_trip(self):
        cfg = ScenarioConfig(n_users=4, n_freqs=9, trials=7, master_seed=5)
        assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


class TestGenerateScenario:
    def test_deterministic(self):
        u1, f1 = generate_scenario(SMALL, 2)
        u2, f2 = generate_scenario(SMALL, 2)
        assert [fr.f for fr in f1] == [fr.f for fr in f2]
        assert [(u.h_rx, u.interval.d_min, u.interval.d_max) for u in u1] == [
            (u.h_rx, u.interval.d_min, u.interval.d_max) for u in u2
        ]

    def test_distinct_trials_differ(self):
        _, f1 = generate_scenario(SMALL, 0)
        _, f2 = generate_scenario(SMALL, 1)
        assert [fr.f for fr in f1] != [fr.f for fr in f2]

    def test_ranges(self):
        cfg = ScenarioConfig(n_users=5, n_freqs=12, master_seed=3)
        for trial in range(20):
            users, freqs = generate_scenario(cfg, trial)
            hz = np.array([fr.f for fr in freqs])
            assert np.all((hz >= 2.4e9) & (hz <= 2.5e9))
            assert np.all(np.diff(hz) > 0)  # sorted, collision-free
            for u in users:
                assert 1.0 <= u.h_rx <= 3.0
                assert 20.0 <= u.interval.d_min <= 40.0
                assert 10.0 <= u.interval.d_max - u.interval.d_min <= 100.0

    def test_receiver_height_mean(self):
        # law of large numbers on h_rx ~ unif[1, 3]
        cfg = ScenarioConfig(n_users=100, n_freqs=1, master_seed=17)
        draws = []
        for trial in range(100):
            users, _ = generate_scenario(cfg, trial)
            draws += [u.h_rx for u in users]
        assert len(draws) == 10_000
        assert np.mean(draws) == pytest.approx(2.0, abs=0.05)

    def test_grid_mode_evenly_spaced(self):
        cfg = ScenarioConfig(n_users=1, n_freqs=11, freq_mode="grid")
        _, freqs = generate_scenario(cfg, 0)
        hz = np.array([fr.f for fr in freqs])
        np.testing.assert_allclose(hz, np.linspace(2.4e9, 2.5e9, 11), rtol=1e-15)

    def test_band_too_narrow_for_distinct_draws_raises(self):
        # at most three floats lie in this band, so ten distinct draws never come
        config = ScenarioConfig(n_users=1, n_freqs=10, trials=1, band=(1e9, 1.0000000000000002e9))
        with pytest.raises(ValueError, match="band.*n_freqs=10"):
            generate_scenario(config, 0)


class TestRunTrial:
    def test_records_all_schemes(self):
        users, freqs = generate_scenario(SMALL, 0)
        result = run_trial(users, freqs, SystemConfig(h_tx=10.0), random_seed=1)
        assert set(result.objectives_w) == set(SCHEMES)
        for scheme in SCHEMES:
            assert result.objectives_w[scheme] > 0.0
            assert math.isfinite(result.power_db[scheme])
            assert result.power_db[scheme] == pytest.approx(
                10.0 * math.log10(result.objectives_w[scheme] / 2.0), rel=1e-12
            )
        assert result.greedy_time_s > 0.0

    def test_solvers_looked_up_at_call_time(self, monkeypatch):
        # a rebound module attribute (as a tracer installs) must see the calls
        calls = []

        def recording(name, solver):
            def wrapper(*args):
                calls.append(name)
                return solver(*args)

            return wrapper

        names = ["greedy_construct", "assign_random", "assign_rr_simple",
                 "assign_rr_block", "assign_rr_profits"]
        for name in names:
            monkeypatch.setattr(bench, name, recording(name, getattr(bench, name)))
        users, freqs = generate_scenario(SMALL, 0)
        run_trial(users, freqs, SystemConfig(h_tx=10.0), random_seed=1)
        assert calls == names


def test_one_scheme_registry():
    assert SCHEMES == tuple(SOLVERS)
    assert SCHEME_CHOICES == ("greedy", "random", "rr-simple", "rr-block", "rr-profits", "all")


class TestRunBenchmark:
    def test_single_trial_equals_trial_result(self):
        cfg = ScenarioConfig(n_users=2, n_freqs=6, trials=1, master_seed=5)
        report = run_benchmark(cfg)
        users, freqs = generate_scenario(cfg, 0)
        direct = run_trial(
            users, freqs, SystemConfig(h_tx=10.0), random_seed=(5, 0, 1)
        )
        for scheme in SCHEMES:
            assert report.mean_db[scheme] == pytest.approx(
                direct.power_db[scheme], rel=1e-12
            )

    def test_reproducible_given_seed(self):
        a = run_benchmark(SMALL)
        b = run_benchmark(SMALL)
        assert a.mean_db == b.mean_db
        assert [t.objectives_w for t in a.trial_results] == [
            t.objectives_w for t in b.trial_results
        ]

    def test_trial_order_invariance(self):
        # per-trial RNG streams depend only on (master_seed, trial_index),
        # so evaluating trials out of order changes nothing
        report = run_benchmark(SMALL)
        system = SystemConfig(h_tx=SMALL.h_tx, p_t=SMALL.p_t)
        shuffled = {}
        for t in reversed(range(SMALL.trials)):
            users, freqs = generate_scenario(SMALL, t)
            shuffled[t] = run_trial(
                users, freqs, system, random_seed=(SMALL.master_seed, t, 1)
            )
        for t in range(SMALL.trials):
            assert shuffled[t].objectives_w == report.trial_results[t].objectives_w

    def test_linear_db_aggregation(self):
        report = run_benchmark(SMALL)
        for scheme in SCHEMES:
            lin = np.mean([t.objectives_w[scheme] for t in report.trial_results])
            expected = 10.0 * math.log10(lin / (SMALL.n_users * SMALL.p_t))
            assert report.mean_db[scheme] == pytest.approx(expected, rel=1e-12)


class TestExport:
    def test_csv_layout(self, tmp_path):
        report = run_benchmark(SMALL)
        path = tmp_path / "report.csv"
        export_report(report, "csv", path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "K,N,scheme,mean_db,time_mean_s,time_min_s,time_max_s"
        assert len(lines) == 1 + len(SCHEMES)
        assert all(line.startswith("2,6,") for line in lines[1:])

    def test_json_round_trip(self, tmp_path):
        report = run_benchmark(SMALL)
        path = tmp_path / "report.json"
        export_report(report, "json", path)
        assert json.loads(path.read_text()) == report.to_dict()

    def test_unknown_format_rejected(self):
        report = run_benchmark(SMALL)
        with pytest.raises(ValueError):
            export_report(report, "xml", "/tmp/never.xml")

    def test_write_failure_carries_destination(self, tmp_path):
        report = run_benchmark(SMALL)
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            export_report(report, "csv", str(missing))

    def test_write_failure_leaves_no_temp_file(self, tmp_path):
        report = run_benchmark(SMALL)
        (tmp_path / "x.csv").mkdir()
        with pytest.raises(OSError, match="x.csv"):
            export_report(report, "csv", tmp_path / "x.csv")
        assert [p.name for p in tmp_path.iterdir()] == ["x.csv"]

    def test_rewrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("stale " * 10_000)
        report = run_benchmark(SMALL)
        export_report(report, "json", path)
        assert json.loads(path.read_text()) == report.to_dict()
