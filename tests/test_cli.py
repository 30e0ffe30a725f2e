"""End-to-end CLI tests: subcommands, config layering, output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vodsim import behavior, cli
from vodsim.arrivals import load_trace
from vodsim.behavior import load_histogram
from vodsim.metrics import CSV_HEADER

SMALL = [
    "--capacity", "50", "--video-length", "100",
    "--duration", "1500", "--warmup", "300",
]


def _exit_code(argv):
    """The status `vodsim` exits with: what `main` returns, or the code of
    the SystemExit that argparse raises on a bad flag."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def _rows(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestRun:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main(["run", "--strategy", "sc,sc+,be,bb", "--rho", "0.995",
                         *SMALL, "--out", str(out)])
        assert code == 0
        rows = _rows(out)
        assert [r[0] for r in rows] == ["sc", "sc+", "be", "bb"]
        assert all(len(r) == len(CSV_HEADER.split(",")) for r in rows)

    def test_json_format(self, tmp_path):
        out = tmp_path / "out.json"
        code = cli.main(["run", "--strategy", "be", "--rho", "0.9",
                         *SMALL, "--format", "json", "--out", str(out)])
        assert code == 0
        docs = json.loads(out.read_text())
        assert docs[0]["strategy"] == "be"

    def test_empty_strategy_list_is_an_error(self, tmp_path, capsys):
        assert _exit_code(["run", "--rho", "0.9", "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: the following arguments are required: --strategy" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_blank_strategy_list_is_an_error(self, tmp_path, capsys):
        code = _exit_code(["run", "--strategy", "", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: argument --strategy: needs at least one strategy" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "--strategy", "nope", "--rho", "0.9"])

    def test_trace_mode_with_target_fraction(self, tmp_path):
        trace = tmp_path / "trace.txt"
        cli.main(["gen", "trace", "--slots", "1200", "--base-rate", "0.2",
                  "--peak-rate", "1.5", "--out", str(trace)])
        out = tmp_path / "out.csv"
        code = cli.main(["run", "--strategy", "sc,be", "--trace", str(trace),
                         "--capacity", "unlimited", "--target-fraction", "0.95",
                         "--video-length", "100", "--warmup", "200",
                         "--out", str(out)])
        assert code == 0
        rows = _rows(out)
        assert [r[0] for r in rows] == ["sc", "be"]
        assert all(r[1] == "" for r in rows)  # trace rows carry no rho

    def test_target_fraction_takes_unlimited_or_no_capacity(self, tmp_path):
        # `--target-fraction` sets the capacity itself; each of these leaves
        # it to do so, and all give the same table.
        trace = tmp_path / "trace.txt"
        cli.main(["gen", "trace", "--slots", "1200", "--base-rate", "0.2",
                  "--peak-rate", "1.5", "--out", str(trace)])
        unlimited = tmp_path / "unlimited.cfg"
        unlimited.write_text("server_capacity = unlimited\n")
        finite = tmp_path / "finite.cfg"
        finite.write_text("server_capacity = 500\n")
        tables = []
        for i, flags in enumerate([["--capacity", "unlimited"], [], ["--config", str(unlimited)],
                                   ["--config", str(finite), "--capacity", "unlimited"]]):
            out = tmp_path / f"out{i}.csv"
            assert cli.main(["run", "--strategy", "sc,be", "--trace", str(trace), *flags,
                             "--target-fraction", "0.95", "--video-length", "100",
                             "--warmup", "200", "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert len(set(tables)) == 1 and len(_rows(out)) == 2

    def test_repetition_does_not_replay_next_seed(self, tmp_path):
        # Repetition 1 of seed 1 must not replay the first row of seed 2;
        # repetition 0 keeps the given seed.
        def table(seed, reps):
            out = tmp_path / f"seed{seed}x{reps}.csv"
            assert cli.main(["run", "--strategy", "be", "--rho", "0.995", *SMALL,
                             "--seed", str(seed), "--repetitions", str(reps),
                             "--out", str(out)]) == 0
            return _rows(out)

        first, second = table(1, 2)
        assert first == table(1, 1)[0]
        assert second != table(2, 1)[0]


class TestInputErrors:
    """Bad flag combinations exit 2 with an `error:` line, not a numpy error
    or a silently empty or unchanged table."""

    def test_unlimited_capacity_with_poisson_arrivals(self, tmp_path, capsys):
        code = cli.main(["run", "--strategy", "be", "--capacity", "unlimited",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: Poisson arrivals need a finite --capacity" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_zero_repetitions(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--strategy", "be", "--repetitions", "0",
                      "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "error: argument --repetitions" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("args, message", [
        (["run", "--rho", "nan", *SMALL], "rho must be positive and finite, got nan"),
        (["run", "--rho", "inf", *SMALL], "rho must be positive and finite, got inf"),
        (["sweep", "--rho", "0.8,nan", *SMALL],
         "argument --rho: needs positive load points, got '0.8,nan'"),
        (["run", "--trace", "day.trace", "--trace-scale", "nan"],
         "trace scale must be positive and finite, got nan"),
        (["run", "--trace", "day.trace", "--trace-scale", "inf"],
         "trace scale must be positive and finite, got inf"),
    ], ids=["run-rho-nan", "run-rho-inf", "sweep-rho-nan", "trace-scale-nan", "trace-scale-inf"])
    def test_rejects_nonfinite_load(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "day.trace").write_text("1\n2\n0\n3\n")
        code = _exit_code([*args, "--strategy", "be", "--out", "x.csv"])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flags, message", [
        (["--duration", "200", "--warmup", "500"],
         "warmup (500 slots) must be shorter than the duration (200 slots)"),
        (["--duration", "0"], "warmup (200 slots) must be shorter than the duration (0 slots)"),
        (["--duration", "300", "--warmup", "300"],
         "warmup (300 slots) must be shorter than the duration (300 slots)"),
    ], ids=["warmup-above", "zero-duration", "warmup-equal"])
    def test_warmup_leaves_no_measured_slot(self, tmp_path, capsys, command, flags, message):
        code = _exit_code([command, "--strategy", "be", "--rho", "0.9", "--capacity", "50",
                           "--video-length", "100", *flags, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_nan_bitrate(self, tmp_path, capsys):
        code = _exit_code(["run", "--strategy", "be", "--bitrate", "nan", "--rho", "0.9",
                           *SMALL, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: bitrate must be positive, got nan" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_infinite_bitrate(self, tmp_path, capsys):
        trace = tmp_path / "day.trace"
        trace.write_text("1\n2\n0\n3\n" * 100)
        code = _exit_code(["run", "--strategy", "be,eb", "--trace", str(trace),
                           "--capacity", "100", "--bitrate", "inf", "--warmup", "100",
                           "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: bitrate must be finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("line, message", [
        ("startup_threshold = inf", "startup_threshold must be finite, got inf"),
        ("seed = -1", "seed must be nonnegative, got -1"),
    ])
    def test_rejects_bad_config_file_value(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(line + "\n")
        code = _exit_code(["run", "--strategy", "be", "--config", str(cfg), *SMALL,
                           "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert f"error: {cfg}:1: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text, message", [
        ("duration = 10.5", "duration must be an integer, got '10.5'"),
        ("bitrate = fast", "bitrate must be a number, got 'fast'"),
        ("seed = 3\n\nserver_capacity = lots",
         "server_capacity must be a number or 'unlimited', got 'lots'"),
        # A repeated key, and values that parse but fail validation.
        ("duration = 10\nduration = 20", "duplicate config key 'duration' (first set on line 1)"),
        ("seed = 1\n# note\nbitrate = 2\nseed = 1",
         "duplicate config key 'seed' (first set on line 1)"),
        ("seed = -1", "seed must be nonnegative, got -1"),
        ("seed = 3\nplayback_model = bogus", "playback_model must be 'freeze' or 'skip'"),
        # A message naming two fields: the line of the one the file set
        # (rebuffer_threshold keeps its default 2.0), or the later of both.
        ("video_length = 100\nfreeze_trigger = 3", "rebuffer_threshold must be >= freeze_trigger"),
        ("freeze_trigger = 1\nseed = 4\nrebuffer_threshold = 0.5",
         "rebuffer_threshold must be >= freeze_trigger"),
        ("rebuffer_threshold = 0.5\nseed = 4\nfreeze_trigger = 1",
         "rebuffer_threshold must be >= freeze_trigger"),
    ])
    def test_config_file_value_error_names_file_line_and_key(self, tmp_path, capsys, text,
                                                            message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(text + "\n")
        line = text.count("\n") + 1
        code = _exit_code(["run", "--strategy", "be", "--config", str(cfg), *SMALL,
                           "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_config_file_value_a_flag_overrides_is_not_reported(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 3\nvideo_length = 0\n")
        code = _exit_code(["run", "--strategy", "be", "--config", str(cfg),
                           "--video-length", "-3", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: video_length must be positive\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", [
        ["run", "--strategy", "be"], ["sweep", "--strategy", "be", "--rho", "0.9"],
        ["gen", "trace", "--out", "x.trace"], ["verify"],
    ], ids=["run", "sweep", "gen", "verify"])
    def test_rejects_negative_seed(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert _exit_code([*command, "--seed", "-1"]) == 2
        assert ("argument --seed: must be a nonnegative integer, got -1"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
    def test_rejects_bad_target_fraction_before_any_run(self, tmp_path, monkeypatch, capsys,
                                                        value):
        def no_run(*args):
            raise AssertionError("the flag must be checked before the reference run")

        monkeypatch.setattr(cli.engine, "run", no_run)
        trace = tmp_path / "day.trace"
        trace.write_text("1\n2\n0\n3\n" * 100)
        code = _exit_code(["run", "--strategy", "be", "--trace", str(trace),
                           "--capacity", "unlimited", "--video-length", "100",
                           "--target-fraction", value, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert ("error: argument --target-fraction: must be positive and finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("capacity, text, given", [
        ("5", None, "--capacity 5.0"),
        ("5000", None, "--capacity 5000.0"),
        (None, "seed = 3\nserver_capacity = 500\n", "{cfg}:2: server_capacity 500.0"),
    ], ids=["flag 5", "flag 5000", "config file 500"])
    def test_rejects_finite_capacity_with_target_fraction(self, tmp_path, monkeypatch, capsys,
                                                          capacity, text, given):
        # The fraction sets the capacity from sc's unlimited peak, so a finite
        # capacity beside it would be dropped without a word.
        def no_run(*args):
            raise AssertionError("the conflict must be found before the reference run")

        monkeypatch.setattr(cli.engine, "run", no_run)
        trace = tmp_path / "day.trace"
        trace.write_text("1\n2\n0\n3\n" * 100)
        cfg = tmp_path / "sim.cfg"
        flags = ["--capacity", capacity] if capacity else []
        if text:
            cfg.write_text(text)
            flags += ["--config", str(cfg)]
        code = _exit_code(["run", "--strategy", "be", "--trace", str(trace), *flags,
                           "--video-length", "100", "--target-fraction", "0.9",
                           "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert (f"error: {given.format(cfg=cfg)} conflicts with --target-fraction"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("capacity", ["unlimited", "100"])
    def test_zero_duration_trace_run_is_rejected(self, tmp_path, monkeypatch, capsys, capacity):
        # --duration 0 is a duration, not a request for the trace's length.
        def no_run(*args):
            raise AssertionError("a run with no slot must not start")

        monkeypatch.setattr(cli.engine, "run", no_run)
        trace = tmp_path / "day.trace"
        trace.write_text("1\n2\n0\n3\n" * 100)
        code = _exit_code(["run", "--strategy", "be", "--trace", str(trace),
                           "--capacity", capacity, "--duration", "0", "--warmup", "0",
                           "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert ("error: warmup (0 slots) must be shorter than the duration (0 slots)"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_rejects_nonpositive_config_file_capacity(self, tmp_path, capsys, value):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"server_capacity = {value}\n")
        code = _exit_code(["run", "--strategy", "be", "--config", str(cfg),
                           "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert (f"error: {cfg}:1: server_capacity must be positive, got {float(value)}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_capacity_flag_keeps_its_usage_error(self, capsys, value):
        assert _exit_code(["run", "--strategy", "be", "--capacity", value]) == 2
        assert ("error: argument --capacity: capacity must be positive or 'unlimited'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_verify_rejects_fewer_than_one_case(self, capsys, value):
        assert _exit_code(["verify", "--cases", value]) == 2
        err = capsys.readouterr()
        assert f"argument --cases: must be a positive integer, got {value}" in err.err
        assert "PASS" not in err.out

    @pytest.mark.parametrize("argv", [
        ["run", "--target-fraction", "0.9", "--trace", ""],
        ["run", "--histogram", ""],
        ["sweep", "--rho", "0.9", "--histogram", ""],
        ["run", "--config", ""],
        ["run", "--out", ""],
        ["sweep", "--rho", "0.9", "--out", ""],
        ["run", "--ledger-out", ""],
    ], ids=["trace", "histogram", "sweep-histogram", "config", "out", "sweep-out",
            "ledger-out"])
    def test_rejects_an_empty_path_before_any_run(self, tmp_path, monkeypatch, capsys, argv):
        # An empty path was once read as no path, so that `--trace ""` ran
        # Poisson arrivals and dropped the target fraction.
        def no_run(*args):
            raise AssertionError("an empty path must be rejected before any run")

        monkeypatch.setattr(cli.engine, "run", no_run)
        monkeypatch.chdir(tmp_path)
        flag = argv[-2]
        out = [] if flag == "--out" else ["--out", "x.csv"]
        code = _exit_code([*argv, "--strategy", "be", "--video-length", "50",
                           "--duration", "300", "--warmup", "100", *out])
        assert code == 2
        assert f"error: argument {flag}: needs a file path, got ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_gen_rejects_an_empty_out_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert _exit_code(["gen", "trace", "--slots", "100", "--out", ""]) == 2
        assert "error: argument --out: needs a file path, got ''" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_target_fraction_without_trace(self, tmp_path, capsys):
        code = cli.main(["run", "--strategy", "be", "--target-fraction", "0.9",
                         *SMALL, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "error: --target-fraction" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestSweep:
    def test_freeze_ratio_monotone_in_load(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--strategy", "be", "--rho", "0.8,0.995,1.1",
                         "--capacity", "50", "--video-length", "100",
                         "--duration", "2500", "--warmup", "500", "--out", str(out)])
        assert code == 0
        ratios = [float(r[5]) for r in _rows(out)]
        assert ratios == sorted(ratios)

    def test_light_load_all_strategies_freeze_free(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--strategy", "sc,sc+,be,eb,ew,bb", "--rho", "0.5",
                         "--capacity", "30", "--video-length", "60",
                         "--duration", "800", "--warmup", "200", "--out", str(out)])
        assert code == 0
        for row in _rows(out):
            assert float(row[2]) == 0.0  # percent_user
            assert float(row[5]) == 0.0  # freeze_ratio

    def test_rejects_nonpositive_rho(self, capsys):
        assert _exit_code(["sweep", "--strategy", "be", "--rho", "0,-1"]) == 2
        assert ("error: argument --rho: needs positive load points, got '0,-1'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flag, value", [
        ("--trace", "day.trace"),
        ("--trace-scale", "2"),
        ("--target-fraction", "0.9"),
        ("--ledger-out", "ledger.csv"),
    ])
    def test_rejects_run_only_flags(self, tmp_path, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--strategy", "be", "--rho", "0.8", *SMALL,
                      "--out", "sweep.csv", flag, value])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestGen:
    def test_histogram_roundtrips_through_loader(self, tmp_path):
        out = tmp_path / "hist.txt"
        assert cli.main(["gen", "histogram", "--bins", "200", "--out", str(out)]) == 0
        assert load_histogram(out).size == 200

    def test_trace_has_requested_length(self, tmp_path):
        out = tmp_path / "trace.txt"
        assert cli.main(["gen", "trace", "--slots", "86400", "--out", str(out)]) == 0
        assert load_trace(out).length == 86400

    def test_negative_mass_is_a_usage_error(self, tmp_path):
        code = cli.main(["gen", "histogram", "--browse-mass", "-0.5",
                         "--out", str(tmp_path / "h.txt")])
        assert code != 0

    @pytest.mark.parametrize("flag, name", [
        ("--browse-mass", "browse_mass"), ("--complete-mass", "complete_mass"),
    ])
    def test_nan_mass_is_a_usage_error(self, tmp_path, capsys, flag, name):
        out = tmp_path / "h.txt"
        assert cli.main(["gen", "histogram", flag, "nan", "--out", str(out)]) == 2
        assert f"error: {name} must lie in [0, 1], got nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--base-rate", "nan"), ("--base-rate", "inf"), ("--peak-rate", "nan"),
    ])
    def test_nonfinite_trace_rate_is_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "day.trace"
        assert cli.main(["gen", "trace", "--slots", "100", flag, value, "--out", str(out)]) == 2
        name = flag[2:].replace("-", "_")
        assert f"error: {name} must be nonnegative and finite, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestConfigLayering:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 1\nserver_capacity = 30  # comment\nduration = 900\n")
        args_file_only = ["run", "--strategy", "be", "--rho", "0.9",
                          "--video-length", "100", "--warmup", "200",
                          "--config", str(cfg)]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(args_file_only + ["--out", str(out_a)]) == 0
        assert cli.main(args_file_only + ["--seed", "777", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bogus = 1\n")
        assert cli.main(["run", "--strategy", "be", "--config", str(cfg)]) == 2

    def test_histogram_bin_mismatch_rejected(self, tmp_path, capsys):
        hist = tmp_path / "hist.txt"
        behavior.save_histogram(behavior.synthetic_model(50, 0.4, 0.2, 0.3), hist)
        code = _exit_code(["run", "--strategy", "be", "--video-length", "100",
                           "--histogram", str(hist)])
        assert code == 2
        assert ("error: departure model has 50 slots but video_length is 100"
                in capsys.readouterr().err)

    def test_nan_histogram_bin_names_its_line(self, tmp_path, capsys):
        # At unlimited capacity on a trace a NaN bin once ran and printed a
        # row; it must stop the run at its file and line.
        hist = tmp_path / "hist.txt"
        hist.write_text("0,0.5\n1,0.5\n2,nan\n")
        trace = tmp_path / "day.trace"
        trace.write_text("1\n2\n0\n3\n" * 100)
        code = _exit_code(["run", "--strategy", "be", "--trace", str(trace),
                           "--capacity", "unlimited", "--video-length", "3", "--warmup", "10",
                           "--histogram", str(hist), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert (f"error: {hist}:3: probability must be finite, got nan"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text, where, message", [
        ("0,1.5\n1,-0.5\n", ":1", "probability must lie in [0, 1], got 1.5"),
        ("0,0.5\n1,-0.5\n2,1.0\n", ":2", "probability must lie in [0, 1], got -0.5"),
        ("0,0.5\n1,0.7\n2,0.0\n", "", "bin probabilities sum to 1.2, expected 1"),
    ], ids=["above 1", "below 0", "sum"])
    def test_bad_histogram_probability_names_its_place(self, tmp_path, capsys, text, where,
                                                       message):
        hist = tmp_path / "hist.txt"
        hist.write_text(text)
        code = _exit_code(["run", "--strategy", "be", "--rho", "0.9", *SMALL,
                           "--histogram", str(hist), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {hist}{where}: {message}\n"
        assert not (tmp_path / "x.csv").exists()


class TestVerify:
    def test_all_oracles_pass(self, capsys):
        assert cli.main(["verify", "--cases", "5"]) == 0
        output = capsys.readouterr().out
        lines = [l for l in output.strip().splitlines() if l]
        assert len(lines) == 4
        assert all(l.startswith("PASS") for l in lines)
        assert all(l.endswith("(failures 0 of 5)") for l in lines[1:])

    def test_a_failing_claim_fails_its_line_and_the_exit_status(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.analysis, "equal_waste_failures", lambda rng, cases: 2)
        assert cli.main(["verify", "--cases", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == "FAIL  min-max waste split equalizes waste rates  (failures 2 of 3)"
        assert [l[:4] for l in lines] == ["PASS", "PASS", "FAIL", "PASS"]


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["run", "--bogus"], 2)])
    def test_python_m_vodsim_exits_with_the_cli_status(self, argv, code):
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "vodsim", *argv], capture_output=True,
                             text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == code, out.stderr
        assert "usage: vodsim" in (out.stdout if code == 0 else out.stderr)
