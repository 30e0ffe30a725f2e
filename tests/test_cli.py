"""End-to-end CLI tests: subcommands, config layering, output formats."""

import json

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

    def test_empty_strategy_list_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["run", "--rho", "0.9", "--out", str(tmp_path / "x.csv")])

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
        (["sweep", "--rho", "0.8,nan", *SMALL], "rho must be positive and finite, got nan"),
        (["run", "--trace", "day.trace", "--trace-scale", "nan"],
         "trace scale must be positive and finite, got nan"),
        (["run", "--trace", "day.trace", "--trace-scale", "inf"],
         "trace scale must be positive and finite, got inf"),
    ], ids=["run-rho-nan", "run-rho-inf", "sweep-rho-nan", "trace-scale-nan", "trace-scale-inf"])
    def test_rejects_nonfinite_load(self, tmp_path, monkeypatch, capsys, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "day.trace").write_text("1\n2\n0\n3\n")
        code = cli.main([*args, "--strategy", "be", "--out", "x.csv"])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

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

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--strategy", "be", "--rho", "0,-1"])

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
        hist = load_histogram(out)
        assert hist.bins == 200

    def test_trace_has_requested_length(self, tmp_path):
        out = tmp_path / "trace.txt"
        assert cli.main(["gen", "trace", "--slots", "86400", "--out", str(out)]) == 0
        assert load_trace(out).length == 86400

    def test_negative_mass_is_a_usage_error(self, tmp_path):
        code = cli.main(["gen", "histogram", "--browse-mass", "-0.5",
                         "--out", str(tmp_path / "h.txt")])
        assert code != 0


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

    def test_histogram_bin_mismatch_rejected(self, tmp_path):
        hist = tmp_path / "hist.txt"
        behavior.save_histogram(behavior.synthetic_model(50, 0.4, 0.2, 0.3), hist)
        with pytest.raises(SystemExit):
            cli.main(["run", "--strategy", "be", "--video-length", "100",
                      "--histogram", str(hist)])


class TestVerify:
    def test_all_oracles_pass(self, capsys):
        assert cli.main(["verify", "--cases", "5"]) == 0
        output = capsys.readouterr().out
        lines = [l for l in output.strip().splitlines() if l]
        assert len(lines) == 4
        assert all(l.startswith("PASS") for l in lines)
