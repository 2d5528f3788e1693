import csv
import filecmp
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from critical_esn import cli
from critical_esn.cli import fmt, main, parse_grid
from critical_esn.reservoir import anchored_orbit_state, anchored_reservoir


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cell_by_cell(header, rows) -> str:
    """The text of ``write_csv(path, header, rows)``, one ``fmt`` per cell."""
    return ",".join(header) + "\n" + "".join(",".join(map(fmt, row)) + "\n" for row in rows)


class TestHelpers:
    def test_fmt_roundtrips_doubles(self):
        values = [0.1, 1.0 / 3.0, math.pi, 1e-300, -7.25, 2.3441859259659443]
        for v in values:
            assert float(fmt(v)) == v

    def test_fmt_cells(self):
        assert [fmt(v) for v in ("a,b", "", True, np.int64(-7), 2**70, 0.1, np.float32(0.5),
                                 -0.0, math.nan, -math.inf)] == [
            "a,b", "", "1", "-7", str(2**70), "0.10000000000000001", "0.5", "-0", "nan", "-inf"]

    def test_write_csv_matches_cell_by_cell(self, tmp_path, monkeypatch):
        # Chunks of 3 rows: columns change type between and within chunks.
        monkeypatch.setattr(cli, "_CSV_CHUNK", 3)
        rows = [(np.int64(i), float(i) / 3.0, "" if i % 4 else np.float64(i) / 7.0, "x")
                for i in range(10)]
        rows += [(10, 1, 2.5, 3)]
        cli.write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], iter(rows))
        assert (tmp_path / "t.csv").read_text() == cell_by_cell(["a", "b", "c", "d"], rows)

    @pytest.mark.parametrize("n", [0, cli._CSV_CHUNK, cli._CSV_CHUNK + 1])
    def test_write_csv_chunk_edges(self, tmp_path, n):
        rows = [(i, i / 7.0, "%d,%s %%" if i % 5 else "") for i in range(n)]
        cli.write_csv(tmp_path / "t.csv", ["t", "d", "s"], rows)
        assert (tmp_path / "t.csv").read_text() == cell_by_cell(["t", "d", "s"], rows)

    def test_write_csv_column_changes_type_between_chunks(self, tmp_path):
        # Column "c" is "" throughout the first chunk and a float in the second.
        n = cli._CSV_CHUNK
        rows = [(i, "" if i < n else i / 3.0) for i in range(n + 10)]
        cli.write_csv(tmp_path / "t.csv", ["t", "c"], rows)
        assert (tmp_path / "t.csv").read_text() == cell_by_cell(["t", "c"], rows)

    def test_write_csv_rejects_a_row_of_another_width(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            cli.write_csv(tmp_path / "t.csv", ["a", "b"], [(1, 2.0), (3,)])

    def test_write_csv_rejects_a_short_row_in_a_later_chunk(self, tmp_path):
        rows = [(i, 2.0) for i in range(cli._CSV_CHUNK)] + [(1, 2.0), (3,)]
        with pytest.raises(ValueError, match="width"):
            cli.write_csv(tmp_path / "t.csv", ["a", "b"], rows)

    def test_write_csv_memory_is_bounded_by_the_chunk(self, tmp_path):
        # A forgetting curve dump: 100,001 (t, d) rows from two arrays.  A
        # chunk holds well under 1 MiB; whole-column lists would hold 7.5.
        t = np.arange(100_001)
        d = np.linspace(0.0, 1.0, t.size)
        tracemalloc.start()
        try:
            cli.write_csv(tmp_path / "t.csv", ["t", "d"], zip(t, d))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_parse_grid_range(self):
        grid = parse_grid("0.5:1.0:0.25")
        assert grid.tolist() == [0.5, 0.75, 1.0]

    def test_parse_grid_list(self):
        assert parse_grid("0.25,1.5").tolist() == [0.25, 1.5]

    def test_parse_grid_snaps_overshooting_endpoint(self):
        # 0.05 + 0.05 * 29 accumulates to 1.5000000000000002.
        grid = parse_grid("0.05:1.5:0.05")
        assert grid.size == 30
        assert grid[-1] == 1.5
        assert np.array_equal(grid[:-1], 0.05 + 0.05 * np.arange(29))

    def test_parse_grid_leaves_points_below_stop(self):
        grid = parse_grid("0.0005:1.5:0.0005")
        assert np.array_equal(grid, 0.0005 + 0.0005 * np.arange(3000))
        assert grid[-1] == 1.5
        # The snap only touches an endpoint within 1e-9 of a step past stop.
        assert parse_grid("0.1:1.05:0.2").tolist() == (0.1 + 0.2 * np.arange(5)).tolist()

    @pytest.mark.parametrize("text", ["nan,1.0", "0.5,inf", "nan:1.0:0.25",
                                      "0.5:inf:0.25", "0.5:1.0:nan"])
    def test_parse_grid_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(text)


class TestTransferDump:
    def test_bridge_curve(self, tmp_path):
        assert run_cli("--out", tmp_path, "transfer-dump", "--ecps=-1,0,1",
                       "--variant", "bridge", "--n", 201) == 0
        rows = read_rows(tmp_path / "transfer.csv")
        assert len(rows) == 201
        assert list(rows[0]) == ["x", "theta", "slope"]
        xs = np.array([float(r["x"]) for r in rows])
        slopes = np.array([float(r["slope"]) for r in rows])
        inside = (xs > -1.0) & (xs < 1.0)
        assert np.all(slopes[inside] > 0.0)
        markers = read_rows(tmp_path / "transfer_ecps.csv")
        assert [float(r["ecp"]) for r in markers] == [-1.0, 0.0, 1.0]

    def test_plateau_curve_has_flat_rows(self, tmp_path):
        assert run_cli("--out", tmp_path, "transfer-dump", "--ecps=-1,0,1",
                       "--variant", "plateau", "--n", 201) == 0
        rows = read_rows(tmp_path / "transfer.csv")
        xs = np.array([float(r["x"]) for r in rows])
        slopes = np.array([float(r["slope"]) for r in rows])
        inside = (xs > -1.0) & (xs < 1.0)
        assert np.any(slopes[inside] == 0.0)

    def test_pure_tanh_dump(self, tmp_path):
        assert run_cli("--out", tmp_path, "transfer-dump", "--ecps", "0",
                       "--lo", -2, "--hi", 2, "--n", 5) == 0
        rows = read_rows(tmp_path / "transfer.csv")
        for r in rows:
            assert float(r["theta"]) == float(np.tanh(float(r["x"])))

    def test_plot_script_emitted_on_request(self, tmp_path):
        assert run_cli("--out", tmp_path, "transfer-dump", "--ecps", "0",
                       "--emit-plot-script") == 0
        assert (tmp_path / "plot_transfer.py").exists()

    def test_builder_error_gives_nonzero_exit(self, tmp_path, capsys):
        code = run_cli("--out", tmp_path, "transfer-dump", "--ecps", "0,1e-9")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("variant", ["plateau", "bridge"])
    def test_saturated_anchors_named(self, tmp_path, capsys, variant):
        assert run_cli("--out", tmp_path, "transfer-dump", "--ecps", "20,21",
                       "--variant", variant) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: anchors 20 and 21") and err.count("\n") == 1
        assert "saturates" in err
        assert not (tmp_path / "transfer.csv").exists()


class TestSweepAlpha:
    def test_values_track_log_alpha(self, tmp_path):
        assert run_cli("--seed", 3, "--out", tmp_path, "sweep-alpha",
                       "--grid", "0.5,1.0", "--horizon", 2000) == 0
        rows = read_rows(tmp_path / "sweep_alpha.csv")
        by_alpha = {float(r["alpha"]): float(r["lambda"]) for r in rows}
        assert by_alpha[0.5] == pytest.approx(math.log(0.5), abs=0.01)
        assert abs(by_alpha[1.0]) <= 0.01

    def test_monotone_in_alpha(self, tmp_path):
        assert run_cli("--seed", 3, "--out", tmp_path, "sweep-alpha",
                       "--grid", "0.25:1.25:0.25", "--horizon", 2000) == 0
        lams = [float(r["lambda"]) for r in read_rows(tmp_path / "sweep_alpha.csv")]
        assert np.all(np.diff(lams) > 0.0)

    def test_grid_domain_enforced(self, tmp_path):
        assert run_cli("--out", tmp_path, "sweep-alpha", "--grid", "1.0,1.6",
                       "--horizon", 2000) == 1

    def test_default_grid_in_range_syntax(self, tmp_path):
        # The documented default grid 0.05..1.50, written as a range.
        assert run_cli("--out", tmp_path, "sweep-alpha", "--grid", "0.05:1.5:0.05",
                       "--horizon", 1000) == 0
        alphas = [float(r["alpha"]) for r in read_rows(tmp_path / "sweep_alpha.csv")]
        assert len(alphas) == 30 and alphas[-1] == 1.5

    @pytest.mark.parametrize("grid", ["0.1:0.2", "0.1:0.2:0.05:1", "0.5,,0.6", ":"])
    def test_malformed_grid_rejected(self, tmp_path, capsys, grid):
        assert run_cli("--out", tmp_path, "sweep-alpha", "--grid", grid, "--horizon", 2000) == 1
        assert capsys.readouterr().err == (
            f"error: --grid {grid!r} is neither start:stop:step nor a comma-separated list of "
            "numbers\n")
        assert not (tmp_path / "sweep_alpha.csv").exists()

    def test_nan_grid_rejected(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path, "sweep-alpha", "--grid", "nan,1.0",
                       "--horizon", 2000) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "sweep_alpha.csv").exists()

    def test_short_horizon_rejected(self, tmp_path):
        assert run_cli("--out", tmp_path, "sweep-alpha", "--grid", "1.0",
                       "--horizon", 500) == 1

    def test_horizon_cap(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path, "sweep-alpha", "--horizon", 2_000_000) == 1
        assert capsys.readouterr().err == "error: horizon above the 1e6 cap\n"


class TestSweepGamma:
    def test_lane_properties(self, tmp_path):
        assert run_cli("--seed", 3, "--out", tmp_path, "sweep-gamma",
                       "--grid", "0.9,1.0,1.2", "--horizon", 2000) == 0
        rows = read_rows(tmp_path / "sweep_gamma.csv")
        by_gamma = {float(r["gamma"]): r for r in rows}
        assert all(float(r["lambda_ecp"]) <= 1e-3 for r in rows)
        assert float(by_gamma[1.2]["lambda_tanh"]) > 0.0
        assert abs(float(by_gamma[1.0]["lambda_tanh"])) <= 0.01
        assert abs(float(by_gamma[1.0]["lambda_ecp"])) <= 0.01

    def test_horizon_cap(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path, "sweep-gamma", "--horizon", 2_000_000) == 1
        assert capsys.readouterr().err == "error: horizon above the 1e6 cap\n"


class TestSweepsRunThePreset:
    """Each default sweep lane is the anchored preset, bit for bit."""

    def lanes(self, tmp_path, monkeypatch, command):
        calls = []

        def record(w, w_in, u, transfer, **kwargs):
            calls.append((w, w_in, transfer, kwargs["y0"]))
            return np.zeros(len(w)), np.zeros(len(w))

        monkeypatch.setattr(cli, "renormalized_scalar_batch", record)
        assert run_cli("--out", tmp_path, command) == 0
        [call] = calls
        column = command.split("-")[1]
        grid = [float(r[column]) for r in read_rows(tmp_path / f"sweep_{column}.csv")]
        return grid, call

    def check(self, preset, w, w_in, transfer, y0, gamma=1.0):
        assert float(w).hex() == float(preset.W[0, 0]).hex()
        assert float(w_in).hex() == float(preset.w_in[0, 0] * gamma).hex()
        assert float(y0).hex() == float(anchored_orbit_state()[0]).hex()
        assert (transfer.ecps, transfer.variant) == (preset.transfers[0].ecps,
                                                     preset.transfers[0].variant)

    def test_sweep_alpha(self, tmp_path, monkeypatch):
        grid, (w, w_in, transfer, y0) = self.lanes(tmp_path, monkeypatch, "sweep-alpha")
        assert len(grid) == len(w) == 30
        for i, alpha in enumerate(grid):
            self.check(anchored_reservoir(alpha), w[i], w_in[i], transfer, y0)

    def test_sweep_gamma(self, tmp_path, monkeypatch):
        grid, (w, w_in, transfer, y0) = self.lanes(tmp_path, monkeypatch, "sweep-gamma")
        assert len(grid) == len(w) == 21
        for i, gamma in enumerate(grid):
            self.check(anchored_reservoir(1.0), w[i], w_in[i], transfer, y0, gamma)


class TestForgetting:
    def test_alternating_power_law_report(self, tmp_path):
        assert run_cli("--seed", 0, "--out", tmp_path, "forgetting",
                       "--input", "alternating", "--init", "fixed-delta",
                       "--horizon", 20000) == 0
        report = (tmp_path / "forgetting_report.txt").read_text()
        assert "power_law" in report
        rows = read_rows(tmp_path / "forgetting.csv")
        assert list(rows[0]) == ["t", "d"]
        config = (tmp_path / "forgetting_config.txt").read_text()
        assert "kind=anchored" in config and "variant=bridge" in config

    def test_iid_replicates_die_out(self, tmp_path):
        assert run_cli("--seed", 0, "--out", tmp_path, "forgetting",
                       "--input", "iid", "--init", "bit-scale",
                       "--horizon", 2000, "--replicates", 2) == 0
        for rep in range(2):
            rows = read_rows(tmp_path / f"forgetting_r{rep}.csv")
            assert float(rows[-1]["d"]) == 0.0
        report = (tmp_path / "forgetting_report.txt").read_text()
        assert report.count("exponential") >= 2
        assert "exact zero" in report
        fits = read_rows(tmp_path / "forgetting_fits.csv")
        assert [r["replicate"] for r in fits] == ["0", "1"]
        assert all(r["law"] == "exponential" for r in fits)
        assert all(40 <= int(r["truncated_at"]) <= 400 for r in fits)

    def test_horizon_cap(self, tmp_path):
        assert run_cli("--out", tmp_path, "forgetting", "--horizon", 2_000_000) == 1

    def test_too_short_for_a_bend(self, tmp_path):
        assert run_cli("--out", tmp_path, "forgetting", "--horizon", 2) == 0
        report = (tmp_path / "forgetting_report.txt").read_text()
        assert "decay law: inconclusive" in report
        assert "log-log bend: series too short" in report

    def test_run_leaves_numpy_ma_unimported(self, tmp_path):
        # np.unique imports numpy.ma on its first call, 14-25 ms of a one-shot run.
        code = ("import sys; from critical_esn.cli import main; "
                f"code = main(['--out', {str(tmp_path)!r}, 'forgetting', '--horizon', '2000']); "
                "sys.exit(code or 'numpy.ma' in sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "log-log bend" in (tmp_path / "forgetting_report.txt").read_text()


class TestCriticalB:
    def test_quarter_pi_row(self, tmp_path):
        assert run_cli("--out", tmp_path, "critical-b") == 0
        row = read_rows(tmp_path / "critical_b.csv")[0]
        assert 2.343 <= float(row["b_star"]) <= 2.345
        assert 0.756 <= float(row["s_star"]) <= 0.758
        assert float(row["residual_orbit"]) < 1e-12
        assert float(row["residual_tangent"]) < 1e-12

    def test_bad_amplitude(self, tmp_path):
        assert run_cli("--out", tmp_path, "critical-b", "--amplitude", -2) == 1


class TestLyapunovCommand:
    def test_anchored_renormalized(self, tmp_path):
        assert run_cli("--seed", 1, "--out", tmp_path, "lyapunov", "--preset", "anchored",
                       "--alpha", 0.5, "--horizon", 2000) == 0
        row = read_rows(tmp_path / "lyapunov.csv")[0]
        assert float(row["lambda"]) == pytest.approx(math.log(0.5), abs=0.01)
        assert row["method"] == "renormalized"
        text = (tmp_path / "lyapunov.txt").read_text()
        assert "kind=anchored" in text and "alpha=0.5" in text

    def test_baseline_critical_derivative_product(self, tmp_path):
        assert run_cli("--seed", 1, "--out", tmp_path, "lyapunov", "--preset", "baseline",
                       "--b", "critical", "--method", "derivative_product",
                       "--horizon", 2000) == 0
        row = read_rows(tmp_path / "lyapunov.csv")[0]
        assert abs(float(row["lambda"])) <= 1e-3
        assert row["d0"] == ""

    def test_baseline_numeric_gain(self, tmp_path):
        # An under-critical gain from the zero state contracts strongly.
        assert run_cli("--seed", 1, "--out", tmp_path, "lyapunov", "--preset", "baseline",
                       "--b", "0.5", "--horizon", 2000) == 0
        row = read_rows(tmp_path / "lyapunov.csv")[0]
        assert float(row["lambda"]) < 0.0
        assert "b=0.5" in (tmp_path / "lyapunov.txt").read_text()


    def test_method_takes_two_values(self, tmp_path):
        for alias in ("renorm", "derivprod"):
            with pytest.raises(SystemExit) as exc:
                run_cli("--out", tmp_path, "lyapunov", "--preset", "anchored",
                        "--method", alias)
            assert exc.value.code == 2


class TestReadoutDemo:
    def test_recall_beats_baseline(self, tmp_path):
        assert run_cli("--seed", 2, "--out", tmp_path, "readout-demo",
                       "--length", 1200) == 0
        row = read_rows(tmp_path / "readout_demo.csv")[0]
        assert float(row["nrmse"]) < 1.0
        assert (tmp_path / "readout_demo.txt").read_text().startswith("delayed recall")


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizon=2000\nalpha=0.5\n")
        assert run_cli("--out", tmp_path, "--config", cfg, "lyapunov",
                       "--preset", "anchored") == 0
        text = (tmp_path / "lyapunov.txt").read_text()
        assert "alpha=0.5" in text
        assert "steps used = 2000" in text

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.5\nhorizon=2000\n")
        assert run_cli("--out", tmp_path, "--config", cfg, "lyapunov",
                       "--preset", "anchored", "--alpha", 0.25) == 0
        assert "alpha=0.25" in (tmp_path / "lyapunov.txt").read_text()

    def test_threads_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=4\n")
        assert run_cli("--out", tmp_path, "--config", cfg, "critical-b") == 1
        assert capsys.readouterr().err == "error: unknown config key(s): threads\n"
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", tmp_path, "--threads", 2, "critical-b")
        assert exc.value.code == 2
        assert not (tmp_path / "critical_b.csv").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("horizn=1000\n")
        assert run_cli("--out", tmp_path, "--config", cfg, "critical-b") == 1
        assert capsys.readouterr().err == "error: unknown config key(s): horizn\n"
        assert not (tmp_path / "critical_b.csv").exists()

    def test_keys_of_other_commands_accepted(self, tmp_path):
        # One config file can serve several commands.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=0.5,1.0\nreplicates=2\nhorizon=2000\n")
        assert run_cli("--out", tmp_path, "--config", cfg, "lyapunov",
                       "--preset", "anchored") == 0
        assert "steps used = 2000" in (tmp_path / "lyapunov.txt").read_text()

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a note\n\n  horizon = 2000  \n   # indented note\n")
        assert run_cli("--out", tmp_path, "--config", cfg, "lyapunov",
                       "--preset", "anchored") == 0
        assert "steps used = 2000" in (tmp_path / "lyapunov.txt").read_text()

    @pytest.mark.parametrize("config, message", [
        # Once skipped, so the run used the default horizon of 100,000.
        ("horizon 5000\n", "config line 1 is not key=value: 'horizon 5000'"),
        ("# note\nhorizon=2000\nhorizon=3000\n", "config key horizon given twice (line 3)"),
        # Once accepted and ignored.
        ("config=other.cfg\n", "config key config: a config file cannot name another"),
    ])
    def test_malformed_file_rejected_before_any_output(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        assert run_cli("--out", out, "--config", cfg, "lyapunov", "--preset", "anchored") == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_missing_config_is_an_error(self, tmp_path):
        assert run_cli("--out", tmp_path, "--config", tmp_path / "nope.cfg",
                       "critical-b") == 1


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            for args in (
                ["sweep-alpha", "--grid", "0.5,1.0", "--horizon", 1500],
                ["forgetting", "--input", "iid", "--init", "bit-scale",
                 "--horizon", 800, "--replicates", 2],
                ["transfer-dump", "--ecps=-1,0,1", "--n", 101],
                ["critical-b"],
            ):
                assert run_cli("--seed", 7, "--out", out, *args) == 0
        names = [p.name for p in dirs[0].iterdir()]
        match, mismatch, errors = filecmp.cmpfiles(*dirs, common=names, shallow=False)
        assert not mismatch and not errors
        assert set(match) == set(names)

    def test_csv_floats_parse_back_exactly(self, tmp_path):
        assert run_cli("--seed", 7, "--out", tmp_path, "sweep-alpha",
                       "--grid", "0.5,1.0", "--horizon", 1500) == 0
        for row in read_rows(tmp_path / "sweep_alpha.csv"):
            for cell in row.values():
                assert fmt(float(cell)) == cell


COMMANDS = ["transfer-dump", "sweep-alpha", "sweep-gamma", "forgetting", "critical-b",
            "lyapunov", "readout-demo"]


def help_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--help")
    assert exc.value.code == 0
    # Line wrapping may split a default; compare without any whitespace.
    return "".join(capsys.readouterr().out.split())


class TestHelp:
    @pytest.mark.parametrize("command", [[]] + [[c] for c in COMMANDS])
    def test_help_exits_zero(self, capsys, command):
        assert "usage:" in help_text(capsys, *command)

    @pytest.mark.parametrize("command, defaults", [
        ([], {"--seed": "0", "--out": "."}),
        (["transfer-dump"], {"--ecps": "-1,0,1", "--variant": "bridge", "--lo": "-3.0",
                             "--hi": "3.0", "--n": "601", "--emit-plot-script": "False"}),
        (["sweep-alpha"], {"--grid": "0.05..1.50", "--horizon": "100000",
                           "--washout": "1000", "--d0": "1e-09"}),
        (["sweep-gamma"], {"--grid": "0.50..1.50", "--horizon": "100000",
                           "--washout": "1000", "--d0": "1e-09"}),
        (["forgetting"], {"--input": "alternating", "--alpha": "1.0", "--init": "fixed-delta",
                          "--d0": "1.0", "--horizon": "100000", "--variant": "bridge",
                          "--replicates": "8foriidinput,else1"}),
        (["critical-b"], {"--amplitude": "0.7853981633974483"}),
        (["lyapunov"], {"--alpha": "1.0", "--b": "critical", "--gamma": "1.0",
                        "--input": "alternating", "--method": "renormalized",
                        "--horizon": "100000", "--washout": "1000", "--d0": "1e-09"}),
        (["readout-demo"], {"--k": "8", "--delay": "3", "--length": "3000",
                            "--ridge": "1e-08", "--washout": "100"}),
    ])
    def test_help_shows_defaults(self, capsys, command, defaults):
        text = help_text(capsys, *command)
        options = text[text.index("options:"):]
        for option, default in defaults.items():
            entry = options.split(option, 1)[1].split("--", 1)[0]
            assert f"(default:{default}" in entry, option


class TestConfigValues:
    def dump(self, tmp_path, capsys, config, *flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "out"
        argv = ["--out", out] + (["--config", cfg] if config else [])
        assert run_cli(*argv, "transfer-dump", *flags) == 0
        rows = read_rows(out / "transfer.csv")
        return len(rows), float(rows[0]["x"]), capsys.readouterr().out.split(",")[1].strip()

    def test_flags_over_config_over_defaults(self, tmp_path, capsys):
        # One int (--n), one float (--lo) and one choice (--variant).
        assert self.dump(tmp_path, capsys, "") == (601, -3.0, "variant bridge")
        config = "n=11\nlo=-1.5\nvariant=plateau\n"
        assert self.dump(tmp_path, capsys, config) == (11, -1.5, "variant plateau")
        assert self.dump(tmp_path, capsys, config, "--n", 21, "--lo", -2.5,
                         "--variant", "bridge") == (21, -2.5, "variant bridge")

    def run_config(self, tmp_path, config, *argv) -> int:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        return run_cli("--out", tmp_path, "--config", cfg, *argv)

    def test_flag_key_rejected(self, tmp_path, capsys):
        # "false" must not switch the flag on.
        assert self.run_config(tmp_path, "emit_plot_script=false\n", "transfer-dump") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config key emit_plot_script") and err.count("\n") == 1
        assert not (tmp_path / "plot_transfer.py").exists()
        assert not (tmp_path / "transfer.csv").exists()

    @pytest.mark.parametrize("key, value, argv", [
        ("variant", "foo", ["transfer-dump"]),
        ("variant", "foo", ["forgetting", "--horizon", 2000]),
        ("input", "foo", ["forgetting", "--horizon", 2000]),
        ("input", "foo", ["lyapunov", "--preset", "anchored", "--horizon", 2000]),
        ("method", "renorm", ["lyapunov", "--preset", "anchored", "--horizon", 2000]),
        ("init", "foo", ["forgetting", "--horizon", 2000]),
    ])
    def test_value_outside_choices_rejected(self, tmp_path, capsys, key, value, argv):
        assert self.run_config(tmp_path, f"{key}={value}\n", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key}: invalid choice {value!r}")
        assert err.count("\n") == 1
        assert not any(tmp_path.glob("*.csv"))

    def test_uncastable_value_names_the_option(self, tmp_path, capsys):
        assert self.run_config(tmp_path, "horizon=abc\n", "lyapunov", "--preset", "anchored") == 1
        err = capsys.readouterr().err
        assert err == "error: argument --horizon: invalid int value: 'abc'\n"
        assert not (tmp_path / "lyapunov.csv").exists()

    def test_global_option_from_config(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={out}\n")
        assert run_cli("--config", cfg, "critical-b") == 0
        assert (out / "critical_b.csv").exists()


class TestNoNanRows:
    """Settings that used to write non-finite rows with exit 0."""

    def fails_cleanly(self, tmp_path, capsys, *argv) -> str:
        assert run_cli("--out", tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not any(tmp_path.glob("*.csv"))
        return err

    @pytest.mark.parametrize("d0", [0, "nan", "inf", 1e-3])
    def test_sweep_d0_domain(self, tmp_path, capsys, d0):
        err = self.fails_cleanly(tmp_path, capsys, "sweep-alpha", "--grid", "0.5,1.0",
                                 "--horizon", 1000, "--d0", d0)
        assert "d0 must lie in" in err

    @pytest.mark.parametrize("command", ["sweep-alpha", "sweep-gamma"])
    def test_sweep_negative_washout(self, tmp_path, capsys, command):
        err = self.fails_cleanly(tmp_path, capsys, command, "--grid", "1.0",
                                 "--horizon", 1000, "--washout", -5)
        assert "washout must be nonnegative" in err

    @pytest.mark.parametrize("method", ["renormalized", "derivative_product"])
    def test_lyapunov_negative_washout(self, tmp_path, capsys, method):
        err = self.fails_cleanly(tmp_path, capsys, "lyapunov", "--preset", "anchored",
                                 "--method", method, "--horizon", 1000, "--washout", -3)
        assert "washout must be nonnegative" in err
        assert not (tmp_path / "lyapunov.txt").exists()

    @pytest.mark.parametrize("d0", ["nan", "0", "1e-3"])
    @pytest.mark.parametrize("method", ["renormalized", "derivative_product"])
    def test_lyapunov_d0_domain(self, tmp_path, capsys, method, d0):
        # The derivative product takes no d0, but it used to take nan with exit 0.
        err = self.fails_cleanly(tmp_path, capsys, "lyapunov", "--preset", "baseline",
                                 "--method", method, "--horizon", 1000, "--d0", d0)
        assert err == "error: d0 must lie in [1e-12, 1e-6]\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("method", ["renormalized", "derivative_product"])
    def test_lyapunov_infinite_gamma(self, tmp_path, capsys, method):
        # The scaled spec's amplitude is checked when the spec is built.
        err = self.fails_cleanly(tmp_path, capsys, "lyapunov", "--preset", "anchored",
                                 "--method", method, "--gamma", "inf")
        assert err == "error: amplitude must be finite\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--grid", "1.0"], ["sweep-gamma", "--grid", "1.0"],
        ["lyapunov", "--preset", "anchored"],
    ], ids=lambda argv: argv[0])
    def test_horizon_below_1000(self, tmp_path, capsys, argv):
        # The estimators' run gate: washout + horizon rows, at least washout + 1000.
        err = self.fails_cleanly(tmp_path, capsys, *argv, "--horizon", 999)
        assert err == "error: input too short: need at least washout + 1000 steps\n"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("d0", ["nan", "inf"])
    def test_forgetting_non_finite_d0(self, tmp_path, capsys, d0):
        err = self.fails_cleanly(tmp_path, capsys, "forgetting", "--horizon", 1000,
                                 "--d0", d0)
        assert err == "error: --d0 must be finite\n"

    @pytest.mark.parametrize("d0", ["nan", "inf", "0"])
    def test_forgetting_bit_scale_checks_d0(self, tmp_path, capsys, d0):
        # bit-scale ignores the magnitude, but it used to take nan and inf with exit 0.
        err = self.fails_cleanly(tmp_path, capsys, "forgetting", "--init", "bit-scale",
                                 "--horizon", 1000, "--d0", d0)
        assert err.startswith("error: --d0 must be")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("d0", ["0", "-0.0", "1e-17", "-5e-17", "1e-16"])
    def test_forgetting_zero_d0(self, tmp_path, capsys, d0):
        # It used to write a one-row series, "exact zero at step 0", with exit 0,
        # also for a d0 within half an ulp of tanh(1), which rounds the twin onto
        # the reference.  1e-16 is above that and moves the twin.
        argv = ("forgetting", "--horizon", 1000, f"--d0={d0}")
        if d0 == "1e-16":
            assert run_cli("--out", tmp_path, *argv) == 0
            assert float(read_rows(tmp_path / "forgetting.csv")[0]["d"]) > 0.0
            return
        err = self.fails_cleanly(tmp_path, capsys, *argv)
        reason = ("must be nonzero" if float(d0) == 0.0 else f"{float(d0):g} rounds away")
        assert err == f"error: --d0 {reason}: the twin would start on the reference\n"
        assert not any(tmp_path.iterdir())

    def test_forgetting_negative_d0_in_scientific_notation(self, tmp_path, capsys):
        # argparse reads a separate "-1e-3" as an option and exits 2; the
        # attached form, the one the help and README give, runs.
        with pytest.raises(SystemExit) as exc:
            run_cli("--out", tmp_path, "forgetting", "--d0", "-1e-3", "--horizon", 1000)
        assert exc.value.code == 2
        assert "argument --d0: expected one argument" in capsys.readouterr().err
        assert run_cli("--out", tmp_path, "forgetting", "--d0=-1e-3", "--horizon", 1000) == 0
        assert float(read_rows(tmp_path / "forgetting.csv")[0]["d"]) == pytest.approx(1e-3)

    @pytest.mark.parametrize("replicates", [0, -1])
    def test_forgetting_needs_a_replicate(self, tmp_path, capsys, replicates):
        err = self.fails_cleanly(tmp_path, capsys, "forgetting", "--horizon", 1000,
                                 "--replicates", replicates)
        assert "replicates must be at least 1" in err
        assert not (tmp_path / "forgetting_report.txt").exists()

    @pytest.mark.parametrize("ridge", ["nan", "inf"])
    def test_readout_non_finite_ridge(self, tmp_path, capsys, ridge):
        err = self.fails_cleanly(tmp_path, capsys, "readout-demo", "--ridge", ridge)
        assert "ridge_lambda must be finite and nonnegative" in err

    @pytest.mark.parametrize("option", ["--delay", "--washout"])
    def test_readout_negative_option(self, tmp_path, capsys, option):
        err = self.fails_cleanly(tmp_path, capsys, "readout-demo", option, -3)
        assert f"{option[2:]} must be nonnegative" in err

    @pytest.mark.parametrize("length", [2, 3])
    def test_readout_delay_not_below_length(self, tmp_path, capsys, length):
        err = self.fails_cleanly(tmp_path, capsys, "readout-demo", "--length", length,
                                 "--delay", 3)
        assert f"delay 3 must be below length {length}" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,split,need", [
        (["--length", 40], 25, "--washout 100 + --k 8 + 1"),
        (["--length", 200, "--washout", 150], 137, "--washout 150 + --k 8 + 1"),
    ], ids=["short-length", "long-washout"])
    def test_readout_too_few_training_rows(self, tmp_path, capsys, argv, split, need):
        # Both used to fail only inside readout.train, naming no option.
        err = self.fails_cleanly(tmp_path, capsys, "readout-demo", *argv)
        assert err.startswith("error: too few training rows: the 70% split of --length ")
        assert f"--delay 3 is {split} rows, below {need}\n" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["forgetting", "--alpha", "1e308", "--horizon", 1000],
        ["lyapunov", "--preset", "anchored", "--alpha", "1e308"],
        ["lyapunov", "--preset", "anchored", "--alpha", "1e308", "--method", "derivative_product",
         "--horizon", 1000],
    ], ids=["forgetting", "lyapunov", "lyapunov-derivative-product"])
    def test_overflowing_linear_response(self, tmp_path, capsys, argv):
        err = self.fails_cleanly(tmp_path, capsys, *argv)
        assert "linear response overflows float64" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep-alpha", "--horizon"], ["sweep-alpha", "--washout"],
        ["sweep-gamma", "--horizon"], ["sweep-gamma", "--washout"],
        ["forgetting", "--horizon"],
        ["lyapunov", "--preset", "anchored", "--horizon"],
        ["lyapunov", "--preset", "anchored", "--washout"],
        ["readout-demo", "--length"], ["readout-demo", "--washout"],
    ], ids=lambda argv: " ".join(argv))
    def test_generated_length_cap(self, tmp_path, capsys, argv):
        # main checks the cap before it makes the --out directory.
        out = tmp_path / "new"
        assert run_cli("--out", out, *argv, 1_000_001) == 1
        assert capsys.readouterr().err == f"error: {argv[-1][2:]} above the 1e6 cap\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["sweep-alpha", "--grid", "1:0.5:0.1"], "bad grid range '1:0.5:0.1'"),
        (["sweep-alpha", "--grid", "0:1:0"], "bad grid range '0:1:0'"),
        (["sweep-gamma", "--grid", "0.2,1.0"], "gamma grid must lie in [0.25, 2]"),
        (["critical-b", "--amplitude", "1e-300"], "no critical orbit bracket for amplitude 1e-300"),
        (["critical-b", "--amplitude", "1e300"], "no critical orbit bracket for amplitude 1e+300"),
    ], ids=["stop-below-start", "zero-step", "gamma-grid", "tiny-amplitude", "huge-amplitude"])
    def test_rejected_value(self, tmp_path, capsys, argv, message):
        assert self.fails_cleanly(tmp_path, capsys, *argv) == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_transfer_dump_infinite_bound(self, tmp_path, capsys):
        err = self.fails_cleanly(tmp_path, capsys, "transfer-dump", "--hi", "inf")
        assert "sample range requires finite bounds" in err
