import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triladder import ModelParams, eigenvalues_at, wkb_levels
from triladder.cli import (REQUIRED, RUN_KEYS, ConfigError, load_config, main, read_run,
                           render_levels, render_wkb)
from triladder.validate import DETERMINISM_CONFIG

MODEL = """\
[model]
e1 = 0
e2 = 11
e3 = 24
g1 = 0.5
g2 = 0.5
n0 = 100000000
"""


ROOT = Path(__file__).resolve().parents[1]
# the benchmark's workload configurations, read from perfbench/ without importing its package
_spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
# the minimal configuration in README's "Command line" section
README_CONFIG = (ROOT / "README.md").read_text().split("```ini\n")[1].split("```")[0]


def write_config(tmp_path, body, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


class TestConfig:
    def test_couplings_given_both_ways(self):
        cfg = load_config(io.StringIO(MODEL + "[run]\n"))
        assert cfg.params.g1 == pytest.approx(0.5)
        direct = MODEL.replace("g1 = 0.5", "u = 0.00055")
        cfg2 = load_config(io.StringIO(direct + "[run]\n"))
        assert cfg2.params.u == pytest.approx(0.00055)

    def test_derived_quantities_echoed(self):
        cfg = load_config(io.StringIO(MODEL + "[run]\n"))
        keys = [k for k, _ in cfg.echo]
        for needed in ("e1", "u", "v", "g1", "g2", "n0"):
            assert needed in keys
        # integers beyond a float's 2**53 are read exactly
        big = MODEL.replace("n0 = 100000000", "n0 = 12345678901234567")
        assert load_config(io.StringIO(big + "[run]\n")).params.n0 == 12345678901234567

    @pytest.mark.parametrize("mutation,fragment", [
        (lambda s: s.replace("g1 = 0.5\n", ""), "exactly one"),
        (lambda s: s + "u = 0.1\n", "exactly one"),
        (lambda s: s.replace("n0 = 100000000\n", ""), "n0"),
        (lambda s: s.replace("e2 = 11", "e2 = eleven"), "not a number"),
        (lambda s: s.replace("e2 = 11", "e2 = -3"), "rejected"),
    ])
    def test_bad_model_reported(self, mutation, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(io.StringIO(mutation(MODEL) + "[run]\n"))

    def test_missing_run_key_reported(self):
        cfg = load_config(io.StringIO(MODEL + "[run]\ny_min = -1\n"))
        with pytest.raises(ConfigError, match="y_max"):
            render_levels(cfg)


class TestLevelsCommand:
    RUN = MODEL + "[run]\ny_min = -2e4\ny_max = 2e4\ny_points = 41\n"

    def test_byte_identical_reruns(self):
        first = render_levels(load_config(io.StringIO(self.RUN)))
        second = render_levels(load_config(io.StringIO(self.RUN)))
        assert first == second

    def test_values_match_library(self):
        text = render_levels(load_config(io.StringIO(self.RUN)))
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]
        assert len(rows) == 41
        p = ModelParams.from_dimensionless(0.0, 11.0, 24.0, 0.5, 0.5, 10**8)
        for row in rows[::10]:
            y = float(row[0])
            expect = eigenvalues_at(p, y)
            got = np.array([float(v) for v in row[1:]])
            np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)

    def test_command_writes_file(self, tmp_path):
        cfg = write_config(tmp_path, self.RUN)
        assert main(["levels", "--config", cfg, "--out", str(tmp_path)]) == 0
        text = (tmp_path / "levels.csv").read_text()
        assert text.startswith("# e1 = 0")
        assert "y,E1,E2,E3" in text
        assert text.endswith("\n")


class TestOtherCommands:
    def test_wkb_grid(self):
        body = MODEL + ("[run]\ng1_min = 0\ng1_max = 0.4\ng1_points = 2\n"
                        "g2_min = 0.1\ng2_max = 0.1\ng2_points = 1\n")
        text = render_wkb(load_config(io.StringIO(body)))
        rows = [line.split(",") for line in text.splitlines()
                if line and not line.startswith("#")][1:]
        assert len(rows) == 2
        tpl = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)
        expect = wkb_levels(tpl.with_couplings(0.4, 0.1))
        got = np.array([float(v) for v in rows[1][2:5]])
        np.testing.assert_allclose(got, expect, rtol=1e-12)
        assert rows[1][5] == "1"

    def test_wkb_unsettled_point_is_named(self, tmp_path, capsys):
        # at g2 = 0, g1 = 0.9 the decoupled third level crosses the second
        # inside the orbit, the sorted average is kinked and the quadrature
        # never settles to 1e-9: that row is flagged and named, and every
        # other point of the grid is still written
        body = MODEL + ("[run]\ng1_min = 0\ng1_max = 1\ng1_points = 11\n"
                        "g2_min = 0\ng2_max = 1\ng2_points = 6\n")
        cfg = write_config(tmp_path, body)
        assert main(["wkb", "--config", cfg, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert re.search(r"wkb: dressed-level quadrature did not settle "
                         r"to 1e-09 at g1=0\.9, g2=0, n=100000000: "
                         r"last change \d\.\d+e-\d+ at \d+ nodes", err)
        lines = (tmp_path / "wkb.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert rows[0] == ["g1", "g2", "E1", "E2", "E3", "ok"]
        rows = rows[1:]
        assert len(rows) == 66
        assert ["0.9", "0", "nan", "nan", "nan", "0"] in rows
        tpl = ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)
        for row in [r for r in rows if r[5] == "1"][::6]:
            expect = wkb_levels(tpl.with_couplings(float(row[0]), float(row[1])))
            got = np.array([float(v) for v in row[2:5]])
            np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_splittings_failure_reason_on_stderr(self, tmp_path, capsys):
        # at half-width 16 the truncation bound leaves the 13-quantum gap
        # uncertain: the row is written with ok = 0 and the reason on stderr
        body = MODEL + "[run]\nratio = 0.3\ndelta_n_list = 13\nhalf_width = 16\n"
        cfg = write_config(tmp_path, body)
        assert main(["splittings", "--config", cfg, "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert re.search(r"splittings: delta_n 13: the window n0 \+- 16 leaves the gap "
                         r"\S+ uncertain by \S+", err)
        lines = (tmp_path / "splittings.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")]
        assert len(rows) == 2
        assert rows[1][:3] == ["1", "2", "13"] and rows[1][4:] == ["nan"] * 7 + ["0", "0"]

    def test_contours_rejects_even_exchange(self, tmp_path, capsys):
        body = MODEL + "[run]\ntransition = 1,2\ndelta_n_list = 12\nrays = 5\n"
        cfg = write_config(tmp_path, body)
        assert main(["contours", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_contours_upper_pair_takes_even_exchanges(self, tmp_path, capsys):
        # (1, n) and (3, n - delta_n) share a parity sector only at even delta_n
        for dn, code in ((27, 2), (28, 0)):
            body = MODEL + f"[run]\ntransition = 1,3\ndelta_n_list = {dn}\nrays = 5\n"
            out = tmp_path / str(dn)
            assert main(["contours", "--config", write_config(tmp_path, body),
                         "--out", str(out)]) == code
        assert "even positive quantum exchanges" in capsys.readouterr().err
        assert not (tmp_path / "27" / "contours.csv").exists()
        lines = (tmp_path / "28" / "contours.csv").read_text().splitlines()
        data = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert data and all(r[:3] == ["1", "3", "28"] for r in data)

    def test_splittings_lost_pair_is_not_a_gap(self, tmp_path, capsys):
        # on g2 = 1.1 g1 a third level lies nearer to the delta_n 17 pair than
        # its partner at every gap minimum on the first window whose bound
        # passes, so the row is ok = 0 with the reason; delta_n 13 keeps its own
        # gap and warns of the foreign minima beside it
        body = MODEL + "[run]\nratio = 1.1\ndelta_n_list = 13,17\n"
        assert main(["splittings", "--config", write_config(tmp_path, body),
                     "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert re.search(r"splittings: delta_n 17: on the window n0 \+- 64, a third level lies "
                         r"nearer to the pair than its partner at every gap minimum "
                         r"\(the lowest 3\.840e-05 at \(g1, g2\) = \(0\.60\d+, 0\.66\d+\)\): "
                         r"not one anticrossing", err)
        assert "splittings: delta_n 13: 3 gap minima in the scan vicinity\n" in err
        lines = (tmp_path / "splittings.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert [(r[2], r[-1]) for r in rows] == [("13", "1"), ("17", "0")]
        assert rows[1][4:] == ["nan"] * 7 + ["0", "0"]

    def test_contours_csv(self, tmp_path):
        body = MODEL + ("[run]\ntransition = 1,2\ndelta_n_list = 13\n"
                        "rays = 7\nscan_points = 60\n")
        cfg = write_config(tmp_path, body)
        assert main(["contours", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "contours.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "j,k,delta_n,angle,g1,g2,residual,multiple"
        data = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert all(abs(float(r[6])) <= 1e-6 for r in data)

    def test_resonance_map_small_grid(self, tmp_path):
        body = MODEL + ("[run]\ntransition = 1,2\ng1_min = 0\ng1_max = 0.2\n"
                        "g1_points = 5\ng2_min = 0\ng2_max = 0.1\ng2_points = 2\n"
                        "half_width = 60\n")
        cfg = write_config(tmp_path, body)
        assert main(["resonance-map", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "resonance-map.csv").read_text().splitlines()
        data = [l.split(",") for l in lines if not l.startswith("#")][1:]
        assert len(data) == 10
        first = data[0]
        assert float(first[2]) == pytest.approx(11.0, abs=1e-8)
        assert int(first[3]) == 11

    def test_resonance_map_beyond_its_largest_window_refused(self, tmp_path, capsys):
        # the g2 column up to 1.25 misses the truncation bound on n0 +- 64
        body = MODEL + ("[run]\ntransition = 1,2\ng1_min = 0\ng1_max = 0.2\n"
                        "g1_points = 2\ng2_min = 0\ng2_max = 1.25\ng2_points = 11\n"
                        "half_width = 64\n")
        cfg = write_config(tmp_path, body)
        assert main(["resonance-map", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "n0 +- 64 leaves" in capsys.readouterr().err
        assert not (tmp_path / "resonance-map.csv").exists()

    def test_validate_command_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "7/7 checks passed" in out
        assert " s " in out  # per-check timing present

    LEVELS = MODEL + "[run]\ny_min = -1\ny_max = 1\ny_points = 5\n"
    GRID = MODEL + ("[run]\ng1_min = 0\ng1_max = 0.2\ng1_points = 2\n"
                    "g2_min = 0\ng2_max = 0.1\ng2_points = 2\n")
    CONTOURS = MODEL + "[run]\ndelta_n_list = 13\nrays = 5\nscan_points = 60\n"
    SPLITTINGS = MODEL + "[run]\nratio = 0.3\ndelta_n_list = 13\n"

    @pytest.mark.parametrize("command,body", [
        ("levels", "[model]\ne1 = 0\n"),
        ("levels", LEVELS + "[output]\nprecision = abc\n"),
        ("levels", LEVELS + "[output]\nprecision = 99\n"),
        ("levels", LEVELS + "[output]\nprecision = 0\n"),
        ("levels", LEVELS.replace("y_points = 5", "y_points = -4")),
        ("levels", LEVELS.replace("y_points = 5", "y_points = 2.5")),
        ("wkb", GRID.replace("g1_points = 2", "g1_points = 0")),
        ("resonance-map", GRID.replace("g2_points = 2", "g2_points = 1.5")),
        ("contours", CONTOURS.replace("rays = 5", "rays = -1")),
        ("contours", CONTOURS.replace("scan_points = 60", "scan_points = 2.5")),
        ("contours", CONTOURS.replace("scan_points = 60", "scan_points = 1")),
        # removed keys: any value is an unknown key
        ("splittings", SPLITTINGS + "scan_points = 0\n"),
        ("splittings", SPLITTINGS + "vicinity = 0\n"),
        ("splittings", SPLITTINGS + "mode = pair\n"),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = abc")),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = 100.5")),
        ("resonance-map", GRID + "half_width = 5\n"),
        ("splittings", SPLITTINGS + "half_width = 40.7\n"),
        ("wkb", GRID + "nodes = 256\n"),
        ("contours", CONTOURS + "nodes = 256\n"),
        ("wkb", GRID + "n = -1\n"),
        ("wkb", GRID + "n = 2.5\n"),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = 12345678901234567e0")),
        ("levels", LEVELS + "[output]\nprecision = 17.5\n"),
        ("contours", CONTOURS + "transition = 1,5\n"),
        ("resonance-map", GRID + "transition = 1,5\n"),
        ("splittings", SPLITTINGS + "transition = 2,1\n"),
        ("splittings", SPLITTINGS + "transition = 1,3\n"),
        ("contours", CONTOURS + "transition = 0,2\n"),
        ("contours", CONTOURS.replace("delta_n_list = 13", "delta_n_list = 13,-15")),
        ("splittings", SPLITTINGS.replace("delta_n_list = 13", "delta_n_list = 14")),
        ("splittings", SPLITTINGS + "mode = both\n"),
        ("splittings", SPLITTINGS.replace("ratio = 0.3", "ratio = -0.3")),
        ("contours", CONTOURS + "residual_tol = 1e-6\n"),
        ("contours", CONTOURS + "radius = -1\n"),
        ("splittings", SPLITTINGS + "g1_max = -1\n"),
        ("levels", LEVELS.replace("y_min = -1", "y_min = nan")),
        ("levels", LEVELS.replace("y_min = -1", "y_min = -inf")),
        ("wkb", GRID.replace("g1_min = 0", "g1_min = -0.5")),
        ("wkb", GRID.replace("g1_min = 0", "g1_min = nan")),
        ("resonance-map", GRID.replace("g1_min = 0\ng1_max = 0.2\ng1_points = 2",
                                       "g1_min = 0.15\ng1_max = 1\ng1_points = 4")),
        ("resonance-map", GRID.replace("g1_min = 0", "g1_min = -0.2")),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = 1" + "0" * 400)),
        ("levels", LEVELS.replace("g1 = 0.5\ng2 = 0.5\nn0 = 100000000",
                                  "u = 0.1\nv = 0.1\nn0 = 1" + "0" * 400)),
        ("resonance-map", GRID.replace("n0 = 100000000", "n0 = 100")),
        ("splittings", SPLITTINGS.replace("n0 = 100000000", "n0 = 300")),
        ("splittings", SPLITTINGS + "half_width = 10\n"),
        ("levels", LEVELS + "half_widht = 5\n"),
        ("wkb", GRID + "nodez = 300\n"),
        ("contours", CONTOURS + "scan_point = 2\n"),
        ("resonance-map", GRID + "half_widht = 60\n"),
        ("splittings", SPLITTINGS + "scan_point = 2\n"),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = 100000000\ne4 = 30")),
        ("levels", LEVELS + "[output]\nprecison = 12\n"),
        ("levels", LEVELS + "[outptu]\ndirectory = elsewhere\n"),
        ("levels", "[DEFAULT]\nnodes = 300\n" + LEVELS),
    ], ids=["incomplete-model", "precision-text", "precision-99", "precision-0",
            "y-points-negative", "y-points-fraction", "g1-points-zero",
            "g2-points-fraction", "rays-negative", "scan-points-fraction",
            "contours-scan-points-one", "splittings-scan-points-zero",
            "vicinity-zero", "mode-removed", "n0-text", "n0-fraction",
            "half-width-below-8", "half-width-fraction", "wkb-nodes-removed",
            "contours-nodes-removed", "n-negative", "n-fraction", "n0-float-inexact",
            "precision-fraction", "contours-transition-1-5",
            "resonance-map-transition-1-5", "splittings-transition-unordered",
            "splittings-transition-parity-forbidden",
            "contours-transition-0-2", "delta-n-negative", "delta-n-even",
            "mode-unknown", "ratio-negative",
            "residual-tol-removed", "radius-negative",
            "g1-max-negative", "y-min-nan", "y-min-minus-inf", "wkb-g1-min-negative",
            "wkb-g1-min-nan", "map-grid-not-from-zero", "map-g1-min-negative",
            "n0-overflow-g", "n0-overflow-u", "map-window-below-vacuum",
            "splittings-window-below-vacuum", "splittings-partner-outside-window",
            "levels-unknown-run-key", "wkb-unknown-run-key", "contours-unknown-run-key",
            "resonance-map-unknown-run-key", "splittings-unknown-run-key",
            "unknown-model-key", "unknown-output-key", "unknown-section",
            "default-section"])
    def test_config_error_exit_code(self, tmp_path, capsys, command, body):
        cfg = write_config(tmp_path, body)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()

    def test_unknown_key_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.LEVELS + "half_widht = 5\n")
        assert main(["levels", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "'half_widht'" in err and "y_min, y_max, y_points" in err

    @pytest.mark.parametrize("command,body", [
        (name, workloads.config_text(name, 0)) for name in workloads.NAMES] + [
        ("levels", README_CONFIG), ("levels", DETERMINISM_CONFIG)],
        ids=list(workloads.NAMES) + ["readme", "determinism-check"])
    def test_committed_configs_pass_validation(self, command, body):
        read_run(load_config(io.StringIO(body)), command)

    @pytest.mark.parametrize("argv", [
        ["levels", "--config", "cfg.ini", "--threads", "2"],
        ["resonance-map", "--config", "cfg.ini", "--threads", "2"],
        ["splittings", "--config", "cfg.ini", "--threads", "0"],
        ["validate", "--out", "results"],
        ["validate", "--threads", "2"],
    ])
    def test_unsupported_options_rejected(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "triladder.cli", "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.ini"
        path.write_bytes(b"\xff\xfe" + self.LEVELS.encode())
        assert main(["levels", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot read configuration" in err
        assert not (tmp_path / "levels.csv").exists()

    def test_overflowing_levels_refused(self, tmp_path):
        # at y = 1e160 the cubic's coefficients overflow and its roots are NaN;
        # a fresh interpreter shows what numpy would print on the way
        cfg = write_config(tmp_path, self.LEVELS.replace("y_max = 1\n", "y_max = 1e160\n"))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        proc = subprocess.run([sys.executable, "-m", "triladder.cli", "levels", "--config", cfg,
                               "--out", str(tmp_path)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 1
        assert "computation failed: cubic is not finite" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert not (tmp_path / "levels.csv").exists()

    def test_wkb_overflowing_point_is_flagged(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.GRID.replace("g1_max = 0.2", "g1_max = 1e300"))
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["wkb", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "wkb: cubic is not finite" in capsys.readouterr().err
        lines = (tmp_path / "wkb.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert [r[5] for r in rows] == ["1", "0", "1", "0"]
        assert ["1e+300", "0.1", "nan", "nan", "nan", "0"] in rows

    def test_unwritable_out_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.LEVELS)
        (tmp_path / "afile").write_text("")
        out = tmp_path / "afile" / "sub"
        assert main(["levels", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out / 'levels.csv'}: ")
        assert "Traceback" not in err


# run in a fresh interpreter: the modules each stage has loaded, for every
# (command, config, out) triple on the command line, in order
IMPORT_PROBE = """
import contextlib, io, json, sys
import triladder.cli as cli
HEAVY = ("triladder.fock", "triladder.coupling", "triladder.splittings")
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m in HEAVY)
seen = {"import": loaded()}
for command, config, out in zip(sys.argv[1::3], sys.argv[2::3], sys.argv[3::3]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--config", config, "--out", out]) == 0, command
    seen[command] = loaded()
print(json.dumps(seen))
"""


def test_numpy_only_commands_load_no_scipy(tmp_path):
    map_body = TestOtherCommands.GRID + "half_width = 40\n"
    argv = []
    for command, body in [("levels", TestOtherCommands.LEVELS),
                          ("wkb", TestOtherCommands.GRID),
                          ("contours", TestOtherCommands.CONTOURS),
                          ("resonance-map", map_body)]:
        argv += [command, write_config(tmp_path, body, f"{command}.ini"), str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    for stage in ("import", "levels", "wkb", "contours"):
        assert seen[stage] == [], stage
    assert "triladder.fock" in seen["resonance-map"]
    assert any(m.startswith("scipy") for m in seen["resonance-map"])
    assert (tmp_path / "resonance-map.csv").read_text().count("\n") > 4


# point counts stay small so that every valid draw renders in milliseconds;
# the first branch makes some draws valid for precision as well
config_value = st.one_of(st.integers(1, 17), st.integers(max_value=2000), st.text(max_size=12))


def _exit_code_matches_validation(command, body):
    """Run ``command`` end to end: a CSV, or exit 2 exactly when validation alone fails."""
    try:
        read_run(load_config(io.StringIO(body)), command)
        valid = True
    except ConfigError:
        valid = False
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), body)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--config", cfg, "--out", tmp])
        if valid:
            assert code == 0
            assert Path(tmp, f"{command}.csv").read_text().startswith("# e1 = 0")
        else:
            assert code == 2 and "configuration error" in err.getvalue()


@settings(max_examples=30, deadline=None)
@given(precision=config_value, y_points=config_value)
def test_levels_config_gives_csv_or_config_error(precision, y_points):
    body = (MODEL + f"[run]\ny_min = -1\ny_max = 1\ny_points = {y_points}\n"
            f"[output]\nprecision = {precision}\n")
    _exit_code_matches_validation("levels", body)


# a grid of at most 3 x 3 points keeps every valid wkb draw cheap
grid_value = st.sampled_from(["0", "0.4", "1", "2", "3", "-1", "2.5", "nan", "x"])


@settings(max_examples=30, deadline=None)
@given(g1_max=grid_value, g1_points=grid_value, g2_points=grid_value,
       extra=st.sampled_from(["", "nodes = 16\n", "nodes = 15\n", "n = 0\n", "n = -1\n",
                              "nodez = 300\n"]))
def test_wkb_config_gives_csv_or_config_error(g1_max, g1_points, g2_points, extra):
    body = MODEL + (f"[run]\ng1_min = 0\ng1_max = {g1_max}\ng1_points = {g1_points}\n"
                    f"g2_min = 0.1\ng2_max = 0.2\ng2_points = {g2_points}\n{extra}")
    _exit_code_matches_validation("wkb", body)


# valid and invalid spellings of every kind of value in the key tables
spelling = st.one_of(
    st.sampled_from(["0", "1", "3", "8", "10", "13", "16", "400", "0.3", "1.25", "1e8",
                     "-1", "2.5", "nan", "-inf", "1e400", "1,2", "2,3", "1,5", "2,1", "13,15",
                     "14", "13,-15", "pair", "nearest", "both", ""]),
    st.integers(-5, 2000).map(str), st.text(max_size=12))
VALID = {"a finite number": ["-1", "0.5", "2e4"], "a finite number >= 0": ["0", "0.2", "1"],
         "a finite number > 0": ["1e-6", "0.08", "1.25"],
         "two levels 'j,k' with 1 <= j < k <= 3": ["1,2", "2,3", "1,3"],
         "a comma-separated list of positive integers": ["1", "13", "13,15,17", "26,28"]}


def valid_spelling(accepts):
    if accepts.startswith("an integer >= "):
        low = int(accepts.split()[-1])
        return st.integers(low, low + 600).map(str)
    return st.sampled_from(VALID[accepts])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n0=st.sampled_from(["100", "500", "100000000"]))
def test_run_tables_give_values_or_config_error(data, n0):
    """Validation alone, with no solver: typed values or ConfigError.

    Each draw spells every required key (and some optional ones) validly from
    its table entry, then at most one change: a bad value, a dropped key or an
    unknown key.
    """
    command = data.draw(st.sampled_from(sorted(RUN_KEYS)))
    table = RUN_KEYS[command]
    run = {key: data.draw(valid_spelling(accepts))
           for key, ((_, _, accepts), default) in table.items()
           if default == REQUIRED or data.draw(st.booleans())}
    change = data.draw(st.sampled_from(["none", "value", "drop", "unknown"]))
    if change == "unknown":
        run[data.draw(st.sampled_from(["half_widht", "scan_point", "nodez"]))] = "1"
    elif change != "none":
        key = data.draw(st.sampled_from(list(table)))
        if change == "drop":
            run.pop(key, None)
        else:
            run[key] = data.draw(spelling)
    body = "[run]\n" + "".join(f"{k} = {v}\n" for k, v in run.items())
    try:
        cfg = load_config(io.StringIO(MODEL.replace("100000000", n0) + body))
        values = read_run(cfg, command)
    except ConfigError:
        return
    assert set(cfg.run) <= set(table) and set(values) == set(table)
    for key, ((_, _, accepts), default) in table.items():
        value = values[key]
        if key not in cfg.run:
            assert value == default
        elif accepts.startswith("a finite number"):
            assert isinstance(value, float) and np.isfinite(value)
        elif accepts.startswith("an integer"):
            assert isinstance(value, int)
        else:
            assert all(isinstance(x, int) for x in value)
