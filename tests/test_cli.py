import contextlib
import io
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from triladder import ModelParams, eigenvalues_at, wkb_levels
from triladder.cli import ConfigError, load_config, main, render_levels, render_wkb

MODEL = """\
[model]
e1 = 0
e2 = 11
e3 = 24
g1 = 0.5
g2 = 0.5
n0 = 100000000
"""


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
        got = np.array([float(v) for v in rows[1][2:]])
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_wkb_unsettled_point_is_named(self, tmp_path, capsys):
        # at g2 = 0, g1 = 0.9 the decoupled third level crosses the second
        # inside the orbit, the sorted average is kinked and the quadrature
        # never settles to 1e-9: the run fails as a whole, naming the point
        body = MODEL + ("[run]\ng1_min = 0\ng1_max = 1\ng1_points = 11\n"
                        "g2_min = 0\ng2_max = 1\ng2_points = 6\n")
        cfg = write_config(tmp_path, body)
        assert main(["wkb", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"computation failed: dressed-level quadrature did not settle "
                         r"to 1e-09 at g1=0\.9, g2=0, n=100000000: "
                         r"last change \d\.\d+e-\d+ at \d+ nodes", err)
        assert not (tmp_path / "wkb.csv").exists()

    def test_contours_rejects_even_exchange(self, tmp_path, capsys):
        body = MODEL + "[run]\ntransition = 1,2\ndelta_n_list = 12\nrays = 5\n"
        cfg = write_config(tmp_path, body)
        assert main(["contours", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

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
        ("splittings", SPLITTINGS + "scan_points = 0\n"),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = abc")),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = 100.5")),
        ("resonance-map", GRID + "half_width = 5\n"),
        ("splittings", SPLITTINGS + "half_width = 40.7\n"),
        ("wkb", GRID + "nodes = -5\n"),
        ("contours", CONTOURS + "nodes = 15\n"),
        ("wkb", GRID + "n = -1\n"),
        ("wkb", GRID + "n = 2.5\n"),
        ("levels", LEVELS.replace("n0 = 100000000", "n0 = 12345678901234567e0")),
        ("levels", LEVELS + "[output]\nprecision = 17.5\n"),
        ("contours", CONTOURS + "transition = 1,5\n"),
        ("resonance-map", GRID + "transition = 1,5\n"),
        ("splittings", SPLITTINGS + "transition = 2,1\n"),
        ("contours", CONTOURS + "transition = 0,2\n"),
        ("contours", CONTOURS.replace("delta_n_list = 13", "delta_n_list = 13,-15")),
        ("splittings", SPLITTINGS.replace("delta_n_list = 13", "delta_n_list = 14")),
        ("splittings", SPLITTINGS + "mode = both\n"),
        ("splittings", SPLITTINGS.replace("ratio = 0.3", "ratio = -0.3")),
        ("splittings", SPLITTINGS + "vicinity = 0\n"),
        ("splittings", SPLITTINGS + "vicinity = -1\n"),
        ("contours", CONTOURS + "residual_tol = -1\n"),
        ("contours", CONTOURS + "residual_tol = 0\n"),
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
    ], ids=["incomplete-model", "precision-text", "precision-99", "precision-0",
            "y-points-negative", "y-points-fraction", "g1-points-zero",
            "g2-points-fraction", "rays-negative", "scan-points-fraction",
            "splittings-scan-points-zero", "n0-text", "n0-fraction",
            "half-width-below-8", "half-width-fraction", "nodes-negative",
            "nodes-below-16", "n-negative", "n-fraction", "n0-float-inexact",
            "precision-fraction", "contours-transition-1-5",
            "resonance-map-transition-1-5", "splittings-transition-unordered",
            "contours-transition-0-2", "delta-n-negative", "delta-n-even",
            "mode-unknown", "ratio-negative", "vicinity-zero", "vicinity-negative",
            "residual-tol-negative", "residual-tol-zero", "radius-negative",
            "g1-max-negative", "y-min-nan", "y-min-minus-inf", "wkb-g1-min-negative",
            "wkb-g1-min-nan", "map-grid-not-from-zero", "map-g1-min-negative",
            "n0-overflow-g", "n0-overflow-u"])
    def test_config_error_exit_code(self, tmp_path, capsys, command, body):
        cfg = write_config(tmp_path, body)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / f"{command}.csv").exists()

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


# point counts stay small so that every valid draw renders in milliseconds
config_value = st.one_of(st.integers(max_value=2000), st.text(max_size=12))


@settings(max_examples=30, deadline=None)
@given(precision=config_value, y_points=config_value)
def test_levels_config_gives_csv_or_config_error(precision, y_points):
    body = (MODEL + f"[run]\ny_min = -1\ny_max = 1\ny_points = {y_points}\n"
            f"[output]\nprecision = {precision}\n")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp), body)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["levels", "--config", cfg, "--out", tmp])
        if code == 0:
            assert Path(tmp, "levels.csv").read_text().startswith("# e1 = 0")
        else:
            assert code == 2 and "configuration error" in err.getvalue()
