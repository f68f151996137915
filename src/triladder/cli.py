"""Configuration-driven command line front end.

Subcommands: ``levels``, ``wkb``, ``contours``, ``resonance-map``,
``splittings``, ``validate``.  Each reads a small INI-style configuration
with a ``[model]`` section (bare energies, couplings as either amplitudes or
dimensionless values, reference quantum number), a command-specific ``[run]``
section and an optional ``[output]`` section.  Outputs are deterministic CSV
files: identical configuration bytes produce identical output bytes.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dressed import resonance_contour, wkb_levels
from .errors import TriladderError
from .fock import _sweep_grids, resonance_sharpness_map
from .splittings import compare_splittings
from .trilevel import ModelParams, _amplitudes, eigenvalues_at


class ConfigError(ValueError):
    pass


class Config:
    def __init__(self, params, run, output, echo, precision):
        self.params = params
        self.run = run
        self.output = output
        self.echo = echo              # ordered (key, value) pairs for provenance
        self.precision = precision    # significant digits of CSV floats


def load_config(source) -> Config:
    """Parse and validate a configuration file (path or open text stream)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            with open(source) as fh:
                parser.read_file(fh)
    except (OSError, configparser.Error) as err:
        raise ConfigError(f"cannot read configuration: {err}") from err

    if "model" not in parser:
        raise ConfigError("missing [model] section")
    model = parser["model"]

    def need(key):
        if key not in model:
            raise ConfigError(f"[model] is missing required key {key!r}")
        try:
            return float(model[key])
        except ValueError as err:
            raise ConfigError(f"[model] {key} = {model[key]!r} is not a number") from err

    e1, e2, e3 = need("e1"), need("e2"), need("e3")
    if "n0" not in model:
        raise ConfigError("[model] is missing required key 'n0'")
    if ("u" in model) == ("g1" in model):
        raise ConfigError("[model] must set exactly one of 'u' and 'g1'")
    if ("v" in model) == ("g2" in model):
        raise ConfigError("[model] must set exactly one of 'v' and 'g2'")
    try:
        n0 = _integer(model["n0"], 1)
        if n0 is None:
            raise ValueError(f"n0 = {model['n0']!r} is not an integer >= 1")
        # a coupling given as an amplitude (u or v) is taken as it stands
        scaled = _amplitudes(e1, e2, e3, n0, float(model.get("g1", "0")),
                             float(model.get("g2", "0")))
        u = float(model["u"]) if "u" in model else scaled[0]
        v = float(model["v"]) if "v" in model else scaled[1]
        params = ModelParams(e1, e2, e3, u, v, n0)
    except (ValueError, OverflowError) as err:
        # OverflowError: an n0 too large for a float, met by sqrt(n0)
        raise ConfigError(f"[model] rejected: {err}") from err

    run = dict(parser["run"]) if "run" in parser else {}
    output = dict(parser["output"]) if "output" in parser else {}
    raw = output.get("precision", "15")
    precision = _integer(raw, 1)
    if precision is None or precision > 17:
        raise ConfigError(f"[output] precision = {raw!r} is not an integer in 1..17")

    echo = [("e1", params.e1), ("e2", params.e2), ("e3", params.e3),
            ("u", params.u), ("v", params.v),
            ("g1", params.g1), ("g2", params.g2), ("n0", params.n0)]
    echo += [(f"run.{k}", v) for k, v in run.items()]
    return Config(params, run, output, echo, precision)


def _integer(text, lowest):
    """``text`` as an int when it spells a whole number >= lowest, else None.

    Digits are read exactly; a float form such as ``1e8`` only while a float
    holds the whole number exactly (up to 2**53).
    """
    try:
        value = int(text)
    except ValueError:
        try:
            number = float(text)
        except ValueError:
            return None
        if not (number.is_integer() and abs(number) <= 2 ** 53):
            return None
        value = int(number)
    return value if value >= lowest else None


def _run_float(cfg, key, default=None):
    if key not in cfg.run:
        if default is None:
            raise ConfigError(f"[run] is missing required key {key!r}")
        return default
    try:
        value = float(cfg.run[key])
    except ValueError as err:
        raise ConfigError(f"[run] {key} = {cfg.run[key]!r} is not a number") from err
    if not np.isfinite(value):
        raise ConfigError(f"[run] {key} = {cfg.run[key]!r} is not a finite number")
    return value


def _run_positive(cfg, key, default):
    value = _run_float(cfg, key, default)
    if not value > 0:
        raise ConfigError(f"[run] {key} = {cfg.run[key]!r} is not a positive number")
    return value


def _run_coupling_grid(cfg, axis, low=None, high=None):
    """The ``{axis}_min`` .. ``{axis}_max`` grid of ``{axis}_points`` couplings >= 0."""
    bounds = []
    for key, default in ((f"{axis}_min", low), (f"{axis}_max", high)):
        value = _run_float(cfg, key, default)
        if value < 0:
            raise ConfigError(f"[run] {key} = {cfg.run[key]!r} is a negative coupling")
        bounds.append(value)
    return np.linspace(*bounds, _run_int(cfg, f"{axis}_points"))


def _run_int(cfg, key, default=None, lowest=1):
    if key not in cfg.run:
        return _run_float(cfg, key, default)
    value = _integer(cfg.run[key], lowest)
    if value is None:
        raise ConfigError(f"[run] {key} = {cfg.run[key]!r} is not an integer >= {lowest}")
    return value


def _run_transition(cfg, default="1,2"):
    raw = cfg.run.get("transition", default)
    try:
        j, k = (int(part) for part in raw.split(","))
    except ValueError as err:
        raise ConfigError(f"[run] transition = {raw!r}; expected 'j,k'") from err
    if not 1 <= j < k <= 3:
        raise ConfigError(f"[run] transition = {raw!r}; expected levels 1 <= j < k <= 3")
    return j, k


def _run_delta_n_list(cfg):
    raw = cfg.run.get("delta_n_list")
    if raw is None:
        raise ConfigError("[run] is missing required key 'delta_n_list'")
    expected = f"[run] delta_n_list = {raw!r}; expected comma-separated odd positive integers"
    try:
        values = [int(part) for part in raw.replace(" ", "").split(",") if part]
    except ValueError as err:
        raise ConfigError(expected) from err
    if any(dn <= 0 or dn % 2 == 0 for dn in values):
        raise ConfigError(expected)
    return values


def _format(value, precision):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.{precision}g}"


def _render(cfg, header, rows):
    precision = cfg.precision
    out = []
    for key, value in cfg.echo:
        out.append(f"# {key} = {_format(value, 17)}")
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(_format(v, precision) for v in row))
    return "\n".join(out) + "\n"


def render_levels(cfg) -> str:
    y = np.linspace(_run_float(cfg, "y_min"), _run_float(cfg, "y_max"),
                    _run_int(cfg, "y_points"))
    levels = eigenvalues_at(cfg.params, y)
    rows = [(y[i], levels[i, 0], levels[i, 1], levels[i, 2]) for i in range(y.size)]
    return _render(cfg, ("y", "E1", "E2", "E3"), rows)


def render_wkb(cfg) -> str:
    g1 = _run_coupling_grid(cfg, "g1")
    g2 = _run_coupling_grid(cfg, "g2")
    n = _run_int(cfg, "n", cfg.params.n0, lowest=0)
    nodes = _run_int(cfg, "nodes", 256, lowest=16)
    rows = []
    for b in g2:
        for a in g1:
            lv = wkb_levels(cfg.params.with_couplings(a, b), n, nodes)
            rows.append((a, b, lv[0], lv[1], lv[2]))
    return _render(cfg, ("g1", "g2", "E1", "E2", "E3"), rows)


def render_contours(cfg) -> str:
    j, k = _run_transition(cfg)
    dns = _run_delta_n_list(cfg)
    rays = _run_int(cfg, "rays", 181)
    radius = _run_positive(cfg, "radius", 1.25)
    scan = _run_int(cfg, "scan_points", 160)
    nodes = _run_int(cfg, "nodes", 256, lowest=16)
    tol = _run_positive(cfg, "residual_tol", 1e-6)
    angles = np.linspace(0.0, np.pi / 2.0, rays)
    contours = resonance_contour(cfg.params, (j, k), dns, angles=angles,
                                 radius=radius, scan_points=scan, nodes=nodes,
                                 residual_tol=tol)
    rows = []
    for dn, contour in zip(dns, contours):
        for i in range(len(contour.points)):
            rows.append((j, k, dn, contour.angles[i], contour.points[i, 0],
                         contour.points[i, 1], contour.residuals[i],
                         contour.multiple[i]))
    return _render(cfg, ("j", "k", "delta_n", "angle", "g1", "g2",
                         "residual", "multiple"), rows)


def render_resonance_map(cfg) -> str:
    """Rows are tracked sequentially; seeding vectors chain along the g2 axis."""
    j, k = _run_transition(cfg)
    g1 = _run_coupling_grid(cfg, "g1", 0.0, 1.0)
    g2 = _run_coupling_grid(cfg, "g2", 0.0, 1.25)
    try:
        _sweep_grids(g1, g2)
    except ValueError as err:
        raise ConfigError(f"[run] {err}") from err
    width = _run_int(cfg, "half_width", 400, lowest=8)
    table = resonance_sharpness_map(cfg.params, (j, k), g1, g2,
                                    cfg.params.n0, width)
    rows = [(r["g1"], r["g2"], r["diff"], r["delta_n"], r["sharpness"], r["ok"])
            for r in table]
    return _render(cfg, ("g1", "g2", "diff", "delta_n", "sharpness", "ok"), rows)


def render_splittings(cfg) -> str:
    j, k = _run_transition(cfg)
    dns = _run_delta_n_list(cfg)
    ratio = _run_float(cfg, "ratio")
    if not ratio >= 0:
        raise ConfigError(f"[run] ratio = {cfg.run['ratio']!r} is not a finite number >= 0")
    width = _run_int(cfg, "half_width", 400, lowest=8)
    g1_max = _run_positive(cfg, "g1_max", 1.05)
    mode = cfg.run.get("mode", "pair")
    if mode not in ("pair", "nearest"):
        raise ConfigError(f"[run] mode = {mode!r}; expected 'pair' or 'nearest'")
    vicinity = _run_positive(cfg, "vicinity", 0.08)
    scan = _run_int(cfg, "scan_points", 101)
    records = compare_splittings(cfg.params, ratio, dns, (j, k), half_width=width,
                                 g1_max=g1_max, mode=mode, vicinity=vicinity,
                                 scan_points=scan)
    rows = []
    for r in records:
        rows.append((r.transition[0], r.transition[1], r.delta_n, r.line_ratio,
                     r.g_contour[0], r.g_contour[1], r.g_star[0], r.g_star[1],
                     r.de_pt, r.de_exact, r.ratio, len(r.minima), r.ok))
    return _render(cfg, ("j", "k", "delta_n", "line_ratio", "g1_contour",
                         "g2_contour", "g1_star", "g2_star", "de_pt", "de_exact",
                         "pt_over_exact", "n_minima", "ok"), rows)


def _write(cfg, args, name, text):
    out_dir = Path(args.out or cfg.output.get("directory", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.csv"
    path.write_text(text)
    print(f"wrote {path}")


def cmd_validate() -> int:
    from .validate import run_all
    results = run_all()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.seconds:8.3f} s  {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="triladder",
        description="Spectra of a three-level ladder system coupled to an "
                    "oscillator in the multiphoton regime.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    renderers = {
        "levels": render_levels,
        "wkb": render_wkb,
        "contours": render_contours,
        "resonance-map": render_resonance_map,
        "splittings": render_splittings,
    }
    for name in renderers:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)
        cmd.add_argument("--out", default=None)
    sub.add_parser("validate")
    args = parser.parse_args(argv)

    if args.command == "validate":
        return cmd_validate()
    try:
        cfg = load_config(args.config)
        text = renderers[args.command](cfg)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (TriladderError, ValueError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return 1
    _write(cfg, args, args.command, text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
