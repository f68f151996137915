"""Configuration-driven command line front end.

Subcommands: ``levels``, ``wkb``, ``contours``, ``resonance-map``,
``splittings``, ``validate``.  Each reads a small INI-style configuration
with a ``[model]`` section (bare energies, couplings as either amplitudes or
dimensionless values, reference quantum number), a command-specific ``[run]``
section and an optional ``[output]`` section.  Every key is read through one
table (``MODEL_KEYS``, ``OUTPUT_KEYS`` and ``RUN_KEYS`` per subcommand) of
its reader, the values it accepts and its default; an unknown section or key,
a missing required key or a value the table rejects is a ``ConfigError``
(exit 2) raised before any computation.  Outputs are deterministic CSV
files: identical configuration bytes produce identical output bytes.

``levels``, ``wkb`` and ``contours`` run on numpy alone: the Fock-window
and splitting layers, and with them scipy, are imported only inside the
functions of ``resonance-map`` and ``splittings``.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dressed import resonance_contour, wkb_levels
from .errors import ConvergenceError, DegenerateLevelsError, TriladderError
from .selection import _check_transition, _exchange, central_quantum
from .trilevel import ModelParams, _amplitudes, eigenvalues_at


class ConfigError(ValueError):
    pass


class Config:
    def __init__(self, params, run, output, echo):
        self.params = params
        self.run = run                # [run] as given, read by each renderer
        self.output = output          # typed [output] values
        self.echo = echo              # ordered (key, value) pairs for provenance


def _whole(text):
    """Digits read exactly; a float form such as ``1e8`` only while a float
    holds the whole number exactly (up to 2**53)."""
    try:
        return int(text)
    except ValueError:
        number = float(text)
        if number.is_integer() and abs(number) <= 2 ** 53:
            return int(number)
        raise


def _at_least(low):
    return _whole, lambda n: n >= low, f"an integer >= {low}"


# A kind is (read, ok, accepts): ``read`` parses the text (ValueError rejects
# it), ``ok`` bounds the value and ``accepts`` says in words what passes.
REQUIRED = "required"
NUMBER = float, math.isfinite, "a finite number"
NON_NEGATIVE = float, lambda x: 0 <= x < math.inf, "a finite number >= 0"
POSITIVE = float, lambda x: 0 < x < math.inf, "a finite number > 0"
TRANSITION = (lambda text: _check_transition([int(part) for part in text.split(",")]),
              lambda jk: True, "two levels 'j,k' with 1 <= j < k <= 3")
DELTA_NS = (lambda text: [int(part) for part in text.split(",") if part.strip()],
            lambda dns: dns and all(dn > 0 for dn in dns) and len(set(dns)) == len(dns),
            "a comma-separated list of distinct positive integers")
MODEL_NUMBER = float, lambda x: True, "a number"   # ModelParams checks the values


def _grid(axis, low=REQUIRED, high=REQUIRED):
    return {f"{axis}_min": (NON_NEGATIVE, low), f"{axis}_max": (NON_NEGATIVE, high),
            f"{axis}_points": (_at_least(1), REQUIRED)}


# section (or subcommand, for [run]) -> key -> (kind, default or REQUIRED)
MODEL_KEYS = {**dict.fromkeys(("e1", "e2", "e3"), (MODEL_NUMBER, REQUIRED)),
              **dict.fromkeys(("u", "v", "g1", "g2"), (MODEL_NUMBER, None)),
              "n0": (_at_least(1), REQUIRED)}
OUTPUT_KEYS = {"precision": ((_whole, lambda n: 1 <= n <= 17, "an integer in 1..17"), 15),
               "directory": ((str, lambda path: True, "a directory path"), ".")}
RUN_KEYS = {
    "levels": {"y_min": (NUMBER, REQUIRED), "y_max": (NUMBER, REQUIRED),
               "y_points": (_at_least(1), REQUIRED)},
    "wkb": {**_grid("g1"), **_grid("g2"), "n": (_at_least(0), None)},
    "contours": {"transition": (TRANSITION, (1, 2)), "delta_n_list": (DELTA_NS, REQUIRED),
                 "rays": (_at_least(1), 181), "radius": (POSITIVE, 1.25),
                 "scan_points": (_at_least(2), 160)},
    "resonance-map": {"transition": (TRANSITION, (1, 2)), **_grid("g1", 0.0, 1.0),
                      **_grid("g2", 0.0, 1.25), "half_width": (_at_least(8), 400)},
    "splittings": {"transition": (TRANSITION, (1, 2)), "delta_n_list": (DELTA_NS, REQUIRED),
                   "ratio": (NON_NEGATIVE, REQUIRED), "half_width": (_at_least(8), 400),
                   "g1_max": (POSITIVE, 1.05)},
}


def _section(label, given, table) -> dict:
    """The typed values of one section read through its key table."""
    for key in given:
        if key not in table:
            raise ConfigError(f"{label} has unknown key {key!r}; it takes {', '.join(table)}")
    values = {}
    for key, ((read, ok, accepts), default) in table.items():
        if key not in given:
            if default == REQUIRED:
                raise ConfigError(f"{label} is missing required key {key!r}")
            values[key] = default
            continue
        try:
            values[key] = read(given[key])
            if not ok(values[key]):
                raise ValueError
        except ValueError:
            raise ConfigError(f"{label} {key} = {given[key]!r} is not {accepts}") from None
    return values


def load_config(source) -> Config:
    """Parse a configuration file (path or open text stream); check its
    sections, ``[model]`` and ``[output]``.  Each renderer reads its own
    ``[run]`` through ``read_run``."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        if hasattr(source, "read"):
            parser.read_file(source)
        else:
            with open(source, encoding="utf-8") as fh:
                parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as err:
        raise ConfigError(f"cannot read configuration: {err}") from err

    # configparser would merge [DEFAULT] keys into every section
    for name in parser.sections() + ([parser.default_section] if parser.defaults() else []):
        if name not in ("model", "run", "output"):
            raise ConfigError(f"unknown section [{name}]; sections are [model], [run], [output]")
    if "model" not in parser:
        raise ConfigError("missing [model] section")
    m = _section("[model]", parser["model"], MODEL_KEYS)
    for amplitude, coupling in (("u", "g1"), ("v", "g2")):
        if (m[amplitude] is None) == (m[coupling] is None):
            raise ConfigError(f"[model] must set exactly one of {amplitude!r} and {coupling!r}")
    try:
        # a coupling given as an amplitude (u or v) is taken as it stands
        scaled = _amplitudes(m["e1"], m["e2"], m["e3"], m["n0"], m["g1"] or 0.0,
                             m["g2"] or 0.0)
        u = scaled[0] if m["u"] is None else m["u"]
        v = scaled[1] if m["v"] is None else m["v"]
        params = ModelParams(m["e1"], m["e2"], m["e3"], u, v, m["n0"])
    except (ValueError, OverflowError) as err:
        # OverflowError: an n0 too large for a float, met by sqrt(n0)
        raise ConfigError(f"[model] rejected: {err}") from err

    run = dict(parser["run"]) if "run" in parser else {}
    output = _section("[output]", parser["output"] if "output" in parser else {},
                      OUTPUT_KEYS)
    echo = [("e1", params.e1), ("e2", params.e2), ("e3", params.e3),
            ("u", params.u), ("v", params.v),
            ("g1", params.g1), ("g2", params.g2), ("n0", params.n0)]
    echo += [(f"run.{k}", v) for k, v in run.items()]
    return Config(params, run, output, echo)


def _couplings(run, axis):
    return np.linspace(run[f"{axis}_min"], run[f"{axis}_max"], run[f"{axis}_points"])


def read_run(cfg, command) -> dict:
    """``command``'s typed ``[run]`` values, checked against the model.

    Every configuration error of a subcommand is raised here, before any
    computation.
    """
    run = _section("[run]", cfg.run, RUN_KEYS[command])
    n0 = cfg.params.n0
    if command == "resonance-map":
        from .fock import _sweep_grids
        try:
            _sweep_grids(_couplings(run, "g1"), _couplings(run, "g2"))
        except ValueError as err:
            raise ConfigError(f"[run] {err}") from err
    labels = []
    for dn in run.get("delta_n_list", ()):
        try:
            j, k = _exchange(run["transition"], dn)
        except ValueError as err:
            raise ConfigError(f"[run] delta_n_list: {err}") from err
        labels += [(j, central_quantum(j, n0)), (k, central_quantum(j, n0) - dn)]
    if "half_width" in run:
        from .fock import _check_window
        try:
            _check_window(n0, run["half_width"], labels)
        except ValueError as err:
            raise ConfigError(f"[run] half_width = {run['half_width']}: {err}") from err
    return run


def _format(value, precision):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.{precision}g}"


def _render(cfg, header, rows):
    precision = cfg.output["precision"]
    out = []
    for key, value in cfg.echo:
        out.append(f"# {key} = {_format(value, 17)}")
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(_format(v, precision) for v in row))
    return "\n".join(out) + "\n"


def render_levels(cfg) -> str:
    run = read_run(cfg, "levels")
    y = np.linspace(run["y_min"], run["y_max"], run["y_points"])
    levels = eigenvalues_at(cfg.params, y)
    rows = [(y[i], levels[i, 0], levels[i, 1], levels[i, 2]) for i in range(y.size)]
    return _render(cfg, ("y", "E1", "E2", "E3"), rows)


def render_wkb(cfg) -> str:
    run = read_run(cfg, "wkb")
    n = cfg.params.n0 if run["n"] is None else run["n"]
    rows = []
    for b in _couplings(run, "g2"):
        for a in _couplings(run, "g1"):
            # a point whose quadrature does not settle or whose cubic overflows
            # is flagged, named on stderr, and does not cost the rest of the grid
            try:
                lv, ok = wkb_levels(cfg.params.with_couplings(a, b), n), True
            except (ConvergenceError, DegenerateLevelsError) as err:
                print(f"wkb: {err}", file=sys.stderr)
                lv, ok = np.full(3, np.nan), False
            rows.append((a, b, lv[0], lv[1], lv[2], ok))
    return _render(cfg, ("g1", "g2", "E1", "E2", "E3", "ok"), rows)


def render_contours(cfg) -> str:
    run = read_run(cfg, "contours")
    (j, k), dns = run["transition"], run["delta_n_list"]
    angles = np.linspace(0.0, np.pi / 2.0, run["rays"])
    contours = resonance_contour(cfg.params, (j, k), dns, angles=angles, radius=run["radius"],
                                 scan_points=run["scan_points"])
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
    from .fock import resonance_sharpness_map
    run = read_run(cfg, "resonance-map")
    table = resonance_sharpness_map(cfg.params, run["transition"], _couplings(run, "g1"),
                                    _couplings(run, "g2"), run["half_width"])
    rows = [(r["g1"], r["g2"], r["diff"], r["delta_n"], r["sharpness"], r["ok"])
            for r in table]
    return _render(cfg, ("g1", "g2", "diff", "delta_n", "sharpness", "ok"), rows)


def render_splittings(cfg) -> str:
    from .splittings import compare_splittings
    run = read_run(cfg, "splittings")
    records = compare_splittings(cfg.params, run["ratio"], run["delta_n_list"],
                                 run["transition"], half_width=run["half_width"],
                                 g1_max=run["g1_max"])
    rows = []
    for r in records:
        # the reason for an ok = 0 row, or a warning on an ok one, goes to stderr
        if r.note:
            print(f"splittings: delta_n {r.delta_n}: {r.note}", file=sys.stderr)
        rows.append((r.transition[0], r.transition[1], r.delta_n, r.line_ratio,
                     r.g_contour[0], r.g_contour[1], r.g_star[0], r.g_star[1],
                     r.de_pt, r.de_exact, r.ratio, len(r.minima), r.ok))
    return _render(cfg, ("j", "k", "delta_n", "line_ratio", "g1_contour",
                         "g2_contour", "g1_star", "g2_star", "de_pt", "de_exact",
                         "pt_over_exact", "n_minima", "ok"), rows)


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
        # an overflowing cubic is refused by the NaN check in trilevel._trig_form;
        # numpy's warnings on the way there would only precede that message
        with np.errstate(over="ignore", invalid="ignore"):
            text = renderers[args.command](cfg)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except (TriladderError, ValueError) as err:
        print(f"computation failed: {err}", file=sys.stderr)
        return 1
    path = Path(args.out or cfg.output["directory"]) / f"{args.command}.csv"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        print(f"cannot write {path}: {err}", file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
