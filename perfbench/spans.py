"""Per-layer tracing installed from outside the triladder package.

Each public entry point on a workload path is rebound, wherever a caller
looks it up, to a wrapper that records one span: name, start, end, parent
span and pass id, plus one integer payload (kernel points for the kernel,
requested steps for a sweep).  No file under ``src/`` changes.  Spans stay
in memory; :func:`layer_metrics` reduces the spans of one pass to the
per-layer metrics and :meth:`Recorder.dump` writes them out at the end.

The recorder assumes one thread, which is what the CLI runs with its default
``--threads 1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, payload) for every wrapped entry point.  The
# kernel keeps two span names so that calls through the dressed binding (one
# call per orbit average) can be told apart from all other kernel calls.
TARGETS = [
    ("triladder.cli", "load_config", "cli.load_config", None),
    ("triladder.trilevel", "eigenvalues_at", "trilevel.eigenvalues_at", "points"),
    ("triladder.dressed", "eigenvalues_at", "dressed.eigenvalues_at", "points"),
    ("triladder.dressed", "resonance_contour", "dressed.resonance_contour", None),
    ("triladder.dressed", "wkb_levels", "dressed.wkb_levels", None),
    ("triladder.dressed", "dressed_transition", "dressed.dressed_transition", None),
    ("triladder.dressed", "contour_arc_crossing", "dressed.contour_arc_crossing", None),
    ("triladder.splittings", "compare_splittings", "splittings.compare_splittings", None),
    ("triladder.splittings", "contour_point_on_line", "splittings.contour_point_on_line", None),
    ("triladder.splittings", "pt_splitting", "splittings.pt_splitting", None),
    ("triladder.fock", "build_hamiltonian", "fock.build_hamiltonian", None),
    ("triladder.fock", "track_levels", "fock.track_levels", "steps"),
    ("triladder.fock", "anticrossing_gap", "fock.anticrossing_gap", None),
    ("triladder.fock", "resonance_sharpness_map", "fock.resonance_sharpness_map", None),
    ("triladder.fock", "linear_sum_assignment", "fock.linear_sum_assignment", None),
    ("triladder.coupling", "v_matrix_element", "coupling.v_matrix_element", None),
    ("triladder.coupling", "v_matrix_element_h0", "coupling.v_matrix_element_h0", None),
    ("scipy.sparse.linalg", "eigsh", "scipy.eigsh", None),
    ("scipy.linalg", "eig_banded", "scipy.eig_banded", None),
    ("scipy.linalg", "eigh", "scipy.eigh", None),
]

PASS = "cli.pass"
KERNEL = ("trilevel.eigenvalues_at", "dressed.eigenvalues_at")
DRESSED = ("dressed.resonance_contour", "dressed.wkb_levels",
           "dressed.dressed_transition", "dressed.contour_arc_crossing")
ELEMENTS = ("coupling.v_matrix_element", "coupling.v_matrix_element_h0")

# span record fields
ID, PARENT, NAME, START, END, PASS_ID, PAYLOAD, ERROR = range(8)


def _payload(kind, args, kwargs):
    if kind == "points":
        y = args[1] if len(args) > 1 else kwargs["y"]
        return int(np.size(y))
    if kind == "steps":
        steps = args[3] if len(args) > 3 else kwargs["steps"]
        return int(steps) - 1
    return 0


class Recorder:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.pass_id = None

    def open(self, name, payload=0):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None,
                           self.pass_id, payload, None])
        self.stack.append(sid)
        return sid

    def close(self, sid, error=None):
        span = self.spans[sid]
        span[END] = time.perf_counter()
        span[ERROR] = error
        self.stack.pop()

    @contextmanager
    def span(self, name):
        sid = self.open(name)
        try:
            yield sid
        except BaseException as err:
            self.close(sid, type(err).__name__)
            raise
        self.close(sid)

    def wrap(self, fn, name, kind):
        # open/close spelled out rather than ``with self.span``: the kernel
        # wrapper runs some 47,000 times a contours pass
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name, _payload(kind, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                self.close(sid, type(err).__name__)
                raise
            self.close(sid)
            return result
        return traced

    def pass_spans(self, pass_id):
        return [s for s in self.spans if s[PASS_ID] == pass_id]

    def dump(self, path):
        fields = ["id", "parent", "name", "start", "end", "pass", "payload", "error"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))


@contextmanager
def installed(recorder):
    """Rebind every target to its wrapper in every module that holds it.

    A caller that did ``from .trilevel import eigenvalues_at`` looks the name
    up in its own module, so each loaded triladder module whose attribute is
    the very function object gets the wrapper, unless that binding is a
    target of its own (the dressed kernel binding).  Restored on exit.
    """
    for module in {t[0] for t in TARGETS}:
        importlib.import_module(module)
    explicit = {(module, attr) for module, attr, _, _ in TARGETS}
    originals = [getattr(sys.modules[module], attr) for module, attr, _, _ in TARGETS]
    package = [m for m in list(sys.modules.values())
               if getattr(m, "__name__", "").split(".")[0] == "triladder"]
    saved = []
    for (module, attr, name, kind), original in zip(TARGETS, originals):
        wrapper = recorder.wrap(original, name, kind)
        holders = [sys.modules[module]] + [
            m for m in package if getattr(m, attr, None) is original
            and m.__name__ != module and (m.__name__, attr) not in explicit]
        for holder in holders:
            saved.append((holder, attr, original))
            setattr(holder, attr, wrapper)
    try:
        yield recorder
    finally:
        for holder, attr, original in reversed(saved):
            setattr(holder, attr, original)


def _self_times(spans):
    """Duration minus the time covered by direct children, per span id."""
    own = {s[ID]: s[END] - s[START] for s in spans}
    for s in spans:
        if s[PARENT] in own:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, from its spans."""
    by_id = {s[ID]: s for s in spans}
    own = _self_times(spans)

    def ancestors(s):
        while s[PARENT] in by_id:
            s = by_id[s[PARENT]]
            yield s

    def nearest(s, names):
        """Name of the nearest enclosing span among ``names``, or None."""
        return next((a[NAME] for a in ancestors(s) if a[NAME] in names), None)

    def host_layer(s):
        """Layer of the nearest enclosing span that is not a scipy call."""
        return next(a[NAME].split(".")[0] for a in ancestors(s)
                    if not a[NAME].startswith("scipy."))

    count = defaultdict(int)
    total = defaultdict(float)      # inclusive durations
    selfs = defaultdict(float)      # self times per layer bucket
    payload = defaultdict(int)
    errors = defaultdict(lambda: defaultdict(int))
    for s in spans:
        name = s[NAME]
        count[name] += 1
        total[name] += s[END] - s[START]
        payload[name] += s[PAYLOAD]
        if s[ERROR]:
            errors[name][s[ERROR]] += 1
        layer = name.split(".")[0]
        if name in (PASS, "cli.load_config"):
            bucket = name
        elif name in KERNEL:
            bucket = "trilevel"
        elif name == "fock.build_hamiltonian":
            bucket = "fock.assembly"
        elif name == "fock.anticrossing_gap":
            bucket = "fock.gap"
        elif name == "scipy.eigsh":
            bucket = "fock.solve"
        elif layer == "scipy":
            host = host_layer(s)
            bucket = "coupling.eigh" if host == "coupling" else host
            if name == "scipy.eigh" and host == "fock":
                count["fock.dense"] += 1
        else:
            bucket = layer
        selfs[bucket] += own[s[ID]]
        if name == "dressed.eigenvalues_at" and nearest(s, ("splittings.compare_splittings",)):
            count["splittings.orbit_averages"] += 1
        if name in KERNEL and nearest(s, ELEMENTS):
            payload["coupling.kernel_points"] += s[PAYLOAD]
        if name == "scipy.eigsh" and nearest(
                s, ("fock.track_levels", "fock.anticrossing_gap")) == "fock.anticrossing_gap":
            count["fock.gap_solves"] += 1

    # inclusive time and orbit averages of the outermost dressed spans
    dressed_top = [s for s in spans if s[NAME] in DRESSED and not nearest(s, DRESSED)]
    averages_in_dressed = sum(1 for s in spans if s[NAME] == "dressed.eigenvalues_at"
                              and nearest(s, DRESSED))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    kernel_calls = sum(count[n] for n in KERNEL)
    kernel_points = sum(payload[n] for n in KERNEL)
    elements = sum(count[n] for n in ELEMENTS)
    pass_wall = sum(s[END] - s[START] for s in spans if s[NAME] == PASS)
    return {
        "trilevel.kernel_calls": kernel_calls,
        "trilevel.kernel_points": kernel_points,
        "trilevel.kernel_s": selfs["trilevel"],
        "trilevel.kernel_ns_per_point": ratio(selfs["trilevel"], kernel_points, 1e9),
        "dressed.orbit_averages": count["dressed.eigenvalues_at"],
        "dressed.self_s": selfs["dressed"],
        "dressed.us_per_average": ratio(sum(s[END] - s[START] for s in dressed_top),
                                        averages_in_dressed, 1e6),
        "splittings.orbit_averages": count["splittings.orbit_averages"],
        "splittings.contour_point_on_line_s": total["splittings.contour_point_on_line"],
        "splittings.pt_splitting_s": total["splittings.pt_splitting"],
        "splittings.self_s": selfs["splittings"],
        "fock.assemblies": count["fock.build_hamiltonian"],
        "fock.assembly_s": selfs["fock.assembly"],
        "fock.assembly_ms": ratio(selfs["fock.assembly"], count["fock.build_hamiltonian"], 1e3),
        "fock.solves": count["scipy.eigsh"],
        "fock.solve_s": selfs["fock.solve"],
        "fock.solve_ms": ratio(selfs["fock.solve"], count["scipy.eigsh"], 1e3),
        "fock.solve_errors": sum(errors["scipy.eigsh"].values()),
        "fock.banded_solves": count["scipy.eig_banded"],
        "fock.dense_solves": count["fock.dense"],
        "fock.sweeps": count["fock.track_levels"],
        "fock.sweep_errors": errors["fock.track_levels"]["TrackingError"],
        "fock.assignments": count["fock.linear_sum_assignment"],
        "fock.steps_requested": payload["fock.track_levels"],
        "fock.step_useful_ratio": ratio(payload["fock.track_levels"],
                                        count["fock.linear_sum_assignment"]),
        "fock.gap_scans": count["fock.anticrossing_gap"],
        "fock.gap_solves": count["fock.gap_solves"],
        "fock.gap_self_s": selfs["fock.gap"],
        "fock.self_s": selfs["fock"],
        "coupling.elements": elements,
        "coupling.element_s": sum(total[n] for n in ELEMENTS),
        "coupling.kernel_points": payload["coupling.kernel_points"],
        "coupling.eigh_s": selfs["coupling.eigh"],
        "coupling.self_s": selfs["coupling"],
        "cli.load_config_s": selfs["cli.load_config"],
        "cli.self_s": selfs["cli.pass"],
        "trace.pass_s": pass_wall,
        "trace.attributed_frac": ratio(sum(selfs.values()), pass_wall),
    }
