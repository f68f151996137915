"""Row checker that feeds ``fail_frac``.

Rows attempted are the rows of the workload's reference output (or, for a
seed without a reference, the rows the input asks for).  A row *fails* when
it is missing, flagged ``ok=0`` or outside tolerance.  A failed row is also
*wrong* unless the program itself flagged it ``ok=0`` and the reference
records the same flag: such a row is a known defect, not a wrong answer.
The tolerances are the ones the acceptance suite pins; byte equality is not
asked for, so roots may move inside tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

RESIDUAL_TOL = 1e-6       # contour residual, as in resonance_contour
ROOT_TOL = 1e-5           # contour root position, in units of g
SPLITTING_REL_TOL = 0.01  # exact splitting, relative
DIFF_TOL = 1e-6           # resonance-map dressed transition, absolute
SAME_GRID = 1e-12         # contour ray angles must match to roundoff


@dataclass
class Verdict:
    attempted: int
    failed: int
    wrong: int

    @property
    def passed(self) -> int:
        return self.attempted - self.failed


def parse(text: str) -> list:
    """CSV rows (header-keyed dicts of floats), skipping ``#`` lines."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != len(header):
            raise ValueError(f"malformed row {ln!r}")
        rows.append(dict(zip(header, (float(f) for f in fields))))
    return rows


def _nearest_odd(diff):
    return max(1, 2 * int(round((diff - 1.0) / 2.0)) + 1)


def _contours(rows, ref):
    if ref is None:
        bad = sum(1 for r in rows if not abs(r["residual"]) <= RESIDUAL_TOL)
        return Verdict(max(len(rows), 1), bad + (not rows), bad + (not rows))
    missing = 0
    for want in ref:
        near = [r for r in rows if r["delta_n"] == want["delta_n"]
                and abs(r["angle"] - want["angle"]) <= SAME_GRID]
        if not any(math.hypot(r["g1"] - want["g1"], r["g2"] - want["g2"]) <= ROOT_TOL
                   and abs(r["residual"]) <= RESIDUAL_TOL for r in near):
            missing += 1
    return Verdict(len(ref), missing, missing)


def _splittings(rows, ref, expected):
    by_dn = {r["delta_n"]: r for r in rows}
    want = ref if ref is not None else [{"delta_n": dn} for dn in expected]
    failed = wrong = 0
    for w in want:
        r = by_dn.get(w["delta_n"])
        if r is None:
            failed += 1
            wrong += 1
        elif r["ok"] != 1:
            failed += 1
            wrong += ref is not None and w["ok"] == 1
        elif ref is not None:
            off = not abs(r["de_exact"] - w["de_exact"]) <= SPLITTING_REL_TOL * abs(w["de_exact"])
            failed += off
            wrong += off
        elif not (math.isfinite(r["de_exact"]) and r["de_exact"] > 0):
            failed += 1
            wrong += 1
    return Verdict(len(want), failed, wrong)


def _grid_key(row):
    return round(row["g1"], 12), round(row["g2"], 12)


def _resonance_map(rows, ref, expected):
    attempted = len(ref) if ref is not None else expected
    by_point = {_grid_key(r): r for r in rows}
    failed = wrong = 0
    if ref is None:
        failed = wrong = max(attempted - len(by_point), 0)
    for w in ref if ref is not None else rows:
        r = by_point.get(_grid_key(w)) if ref is not None else w
        if r is None:
            failed += 1
            wrong += 1
        elif r["ok"] != 1:
            failed += 1
            wrong += ref is not None and w["ok"] == 1
        elif ref is not None and w["ok"] == 1:
            off = not (abs(r["diff"] - w["diff"]) <= DIFF_TOL and r["delta_n"] == w["delta_n"])
            failed += off
            wrong += off
        elif not (math.isfinite(r["diff"]) and r["delta_n"] == _nearest_odd(r["diff"])):
            failed += 1
            wrong += 1
    return Verdict(attempted, failed, wrong)


def check(workload: str, text, reference_text, run_keys) -> Verdict:
    """Verdict on one pass's CSV ``text``; ``None`` text means the pass failed.

    ``run_keys`` (the ``[run]`` section) sizes a seed without a reference.
    """
    ref = parse(reference_text) if reference_text is not None else None
    rows = parse(text) if text is not None else []
    if workload == "contours":
        verdict = _contours(rows, ref)
    elif workload == "splittings":
        expected = [float(d) for d in run_keys["delta_n_list"].split(",")]
        verdict = _splittings(rows, ref, expected)
    elif workload == "resonance-map":
        expected = int(run_keys["g1_points"]) * int(run_keys["g2_points"])
        verdict = _resonance_map(rows, ref, expected)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if text is None:
        return Verdict(verdict.attempted, verdict.attempted, verdict.attempted)
    return verdict
