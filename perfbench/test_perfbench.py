"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import check       # noqa: E402
import run         # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

import triladder   # noqa: E402
import triladder.cli as cli   # noqa: E402
import triladder.dressed as dressed   # noqa: E402
import triladder.fock as fock   # noqa: E402
import triladder.trilevel as trilevel   # noqa: E402


def _reference(workload):
    return workloads.reference(workload, 0)


def _edit(text, row_index, column, new_value):
    """Replace one field of data row ``row_index`` in CSV ``text``."""
    lines = text.splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    header = lines[data[0]].split(",")
    at = data[1 + row_index]
    fields = lines[at].split(",")
    if new_value is None:
        del lines[at]
    else:
        fields[header.index(column)] = new_value(fields[header.index(column)])
        lines[at] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _verdict(workload, text):
    return check.check(workload, text, _reference(workload), workloads.PINNED[workload])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_reference_checks_clean_against_itself(workload):
    verdict = _verdict(workload, _reference(workload))
    assert verdict.wrong == 0
    expected_failed = 126 if workload == "resonance-map" else 0
    assert verdict.failed == expected_failed


@pytest.mark.parametrize("workload,column,row", [
    ("contours", "g1", 5),
    ("splittings", "de_exact", 1),
    ("resonance-map", "diff", 3),
])
def test_checker_flags_perturbed_row(workload, column, row):
    base = _verdict(workload, _reference(workload))
    text = _edit(_reference(workload), row, column, lambda v: repr(float(v) * 1.05 + 1e-3))
    verdict = _verdict(workload, text)
    assert (verdict.failed, verdict.wrong) == (base.failed + 1, 1)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_checker_flags_missing_row(workload):
    base = _verdict(workload, _reference(workload))
    verdict = _verdict(workload, _edit(_reference(workload), 0, None, None))
    assert verdict.attempted == base.attempted
    assert verdict.failed == base.failed + 1
    assert verdict.wrong >= 1


@pytest.mark.parametrize("workload", ["splittings", "resonance-map"])
def test_checker_flags_ok0_row(workload):
    base = _verdict(workload, _reference(workload))
    verdict = _verdict(workload, _edit(_reference(workload), 0, "ok", lambda v: "0"))
    assert verdict.failed == base.failed + 1
    assert verdict.wrong == 1     # the reference has this row ok=1


def test_known_ok0_rows_fail_but_are_not_wrong():
    text = _reference("resonance-map")
    rows = check.parse(text)
    assert sum(r["ok"] == 0 for r in rows) == 126
    assert check.check("resonance-map", text, None,
                       workloads.PINNED["resonance-map"]).failed == 126


def test_failed_pass_fails_every_row():
    verdict = check.check("splittings", None, _reference("splittings"),
                          workloads.PINNED["splittings"])
    assert verdict.attempted == verdict.failed == verdict.wrong == 2


def test_seed_family():
    assert workloads.model_keys(0) == workloads.MODEL
    drawn = set()
    for seed in range(1, 12):
        keys = workloads.model_keys(seed)
        assert keys == workloads.model_keys(seed)
        assert {k: v for k, v in keys.items() if k != "n0"} == {
            k: v for k, v in workloads.MODEL.items() if k != "n0"}
        n0 = int(keys["n0"])
        assert n0 % 2 == 0 and abs(n0 - 10**8) <= 10**7
        drawn.add(n0)
    assert len(drawn) == 11


def _small_sweep(template):
    return fock.track_levels(template, (0.0, 0.0), (0.3, 0.1), 5, 10**8, 40,
                             [(1, 10**8 + 1), (2, 10**8 + 1 - 13)])


def test_wrapped_counts_are_exact_and_repeat():
    template = trilevel.ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)
    params = template.with_couplings(0.5, 0.5)
    y = np.linspace(-3.0, 3.0, 7)
    originals = (trilevel.eigenvalues_at, dressed.eigenvalues_at, fock.build_hamiltonian)
    runs = []
    for _ in range(2):
        recorder = spans.Recorder()
        with spans.installed(recorder):
            recorder.pass_id = 0
            with recorder.span(spans.PASS):
                for _ in range(3):
                    triladder.eigenvalues_at(params, y)
                cli.eigenvalues_at(params, 1.5)
                _small_sweep(template)
        runs.append(spans.layer_metrics(recorder.pass_spans(0)))
    assert (trilevel.eigenvalues_at, dressed.eigenvalues_at, fock.build_hamiltonian) == originals
    first = runs[0]
    assert first["trilevel.kernel_calls"] == 4
    assert first["trilevel.kernel_points"] == 3 * 7 + 1
    assert first["dressed.orbit_averages"] == 0
    assert first["fock.sweeps"] == 1
    assert first["fock.steps_requested"] == 4
    assert first["fock.assemblies"] == 5          # the start plus one per step
    assert first["fock.assignments"] == 4
    assert first["fock.solves"] == 4              # one cluster of targets per step
    assert first["trace.attributed_frac"] == pytest.approx(1.0, abs=1e-9)
    counts = {k: v for k, v in first.items() if not k.endswith(("_s", "_ms", "_ns_per_point",
                                                                 "_frac", "_per_average"))}
    assert counts == {k: runs[1][k] for k in counts}


def test_wrapper_counts_and_reraises_errors():
    recorder = spans.Recorder()
    template = trilevel.ModelParams(0.0, 11.0, 24.0, 0.0, 0.0, 10**8)
    with spans.installed(recorder):
        recorder.pass_id = 0
        with recorder.span(spans.PASS):
            with pytest.raises(ValueError, match="must start at"):
                fock.track_levels(template, (0.1, 0.0), (0.3, 0.1), 3, 10**8, 40,
                                  [(1, 10**8 + 1)])
    sweeps = [s for s in recorder.spans if s[spans.NAME] == "fock.track_levels"]
    assert [s[spans.ERROR] for s in sweeps] == ["ValueError"]


TINY = {
    "contours": {"transition": "1,2", "delta_n_list": "13", "rays": "4", "scan_points": "30"},
    "resonance-map": {"transition": "1,2", "g1_min": "0", "g1_max": "0.4", "g1_points": "3",
                      "g2_min": "0", "g2_max": "0.3", "g2_points": "2", "half_width": "40"},
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tracing_leaves_csv_bytes_unchanged(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.PINNED, workload, TINY[workload])
    config = tmp_path / "cfg.ini"
    config.write_text(workloads.config_text(workload, 0))
    argv = [workload, "--config", str(config), "--out"]
    assert cli.main(argv + [str(tmp_path / "plain")]) == 0
    recorder = spans.Recorder()
    with spans.installed(recorder):
        recorder.pass_id = 0
        with recorder.span(spans.PASS):
            assert cli.main(argv + [str(tmp_path / "traced")]) == 0
    plain = (tmp_path / "plain" / f"{workload}.csv").read_bytes()
    traced = (tmp_path / "traced" / f"{workload}.csv").read_bytes()
    assert plain == traced
    metrics = spans.layer_metrics(recorder.pass_spans(0))
    assert metrics["trace.attributed_frac"] == pytest.approx(1.0, abs=1e-9)
    assert len(recorder.spans) > 1


def test_benchmark_json_matches_the_runner():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.NAMES)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "contours",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
