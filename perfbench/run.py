"""Benchmark entry point: one workload, one seed, one fresh worker process.

    python3 perfbench/run.py --workload contours --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, as a table

A run times set-up in several fresh interpreters and reports the median,
then starts one worker process that runs a first pass and warm passes (see
``worker.py``), checks every pass's CSV (see ``check.py``) and prints, as its
last line, ``{"correct", "attempted", "failed", "metrics"}``.  ``attempted``
and ``failed`` count rows over all passes, so ``failed / attempted`` is the
workload's fail fraction.  With ``--trace 0`` the metrics are the end-to-end
ones, with ``--trace 1`` the per-layer ones from traced passes.  The line
before it records the environment.  Everything the run writes goes under
``.perfbench/`` in the checkout.

BLAS thread variables are recorded, never set or unset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check      # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "rows_per_s": "1/s",
    "cpu_s_per_wall_s": "s/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "trilevel.kernel_calls": "count", "trilevel.kernel_points": "count",
    "trilevel.kernel_s": "s", "trilevel.kernel_ns_per_point": "ns",
    "dressed.orbit_averages": "count", "dressed.self_s": "s",
    "dressed.us_per_average": "us",
    "splittings.orbit_averages": "count", "splittings.contour_point_on_line_s": "s",
    "splittings.pt_splitting_s": "s", "splittings.self_s": "s",
    "fock.assemblies": "count", "fock.assembly_s": "s", "fock.assembly_ms": "ms",
    "fock.solves": "count", "fock.solve_s": "s", "fock.solve_ms": "ms",
    "fock.solve_errors": "count", "fock.banded_solves": "count",
    "fock.dense_solves": "count", "fock.sweeps": "count", "fock.sweep_errors": "count",
    "fock.assignments": "count", "fock.steps_requested": "count",
    "fock.step_useful_ratio": "ratio", "fock.gap_scans": "count",
    "fock.gap_solves": "count", "fock.gap_self_s": "s", "fock.self_s": "s",
    "coupling.elements": "count", "coupling.element_s": "s",
    "coupling.kernel_points": "count", "coupling.eigh_s": "s", "coupling.self_s": "s",
    "cli.load_config_s": "s", "cli.self_s": "s",
    "setup.import_s": "s",
    "trace.pass_s": "s", "trace.attributed_frac": "frac", "trace.overhead_frac": "frac",
}


def _environment():
    sha = dirty = None
    if (ROOT / ".git").exists():
        def git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain"))
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()), "python": platform.python_version(),
            "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
            "git_sha": sha, "git_dirty": dirty}


def _worker_cmd(workload, config, out, seconds, trace, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--config", str(config), "--out", str(out), "--seconds", str(seconds),
           "--trace", str(trace)]
    return cmd + ["--setup-only"] if setup_only else cmd


def _setup_seconds(cmd):
    """Wall time from starting an interpreter to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=60)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up failed (exit {proc.returncode})")
    return ready - start


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload, seed, seconds, trace):
    """Run and check one workload; returns (result line, full record)."""
    out = ROOT / ".perfbench" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = _environment()
    config = out / "config.ini"
    config.write_text(workloads.config_text(workload, seed))
    keys = workloads.PINNED[workload]
    reference = workloads.reference(workload, seed)

    setups = [_setup_seconds(_worker_cmd(workload, config, out, seconds, trace, True))
              for _ in range(SETUP_REPEATS)]
    subprocess.run(_worker_cmd(workload, config, out, seconds, trace), cwd=ROOT,
                   check=True, timeout=WORKER_TIMEOUT_S)
    worker = json.loads((out / "worker.json").read_text())
    env["versions"] = worker["versions"]

    passes = worker["passes"]
    first_csv = None
    deterministic = True
    attempted = failed = wrong = 0
    for p in passes:
        text = Path(p["csv"]).read_text() if p["exit"] == 0 else None
        verdict = check.check(workload, text, reference, keys)
        p.update(attempted=verdict.attempted, failed=verdict.failed, wrong=verdict.wrong,
                 passed=verdict.passed)
        attempted += verdict.attempted
        failed += verdict.failed
        wrong += verdict.wrong
        first_csv = text if first_csv is None else first_csv
        deterministic &= text == first_csv

    warm = [p for p in passes if p["kind"] == "warm"]
    e2e = {
        "setup_s": _median(setups),
        "first_rows_per_s": passes[0]["passed"] / passes[0]["wall_s"],
        "rows_per_s": _median([p["passed"] / p["wall_s"] for p in warm]),
        "cpu_s_per_row": _median([p["cpu_s"] / max(p["passed"], 1) for p in warm]),
        "cpu_s_per_wall_s": _median([p["cpu_s"] / p["wall_s"] for p in warm]),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
    }
    if trace:
        layers = worker["layers"]
        # median_low keeps counts whole; they repeat from pass to pass anyway
        metrics = {name: statistics.median_low([m[name] for m in layers])
                   if layers and name in layers[0] else 0.0 for name in PER_LAYER}
        metrics["setup.import_s"] = worker["import_s"]
        traced = [p["wall_s"] for p in passes if p["kind"] == "traced"]
        if traced and warm:
            metrics["trace.overhead_frac"] = (
                _median(traced) / _median([p["wall_s"] for p in warm]) - 1)
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END
    line = {"correct": wrong == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "config": workloads.config_text(workload, seed), "env": env, "setup_runs_s": setups,
              "fail_frac": failed / attempted, "deterministic_csv": deterministic,
              "end_to_end": e2e, "passes": passes, "result": line,
              "worker": {k: worker[k] for k in ("import_s", "load_config_s")}}
    if trace:
        record["layers"] = worker["layers"]
    (ROOT / ".perfbench" / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return line, record


def _table(records):
    # first_rows_per_s rests on a single pass, too noisy for a regression
    # bound; cpu_s_per_row is cpu_s_per_wall_s / rows_per_s and carries the
    # host's drift twice.  Both are in the record and here, not in the result
    # line.
    units = {**END_TO_END, "first_rows_per_s": "1/s", "cpu_s_per_row": "s",
             "fail_frac": "frac"}
    width = max(map(len, units)) + 2
    print(f"{'metric':<{width}}{'unit':<7}" + "".join(f"{r['workload']:>16}" for r in records))
    for name, unit in units.items():
        cells = [r["fail_frac"] if name == "fail_frac" else r["end_to_end"][name]
                 for r in records]
        print(f"{name:<{width}}{unit:<7}" + "".join(f"{c:>16.6g}" for c in cells))


def main(argv=None):
    parser = argparse.ArgumentParser(description="triladder benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "triladder" / "cli.py").is_file():
        print(f"no triladder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        done = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except (subprocess.SubprocessError, RuntimeError, OSError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        _table([record for _, record in done])
        print(json.dumps({"env": done[0][1]["env"]}))
        print(json.dumps({name: line for name, (line, _) in zip(names, done)}))
    else:
        line, record = done[0]
        print(json.dumps({"env": record["env"], "fail_frac": record["fail_frac"]}))
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
