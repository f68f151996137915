"""One benchmark run in a fresh interpreter.

Set-up (``import triladder.cli`` plus ``load_config``), then a first pass,
then warm passes until the measuring time is used up.  A pass is one
in-process call of the CLI's ``main``, which writes the workload's CSV into
the pass's own directory.  With ``--trace 1`` warm passes alternate between
untraced and traced, so the tracing overhead is measured in the same
process; the spans are written out when the run ends.

Only the standard library is imported before set-up is timed.  With
``--setup-only`` the worker prints ``ready`` once set up and exits, so the
caller can time set-up from interpreter start.

    python3 perfbench/worker.py --workload contours --config cfg.ini \\
        --out .perfbench/x --seconds 35 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_WARM = 2          # untraced warm passes, at least
MIN_TRACED = 1        # traced passes, at least, when tracing


def _versions():
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def _one_pass(main, argv, recorder=None, pass_id=None):
    """Run the CLI once; returns (wall_s, cpu_s, exit_code, error)."""
    sink = io.StringIO()
    error = None
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            if recorder is None:
                code = main(argv)
            else:
                recorder.pass_id = pass_id
                with recorder.span("cli.pass"):
                    code = main(argv)
                recorder.pass_id = None
    except Exception:   # a raising pass fails its rows; the run reports it
        code, error = 1, traceback.format_exc(limit=5)
    return time.perf_counter() - wall0, time.process_time() - cpu0, code, error


def run(args):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import triladder.cli as cli
    t1 = time.perf_counter()
    cli.load_config(args.config)
    t2 = time.perf_counter()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    out = Path(args.out)
    recorder = None
    if args.trace:
        import spans
        recorder = spans.Recorder()
    deadline = t2 + args.seconds
    passes = []
    while True:
        walls = [p["wall_s"] for p in passes]
        warm = sum(p["kind"] == "warm" for p in passes)
        traced = sum(p["kind"] == "traced" for p in passes)
        if not passes:
            kind = "first"
        elif args.trace and traced < warm:
            kind = "traced"
        else:
            kind = "warm"
        enough = warm >= MIN_WARM and (not args.trace or traced >= MIN_TRACED)
        if enough and time.perf_counter() + statistics.median(walls) > deadline:
            break
        pass_dir = out / f"pass{len(passes)}"
        argv = [args.workload, "--config", args.config, "--out", str(pass_dir)]
        if kind == "traced":
            with spans.installed(recorder):
                wall, cpu, code, error = _one_pass(cli.main, argv, recorder, len(passes))
        else:
            wall, cpu, code, error = _one_pass(cli.main, argv)
        passes.append({"kind": kind, "wall_s": wall, "cpu_s": cpu, "exit": code,
                       "error": error, "csv": str(pass_dir / f"{args.workload}.csv")})
        if code != 0:
            break

    result = {"import_s": t1 - t0, "load_config_s": t2 - t1, "passes": passes,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "versions": _versions()}
    if recorder is not None:
        result["layers"] = [spans.layer_metrics(recorder.pass_spans(i))
                            for i, p in enumerate(passes) if p["kind"] == "traced"]
        recorder.dump(out / "spans.json")
    (out / "worker.json").write_text(json.dumps(result, indent=1))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=".")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
