"""Workload inputs: the pinned seed-0 configurations and their seeded family.

Every workload runs one ``triladder`` CLI subcommand on the model
e1=0, e2=11, e3=24, n0=1e8 (the CLI ignores the model couplings for these
subcommands).  Seed 0 is the pinned configuration whose reference output is
committed under ``reference/``.  Any other seed keeps the ``[run]`` section
and draws the reference quantum number n0 as an even integer within 10% of
1e8, which is checked without a reference.  Couplings are dimensionless, so
this moves every number the program computes but not the amount of work: the
same rows, the same failing rows and the same solver paths.  Drawing other
odd quantum exchanges or shifted grid ranges instead changed the work of a
pass by up to 30% from seed to seed, more than any regression bound the
benchmark could set.
"""

from __future__ import annotations

import random
from pathlib import Path

NAMES = ("contours", "splittings", "resonance-map")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

MODEL = {"e1": "0", "e2": "11", "e3": "24", "g1": "0", "g2": "0", "n0": "100000000"}

PINNED = {
    # trilevel kernel + dressed orbit averages; no Fock-window work
    "contours": {"transition": "1,2", "delta_n_list": "13,15,17", "rays": "91"},
    # exact solver with gap refinement, window doubling and matrix elements
    "splittings": {"transition": "1,2", "ratio": "0.3", "delta_n_list": "13,15",
                   "half_width": "400", "g1_max": "1.1"},
    # many short seeded sweeps; no refinement, no window doubling, no elements
    "resonance-map": {"transition": "1,2", "g1_min": "0", "g1_max": "1.0",
                      "g1_points": "21", "g2_min": "0", "g2_max": "1.25",
                      "g2_points": "11", "half_width": "400"},
}


def model_keys(seed: int) -> dict:
    """The ``[model]`` section for ``seed``."""
    keys = dict(MODEL)
    if seed != 0:
        rng = random.Random(seed)
        keys["n0"] = str(2 * rng.randrange(45_000_000, 55_000_001))
    return keys


def config_text(workload: str, seed: int) -> str:
    """INI configuration handed to the CLI."""
    lines = ["[model]"] + [f"{k} = {v}" for k, v in model_keys(seed).items()]
    lines += ["", "[run]"] + [f"{k} = {v}" for k, v in PINNED[workload].items()]
    return "\n".join(lines) + "\n"


def reference(workload: str, seed: int):
    """Committed reference CSV text for seed 0, else None."""
    return (REFERENCE_DIR / f"{workload}.csv").read_text() if seed == 0 else None
