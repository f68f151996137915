import os
import subprocess
import sys
from pathlib import Path

import pytest

import triladder


def test_every_public_name_resolves():
    assert len(set(triladder.__all__)) == len(triladder.__all__)
    for name in triladder.__all__:
        assert getattr(triladder, name) is not None, name


def test_lazy_table_matches_all():
    assert triladder.__all__ == sorted(triladder._HOME)
    for name, module in triladder._HOME.items():
        assert getattr(triladder, name).__module__ == f"triladder.{module}", name
        # resolved on each access, never stored on the package
        assert name not in vars(triladder), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from triladder import *", namespace)
    assert set(triladder.__all__) <= set(namespace)


def test_dir_lists_public_names():
    listed = dir(triladder)
    assert set(triladder.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        triladder.no_such_name
    assert not hasattr(triladder, "wkb_level")


def test_coupling_loads_no_orbit_average():
    # in a fresh interpreter: the rotated-frame states aim at their own rungs
    probe = "import sys, triladder.coupling; print('triladder.dressed' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
