"""The names the benchmark's per-layer trace wraps still exist.

``perfbench/layertrace.py`` wraps program functions by the name through
which the program looks them up; a rename would silently drop a layer
from ``perfbench/run.py --trace 1``.  The benchmark's own tests are not
part of this suite, so the lookup is checked here.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layertrace  # noqa: E402


@pytest.mark.parametrize("patch", layertrace.PATCHES,
                         ids=lambda p: f"{p.module}.{p.owner or ''}.{p.attr}")
def test_patch_target_exists(patch):
    owner = importlib.import_module(patch.module)
    if patch.owner is not None:
        owner = owner.__dict__[patch.owner]
    assert callable(owner.__dict__[patch.attr])


def test_gray_scan_range_arguments():
    # layertrace counts combinations from positional arguments 3 and 4
    from stabcat._distpure import gray_scan
    names = list(inspect.signature(gray_scan).parameters)
    assert names[3:5] == ["start", "stop"]
