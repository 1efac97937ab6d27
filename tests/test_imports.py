"""What importing graphsift loads: no scipy.spatial at all, and
scipy.ndimage only once an image is extracted; nor does the import
load concurrent.futures or start a thread (the blur's helper waits for
the first large plane, see tests/test_blur_helper.py). Each check runs
in a fresh interpreter, since this one has scipy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsift

SRC = Path(graphsift.__file__).resolve().parent.parent

SCRIPT = """
import json, sys, threading
import numpy as np
{statement}
def loaded():
    return [m for m in ("scipy.ndimage", "scipy.spatial") if m in sys.modules]
before = loaded()
assert "concurrent.futures" not in sys.modules
assert threading.active_count() == 1
from graphsift import GrayImage, extract_features
pixels = np.random.default_rng(0).integers(0, 256, (64, 64), dtype=np.uint8)
extract_features(GrayImage(pixels))
print(json.dumps([before, loaded()]))
"""


@pytest.mark.parametrize("statement", [
    "import graphsift",
    "import graphsift.cli",
    "from graphsift import config, store",
])
def test_scipy_loads_on_first_extraction(statement):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(statement=statement)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    before, after = json.loads(out)
    assert before == []
    assert after == ["scipy.ndimage"]
