"""The demos run to completion from a fresh interpreter.

Demos 01-03 take about 1 s each.  Demos 04 (about 3.4 s) and 05 (about
4.5 s) stay a manual check: `python demos/04_soliton_instability.py`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_single_bump.py", "02_gluing_sweep.py",
                                  "03_semiclassical_family.py"])
def test_demo_exits_0(demo, tmp_path):
    # run in tmp_path: demos 01 and 02 write their tables to the working directory
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
