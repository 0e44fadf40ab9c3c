"""The walkthroughs in `demos/` run to completion.

Each demo runs as its own process, as a reader would start it, with the
package on the path, and must exit 0. Demo 04 drives `PhishingServer`
and its audit log. Demo 02 is left out: it trains and cross-validates
every model kind and takes about 18 s, where each of these takes under
a second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_features_and_data.py",
    "03_explanations_and_fusion.py",
    "04_server_and_robustness.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), *sys.path])}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
