"""Every demo script runs to completion against the source tree and prints
what it printed when its digest was recorded, byte for byte."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout
DEMO_DIGESTS = {
    "01_lengths_and_normal_forms.py":
        "fc36b02271520602232cee8d5de5d99e97eb73af12d1f62d4df18e5628fe2181",
    "02_reduce_generating_set.py":
        "f21aa36de606932cf9b218ca8ee56612b5551f66490801d219ab4873c3b8af36",
    "03_surface_and_pregroup.py":
        "61b961a175190b9ece576c6b2fc312313e6f528d39cf0dec9a5a5ad60c30599a",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo.name]
