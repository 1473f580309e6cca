"""Every demo the README advertises runs cleanly from a source checkout."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of the tour's stdout: its categories and polarity labels check the
# matcher end to end. Demo 01 is not pinned: its exact intervals come from
# the installed scipy.
STDOUT_SHA256 = {
    "02_note_classification_tour.py":
        "af0721fe7f92bee898428965f06695f7dbadf8f74d1153814769cbb4d9865790",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # as tests/conftest.py does for this process
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert set(STDOUT_SHA256) <= {d.name for d in DEMOS}
    if demo.name in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
