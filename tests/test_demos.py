"""Every demo the README advertises runs cleanly from a source checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import GOLDEN, assert_same

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# The demos whose stdout is stored in tests/golden/demos/: the headline
# reports at 2 dp, and the tour, whose categories and polarity labels check
# the matcher end to end.
PINNED = [ROOT / "demos" / name for name in ("01_headline_reproduction.py",
                                             "02_note_classification_tour.py")]


def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # as tests/conftest.py does for this process
    return subprocess.run([sys.executable, str(demo)], capture_output=True, env=env, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_demo(demo)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert set(PINNED) <= set(DEMOS)
    if demo in PINNED:
        name = f"demos/{demo.stem}.txt"
        assert_same({name: (GOLDEN / name).read_bytes()}, {name: proc.stdout})
