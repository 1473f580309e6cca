"""Every demo the README advertises runs cleanly from a source checkout, and
prints what tests/golden/demos/ stores for it."""

from pathlib import Path

import pytest

from launch import run_python
from test_golden import GOLDEN, assert_same

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = run_python(str(demo))
    assert (proc.returncode, proc.stderr) == (0, b"")
    name = f"demos/{demo.stem}.txt"
    assert_same({name: (GOLDEN / name).read_bytes()}, {name: proc.stdout})
