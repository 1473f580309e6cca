"""Start a fresh interpreter on the package: one environment, one runner.

The child's environment is built from nothing rather than copied, so a
test's verdict does not depend on the shell that runs the suite. Only PATH
comes from the caller; the package comes from this checkout's src/, no
bytecode is written next to the sources, standard streams are UTF-8 and any
warning is an error.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(**changes: str | None) -> dict[str, str]:
    """The child environment, with each variable of `changes` set, or dropped if None."""
    env = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
           "PYTHONDONTWRITEBYTECODE": "1", "PYTHONIOENCODING": "utf-8",
           "PYTHONWARNINGS": "error", **changes}
    return {name: value for name, value in env.items() if value is not None}


def run_python(*args: str, stdin=None, env: dict[str, str | None] | None = None,
               timeout: float = 60) -> subprocess.CompletedProcess:
    """Run `python *args` in `child_env(**env)` and capture its stdout and stderr as bytes."""
    return subprocess.run([sys.executable, *args], stdin=stdin, capture_output=True,
                          env=child_env(**(env or {})), timeout=timeout)
