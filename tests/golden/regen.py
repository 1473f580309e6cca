"""Rewrite tests/golden/ from the cases of tests/test_golden.py and the demos.

    python tests/golden/regen.py

Every stored file is written again from what the code prints now, and a file
that no case writes any more is removed, so `git diff tests/golden` shows an
output change file by file. Run it only for a change made on purpose.
"""

import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path[:0] = [str(GOLDEN.parent), str(GOLDEN.parents[1] / "src")]
sys.dont_write_bytecode = True  # as tests/conftest.py: leave no bytecode in the tree

from launch import run_python  # noqa: E402
from test_demos import DEMOS  # noqa: E402
from test_golden import CASES, produce  # noqa: E402


def main() -> None:
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            workdir = Path(tmp, case)
            workdir.mkdir()
            files.update((f"{case}/{name}", data) for name, data in produce(case, workdir).items())
    for demo in DEMOS:
        proc = run_python(str(demo))
        if proc.returncode != 0 or proc.stderr:
            sys.exit(f"{demo.name} exited {proc.returncode}: {proc.stderr.decode()}")
        files[f"demos/{demo.stem}.txt"] = proc.stdout
    for path in GOLDEN.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    for name, data in files.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(data)


if __name__ == "__main__":
    main()
