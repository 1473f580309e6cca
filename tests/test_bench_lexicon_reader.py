"""The benchmark's lexicon reader reads what `parse_lexicon` reads.

`perfbench/corpus.py` builds the `distinct-notes` workload from the
default lexicon, which it reads as text without importing the package.
A change to the lexicon format that this reader misread would silently
change the workload's notes; this test fails on it instead.
"""

import sys
from pathlib import Path

from notedta.classifier import default_lexicon, normalize_note

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import corpus  # noqa: E402

TEXT = (ROOT / "src" / "notedta" / "data" / "default_lexicon.txt").read_text("utf-8")


def test_reader_gives_each_category_the_parsed_patterns():
    patterns, _ = corpus.read_lexicon(TEXT)
    read = {cid: tuple(normalize_note(p) for p in ps) for cid, ps in patterns.items()}
    assert read == {r.category_id: r.patterns for r in default_lexicon().rules}
