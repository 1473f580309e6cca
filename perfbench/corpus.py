"""Seeded generator of distinct clinical notes for the `distinct-notes` workload.

The package's own generators draw notes from a few dozen fixed phrases, so
a cache keyed on note text would hide the matcher's cost. Here every note
is distinct: lexicon patterns from all 46 categories are mixed with filler
words, abbreviations (`hep b`, `hbv`, `hx`, `pos`, `fi`) and, on hepatitis
notes, statement or query polarity. A few notes are punctuation only
(category 45) or filler only (category 46). Filler counts are lognormal, so
note lengths have a long tail.

Patterns are read from the lexicon file as text; the generator does not
import the package it benchmarks.
"""

import math
import random
import re

N_CATEGORIES = 46

KIND_WEIGHTS = (("empty", 2), ("unmatched", 8), ("hbv", 15), ("hcv", 15), ("other", 60))
HEPATITIS_FORMS = {
    1: ("hep b", "Hep B", "HBV", "hbv", "hepatitis b", "Hepatitis B"),
    2: ("hep c", "Hep C", "HCV", "hcv", "hepatitis c", "Hepatitis C"),
}
STATEMENT_FORMS = ("{}", "known {}", "{} pos", "hx {}", "{} positive", "history of {}", "{} exposure")
QUERY_FORMS = ("?{}", "? {}", "{}?", "possible {}", "screen {}", "{} fi", "cause ? {}")
QUERY_SHARE = 0.4
EXTRA_PHRASE_P = 0.3
FILLER_MEDIAN = 7.0
FILLER_SIGMA = 0.8
FILLER_MAX = 80
EMPTY_CHARS = "-./*,;:()[]_ "

_TOKEN_RE = re.compile(r"[a-z0-9]+")
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_PLAIN_FILLERS = (
    "please", "bloods", "gp", "thanks", "urgent", "rpt", "ward", "clinic", "asap",
    "referred", "by", "dr", "mane", "nocte", "recent", "ongoing", "query", "copy",
    "result", "results", "repeat", "attached", "visit", "today", "pathology",
)
_RESERVED = {"hep", "hepatitis", "b", "c", "hbv", "hcv", "hx", "pos", "fi"}


def read_lexicon(text: str) -> tuple[dict[int, list[str]], set[str]]:
    """Pattern strings per category, and every token used by a pattern or keyword."""
    patterns: dict[int, list[str]] = {}
    tokens = set(_RESERVED)
    current = None
    for line in text.splitlines():
        line = line.strip()
        header = re.fullmatch(r"\[category (\d+)\]", line)
        if header:
            current = patterns.setdefault(int(header.group(1)), [])
        elif line == "[polarity]":
            current = None
        key, _, value = line.partition(":")
        value = value.strip()
        if key in ("pattern", "query", "statement"):
            tokens.update(_TOKEN_RE.findall(value.lower()))
            if key == "pattern" and current is not None:
                current.append(value)
    if sorted(patterns) != list(range(1, N_CATEGORIES + 1)):
        raise ValueError("lexicon must define categories 1..46")
    return patterns, tokens


def filler_vocabulary(reserved: set[str]) -> list[str]:
    """Words that match no lexicon pattern, query or statement keyword."""
    words = [w for w in _PLAIN_FILLERS if w not in reserved]
    words += [a + b for a in _SYLLABLES for b in _SYLLABLES if a + b not in reserved]
    return words


def _case(rng: random.Random, word: str) -> str:
    x = rng.random()
    return word.upper() if x < 0.1 else word.title() if x < 0.3 else word


def _phrase(rng: random.Random, kind: str, patterns: dict[int, list[str]]) -> str:
    if kind in ("hbv", "hcv"):
        form = rng.choice(HEPATITIS_FORMS[1 if kind == "hbv" else 2])
        frame = rng.choice(QUERY_FORMS if rng.random() < QUERY_SHARE else STATEMENT_FORMS)
        return frame.format(form)
    category = rng.randint(3, N_CATEGORIES) if kind == "other" else rng.randint(1, N_CATEGORIES)
    return rng.choice(patterns[category])


def _note(rng: random.Random, kind: str, patterns, fillers: list[str]) -> str:
    if kind == "empty":
        return "".join(rng.choice(EMPTY_CHARS) for _ in range(rng.randint(1, 12)))
    n_fill = min(FILLER_MAX, int(rng.lognormvariate(math.log(FILLER_MEDIAN), FILLER_SIGMA)))
    words = [_case(rng, rng.choice(fillers)) for _ in range(max(n_fill, 1))]
    if kind != "unmatched":
        phrases = [_phrase(rng, kind, patterns)]
        while rng.random() < EXTRA_PHRASE_P:
            phrases.append(_phrase(rng, "any", patterns))
        for p in phrases:
            words.insert(rng.randint(0, len(words)), p)
    sep = rng.choice((" ", " ", " ", ", ", "; ", " / "))
    return sep.join(words)


def distinct_notes(seed: int, n: int, lexicon_text: str) -> list[str]:
    """`n` pairwise-distinct notes, the same for the same seed and lexicon."""
    patterns, reserved = read_lexicon(lexicon_text)
    fillers = filler_vocabulary(reserved)
    kinds = [k for k, _ in KIND_WEIGHTS]
    weights = [w for _, w in KIND_WEIGHTS]
    rng = random.Random(seed)
    seen: set[str] = set()
    notes: list[str] = []
    while len(notes) < n:
        note = _note(rng, rng.choices(kinds, weights)[0], patterns, fillers)
        if note not in seen:  # a repeat is drawn again, so every note is distinct
            seen.add(note)
            notes.append(note)
    return notes
