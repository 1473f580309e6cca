"""Rule-based classification of free-text pathology-request notes.

A note is normalized to a token sequence, matched against an ordered
lexicon of phrase patterns (46 disease/health categories), and given a
per-condition polarity: a plain *statement* of hepatitis B/C ("Known Hep
C", "Hep C Pos") maps to a positive test label, while a *query* or
screening entry ("?Hep C", "Screen Hep C", "Possible Hep C") maps to
negative. Polarity applies to the two hepatitis categories only.

Category 45 absorbs empty notes, category 46 everything unmatched.
"""

import functools
import os
import re
from collections import namedtuple

from .model import Condition, Frozen, checked_make

NO_NOTE_CATEGORY = 45
NONSPECIFIC_CATEGORY = 46
HBV_CATEGORY = Condition.HEPATITIS_B.category_id
HCV_CATEGORY = Condition.HEPATITIS_C.category_id
VACCINATION_CATEGORY = 34

_TOKEN_RE = re.compile(r"[a-z0-9]+|\?")

# Multi-token abbreviation canonicalization, applied longest-match-first.
_CANONICAL: dict[tuple[str, ...], tuple[str, ...]] = {
    ("hepatitis", "b"): ("hepatitis-b",),
    ("hep", "b"): ("hepatitis-b",),
    ("hbv",): ("hepatitis-b",),
    ("hepatitis", "c"): ("hepatitis-c",),
    ("hep", "c"): ("hepatitis-c",),
    ("hcv",): ("hepatitis-c",),
    ("hx",): ("history",),
    ("pos",): ("positive",),
    ("fi",): ("for", "investigation"),
}
_MAX_ABBREV = max(len(k) for k in _CANONICAL)
_ABBREV_STARTS = frozenset(k[0] for k in _CANONICAL)


def normalize_note(text: str) -> tuple[str, ...]:
    """Lower-case, isolate '?' as its own token, canonicalize abbreviations.

    Idempotent: normalizing the joined token sequence returns the same
    sequence.
    """
    raw = _TOKEN_RE.findall(text.lower())
    if _ABBREV_STARTS.isdisjoint(raw):
        return tuple(raw)
    out: list[str] = []
    i = 0
    while i < len(raw):
        if raw[i] not in _ABBREV_STARTS:
            out.append(raw[i])
            i += 1
            continue
        for width in range(_MAX_ABBREV, 0, -1):
            chunk = tuple(raw[i : i + width])
            if chunk in _CANONICAL:
                out.extend(_CANONICAL[chunk])
                i += width
                break
        else:
            out.append(raw[i])
            i += 1
    return tuple(out)


class CategoryRule(namedtuple("CategoryRule",
                              "category_id label icd10_chapter priority patterns")):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, category_id: int, label: str, icd10_chapter: str | None, priority: int,
                patterns: tuple[tuple[str, ...], ...]):
        if not (1 <= category_id <= 46):
            raise ValueError(f"category_id out of range: {category_id}")
        if not patterns:
            raise ValueError(f"category {category_id} has no patterns")
        if () in patterns:
            raise ValueError(f"category {category_id} has an empty pattern")
        return tuple.__new__(cls, (category_id, label, icd10_chapter, priority, patterns))


class Lexicon(Frozen):
    """The ordered category rules and the query keywords.

    Not a named tuple: it also holds `_pattern_index`, which is derived
    from the rules and keywords and so is left out of `_fields` (equality,
    hashing and ``repr``). The index maps a first token to (rule position,
    pattern position, pattern length, category id, priority, joined
    pattern, pattern) entries, in lexicon order; '?' and the query keywords
    follow as one more group, at rule position len(rules) with category id
    None.
    """

    __slots__ = ("rules", "query_keywords", "_pattern_index")
    _fields = ("rules", "query_keywords")

    def __new__(cls, rules: tuple[CategoryRule, ...],
                query_keywords: tuple[tuple[str, ...], ...]):
        ids = sorted(r.category_id for r in rules)
        if ids != list(range(1, 47)):
            missing = sorted(set(range(1, 47)) - set(ids))
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            if missing:
                raise ValueError(f"lexicon missing categories: {missing}")
            raise ValueError(f"lexicon has duplicate categories: {dupes}")
        prios = [r.priority for r in rules]
        if len(set(prios)) != len(prios):
            raise ValueError("rule priorities must be unique")
        if () in query_keywords:
            raise ValueError("empty query keyword")
        groups = [(rule.category_id, rule.priority, rule.patterns) for rule in rules]
        groups.append((None, None, (("?",), *query_keywords)))
        index: dict[str, list] = {}
        for r, (category_id, priority, patterns) in enumerate(groups):
            for p, pattern in enumerate(patterns):
                index.setdefault(pattern[0], []).append(
                    (r, p, len(pattern), category_id, priority, " ".join(pattern), pattern))
        self = object.__new__(cls)
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "query_keywords", query_keywords)
        object.__setattr__(self, "_pattern_index",
                           {token: tuple(entries) for token, entries in index.items()})
        return self

    def rule(self, category_id: int) -> CategoryRule:
        for r in self.rules:
            if r.category_id == category_id:
                return r
        raise KeyError(category_id)


class Match(namedtuple("Match", "category_id pattern position")):
    """One rule's first pattern found in a note.

    category_id: the rule's category.
    pattern: the matched pattern, space-joined.
    position: token index of the match start.
    """

    __slots__ = ()


class NoteClassification(
    namedtuple("NoteClassification",
               "category_id matched_pattern hbv_label hcv_label all_matches")
):
    """The category and per-condition test labels of one note.

    category_id: the category of the matched rule with the lowest priority
        number; 45 for an empty note, 46 when no rule matched.
    matched_pattern: that rule's pattern, space-joined ("" for 45 and 46).
    hbv_label, hcv_label: "positive" / "negative".
    all_matches: one `Match` per matched rule, in lexicon order.

    Like `Match`, a named tuple: it unpacks, indexes and compares equal to
    a plain tuple.
    """

    __slots__ = ()


# Shared by every empty or unmatched note; safe because results are immutable.
_NO_NOTE = NoteClassification(NO_NOTE_CATEGORY, "", "negative", "negative", ())
_UNMATCHED = NoteClassification(NONSPECIFIC_CATEGORY, "", "negative", "negative", ())
_LABELS = {True: "positive", False: "negative"}


def classify_note(text: str, lexicon: Lexicon) -> NoteClassification:
    """Assign a category and per-condition polarity to one note.

    Each rule contributes its first pattern, in lexicon order, that occurs
    in the note, at that pattern's first token position. Deterministic:
    ties between categories are broken by rule priority (the hepatitis
    categories rank highest so polarity is never masked).
    """
    tokens = normalize_note(text)
    if not tokens:
        return _NO_NOTE

    # rule position -> (pattern position, token position, category id,
    # priority, joined pattern); tokens are scanned left to right, so the
    # first hit of a pattern is its first position. The same scan finds the
    # query group, which marks the note as a query and is no match.
    found: dict[int, tuple[int, int, int | None, int | None, str]] = {}
    index = lexicon._pattern_index
    for i, token in enumerate(tokens):
        for r, p, width, category_id, priority, joined, pattern in index.get(token, ()):
            if (r not in found or p < found[r][0]) and (
                width == 1 or tokens[i : i + width] == pattern
            ):
                found[r] = (p, i, category_id, priority, joined)

    is_query = found.pop(len(lexicon.rules), None) is not None
    if not found:
        return _UNMATCHED

    matches = []
    best_priority = None
    hbv = hcv = False
    for r in sorted(found):
        _, i, category_id, priority, joined = found[r]
        matches.append(Match(category_id, joined, i))
        if best_priority is None or priority < best_priority:
            best_priority, best_id, best_pattern = priority, category_id, joined
        hbv = hbv or category_id == HBV_CATEGORY
        hcv = hcv or category_id == HCV_CATEGORY
    if is_query:  # a query never labels positive
        hbv = hcv = False
    return NoteClassification(best_id, best_pattern, _LABELS[hbv], _LABELS[hcv], tuple(matches))


# ---------------------------------------------------------------------------
# Lexicon file format: blocks introduced by "[category N]" with "label:",
# "chapter:", "priority:" and one "pattern:" line per phrase, plus a
# "[polarity]" block of "query:" and "statement:" lines. Patterns and query
# keywords are normalized on load; "statement:" lines document the lexicon
# and are not read (a hepatitis note without a query is a statement).


def load_lexicon(path) -> Lexicon:
    with open(path, encoding="utf-8") as fh:
        return parse_lexicon(fh.read())


@functools.cache
def default_lexicon() -> Lexicon:
    """The built-in lexicon, parsed once per process and shared (it is immutable)."""
    return load_lexicon(os.path.join(os.path.dirname(__file__), "data", "default_lexicon.txt"))


def parse_lexicon(text: str) -> Lexicon:
    rules: list[CategoryRule] = []
    query: list[tuple[str, ...]] = []
    current: dict | None = None
    in_polarity = False

    def flush():
        nonlocal current
        if current is None:
            return
        for key in ("label", "priority"):
            if key not in current:
                raise ValueError(f"line {current['line']}: category {current['id']} has no {key}")
        rules.append(
            CategoryRule(
                category_id=current["id"],
                label=current["label"],
                icd10_chapter=current.get("chapter"),
                priority=current["priority"],
                patterns=tuple(current["patterns"]),
            )
        )
        current = None

    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[polarity]":
            flush()
            in_polarity = True
            continue
        header = re.fullmatch(r"\[category (\d+)\]", line)
        if header:
            flush()
            in_polarity = False
            current = {"id": int(header.group(1)), "line": lineno, "patterns": []}
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if in_polarity:
            if key == "query":
                keyword = normalize_note(value)
                if not keyword:
                    raise ValueError(f"line {lineno}: empty query keyword")
                query.append(keyword)
            elif key != "statement":
                raise ValueError(f"line {lineno}: unknown polarity key {key!r}")
            continue
        if current is None:
            raise ValueError(f"line {lineno}: content outside any block")
        if key == "label":
            current["label"] = value
        elif key == "chapter":
            current["chapter"] = None if value == "-" else value
        elif key == "priority":
            try:
                current["priority"] = int(value)
            except ValueError:
                raise ValueError(f"line {lineno}: priority not an integer: {value!r}") from None
        elif key == "pattern":
            pat = normalize_note(value)
            if not pat:
                raise ValueError(f"line {lineno}: empty pattern")
            current["patterns"].append(pat)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    flush()
    return Lexicon(tuple(rules), tuple(query))
