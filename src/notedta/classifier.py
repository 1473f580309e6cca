"""Rule-based classification of free-text pathology-request notes.

A note is normalized to a token sequence, matched against an ordered
lexicon of phrase patterns (46 disease/health categories; the first
matching category in lexicon order is the note's), and given a
per-condition polarity: a plain *statement* of hepatitis B/C ("Known Hep
C", "Hep C Pos") maps to a positive test label, while a *query* or
screening entry ("?Hep C", "Screen Hep C", "Possible Hep C") maps to
negative. Polarity applies to the two hepatitis categories only.

Category 45 absorbs empty notes, category 46 everything unmatched.
"""

import codecs
import functools
import os
import re
from collections import namedtuple

from .model import Condition, checked_make

NO_NOTE_CATEGORY = 45
NONSPECIFIC_CATEGORY = 46
HBV_CATEGORY = Condition.HEPATITIS_B.category_id
HCV_CATEGORY = Condition.HEPATITIS_C.category_id
VACCINATION_CATEGORY = 34
# Notes are stock phrases, so `evaluate` and `classify` keep what each
# distinct note gave for the rest of the run, in a `NoteMemo`. It holds the
# first NOTE_MEMO_LIMIT distinct notes of at most NOTE_MEMO_MAX_CHARS
# characters each (for `classify`, bytes of a raw line) and recomputes any
# other note at each occurrence, so that all-distinct or long-line input
# keeps memory flat. Neither is a setting.
NOTE_MEMO_LIMIT = 4096
NOTE_MEMO_MAX_CHARS = 256

# Maps a-z, 0-9 and '?' to themselves and every other byte to a space, so
# that each byte of a non-ASCII character's UTF-8 separates tokens. A bytes
# table is one array lookup per byte, where `str.translate` looks up each
# distinct character of a note in a dict on every call.
_TOKEN_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789?" else 32 for b in range(256))

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

    The tokens are the runs of a-z and 0-9 and each '?' of the lower-cased
    text. Lower-casing comes first, because it turns two non-ASCII letters
    into ASCII ones: U+0130 ('İ') into 'i' and a combining dot, U+212A
    (KELVIN SIGN) into 'k'. Every other non-ASCII character separates
    tokens, and so does a lone surrogate.

    Idempotent: normalizing the joined token sequence returns the same
    sequence.
    """
    raw = (text.lower().encode("utf-8", "surrogatepass").translate(_TOKEN_BYTES).decode()
           .replace("?", " ? ").split())
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


class NoteMemo(dict):
    """Maps each note looked up to ``derive(note)``, first come, within the bounds above.

    A held note is derived once; any other at each lookup. A hit is a plain
    dict lookup. A ``derive`` that raises stores nothing.
    """

    __slots__ = ("_derive",)

    def __init__(self, derive):
        self._derive = derive

    def __missing__(self, note):
        value = self._derive(note)
        if len(self) < NOTE_MEMO_LIMIT and len(note) <= NOTE_MEMO_MAX_CHARS:
            self[note] = value
        return value


class CategoryRule(namedtuple("CategoryRule", "category_id label icd10_chapter patterns")):
    __slots__ = ()
    _make = checked_make

    def __new__(cls, category_id: int, label: str, icd10_chapter: str | None,
                patterns: tuple[tuple[str, ...], ...]):
        # A bool id would be printed as True; an empty label as "Category 2: ".
        if type(category_id) is not int:
            raise ValueError(f"category_id must be an int: {category_id!r}")
        if not (1 <= category_id <= 46):
            raise ValueError(f"category_id out of range: {category_id}")
        if type(label) is not str or not label:
            raise ValueError(f"category {category_id} label must be a non-empty str: {label!r}")
        if not patterns:
            raise ValueError(f"category {category_id} has no patterns")
        if () in patterns:
            raise ValueError(f"category {category_id} has an empty pattern")
        return tuple.__new__(cls, (category_id, label, icd10_chapter, patterns))


class Lexicon(namedtuple("Lexicon", "rules query_keywords")):
    """The ordered category rules and the query keywords.

    Rule order ranks the rules: of those a note matches, the first wins.

    It also holds `_pattern_index`, derived from the rules and keywords.
    Having no ``__slots__``, it keeps the index in its instance ``__dict__``,
    which equality, hashing and ``repr`` leave out; ``_replace`` rebuilds
    it. The index maps a first token to (rule position, pattern position,
    pattern length, category id, joined pattern, pattern) entries, in
    lexicon order; '?' and the query keywords follow as one more group, at
    rule position len(rules) with category id None.
    """

    _make = checked_make

    def __new__(cls, rules: tuple[CategoryRule, ...],
                query_keywords: tuple[tuple[str, ...], ...]):
        ids = sorted(r.category_id for r in rules)
        if ids != list(range(1, 47)):
            missing = sorted(set(range(1, 47)) - set(ids))
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            if missing:
                raise ValueError(f"lexicon missing categories: {missing}")
            raise ValueError(f"lexicon has duplicate categories: {dupes}")
        if () in query_keywords:
            raise ValueError("empty query keyword")
        groups = [(rule.category_id, rule.patterns) for rule in rules]
        # Once each, so that a lexicon that lists "?" does not scan it twice.
        groups.append((None, tuple(dict.fromkeys((("?",), *query_keywords)))))
        index: dict[str, list] = {}
        for r, (category_id, patterns) in enumerate(groups):
            for p, pattern in enumerate(patterns):
                index.setdefault(pattern[0], []).append(
                    (r, p, len(pattern), category_id, " ".join(pattern), pattern))
        self = tuple.__new__(cls, (rules, query_keywords))
        object.__setattr__(self, "_pattern_index",
                           {token: tuple(entries) for token, entries in index.items()})
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

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

    category_id: the category of the first matched rule in lexicon order,
        ``all_matches[0]``; 45 for an empty note, 46 when no rule matched.
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
    in the note, at that pattern's first token position. The first matched
    rule wins (the default lexicon lists the hepatitis categories first, so
    polarity is never masked).
    """
    tokens = normalize_note(text)
    if not tokens:
        return _NO_NOTE

    # rule position -> (pattern position, token position, category id,
    # joined pattern); tokens are scanned left to right, so the first hit of
    # a pattern is its first position. The same scan finds the query group,
    # which marks the note as a query and is no match. Only the tokens that
    # start a pattern are visited, each at its position past the last.
    found: dict[int, tuple[int, int, int | None, str]] = {}
    index = lexicon._pattern_index
    i = -1
    for token in filter(index.__contains__, tokens):
        i = tokens.index(token, i + 1)
        for r, p, width, category_id, joined, pattern in index[token]:
            if (r not in found or p < found[r][0]) and (
                width == 1 or tokens[i : i + width] == pattern
            ):
                found[r] = (p, i, category_id, joined)

    is_query = found.pop(len(lexicon.rules), None) is not None
    if not found:
        return _UNMATCHED

    matches = []
    hbv = hcv = False
    for r in sorted(found):
        _, i, category_id, joined = found[r]
        matches.append(Match(category_id, joined, i))
        hbv = hbv or category_id == HBV_CATEGORY
        hcv = hcv or category_id == HCV_CATEGORY
    if is_query:  # a query never labels positive
        hbv = hcv = False
    best_id, best_pattern, _ = matches[0]
    return NoteClassification(best_id, best_pattern, _LABELS[hbv], _LABELS[hcv], tuple(matches))


# ---------------------------------------------------------------------------
# Lexicon file format: blocks introduced by "[category N]" with "label:",
# "chapter:" and one "pattern:" line per phrase, plus a "[polarity]" block
# of "query:" lines. Block order ranks the categories: the first matching
# block wins. Patterns and query keywords are normalized on load; a hepatitis
# note without a query is a statement.


def load_lexicon(path) -> Lexicon:
    """The lexicon of the UTF-8 file `path`, which may start with a byte-order mark.

    Every error names the file and the line: `<path>: line N: ...`.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # Numbered as parse_lexicon numbers its lines.
        line = len((data[:err.start].decode("utf-8") + "x").splitlines())
        raise ValueError(f"{path}: line {line}: not UTF-8 (byte 0x{data[err.start]:02x}: "
                         f"{err.reason})") from None
    try:
        return parse_lexicon(text)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


@functools.cache
def default_lexicon() -> Lexicon:
    """The built-in lexicon, parsed once per process and shared (it is immutable)."""
    return load_lexicon(os.path.join(os.path.dirname(__file__), "data", "default_lexicon.txt"))


def parse_lexicon(text: str) -> Lexicon:
    rules: list[CategoryRule] = []
    query: list[tuple[str, ...]] = []
    current: dict | None = None
    in_polarity = False
    first_line: dict[int, int] = {}  # category id -> header line of its block

    def flush():
        nonlocal current
        if current is None:
            return
        line = current["line"]
        if "label" not in current:
            raise ValueError(f"line {line}: category {current['id']} has no label")
        try:
            rules.append(CategoryRule(current["id"], current["label"], current.get("chapter"),
                                      tuple(current["patterns"])))
        except ValueError as err:  # a rule of the block, reported at its header
            raise ValueError(f"line {line}: {err}") from None
        first = first_line.setdefault(current["id"], line)
        if first != line:
            raise ValueError(f"line {line}: duplicate category {current['id']}, "
                             f"first at line {first}")
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
            else:
                raise ValueError(f"line {lineno}: unknown polarity key {key!r}")
            continue
        if current is None:
            raise ValueError(f"line {lineno}: content outside any block")
        if key == "label":
            current["label"] = value
        elif key == "chapter":
            current["chapter"] = None if value == "-" else value
        elif key == "pattern":
            pat = normalize_note(value)
            if not pat:
                raise ValueError(f"line {lineno}: empty pattern")
            current["patterns"].append(pat)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    flush()
    return Lexicon(tuple(rules), tuple(query))
