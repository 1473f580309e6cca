"""Every output the CLI is pinned to is stored, byte for byte, in tests/golden/.

Each case of CASES runs its commands in an empty directory, and the files
they write must be the files stored under tests/golden/<case>/. After an
output change made on purpose, `python tests/golden/regen.py` rewrites the
store, so the change reaches review as a diff of these files.
"""

import contextlib
import difflib
import io
import os
from pathlib import Path

from launch import run_python
from notedta import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# An empty line, a '?'-only line, non-ASCII text and a last line without a newline.
CLASSIFY_NOTES = "Known Hep C\n\n?\n?Hep B – dépistage\nRANTS, hépatite, known HBV\nscreen"

_LEXICON_FILE = Path(cli.__file__).with_name("data") / "default_lexicon.txt"
_CASINGS = (str.lower, str.upper, str.title, str.capitalize)
_WRAPPERS = (("", ""), ("- ", "."), ("(", ")"), ('"', '";'), ("#", "!!"), ("...", " ,"))
_WORD_SEPARATORS = (" ", "  ", "-", "_", "/", "\t", ", ")


def lexicon_notes() -> str:
    """Notes that reach every pattern, query keyword and abbreviation of the default lexicon.

    One line per pattern of the lexicon file, in file order, with its case,
    the separator between its words and the punctuation around it varied by
    line; then query keywords and '?' around hepatitis phrases, every
    abbreviation, punctuation only, an empty line, bare '\\r's, other ASCII
    controls and non-ASCII text whose lower case holds ASCII letters
    (KELVIN SIGN, 'İ') or which no token covers ('٣', 'é', '–').
    """
    patterns = [line.partition(":")[2].strip()
                for line in _LEXICON_FILE.read_text(encoding="utf-8").splitlines()
                if line.startswith("pattern:")]
    lines = []
    for k, pattern in enumerate(patterns):
        before, after = _WRAPPERS[k % len(_WRAPPERS)]
        words = _CASINGS[k % len(_CASINGS)](pattern).split()
        lines.append(before + _WORD_SEPARATORS[k % len(_WORD_SEPARATORS)].join(words) + after)
    lines += [
        "?Hep C", "Hep C?", "hep c ?", "? hepatitis b", "?HBV?", "known hep b?screen",
        "Possible Hep B", "POSSIBLE hcv", "screen HCV", "Hep B screen", "cause: hep c",
        "HBV for investigation", "FI hep c", "fi: HBV", "for hep b", "investigation hep c",
        "hep b", "HEP C", "Hep-B", "hep.c", "HBV", "hcv", "Hepatitis B", "HEPATITIS-C",
        "hepatitis", "hep", "hep hep b", "hepatitis hepatitis c", "b hep", "Hx", "Hx hep B",
        "Hx of HCV", "hx pos hbv", "hep B pos", "POS", "pos hcv", "FI", "FI anaemia",
        "HBVHCV", "hbv1", "known hep b, hep c",
        "?!.,;:-()", "...", "", "Known Hep B\rscreen", "\r", "hep\rb",
        "hep\tb", "hep\x1cb\x1f", "hep\x0bc\x0c", "\x00hbv\x7f",
        "\u212anown Hep B", "\u212a", "HEPAT\u0130T\u0130S C", "\u0130 hep b", "Hep C \u0663",
        "\u0663hbv", "h\u00e9patite C", "Hep B \u2013 known", "hep\u00a0b", "hep\x85c",
        "hep\u2028b", "stra\u00dfe hcv",
    ]
    return "\n".join(lines) + "\n"


# Case -> the commands it runs, in order, through cli.main. A command that
# ends in "> NAME" has its stdout kept as the file NAME. A command may write
# a file again only with the same bytes: the preset holds no
# vaccination-response note, so --keep-vaccination writes the default files.
CASES = {
    "figS1-hbv": [
        "synth cohort.csv --preset figS1-hbv --seed 1",
        "evaluate cohort.csv --condition hbv --outdir .",
        "evaluate cohort.csv --condition hbv --outdir . --keep-vaccination",
        "evaluate cohort.csv --condition hbv --outdir score --ci-method score",
        "evaluate cohort.csv --condition hbv --outdir ci-level-0.9 --ci-level 0.9",
    ],
    "figS1-hcv": [
        "synth cohort.csv --preset figS1-hcv --seed 1",
        "evaluate cohort.csv --condition hcv --outdir .",
        "evaluate cohort.csv --condition hcv --outdir score --ci-method score",
        "evaluate cohort.csv --condition hcv --outdir ci-level-0.9 --ci-level 0.9",
    ],
    "random-hcv": ["synth cohort.csv --n 200 --prevalence 0.2 --condition hcv --seed 3"],
    # Control rows with real percentages, where every preset control row prints n.d.
    "random-hbv": [
        "synth cohort.csv --n 200 --prevalence 0.2 --condition hbv --seed 3",
        "evaluate cohort.csv --condition hbv --outdir . > stdout.txt",
    ],
    "classify": ["classify notes.txt > stdout.txt"],
    "classify-lexicon": ["classify notes.txt > stdout.txt"],
    # A lenient run over a bad age, an unknown sex token and a short row.
    "validate": ["validate cohort.csv --report report.json > stdout.txt"],
    # A strict run over a clean cohort with an empty sex field and an empty note.
    "validate-strict": ["validate cohort.csv --strict --report report.json > stdout.txt"],
}

# Case -> the files it reads, written before its first command.
INPUTS = {
    "classify": {"notes.txt": CLASSIFY_NOTES},
    "classify-lexicon": {"notes.txt": lexicon_notes()},
    "validate": {"cohort.csv": "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
                               "r1,38,M,Known Hep B,2.4,,2001\n"
                               "r2,bad,F,x,,,\n"
                               "r3,40,X,\"?Hep C, screen\",,0.3,2003\n"
                               "r4,50,F\n"},
    "validate-strict": {"cohort.csv": "record_id,age,sex,note_text,hbsag_iu,anti_hcv_iu,collection_year\n"
                                      "r1,38,M,Known Hep B,2.4,,2001\n"
                                      "r2,61,F,,0.1,0.2,1999\n"
                                      "r3,40,,\"?Hep C, screen\",,12.5,2003\n"},
}


def files_under(top: Path) -> dict[str, bytes]:
    """Every file below `top`, by its '/'-separated path relative to `top`."""
    return {p.relative_to(top).as_posix(): p.read_bytes()
            for p in sorted(top.rglob("*")) if p.is_file()}


def produce(case: str, workdir: Path) -> dict[str, bytes]:
    """Run `case` in the empty directory `workdir`; return the files it writes."""
    inputs = INPUTS.get(case, {})
    for name, text in inputs.items():
        (workdir / name).write_bytes(text.encode("utf-8"))
    written: dict[str, bytes] = {}
    cwd = os.getcwd()
    os.chdir(workdir)  # the validate report holds its input path as given
    try:
        for command in CASES[case]:
            argv, _, stdout_name = command.partition(" > ")
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = cli.main(argv.split())
            if code != 0:
                raise AssertionError(f"{case}: `notedta {argv}` exited {code}")
            if stdout_name:
                Path(stdout_name).write_bytes(out.getvalue().encode("utf-8"))
            for name, data in files_under(Path()).items():
                if name not in inputs and written.setdefault(name, data) != data:
                    raise AssertionError(f"{case}: `notedta {argv}` rewrote {name}\n"
                                         + _diff(name, written[name], data))
    finally:
        os.chdir(cwd)
    return written


def _diff(name: str, stored: bytes, produced: bytes, limit: int = 40) -> str:
    lines = [line.rstrip("\r\n") for line in difflib.unified_diff(
        stored.decode("utf-8", "backslashreplace").splitlines(keepends=True),
        produced.decode("utf-8", "backslashreplace").splitlines(keepends=True),
        f"stored/{name}", f"produced/{name}")]
    if len(lines) > limit:
        lines[limit:] = [f"... {len(lines) - limit} more diff lines"]
    return "\n".join(lines)


def assert_same(stored: dict[str, bytes], produced: dict[str, bytes]) -> None:
    """Fail naming each file missing or extra, with a short diff of each that differs."""
    problems = [f"missing from the output: {name}" for name in sorted(stored.keys() - produced.keys())]
    problems += [f"not in the store: {name}" for name in sorted(produced.keys() - stored.keys())]
    problems += [_diff(name, stored[name], produced[name])
                 for name in sorted(stored.keys() & produced.keys()) if stored[name] != produced[name]]
    if problems:
        raise AssertionError("\n".join(problems))


def test_every_case_writes_the_stored_files(tmp_path):
    produced = {}
    for case in CASES:
        (tmp_path / case).mkdir()
        produced.update((f"{case}/{name}", data)
                        for name, data in produce(case, tmp_path / case).items())
    # regen.py sits at the top of the store, and test_demos.py checks demos/.
    stored = {name: data for name, data in files_under(GOLDEN).items()
              if "/" in name and not name.startswith("demos/")}
    assert_same(stored, produced)


def test_evaluate_files_do_not_depend_on_the_hash_seed(tmp_path):
    # Sex and SerologyStatus hash by identity, so a set of them may iterate
    # in another order in another process; no output may follow that order.
    expected = {name: data for name, data in files_under(GOLDEN / "figS1-hbv").items()
                if "/" not in name and name != "cohort.csv"}
    for seed in ("0", "1"):
        proc = run_python("-m", "notedta.cli", "evaluate", str(GOLDEN / "figS1-hbv" / "cohort.csv"),
                          "--condition", "hbv", "--outdir", str(tmp_path / seed),
                          env={"PYTHONHASHSEED": seed})
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert_same(expected, files_under(tmp_path / seed))
