"""The commands still call every name that perfbench traces.

`perfbench/tracing.py` wraps each name in its `SITES`, in the namespace of
the module that calls it, and a traced benchmark run fails if a site
records no call. This runs one command of each kind the benchmark runs,
in-process, so a change that inlines or renames a traced call fails here
as well.
"""

import sys
from pathlib import Path

import notedta.cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402


def test_every_trace_site_records_a_call(tmp_path, capsys):
    cohort = tmp_path / "random.csv"
    notes = tmp_path / "notes.txt"
    notes.write_text("Known Hep B\n?Hep C\n\n", encoding="utf-8")
    commands = [
        ["synth", str(tmp_path / "preset.csv"), "--preset", "figS1-hbv"],
        ["synth", str(cohort), "--n", "200", "--prevalence", "0.2", "--seed", "1"],
        ["evaluate", str(cohort), "--condition", "hbv", "--outdir", str(tmp_path / "out")],
        ["classify", str(notes)],
    ]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for argv in commands:
            # Through the module attribute: `cli.main` is itself a traced site.
            assert notedta.cli.main(argv) == 0, capsys.readouterr().err
    tracing.check_coverage(tracer.spans)
