"""Layered benchmark of the notedta command line.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-lowcard --seed 0 --seconds 45 --trace 0

`--trace 0` runs the workload's commands (see workloads.py) as
`python -m notedta.cli` subprocesses, one at a time, repeats the sequence
for about `--seconds`, and reports the end-to-end metrics as medians over
the repetitions, with timings scaled to a nominal host speed measured by a
reference job run between the commands (see `reference_s`). `--trace 1`
runs the same commands in-process through `notedta.cli.main` with spans
around each layer's public functions (see tracing.py) and reports the
per-layer metrics. Both modes check every output (see checks.py); a failed
check counts as a failed operation.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it, prefixed `# info`,
records the environment, sizes, inputs (records, distinct notes, sha256),
sample counts and, untraced, the host speed and the unscaled timings.

`--record` (default seed only) checks the outputs against the in-process
reference and stores their digests in expected_seed0.json.
"""

import argparse
import contextlib
import csv
import functools
import importlib.metadata
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = Path(__file__).resolve().parent / "expected_seed0.json"
DEFAULT_SEED = 0
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 60
REFERENCE_TEXT = "History of Hep B pos - please repeat bloods ? HCV screen, known hbv"
REFERENCE_TOKEN = re.compile(r"[a-z0-9]+")
REFERENCE_ROUNDS = 50_000
# The reference job's median on an unloaded 2-vCPU x86-64 host, CPython 3.11.
REFERENCE_NOMINAL_S = 0.2

SETUP_CODE = "import time\nimport notedta.cli\nnotedta.cli.default_lexicon()\nprint(time.monotonic())"
IMPORT_CODE = "import time\nt = time.perf_counter()\nimport notedta.cli\nprint(time.perf_counter() - t)"


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("NOTEDTA_LEXICON", None)
    return env


def run_cli(argv: list[str], env: dict) -> tuple[int, bytes, float, int]:
    """Run `notedta argv` in a fresh interpreter: exit code, stdout, wall s, max RSS KiB."""
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "notedta.cli", *argv],
                                stdout=out, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text("utf-8", "replace")[-2000:])
    return proc.returncode, out_path.read_bytes(), wall, usage.ru_maxrss


def run_in_process(argv: list[str], cli) -> tuple[int, bytes]:
    """Run `notedta argv` through `cli.main` in this process: exit code, stdout."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    if rc != 0:
        sys.stderr.write(err.getvalue()[-2000:])
    return rc, out.getvalue().encode("utf-8")


def run_step(step, runner) -> checks.Outcome:
    outcome = checks.Outcome(step.key, step.kind)
    if step.prepare is not None:
        try:
            step.prepare()
        except (OSError, ValueError, csv.Error) as err:
            outcome.problems.append(f"{step.key}: input not prepared: {err!r}")
            return outcome
    rc, stdout, outcome.wall_s, outcome.rss_kb = runner(step.argv)
    checks.inspect(step, rc, stdout, outcome)
    return outcome


def setup_probe(env) -> float:
    """Seconds from spawning an interpreter to `notedta.cli` imported and the lexicon loaded."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S)
    return float(done.stdout) - start


def import_probe(env) -> tuple[float, float]:
    """Fresh-interpreter import times of `notedta.cli` and, within it, `notedta.metrics`."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE], env=env,
                          capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S)
    for line in done.stderr.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[2] == "notedta.metrics":
            return float(done.stdout), int(fields[1]) / 1e6
    raise RuntimeError("-X importtime output names no notedta.metrics")


def fits_another(start: float, deadline: float) -> bool:
    """Whether a repetition as long as the one begun at `start` would end
    closer to `deadline` than stopping now does."""
    now = time.monotonic()
    return now + (now - start) / 2 <= deadline


def _rate(outcomes, kind) -> float:
    picked = [o for o in outcomes if o.kind == kind]
    wall = sum(o.wall_s for o in picked)
    return sum(o.count for o in picked) / wall if wall else 0.0


def reference_s() -> float:
    """Seconds this process takes for a fixed pure-Python job (tokenize, count).

    The job shares no code with notedta, so only the host's speed moves it.
    """
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(REFERENCE_ROUNDS):
        for token in REFERENCE_TOKEN.findall(f"{REFERENCE_TEXT} {i % 97}".lower()):
            counts[token] = counts.get(token, 0) + 1
    return time.perf_counter() - start


def timed_run(steps, seconds, env):
    """End-to-end metrics: subprocess commands, tracing off."""
    setup_probe(env)  # warm the file cache before timing
    runner = functools.partial(run_cli, env=env)
    setups, iterations, references = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        # Set-up probes and reference jobs share the measuring window with
        # the commands, one before each, so a slow phase of a shared host
        # weighs on all of them alike.
        start = time.monotonic()
        references.append(reference_s())
        setups.append(setup_probe(env))
        iteration = []
        for step in steps:
            references.append(reference_s())
            iteration.append(run_step(step, runner))
        iterations.append(iteration)
        if not fits_another(start, deadline):
            break
    # Timings are scaled to the host speed at which the reference job takes
    # REFERENCE_NOMINAL_S: on a shared 2-vCPU host the speed drifts by 20-30%
    # from one minute to the next, and the reference job drifts with it.
    speed = REFERENCE_NOMINAL_S / statistics.median(references)
    raw = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(o.wall_s for o in it) for it in iterations),
        "evaluate_records_per_s": statistics.median(_rate(it, "evaluate") for it in iterations),
        "classify_notes_per_s": statistics.median(_rate(it, "classify") for it in iterations),
    }
    metrics = {
        "setup_s": (raw["setup_s"] * speed, "s"),
        "wall_s": (raw["wall_s"] * speed, "s"),
        "evaluate_records_per_s": (raw["evaluate_records_per_s"] / speed, "records/s"),
        "classify_notes_per_s": (raw["classify_notes_per_s"] / speed, "notes/s"),
        "peak_rss_mb": (statistics.median(max(o.rss_kb for o in it) for it in iterations) / 1024,
                        "MB"),
    }
    samples = {"iterations": len(iterations), "setup_probes": len(setups),
               "reference_jobs": len(references), "host_speed": speed, "unscaled": raw}
    return metrics, [o for it in iterations for o in it], samples


def traced_run(steps, tour, seconds, env):
    """Per-layer metrics: the same commands in-process, with spans."""
    probes = [import_probe(env) for _ in range(IMPORT_SAMPLES)]
    import notedta.cli as cli
    from notedta.classifier import default_lexicon
    from notedta.evaluate import evaluate_condition
    from notedta.ingest import parse_cohort_file

    def runner(argv):
        return (*run_in_process(argv, cli), 0.0, 0)

    commands = steps + tour
    outcomes = [run_step(step, runner) for step in commands]  # untraced warm-up pass
    evaluations = [(parse_cohort_file(s.path), checks.evaluation_config(s.condition))
                   for s in steps if s.kind == "evaluate"]
    lexicon = default_lexicon()
    tracer = tracing.Tracer()
    untraced_ns, passes = 0, 0
    deadline = time.monotonic() + seconds
    while True:
        pass_start = time.monotonic()
        for cohort, config in evaluations:
            start = time.perf_counter_ns()
            evaluate_condition(cohort, config, lexicon)
            untraced_ns += time.perf_counter_ns() - start
        with tracing.installed(tracer):
            outcomes += [run_step(step, runner) for step in commands]
        passes += 1
        if not fits_another(pass_start, deadline):
            break
    metrics = tracing.layer_metrics(tracer.spans, passes)
    traced_ns = sum(s.ns for s in tracer.spans if s.layer == "evaluate.evaluate_condition")
    metrics["trace.overhead_ratio"] = (traced_ns / untraced_ns, "ratio")
    metrics["cli.import_s"] = (statistics.median(p[0] for p in probes), "s")
    metrics["metrics.import_s"] = (statistics.median(p[1] for p in probes), "s")
    return metrics, outcomes, {"traced_passes": passes, "import_probes": IMPORT_SAMPLES}


def expected_digests(args, steps) -> dict[str, str]:
    if args.seed == DEFAULT_SEED and not args.record:
        return json.loads(EXPECTED.read_text("utf-8"))[args.workload]
    return checks.reference_digests(steps)


def environment(args) -> dict:
    versions = {}
    for package in ("scipy", "numpy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "invocation": [sys.executable, *sys.argv],
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {"bulk_n": workloads.BULK_N, "distinct_n": workloads.DISTINCT_N,
                  "tour": {workloads.TOUR_PRESET: workloads.TOUR_N}},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's output digests as the default seed's")
    args = parser.parse_args(argv)
    if not (SRC / "notedta" / "cli.py").is_file():
        print(f"perfbench: {SRC / 'notedta'} not found; run from a notedta checkout",
              file=sys.stderr)
        return 2
    if args.record and (args.seed != DEFAULT_SEED or args.trace):
        parser.error(f"--record needs --seed {DEFAULT_SEED} and --trace 0")
    sys.path.insert(0, str(SRC))  # for the in-process reference and traced run
    # One CPU for this process, the reference job and every child, so that
    # the reference job times the same virtual CPU as the commands.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    work = WORK / args.workload
    work.mkdir(parents=True)
    lexicon_text = (SRC / "notedta" / "data" / "default_lexicon.txt").read_text("utf-8")
    steps = workloads.steps(args.workload, args.seed, work, lexicon_text)
    env = child_env()
    if args.trace:
        tour = workloads.tour(args.seed, work)
        try:
            metrics, outcomes, samples = traced_run(steps, tour, args.seconds, env)
        except tracing.TraceError as err:
            print(f"perfbench: trace failed: {err}", file=sys.stderr)
            return 3
    else:
        metrics, outcomes, samples = timed_run(steps, args.seconds, env)

    try:
        expected = expected_digests(args, steps)
    except Exception as err:  # the library itself failed on these inputs
        expected = {}
        for o in outcomes:
            o.problems.append(f"{o.key}: no expected digests: {err!r}")
    checks.compare(outcomes, expected)
    problems = [p for o in outcomes for p in o.problems]
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    if args.record and not problems:
        recorded = json.loads(EXPECTED.read_text("utf-8")) if EXPECTED.exists() else {}
        recorded[args.workload] = {f"{o.key}/{k}": d for o in outcomes for k, d in o.digests.items()}
        EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", "utf-8")

    info = environment(args)
    info["samples"] = samples
    info["inputs"] = [checks.describe_input(s.path) for s in steps
                      if s.kind in ("evaluate", "classify") and s.path.exists()]
    print("# info " + json.dumps(info))
    failed = sum(1 for o in outcomes if o.problems)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
