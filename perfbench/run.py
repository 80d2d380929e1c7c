#!/usr/bin/env python3
"""The repository benchmark: log→alert ingest, an OSCTI hunt session and a
crash-safe campaign watch, measured through the public ``repro`` API.

Run from the repository root::

    python3 perfbench/run.py                      # all three, one process each
    python3 perfbench/run.py --workload campaign-watch --seed 3 --seconds 25
    python3 perfbench/run.py --workload log-to-alert --trace 1   # per-layer
    python3 perfbench/run.py --smoke              # tiny inputs, a few seconds

Each workload generates its inputs from ``--seed`` in a child process (the
same seed gives byte-identical logs), sets up, then runs one client in a
closed loop for ``--seconds`` and checks every answer.  The untraced run
(``--trace 0``) reports the end-to-end metrics; it runs in child processes
(``part.py``), several for a workload listed in ``PARTS``, each under its
own fixed hash seed, and takes its times in seconds of a host whose speed
does not change (``hostspeed.py``).
``--trace 1`` runs the workload twice for half the time each, untraced and
then with span wrappers installed on the layers' public entry points, and
reports the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 1
when any answer check failed and 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Checks, Context, Outcome  # noqa: E402

#: Input scale per workload: the demo host's benign scale (~81k raw events at
#: 10) and each campaign's noise scale (~11k raw events at 10).
SCALES = {"log-to-alert": 10.0, "osint-hunt-session": 10.0, "campaign-watch": 10.0}
SMOKE_SCALES = {"log-to-alert": 0.5, "osint-hunt-session": 0.5, "campaign-watch": 1.0}
#: Set-ups per run, for the median ``setup_s``, shared out among the parts.
#: campaign-watch also sets up once more for every campaign it watches.
#: osint-hunt-session loads its store once per part: a second load in the
#: same process raises its peak RSS by 1-4 MB, depending on fragmentation.
SETUP_REPEATS = {"log-to-alert": 9, "osint-hunt-session": 2, "campaign-watch": 3}
#: Processes an untraced run is split into, each with an equal share of the
#: seconds; part ``i`` runs under ``PYTHONHASHSEED=i``.  Some TBQL plan
#: choices follow set iteration order: on one store, two of the hand-written
#: queries take twice as long under one hash seed as under another.  Several
#: hash seeds measure the session over several orders instead of one, and
#: the same ones in every run, whatever its ``--seed``.
PARTS = {"log-to-alert": 1, "osint-hunt-session": 2, "campaign-watch": 1}
#: The hash seed of the benchmark's own process, its input generator and
#: its traced run.
HASH_SEED = "0"
GENERATE_TIMEOUT_S = 150
PART_TIMEOUT_S = 160
#: Scratch directory (inside the checkout) for generated logs and checkpoints.
WORK_ROOT = Path(".perfbench")


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (root / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def generate(workload: str, seed: int, scale: float, out_dir: Path) -> dict:
    """Generate the workload's inputs in a child process; return inputs.json."""
    subprocess.run(
        [sys.executable, str(HERE / "generate.py"), workload, str(seed), str(scale), str(out_dir)],
        env={**os.environ, "PYTHONHASHSEED": HASH_SEED},
        check=True,
        timeout=GENERATE_TIMEOUT_S,
    )
    return json.loads((out_dir / "inputs.json").read_text(encoding="utf-8"))


def log_digest(paths: list[str]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
    return digest.hexdigest()


def run_parts(
    workload: str, inputs: dict, seed: int, seconds: float, work_dir: Path, checks: Checks
) -> tuple[Outcome, float, list[str]]:
    """Measure the workload untraced in its parts' processes.

    Returns the pooled outcome, the highest peak RSS of the parts (each
    process's own high-water mark) and the parts' hash seeds.
    """
    inputs_file = work_dir / "inputs.json"
    inputs_file.write_text(json.dumps(inputs), encoding="utf-8")
    parts = PARTS[workload]
    setup_repeats = -(-SETUP_REPEATS[workload] // parts)
    outcomes, peaks, hash_seeds = [], [], []
    for part in range(parts):
        hash_seed = str(part)
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "part.py"), workload, str(inputs_file),
                str(seed), repr(seconds / parts), str(setup_repeats),
            ],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=PART_TIMEOUT_S,
        )
        result = json.loads(completed.stdout.splitlines()[-1])
        outcomes.append(Outcome(**result["outcome"]))
        part_checks = Checks()
        vars(part_checks).update(result["checks"])
        checks.absorb(part_checks)
        peaks.append(result["peak_rss_mb"])
        hash_seeds.append(hash_seed)
    return Outcome.merge(outcomes), max(peaks), hash_seeds


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> tuple[dict[str, metrics.Metric], dict[str, metrics.Metric], Checks, Outcome, dict]:
    """Generate, set up, measure and check one workload.

    Returns the result-line metrics, the workload's named figures, the
    checks, the outcome and the fingerprint.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    checks = Checks()
    try:
        scale = (SMOKE_SCALES if smoke else SCALES)[workload]
        inputs = generate(workload, seed, scale, work_dir)
        run = WORKLOADS[workload]

        def context(run_seconds: float, repeats: int, tracer: tracing.Tracer | None) -> Context:
            return Context(inputs, seed, run_seconds, repeats, work_dir, tracer)

        if not trace:
            outcome, rss, hash_seeds = run_parts(workload, inputs, seed, seconds, work_dir, checks)
            reported = metrics.end_to_end(workload, outcome, rss)
            named = metrics.named(workload, outcome, rss)
        else:
            hash_seeds = [HASH_SEED]
            untraced = run(context(seconds / 2, 1, None), checks)
            tracer = tracing.install()
            try:
                outcome = run(context(seconds / 2, 1, tracer), checks)
            finally:
                tracer.uninstall()
            reported = metrics.per_layer(workload, tracer, outcome, untraced)
            named = {}
            outcome.attempted += untraced.attempted
            outcome.failed += untraced.failed
        fingerprint = {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "git_sha": git_sha(Path.cwd()),
            "seed": seed,
            "hash_seeds": hash_seeds,
            "seconds": seconds,
            "trace": int(trace),
            "sizes": outcome.sizes,
            "processed": outcome.counts,
            "log_sha256": log_digest(inputs["logs"]),
        }
        return reported, named, checks, outcome, fingerprint
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def print_table(title: str, table: dict[str, metrics.Metric]) -> None:
    print(title)
    for name, metric in table.items():
        note = f"  ({metric.note})" if metric.note else ""
        print(f"  {name:34s} {metric.value:14.6g} {metric.unit:6s} n={metric.samples}{note}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, short runs")
    args = parser.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else (1.0 if args.smoke else 25.0)

    sys.path.insert(0, str(Path.cwd() / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from ./src: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_each(argv if argv is not None else sys.argv[1:])
    workload = args.workload
    reported, named, checks, outcome, fingerprint = run_workload(
        workload, args.seed, seconds, bool(args.trace), args.smoke
    )
    print(f"== {workload}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    if named:
        print_table("named end-to-end figures:", named)
    print_table("per-layer metrics:" if args.trace else "result metrics:", reported)
    print(f"checks: {checks.passed} passed, {checks.failed} failed")
    for failure in checks.failures:
        print(f"  MISMATCH {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: metric.as_result() for name, metric in reported.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_each(argv: list[str]) -> int:
    """Run every workload in a child process of its own and merge the results.

    Each workload gets a fresh process so that ``peak_rss_mb`` (the
    process's high-water mark) is its own, not the largest of those before it.
    """
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--workload", workload],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = completed.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(completed.stdout, end="")
            print(f"perfbench: {workload} printed no result", file=sys.stderr)
            return completed.returncode or 1
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


if __name__ == "__main__":
    # Set and dict iteration orders follow the string hash, and they steer
    # some execution plans, so the traced run is reproducible only with the
    # hash seed fixed too.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.exit(main())
