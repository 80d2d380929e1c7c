"""Run one part of an untraced workload run, in a process of its own.

``run.py`` splits an untraced run into parts and starts each part with its
own ``PYTHONHASHSEED``::

    python3 perfbench/part.py <workload> <inputs.json> <seed> <seconds> <setup_repeats>

Its times are taken with a :class:`~hostspeed.HostSpeedClock`.  The last
line of standard output is one JSON object: the part's raw
:class:`~workloads.Outcome`, its answer checks and the peak RSS of this
process.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from hostspeed import HostSpeedClock  # noqa: E402
from workloads import WORKLOADS, Checks, Context  # noqa: E402


def main(argv: list[str]) -> int:
    workload, inputs_file, seed, seconds, setup_repeats = argv
    sys.path.insert(0, "src")
    inputs_path = Path(inputs_file)
    inputs = json.loads(inputs_path.read_text(encoding="utf-8"))
    checks = Checks()
    clock = HostSpeedClock().start()
    context = Context(
        inputs, int(seed), float(seconds), int(setup_repeats), inputs_path.parent,
        part=os.environ.get("PYTHONHASHSEED", "random"), clock=clock,
    )
    try:
        outcome = WORKLOADS[workload](context, checks)
    finally:
        clock.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "outcome": dataclasses.asdict(outcome),
                "checks": vars(checks),
                "peak_rss_mb": peak_rss_mb,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
