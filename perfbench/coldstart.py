"""A cold pipeline start: import ``repro``, build the pipeline, plan the hunts.

``log-to-alert`` times this script in a fresh interpreter as its set-up: it
is what a command-line hunt pays before it opens the log (imports, pipeline
construction, and extraction plus synthesis of the five bundled auditable
reports with cold NLP tables).  Run from the repository root::

    python3 perfbench/coldstart.py [<spawned>]

With ``spawned``, the ``time.monotonic()`` reading the parent took just
before starting this interpreter, it prints the seconds elapsed since then.
The monotonic clock is system-wide, so the figure includes interpreter start
without the parent having to poll for the child's exit.
"""

from __future__ import annotations

import sys
import time

sys.path.insert(0, "src")

from repro import ThreatRaptor  # noqa: E402
from repro.data.osctireports import auditable_reports  # noqa: E402


def plan_hunts(raptor: ThreatRaptor) -> None:
    """Extract and synthesize every bundled auditable report's hunt."""
    for report in auditable_reports():
        raptor.synthesize_query(raptor.extract_behavior_graph(report.text).graph)


if __name__ == "__main__":
    plan_hunts(ThreatRaptor())
    if len(sys.argv) > 1:
        print(time.monotonic() - float(sys.argv[1]))
