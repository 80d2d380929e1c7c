"""Operation timing that takes out the speed changes of a shared host.

The benchmark runs on a few virtual cores of a host shared with other
tenants, whose load slows this process down by up to 2x for seconds or
minutes at a time.  A run's wall-clock times then say as much about the
neighbours as about the program.  :class:`HostSpeedClock` measures the host's
speed while the run goes on: a timer (``SIGALRM``, every ``PERIOD_S``) runs a
fixed pure-Python reference loop and records how long it took.  The CPU
time of each operation, less the time the timer's own samples took inside
it, is then scaled by the mean of ``REFERENCE_S / reference time`` over the
samples within ``WINDOW_S`` of the operation, and the rest of its wall-clock
time (waiting for ``fsync`` and other I/O, which the neighbours do not slow
down the same way) is added unscaled.  The result reads as the operation's
time on a host that runs the reference loop in ``REFERENCE_S``, about the
loop's time on an idle core of the host the benchmark was written on.

The correction is approximate.  Over 80 seconds of hunts and log loads, in
5-second windows, the median hunt's slowdown swung from 1.27x to 2.39x while
its ratio to the reference's slowdown varied by 5% (coefficient of
variation; log loads 7%).

:class:`Clock` has the same interface and reports plain wall-clock seconds;
the traced run uses it, so spans and operations share one time base.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Iterator

#: Seconds between two reference samples.
PERIOD_S = 0.05
#: Samples taken on each side of a pause.
PAUSE_SAMPLES = 5
#: How far before and after an operation its speed samples are taken from.
#: One sample is noisy (its median and 90th percentile differ by half), so
#: an operation shorter than a few periods borrows samples from around it.
WINDOW_S = 0.25
#: The reference loop's time on an idle core of a 2.0 GHz Xeon (CPython
#: 3.11): about the fastest of a few thousand runs.  Scaled times are
#: seconds of a host that runs the loop this fast.
REFERENCE_S = 450e-6

#: A mark taken when an operation starts: the wall clock, the process's CPU
#: time and the seconds the clock's own samples had taken by then.
Mark = tuple[float, float, float]


class _Record:
    __slots__ = ("pid", "timestamp", "subject", "operation", "path")

    def __init__(self, pid: int, timestamp: float, subject: str, operation: str, path: str):
        self.pid, self.timestamp, self.subject = pid, timestamp, subject
        self.operation, self.path = operation, path


def reference() -> None:
    """The fixed reference loop, the kinds of work the program does: dict
    inserts with string keys and a keyed sort; splitting text lines into
    small objects, grouping and ordering them."""
    table = {}
    for index in range(600):
        table[str(index)] = (index, str(index * 3))
    sorted(table.items(), key=lambda item: item[1][1])
    records = []
    for index in range(120):
        line = f"{index} 1700000000.{index:06d} proc{index % 7} read /var/log/f{index % 13}"
        fields = line.split()
        records.append(_Record(int(fields[0]), float(fields[1]), fields[2], fields[3], fields[4]))
    groups: dict[tuple[str, str], list[_Record]] = {}
    for record in records:
        groups.setdefault((record.subject, record.path), []).append(record)
    sorted(records, key=lambda record: (record.subject, record.timestamp))


class Clock:
    """Wall-clock timing of operations."""

    def mark(self) -> Mark:
        return time.perf_counter(), 0.0, 0.0

    def record(self, values: list[float], mark: Mark, seconds: float | None = None) -> None:
        """Append the seconds since ``mark`` (or ``seconds``, measured
        elsewhere over the same interval) to ``values``."""
        values.append(time.perf_counter() - mark[0] if seconds is None else seconds)

    def paused(self) -> contextlib.AbstractContextManager[None]:
        """Stop sampling while another process does the work."""
        return contextlib.nullcontext()

    def finish(self) -> None:
        """Turn every recorded time into its final value."""


class HostSpeedClock(Clock):
    """Timing in seconds of a host whose speed does not change (see the module)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.costs: list[float] = []
        self.stolen = 0.0
        #: Per recorded time: its list and index, its interval, and its
        #: CPU and waiting seconds.
        self.pending: list[tuple[list[float], int, float, float, float, float]] = []
        self._previous: object = None

    def _sample(self, *_: object) -> None:
        began = time.perf_counter()
        reference()
        cost = time.perf_counter() - began
        self.times.append(began)
        self.costs.append(cost)
        self.stolen += cost

    def start(self) -> "HostSpeedClock":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def mark(self) -> Mark:
        return time.perf_counter(), time.process_time(), self.stolen

    def record(self, values: list[float], mark: Mark, seconds: float | None = None) -> None:
        """As :meth:`Clock.record`; ``seconds`` measured elsewhere count as
        CPU time (another process computing while this one waits)."""
        ended, cpu_ended = time.perf_counter(), time.process_time()
        began, cpu_began, stolen = mark
        if seconds is None:
            stolen = self.stolen - stolen
            seconds = ended - began - stolen
            cpu = min(seconds, max(0.0, cpu_ended - cpu_began - stolen))
        else:
            cpu = seconds
        values.append(seconds)
        self.pending.append((values, len(values) - 1, began, ended, cpu, seconds - cpu))

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        """Stop the timer; sample the speed just before and just after."""
        self._stop_timer()
        for _ in range(PAUSE_SAMPLES):
            self._sample()
        try:
            yield
        finally:
            for _ in range(PAUSE_SAMPLES):
                self._sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def speed_around(self, began: float, ended: float) -> float:
        """Mean of ``REFERENCE_S / reference time`` over the samples taken
        within ``WINDOW_S`` of the interval.  The mean of speeds, not of
        times, is the work done per second over an interval whose speed
        changes."""
        low = bisect.bisect_left(self.times, began - WINDOW_S)
        high = bisect.bisect_right(self.times, ended + WINDOW_S)
        if low == high:  # no sample that close: the nearest ones
            low, high = max(0, low - 1), min(len(self.times), low + 1)
        return statistics.mean(REFERENCE_S / cost for cost in self.costs[low:high])

    def finish(self) -> None:
        self._stop_timer()
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore[arg-type]
        for values, index, began, ended, cpu, waiting in self.pending:
            values[index] = cpu * self.speed_around(began, ended) + waiting
        self.pending.clear()
