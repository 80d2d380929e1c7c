"""The benchmark's own tests, on the smoke-sized inputs.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import run  # noqa: E402

NAMED = set(metrics.layer_map()["named"])
BENCHMARK = metrics.benchmark()


def _run(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_smoke_prints_every_metric_and_checks_answers() -> None:
    completed = _run("--smoke")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.splitlines()
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    assert len(NAMED) == 13
    assert NAMED <= printed
    checks = [line for line in lines if line.startswith("checks: ")]
    assert len(checks) == 3
    assert all(line.endswith(" 0 failed") and not line.startswith("checks: 0 ") for line in checks)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] > 0 and result["failed"] == 0
    for workload in run.WORKLOADS:
        for entry in BENCHMARK["end_to_end"]:
            metric = result["metrics"][f"{workload}/{entry['name']}"]
            assert metric["unit"] == entry["unit"] and metric["value"] > 0


def test_peak_rss_is_the_measuring_process_own(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    """No workload inherits the high-water mark of the process that started it."""
    monkeypatch.chdir(REPO)
    ballast = b"x" * (160 << 20)
    assert run.main(["--smoke"]) == 0
    del ballast
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    for workload in run.WORKLOADS:
        assert result["metrics"][f"{workload}/peak_rss_mb"]["value"] < 120


def test_traced_smoke_reports_every_per_layer_metric() -> None:
    completed = _run("--smoke", "--trace", "1", "--workload", "campaign-watch")
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [entry["name"] for entry in BENCHMARK["per_layer"]]
    assert result["metrics"]["trace.coverage"]["value"] > 0.9
    assert result["metrics"]["streaming.monitor.alerts"]["value"] > 0


def test_every_per_layer_metric_names_its_layer() -> None:
    layers = metrics.layer_map()["layers"]
    assert list(layers) == [entry["name"] for entry in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def _tamper(workload: str, inputs: dict) -> None:
    """Make one expected answer wrong."""
    if workload == "log-to-alert":
        inputs["figure2_event_ids"].append(-1)
    elif workload == "osint-hunt-session":
        inputs["malicious_event_ids"] = []
    else:
        inputs["campaigns"][0]["hunts"][0]["expected_event_ids"].append(-1)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_wrong_expected_answer_fails_the_run(
    workload: str, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    real_generate = run.generate

    def generate(*args: object) -> dict:
        inputs = real_generate(*args)
        _tamper(workload, inputs)
        return inputs

    monkeypatch.chdir(REPO)
    monkeypatch.setattr(run, "generate", generate)
    assert run.main(["--smoke", "--workload", workload]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    assert json.loads(out.splitlines()[-1])["correct"] is False


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", "log-to-alert", "--seconds", "1", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_host_speed_clock_scales_by_the_speed_around_each_time() -> None:
    from hostspeed import HostSpeedClock

    clock = HostSpeedClock().start()
    values: list[float] = []
    mark = clock.mark()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        pass
    clock.record(values, mark)
    wall = time.perf_counter() - mark[0]
    raw = values[0]
    assert raw == pytest.approx(wall - (clock.stolen - mark[2]), abs=1e-4)
    assert 0.2 < raw < wall  # the timer's own samples are taken out
    *_, cpu, waiting = clock.pending[0]
    assert cpu + waiting == raw and cpu > 0.9 * raw  # a busy loop barely waits
    speed = clock.speed_around(mark[0], time.perf_counter())
    clock.finish()
    assert len(clock.times) >= 4
    assert values[0] == pytest.approx(cpu * speed + waiting)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
