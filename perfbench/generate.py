"""Generate one workload's inputs from a seed: audit log files plus answers.

Run as a child process of ``run.py`` so that the generator's memory does not
count toward the measured process's peak RSS::

    python3 perfbench/generate.py <workload> <seed> <scale> <out_dir>

Writes ``<out_dir>/inputs.json`` naming the generated log files and the
expected answers the benchmark checks against.  The same seed always gives
byte-identical logs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The simulated host every log record names.
HOST = "victim-host"

#: Campaigns generated per campaign-watch run; the run watches them in turn.
#: Averaging over several campaigns keeps one campaign's structure (hosts,
#: exfiltration tools) from deciding the run's figures.
CAMPAIGNS = 6


def demo_host(seed: int, scale: float, out_dir: Path) -> dict:
    """The demo host (benign mix, both demo attacks, the Figure 2 chain) plus
    bursty file-server noise, so Causality Preserved Reduction merges a lot."""
    from repro.auditing.sysdig import write_trace
    from repro.auditing.workload import (
        DataLeakageAttack,
        Figure2DataLeakageChain,
        HostSimulator,
        NoisyFileServerWorkload,
        PasswordCrackingAttack,
    )

    figure2 = Figure2DataLeakageChain()
    simulation = (
        HostSimulator(host=HOST, seed=seed, benign_scale=scale)
        .add_default_benign()
        .add_attack(PasswordCrackingAttack())
        .add_attack(DataLeakageAttack())
        .add_attack(figure2)
        .add_benign(
            NoisyFileServerWorkload(
                sessions=max(2, int(6 * scale)),
                operations_per_session=max(10, int(60 * scale)),
            )
        )
        .run()
    )
    log = out_dir / "demo-host.log"
    with open(log, "w", encoding="utf-8") as handle:
        write_trace(simulation.trace, handle)
    return {
        "logs": [str(log)],
        "raw_events": len(simulation.trace.events),
        "malicious_event_ids": sorted(simulation.trace.malicious_event_ids),
        "figure2_event_ids": sorted(figure2.ground_truth.event_ids),
    }


def campaigns(seed: int, scale: float, out_dir: Path) -> dict:
    """Labeled kill-chain campaigns buried in benign noise, one log each."""
    from repro.auditing.sysdig import write_trace
    from repro.scenarios.campaign import CampaignGenerator

    generated = []
    for index in range(CAMPAIGNS):
        campaign = CampaignGenerator(seed=seed * CAMPAIGNS + index, noise_scale=scale).generate()
        log = out_dir / f"campaign-{index}.log"
        with open(log, "w", encoding="utf-8") as handle:
            write_trace(campaign.trace, handle)
        generated.append(
            {
                "log": str(log),
                "raw_events": len(campaign.trace.events),
                "malicious_event_ids": sorted(campaign.trace.malicious_event_ids),
                "hunts": [
                    {
                        "name": hunt.name,
                        "query": hunt.query_text,
                        "expected_event_ids": sorted(hunt.expected_event_ids),
                    }
                    for hunt in campaign.hunts
                ],
            }
        )
    return {
        "logs": [item["log"] for item in generated],
        "raw_events": sum(item["raw_events"] for item in generated),
        "campaigns": generated,
    }


GENERATORS = {
    "log-to-alert": demo_host,
    "osint-hunt-session": demo_host,
    "campaign-watch": campaigns,
}


def main(argv: list[str]) -> int:
    workload, seed, scale, out_dir = argv
    sys.path.insert(0, "src")
    out = Path(out_dir)
    inputs = GENERATORS[workload](int(seed), float(scale), out)
    (out / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
