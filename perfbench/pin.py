"""Rewrite expected.json: every job's output summary at DEFAULT_SEED.

    python3 perfbench/pin.py

Run only when a change to dimlab is meant to change an output, and say in
the change which pins moved and why.
"""

import json
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, EXPECTED, HERE, WORKLOADS, build_inputs


def main() -> None:
    pins = {}
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for workload, jobs in WORKLOADS.items():
            inputs = build_inputs(workload, Path(tmp) / workload)
            for job in jobs:
                summary = job.summarize(job.run(inputs, DEFAULT_SEED))
                problems = job.invariants(summary)
                if problems:
                    raise SystemExit(f"{job.name}: {problems}")
                pins[job.name] = summary
                print(job.name, flush=True)
    EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
