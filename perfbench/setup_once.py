"""One timed set-up of a workload in a fresh interpreter: import dimlab
(and numpy), build the workload's inputs, write its input JSON.

    python3 perfbench/setup_once.py <workload> <work dir>

Prints {"setup_s": seconds} as its last line. run.py starts this several
times per run and reports the median as setup_s.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import build_inputs  # noqa: E402

if __name__ == "__main__":
    build_inputs(sys.argv[1], Path(sys.argv[2]))
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
