"""Record the deterministic per-seed values the benchmark checks against.

``mean_auc`` (the loops) and ``sim_p99_ms`` (the simulator) depend only
on the seed, so ``run.py`` compares each run with the value recorded
here.  Re-record only when a change to the program is meant to move them:

    python3 perfbench/record.py            # writes perfbench/expected.json
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import EXPECTED, PINNED_ENV  # noqa: E402

if __name__ == "__main__" and any(
    os.environ.get(k) != v for k, v in PINNED_ENV.items()
):
    # Thread counts and the hash seed are read at start-up: re-exec pinned.
    os.execve(sys.executable, [sys.executable, *sys.argv], os.environ | PINNED_ENV)

import workloads  # noqa: E402


def record(shape: str = "full", seeds=range(workloads.SEED_SPACE)) -> dict:
    """``{workload: {seed: values}}`` from the shortest timed run."""
    out: dict = {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            wl = workloads.build(name, seed, shape)
            result = workloads.run(wl, 0.0, False, time.monotonic(), workloads.HostProbe())
            out.setdefault(name, {})[str(seed)] = result["deterministic"]
    return out


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
