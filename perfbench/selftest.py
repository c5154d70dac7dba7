"""Self-test of the benchmark at a tiny input shape (about a minute).

    python3 perfbench/selftest.py

Checks that every run prints each metric named in ``BENCHMARK.json``
with its unit and a well-formed result line, that layer self times plus
``bench.self.ms`` account for the traced loop, and that the correctness
checks fail when they should: a replica diverged from the trainer, or a
recorded ``mean_auc`` that does not match.  Exits non-zero on a failure.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import BENCHMARK, PINNED_ENV  # noqa: E402

if __name__ == "__main__" and any(
    os.environ.get(k) != v for k, v in PINNED_ENV.items()
):
    os.execve(sys.executable, [sys.executable, *sys.argv], os.environ | PINNED_ENV)

import workloads  # noqa: E402
from record import record  # noqa: E402

SPEC = json.loads(BENCHMARK.read_text())
EXPECTED = HERE / ".selftest-expected.json"
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int) -> dict:
    """Run the benchmark command at the tiny shape; parse its last line."""
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "0.5",
            "--trace", str(trace), "--shape", "tiny", "--expected", str(EXPECTED),
        ],
        capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def check_output(workload: str, trace: int, line: dict) -> None:
    section = SPEC["per_layer" if trace else "end_to_end"]
    tag = f"{workload} --trace {trace}"
    expect(
        set(line) == {"correct", "attempted", "failed", "metrics"},
        f"{tag}: result line has exactly the four keys",
    )
    expect(line["correct"] is True, f"{tag}: correct")
    expect(line["attempted"] >= 1 and line["failed"] == 0, f"{tag}: no failed operation")
    expect(
        [m["name"] for m in section] == list(line["metrics"])
        and all(
            line["metrics"][m["name"]]["unit"] == m["unit"] for m in section
        ),
        f"{tag}: every metric printed with its unit",
    )
    values = [v["value"] for v in line["metrics"].values()]
    expect(all(math.isfinite(v) for v in values), f"{tag}: values finite")
    if not trace:
        expect(all(v > 0 for v in values), f"{tag}: end-to-end values non-zero")


def check_layer_accounting() -> None:
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 0, "tiny")
        layers = workloads.run(wl, 0.5, True, time.monotonic(), workloads.HostProbe())["layers"]
        covered = layers["bench.self.ms"] + sum(
            layers[f"layer.{layer}.ms"] for layer in workloads.LAYERS
        )
        expect(
            math.isclose(covered, layers["trace.loop.ms"], rel_tol=1e-9),
            f"{name}: layer self times + bench.self.ms = traced loop time",
        )
        if name == "colocation-sim":
            expect(
                layers["layer.core.ms"] == layers["layer.cluster.ms"] == 0.0,
                f"{name}: no core or cluster time",
            )


def check_diverged_replica() -> None:
    wl = workloads.build("delta-fleet", 0, "tiny")
    workloads.run(wl, 0.0, False, time.monotonic(), workloads.HostProbe())
    expect(all(wl.check().values()), "delta-fleet: replicas converge")
    for node_id, kind in ((2, "plain"), (3, "resilient")):
        weight = wl.nodes[node_id].model.embeddings[0].weight
        weight[0, 0] += 1.0
        expect(
            not wl.check()[f"{kind}_replicas_match_trainer"],
            f"delta-fleet: a diverged {kind} replica fails the check",
        )
        weight[0, 0] -= 1.0


def main() -> int:
    recorded = record("tiny", seeds=[0])
    try:
        EXPECTED.write_text(json.dumps(recorded))
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                check_output(workload, trace, bench(workload, trace))
        recorded["live-loop"]["0"]["mean_auc"] += 1e-3
        EXPECTED.write_text(json.dumps(recorded))
        expect(
            bench("live-loop", 0)["correct"] is False,
            "live-loop: a wrong recorded mean_auc fails the run",
        )
    finally:
        EXPECTED.unlink(missing_ok=True)
    check_layer_accounting()
    check_diverged_replica()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
