"""End-to-end benchmark of the LiveUpdate loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-loop --seed 0 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists and its dominant
layer): ``live-loop``, ``delta-fleet`` and ``colocation-sim``.

Run rules, pinned here rather than left to the caller:

* every measurement is a fresh process running ``perfbench/workloads.py``
  with BLAS and OpenMP limited to one thread and ``PYTHONHASHSEED`` fixed,
  both set before NumPy is imported;
* the workload's inputs come from ``--seed`` alone;
* one block of warm-up (an update window, or one round of the simulator's
  four configurations) runs untimed;
* ``setup_s`` is the median over three set-ups: two set-up-only processes
  and the measured one.  Each is timed from process launch to the first
  timed step, so imports, pre-training and warm-up all count.

This host's speed drifts (up to 1.6x over tens of seconds, from
neighbours' load), so the measured process samples a fixed probe between
blocks, and every time below is scaled by the probe's reading against
its calibration (``HostProbe`` in ``workloads.py``): medians and rates by
the probe's median, the tail by the probe's 90th percentile.
Throughput counts each kind of block (an update window, the window with
the hourly full sync, a simulator round) at its median duration, so
bursts of contention do not set it.  Latencies are medians over per-unit samples: ``serve_ms_*`` one
per served batch (on the simulator, one per ``inference_only`` window)
and ``update_ms_p50`` one per update window (on the simulator, one per
``colocated_full`` window).  ``serve_ms_tail`` is the highest percentile
with at least 10 samples beyond it, taken in parts of at least 100
samples (at most ten) and reported as the median over parts.  ``peak_rss_mb`` is the peak over
set-up and the first timed hour (one simulator round), a fixed amount of
work, since the parameter plane's state grows with every window.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a run in which one block
of each pair is traced.  Either way the run fails its correctness flag if a
workload check fails or a deterministic value (``mean_auc``,
``sim_p99_ms``) differs from the one recorded for its seed in
``perfbench/expected.json``.  The line before it records the git revision,
``nproc`` and the Python and NumPy versions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
EXPECTED = HERE / "expected.json"

# Whole-run deadline, under the 180 s a run may take.
DEADLINE_S = 170.0
SETUP_PROBES = 2

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# How far a deterministic value may move before it counts as changed:
# float reassociation moves it far less, a change in the model far more.
TOLERANCE = {"mean_auc": 1e-6, "sim_p99_ms": 1e-6}


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else ref[5:]


def environment(result: dict) -> dict:
    return {
        "git_rev": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": result["numpy"],
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(args, deadline: float, *extra: str) -> dict:
    """Run one workload process; return its JSON result."""
    t0 = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--shape", args.shape,
        "--t0", repr(t0),
        *extra,
    ]
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise SystemExit(f"workload process failed with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def recorded_mismatches(workload: str, seed: int, values: dict, expected: dict):
    """Names of deterministic values that differ from the recorded ones."""
    from_seed = expected.get(workload, {}).get(str(seed))
    if from_seed is None:
        return sorted(values)
    return sorted(
        name
        for name, value in values.items()
        if not math.isclose(
            value, from_seed.get(name, math.nan), rel_tol=0, abs_tol=TOLERANCE[name]
        )
    )


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    """End-to-end metrics, times scaled by the host probe."""
    factor = result["host_factor"]
    steps, blocks = result["rate_steps"], result["rate_blocks"]
    seconds = result["rate_seconds"] * factor
    if result["unit"] == "slot":
        slots_per_s, windows_per_s = steps / seconds, blocks / seconds
    else:
        # On the simulator one step is one serving window.
        slots_per_s = windows_per_s = steps / seconds
    return {
        "setup_s": statistics.median(setups),
        "slots_per_s": slots_per_s,
        "windows_per_s": windows_per_s,
        "serve_ms_p50": result["serve_ms"]["p50"] * factor,
        "serve_ms_tail": result["serve_ms"]["tail"] * result["host_factor_tail"],
        "update_ms_p50": result["update_ms"]["p50"] * factor,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end LiveUpdate benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--shape", choices=("full", "tiny"), default="full",
        help="input shape; 'tiny' exists for the self-test",
    )
    parser.add_argument(
        "--expected", type=Path, default=EXPECTED,
        help="recorded per-seed values to check against",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    expected = json.loads(args.expected.read_text())

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(launch(args, deadline, "--setup-only")["setup_s"])
    result = launch(args, deadline)
    setups.append(result["setup_s"])

    values = result["deterministic"]
    mismatched = recorded_mismatches(
        args.workload, result["input_seed"], values, expected
    )
    checks = dict(result["checks"])
    checks["recorded_values_match"] = not mismatched
    correct = all(checks.values())

    if args.trace:
        section, measured = "per_layer", dict(result["layers"])
        measured.update(values)
    else:
        section, measured = "end_to_end", end_to_end(result, setups)
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in spec[section]
    }

    serve = result["serve_ms"]
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if mismatched:
        print(f"  differs from {args.expected.name}: {', '.join(mismatched)}")
    for name, value in values.items():
        print(f"{name} = {value:.6f} (deterministic per seed)")
    print(
        f"serve_ms_tail is the median over parts of {serve['per_part']} samples "
        f"of p{serve['tail_pct']:.1f} ({serve['n']} samples); "
        f"update_ms_p50 over {result['update_ms']['n']} windows; "
        f"{result['steps']} {result['unit']}s in {result['elapsed_s']:.2f} s; "
        f"host speed factor {result['host_factor']:.3f} "
        f"(tail {result['host_factor_tail']:.3f})"
    )
    print(f"probe ms {json.dumps(result['probe_ms'])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"env": environment(result), "workload": args.workload, "seed": args.seed}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
