"""The three workloads of the end-to-end benchmark, one per process.

``perfbench/run.py`` launches this file as a fresh process with BLAS and
OpenMP pinned to one thread and a fixed ``PYTHONHASHSEED``; it prints one
JSON object describing the run as its last line.  Every workload is a
closed loop: the next slot or window starts when the previous one ends.

* ``live-loop``: the paper's system.  One ``InferenceNode`` serves the
  Table III stream (``AccuracyConfig`` defaults) and the co-located LoRA
  trainer (``live_update(rank=None)``) adapts it in place.
* ``delta-fleet``: the DeltaUpdate baseline at fleet scale.  One
  ``TrainingCluster`` publishes every one-minute update window into an
  8-shard store; eight replicas pull every window, four through the plain
  client and four under the default ``ResiliencePolicy()``.  Replica 0
  (plain) serves and is scored.
* ``colocation-sim``: ``ColocatedNodeSimulator`` runs the four Fig. 16
  configurations round-robin on the default ``interval`` cache policy,
  with 25k inference accesses per window.

A step is one 30-s slot on the loops and one simulated serving window on
the simulator; a block is one update window (20 slots on live-loop, two
on delta-fleet) or one round of the four configurations.  Warm-up runs
one block untimed; the timed phase runs whole blocks until ``--seconds``
have passed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from collections import deque

import numpy as np

from repro.cluster.nodes import InferenceNode, TrainingCluster
from repro.cluster.resilience import ResiliencePolicy
from repro.cluster.shardstore import QuorumError, ShardedParameterStore
from repro.dlrm.metrics import auc_roc
from repro.experiments.accuracy import AccuracyConfig, build_pretrained_world
from repro.experiments.factories import delta_update, live_update
from repro.hardware.reuse import BatchedShadowReuse
from repro.hardware.vectorcache import IntervalCache
from repro.serving.engine import ColocatedNodeSimulator, NodeSimConfig

from tracing import SpanRecorder, root_seconds, self_times

# Recorded per-seed values exist for seeds 0..SEED_SPACE-1; any other
# ``--seed`` selects the same inputs as its residue.
SEED_SPACE = 32

SIM_CONFIGS = (
    "inference_only",
    "colocated_naive",
    "colocated_scheduled",
    "colocated_full",
)

# The paper's claim: adapters stay under 2% of the embedding tables.
ADAPTER_MEMORY_LIMIT = 0.02

# ``full`` is the measured shape; ``tiny`` only feeds the self-test.
SHAPES = {
    "full": {
        "live-loop": {},
        # One-minute windows: eight pulls every two slots make the
        # parameter plane the largest layer, while 5000-row tables keep
        # the O(all rows) drift in ``data.advance`` a minor share.
        "delta-fleet": {"table_sizes": (5000, 5000, 2500), "update_interval_s": 60.0},
        # Quarter-length windows: hit ratios and modelled P99 stay within 3%
        # of the default's, and a run holds four times the windows.
        "colocation-sim": {"accesses_per_window": 25_000},
    },
    "tiny": {
        # Adapters shrink only after the first pruning pass, so live-loop
        # keeps its Table III tables and windows.
        "live-loop": {"pretrain_steps": 20},
        "delta-fleet": {
            "table_sizes": (400, 400, 200),
            "pretrain_steps": 20,
            "train_batch": 64,
            "serve_batch": 128,
            "update_interval_s": 60.0,
        },
        "colocation-sim": {
            "num_rows": 20_000,
            "accesses_per_window": 10_000,
            "reuse_capacity_rows": 4_000,
            "l3_bytes_per_ccd": 25_000,
        },
    },
}

# Slots over which ``mean_auc`` is taken: Table III's one-hour horizon.
HORIZON_SLOTS = {"full": 120, "tiny": 12}


class HostProbe:
    """Fixed work that tracks how fast this host runs right now.

    The host's speed drifts by up to 1.6x over tens of seconds, through
    contention from neighbours for the cores and for the shared L3, and
    the program and this probe slow down alike.  A run samples the probe
    between blocks and scales its times by the geometric mean of
    ``reference / measured`` over the probe's two parts, so that they read
    as on the reference host in the state it was calibrated in.  One part
    is the loops' mix of small-array NumPy calls and interpreted Python,
    the other random gathers from an 8 MiB array, beyond L2 like the
    simulator's caches.
    The probe calls no program code, so a change to the program never
    moves it.  Build it first in the process: its array is then resident
    for the process's whole life and ``nbytes`` exactly above its peak.
    """

    # Seconds of each part on the reference host (2 vCPU x86-64 VM, 2 MiB
    # L2 per core, NumPy 2.4, one BLAS thread) at the median and at the
    # 90th percentile.  Medians scale by the one, tails by the other: a
    # slow spell makes contended samples common, which moves medians far
    # more than tails, for the probe and the program alike.
    REFERENCE_S = {
        50: {"cpu": 0.0062, "memory": 0.0070},
        90: {"cpu": 0.0072, "memory": 0.0082},
    }
    EVERY_S = 0.25

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.table = rng.normal(size=(5000, 16))
        self.ids = rng.integers(0, 5000, size=4096)
        self.dense = rng.normal(size=(512, 16))
        self.weight = rng.normal(size=(16, 32))
        self.big = rng.normal(size=1 << 20)
        self.big_ids = rng.integers(0, 1 << 20, size=200_000)
        self.nbytes = self.big.nbytes
        self.samples: dict[str, list[float]] = {"cpu": [], "memory": []}

    def sample(self) -> None:
        clock = time.perf_counter
        t = clock()
        for _ in range(25):
            rows = self.table[self.ids]
            self.dense @ self.weight
            np.argsort(rows[:, 0])
        counts: dict[int, int] = {}
        for i in range(12_000):
            counts[i & 1023] = counts.get(i & 1023, 0) + i
        t1 = clock()
        for _ in range(3):
            self.big[self.big_ids].sum()
        self.samples["cpu"].append(t1 - t)
        self.samples["memory"].append(clock() - t1)

    def factor(self, q: int) -> float:
        """Host speed at percentile ``q`` against calibration (>1: faster)."""
        ratios = [
            self.REFERENCE_S[q][part] / float(np.percentile(times, q))
            for part, times in self.samples.items()
        ]
        return float(np.sqrt(ratios[0] * ratios[1]))


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile)``; with 20 samples or fewer this falls
    back to the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    k = max(n - 11, (n - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / n


def tail_of_parts(samples: list[float]) -> tuple[float, float, int]:
    """Median over up to ten consecutive parts of each part's :func:`tail`.

    A burst of host contention inflates the top samples of the part it
    falls in; the median over parts keeps one burst from setting the
    figure.  Parts hold at least 100 samples.  Returns ``(value,
    percentile, samples per part)``.
    """
    parts = min(10, max(1, len(samples) // 100))
    size = len(samples) // parts
    tails = [tail(samples[i * size : (i + 1) * size]) for i in range(parts)]
    return float(np.median([t[0] for t in tails])), tails[0][1], size


class Workload:
    """Operation accounting shared by every workload.

    An operation is a publish, a pull, a served batch or a window.  A
    window whose publish the store refuses and a degraded pull count as
    failed; any other exception ends the run without a result.
    """

    def __init__(self, kinds: tuple[str, ...]) -> None:
        self.attempted = dict.fromkeys(kinds, 0)
        self.failed = dict.fromkeys(kinds, 0)

    def operations(self) -> tuple[int, int]:
        return sum(self.attempted.values()), sum(self.failed.values())

    def gauges(self) -> dict[str, float]:
        return {}

    def block_kind(self) -> str:
        """Kind of the block just run; throughput weighs each kind apart."""
        return "block"


class LoopWorkload(Workload):
    """Shared slot loop of ``live-loop`` and ``delta-fleet``.

    One slot mirrors ``repro.experiments.accuracy.run_strategy``: train on
    a global batch, serve and score a local batch, slot tick, drift, and
    at window and hour boundaries the strategy's update actions.
    """

    unit = "slot"

    kinds = ("served", "window")

    def __init__(self, seed: int, shape: str, overrides: dict) -> None:
        super().__init__(self.kinds)
        cfg = AccuracyConfig(seed=seed, **overrides)
        self.config = cfg
        self.horizon = HORIZON_SLOTS[shape]
        self.stream, base = build_pretrained_world(cfg)
        self.store = ShardedParameterStore(
            num_shards=cfg.num_shards,
            row_bytes=cfg.embedding_dim * 8,
            row_dim=cfg.embedding_dim,
        )
        self.trainer = TrainingCluster(base.copy(), self.store, lr=cfg.train_lr)
        self.nodes = self.make_nodes(base)
        self.node = self.nodes[0]
        self.strategy = self.make_strategy()
        self.block = max(1, int(cfg.update_interval_s / cfg.slot_s))
        self.slots_per_full = max(1, int(cfg.full_sync_interval_s / cfg.slot_s))
        self.min_blocks = -(-self.horizon // self.block)
        self.slot = 0
        self.labels: deque = deque(maxlen=cfg.eval_window)
        self.scores: deque = deque(maxlen=cfg.eval_window)
        self.aucs: list[float] = []
        self.auc_roc = auc_roc
        self.serve_ms: list[float] = []
        self.update_ms: list[float] = []
        self._update_s = 0.0

    def make_nodes(self, base) -> list[InferenceNode]:
        return [InferenceNode(base.copy(), self.store)]

    def step(self) -> None:
        cfg, clock = self.config, time.perf_counter
        self.slot += 1
        now = self.slot * cfg.slot_s
        self.trainer.train_on(self.stream.next_batch(cfg.train_batch))
        serve = self.stream.next_batch(cfg.serve_batch, local=True)
        self.attempted["served"] += 1
        t = clock()
        probs = self.node.predict(serve, overlay=self.strategy.overlay())
        self.serve_ms.append((clock() - t) * 1e3)
        self.strategy.on_serving_batch(serve)
        self.labels.append(serve.labels)
        self.scores.append(probs)
        auc = self.auc_roc(np.concatenate(self.labels), np.concatenate(self.scores))
        if self.slot <= self.horizon:
            self.aucs.append(auc)
        t = clock()
        self.strategy.on_slot(now)
        self._update_s += clock() - t
        self.stream.advance(cfg.slot_s)
        if self.slot % self.block == 0:
            t = clock()
            self.attempted["window"] += 1
            try:
                self.update_window(now)
            except QuorumError:
                self.failed["window"] += 1
            if self.slot % self.slots_per_full == 0:
                self.strategy.on_full_sync(now)
            self.update_ms.append((self._update_s + clock() - t) * 1e3)
            self._update_s = 0.0

    def update_window(self, now: float) -> None:
        self.strategy.on_update_window(now)

    def block_kind(self) -> str:
        return "hourly" if self.slot % self.slots_per_full == 0 else "window"

    def reset_samples(self) -> None:
        self.serve_ms.clear()
        self.update_ms.clear()

    def deterministic(self) -> dict[str, float]:
        """Mean sliding-window AUC over the horizon: fixed per seed."""
        valid = [a for a in self.aucs if not np.isnan(a)]
        return {"mean_auc": float(np.mean(valid))}

    def counters(self) -> dict[str, float]:
        cfg = self.config
        return {
            "data.samples": self.slot * (cfg.train_batch + cfg.serve_batch),
            "dlrm.auc.calls": self.slot,
        }

    def trace(self, rec: SpanRecorder) -> None:
        rec.wrap(self.stream, "next_batch", "data.next_batch")
        rec.wrap(self.stream, "advance", "data.advance")
        rec.wrap(self.trainer, "train_on", "dlrm.train_on")
        rec.wrap(self.node, "predict", "dlrm.predict")
        rec.wrap(self, "auc_roc", "dlrm.auc")


class LiveLoop(LoopWorkload):
    name = "live-loop"

    def make_strategy(self):
        return live_update(rank=None)(self.trainer, self.node)

    def check(self) -> dict[str, bool]:
        return {
            "adapter_memory_below_2pct": self.adapter_mem_frac
            < ADAPTER_MEMORY_LIMIT
        }

    def step(self) -> None:
        super().step()
        if self.slot % self.block == 0:
            self.adapter_mem_frac = max(
                getattr(self, "adapter_mem_frac", 0.0),
                self.strategy.adapter_memory_fraction(),
            )

    def counters(self) -> dict[str, float]:
        report = self.strategy.trainer.report
        return super().counters() | {
            "core.lora_steps": report.steps,
            "core.rows_updated": report.rows_updated,
            "core.rank_changes": report.rank_changes,
            "core.prune_events": report.prune_events,
        }

    def gauges(self) -> dict[str, float]:
        return {"core.adapter_mem_frac": self.adapter_mem_frac}

    def trace(self, rec: SpanRecorder) -> None:
        super().trace(rec)
        s = self.strategy
        rec.wrap(s, "on_serving_batch", "core.log")
        rec.wrap(s, "on_slot", "core.train")
        rec.wrap(s, "on_update_window", "core.train")
        rec.wrap(s, "on_full_sync", "core.train")
        rec.wrap(self.node, "adopt_model", "cluster.adopt")
        # The overlay is a closure applied inside ``predict``: trace both
        # the call that builds it and every application.
        rec.wrap(
            s,
            "overlay",
            "core.overlay",
            wrapper=lambda fn: rec.traced(
                lambda: _traced_or_none(rec, fn(), "core.overlay"),
                "core.overlay",
            ),
        )


def _traced_or_none(rec: SpanRecorder, fn, name: str):
    return None if fn is None else rec.traced(fn, name)


class DeltaFleet(LoopWorkload):
    name = "delta-fleet"
    kinds = ("served", "window", "publish", "pull")
    replicas = 8

    def make_nodes(self, base) -> list[InferenceNode]:
        # Even replicas use the plain client, odd ones the resilient one.
        nodes = [
            InferenceNode(
                base.copy(),
                self.store,
                node_id=i,
                resilience=ResiliencePolicy() if i % 2 else None,
            )
            for i in range(self.replicas)
        ]
        self.pull_ms = {"plain": [], "resilient": []}
        self.push_log = []
        for node in nodes:
            self._account_pull(node)
        return nodes

    def make_strategy(self):
        strategy = delta_update(self.trainer, self.node)
        publish = self.trainer.publish_changed_rows

        def counted_publish():
            self.attempted["publish"] += 1
            report = publish()
            self.push_log.append(report)
            return report

        self.trainer.publish_changed_rows = counted_publish
        return strategy

    def _account_pull(self, node: InferenceNode) -> None:
        pull = node.pull_updates
        samples = self.pull_ms["resilient" if node.node_id % 2 else "plain"]

        def timed_pull(*args, **kwargs):
            self.attempted["pull"] += 1
            t = time.perf_counter()
            report = pull(*args, **kwargs)
            samples.append(time.perf_counter() - t)
            self.failed["pull"] += report.degraded
            return report

        node.pull_updates = timed_pull

    def update_window(self, now: float) -> None:
        # Publish, replica 0's pull and the dense copy, then the fleet.
        self.strategy.on_update_window(now)
        for node in self.nodes[1:]:
            node.pull_updates()

    def _pulls(self):
        return [r for node in self.nodes for r in node.pull_log]

    def check(self) -> dict[str, bool]:
        ref = [t.weight for t in self.trainer.model.embeddings]
        kinds = {"plain": True, "resilient": True}
        for node in self.nodes:
            same = all(
                np.array_equal(t.weight, w)
                for t, w in zip(node.model.embeddings, ref)
            )
            kind = "resilient" if node.node_id % 2 else "plain"
            kinds[kind] = kinds[kind] and same
        return {
            "plain_replicas_match_trainer": kinds["plain"],
            "resilient_replicas_match_trainer": kinds["resilient"],
            "no_degraded_pulls": not any(r.degraded for r in self._pulls()),
        }

    def counters(self) -> dict[str, float]:
        pulls = self._pulls()
        return super().counters() | {
            "cluster.publish.rows": sum(r.rows_pushed for r in self.push_log),
            "cluster.publish.bytes": sum(r.bytes_pushed for r in self.push_log),
            "cluster.pull.rows": sum(r.rows_pulled for r in pulls),
            "cluster.pull.bytes": sum(r.bytes_pulled for r in pulls),
            "cluster.pull.failed": sum(r.degraded for r in pulls),
            "cluster.transfer.sim_s": sum(r.transfer_seconds for r in pulls)
            + sum(r.transfer_seconds for r in self.push_log),
        }

    def gauges(self) -> dict[str, float]:
        resilient = self.pull_ms["resilient"]
        tenth = max(1, len(resilient) // 10)
        first = sum(resilient[:tenth])
        return {"cluster.pull.growth": sum(resilient[-tenth:]) / first}

    def reset_samples(self) -> None:
        super().reset_samples()
        for samples in self.pull_ms.values():
            samples.clear()

    def trace(self, rec: SpanRecorder) -> None:
        super().trace(rec)
        rec.wrap(self.trainer, "publish_changed_rows", "cluster.publish")
        for node in self.nodes:
            kind = "resilient" if node.node_id % 2 else "plain"
            rec.wrap(node, "pull_updates", f"cluster.pull.{kind}")
        rec.wrap(self.strategy, "on_update_window", "strategies.dense_copy")


class ColocationSim(Workload):
    """Round-robin Fig. 16 windows on one simulator."""

    name = "colocation-sim"
    unit = "window"
    block = len(SIM_CONFIGS)
    min_blocks = 1

    def __init__(self, seed: int, shape: str, overrides: dict) -> None:
        super().__init__(("window",))
        self.sim = ColocatedNodeSimulator(NodeSimConfig(seed=seed, **overrides))
        self.step_no = 0
        self.results: list = []
        self.window_ms = {c: [] for c in SIM_CONFIGS}

    def step(self) -> None:
        config = SIM_CONFIGS[self.step_no % self.block]
        self.step_no += 1
        self.attempted["window"] += 1
        t = time.perf_counter()
        result = getattr(self.sim, f"run_{config}")()
        self.window_ms[config].append((time.perf_counter() - t) * 1e3)
        self.results.append(result)

    @property
    def serve_ms(self) -> list[float]:
        return self.window_ms["inference_only"]

    @property
    def update_ms(self) -> list[float]:
        return self.window_ms["colocated_full"]

    def reset_samples(self) -> None:
        self.timed_from = len(self.results)
        for samples in self.window_ms.values():
            samples.clear()

    def rounds(self) -> list[dict]:
        res = self.results[self.timed_from :]
        return [
            dict(zip(SIM_CONFIGS, res[i : i + self.block]))
            for i in range(0, len(res) - self.block + 1, self.block)
        ]

    def deterministic(self) -> dict[str, float]:
        """Modelled P99 of the first timed ``colocated_full`` window."""
        return {"sim_p99_ms": float(self.rounds()[0]["colocated_full"].p99_ms)}

    def check(self) -> dict[str, bool]:
        # Scheduled and full differ by less than one round's sampling
        # noise, so the ordering is checked on the median over rounds.
        p99 = {
            c: np.median([r[c].p99_ms for r in self.rounds()])
            for c in SIM_CONFIGS
        }
        return {
            "fig16_order": bool(p99["colocated_naive"]
            > p99["colocated_scheduled"]
            >= p99["colocated_full"])
        }

    def counters(self) -> dict[str, float]:
        return {
            "hardware.accesses": sum(
                r.inference_accesses + r.training_accesses for r in self.results
            )
        }

    def gauges(self) -> dict[str, float]:
        rounds = self.rounds()
        out = {
            f"hardware.hit_ratio.{c}": float(
                np.mean([r[c].inference_hit_ratio for r in rounds])
            )
            for c in SIM_CONFIGS
        }
        out["hardware.reuse_ratio"] = float(
            np.mean([r["colocated_full"].reuse_ratio for r in rounds])
        )
        return out

    def trace(self, rec: SpanRecorder) -> None:
        for config in SIM_CONFIGS:
            rec.wrap(self.sim, f"run_{config}", f"serving.window.{config}")
        rec.wrap(self.sim.latency, "sample_latencies", "hardware.latency")
        rec.wrap(IntervalCache, "access_many", "hardware.cache")
        rec.wrap(BatchedShadowReuse, "absorbed", "hardware.reuse")


WORKLOADS = {w.name: w for w in (LiveLoop, DeltaFleet, ColocationSim)}

# Per-layer metrics built from span self times, in ms per step.
SPAN_METRICS = (
    "data.next_batch",
    "data.advance",
    "dlrm.train_on",
    "dlrm.predict",
    "dlrm.auc",
    "core.train",
    "core.overlay",
    "cluster.publish",
    "cluster.pull.plain",
    "cluster.pull.resilient",
    "strategies.dense_copy",
) + tuple(f"serving.window.{c}" for c in SIM_CONFIGS)
LAYERS = ("data", "dlrm", "core", "cluster", "strategies", "serving", "hardware")


def build(name: str, seed: int, shape: str = "full"):
    """The named workload with its inputs generated from ``seed``."""
    return WORKLOADS[name](seed % SEED_SPACE, shape, SHAPES[shape][name])


def run(wl, seconds: float, trace: bool, t0: float, probe: HostProbe) -> dict:
    """Warm up, then measure ``wl`` for ``seconds``; returns the raw result.

    ``t0`` is the ``time.monotonic()`` reading taken when the process was
    launched, so ``setup_s`` covers interpreter start and imports too.
    With ``trace`` one block of each consecutive pair runs traced, which
    one drawn from a fixed-seed coin so that periodic events (the hourly
    full sync) fall on both sides; end-to-end figures are still reported,
    but the benchmark takes them from untraced runs only.
    """
    for _ in range(wl.block):
        wl.step()
    setup_s = time.monotonic() - t0
    wl.reset_samples()
    before = wl.counters()
    rec = SpanRecorder()
    coin = random.Random(0)
    clock = time.perf_counter
    spent = {True: 0.0, False: 0.0}
    steps = {True: 0, False: 0}
    block_s: dict[str, list[float]] = {}
    blocks = 0
    start = last_probe = clock()
    probe.sample()
    while True:
        if blocks % 2 == 0:
            traced_first = coin.random() < 0.5
        traced = trace and traced_first == (blocks % 2 == 0)
        if traced:
            wl.trace(rec)
        b0 = clock()
        for _ in range(wl.block):
            unit = steps[True] + steps[False]
            if traced:
                rec.root(unit, wl.step)
            else:
                wl.step()
            steps[traced] += 1
        took = clock() - b0
        spent[traced] += took
        if not traced:
            block_s.setdefault(wl.block_kind(), []).append(took)
        rec.restore()
        blocks += 1
        if blocks == wl.min_blocks:
            # Memory at a fixed amount of work (set-up plus the horizon),
            # since some state grows with every window run.
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        if clock() - last_probe >= probe.EVERY_S:
            probe.sample()
            last_probe = clock()
        if clock() - start >= seconds and blocks >= max(wl.min_blocks, 2):
            break
    elapsed = clock() - start
    total = steps[True] + steps[False]
    after = wl.counters()
    attempted, failed = wl.operations()
    serve_tail, serve_pct, per_part = tail_of_parts(wl.serve_ms)
    result = {
        "workload": wl.name,
        "unit": wl.unit,
        "setup_s": setup_s,
        "elapsed_s": elapsed,
        "steps": total,
        # Throughput base: untraced blocks, each kind of block (the hourly
        # full sync apart) counted at its median duration, so that bursts
        # of host contention do not set the figure.
        "rate_steps": steps[False],
        "rate_blocks": sum(map(len, block_s.values())),
        "rate_seconds": sum(len(v) * float(np.median(v)) for v in block_s.values()),
        "serve_ms": {
            "p50": float(np.median(wl.serve_ms)),
            "tail": serve_tail,
            "tail_pct": serve_pct,
            "n": len(wl.serve_ms),
            "per_part": per_part,
        },
        "update_ms": {"p50": float(np.median(wl.update_ms)), "n": len(wl.update_ms)},
        "host_factor": probe.factor(50),
        "host_factor_tail": probe.factor(90),
        "probe_ms": {
            part: 1e3 * float(np.median(times)) for part, times in probe.samples.items()
        },
        "peak_rss_mb": (peak_rss - probe.nbytes) / 2**20,
        "deterministic": wl.deterministic(),
        "checks": wl.check(),
        "attempted": attempted,
        "failed": failed,
        "numpy": np.__version__,
    }
    if trace:
        result["layers"] = layer_metrics(
            rec, wl, spent, steps, before, after, result["host_factor"]
        )
    return result


def layer_metrics(
    rec, wl, spent, steps, before, after, host_factor
) -> dict[str, float]:
    """Per-layer metrics of a traced run, per step of the workload."""
    spans = [s for s in rec.spans if s is not None]
    n_traced = max(1, steps[True])
    own = self_times(spans)
    ms = lambda seconds: seconds * 1e3 / n_traced  # noqa: E731
    out = {f"{name}.ms": ms(own.get(name, 0.0)) for name in SPAN_METRICS}
    for layer in LAYERS:
        out[f"layer.{layer}.ms"] = ms(
            sum(v for k, v in own.items() if k.split(".")[0] == layer)
        )
    out["bench.self.ms"] = ms(own.get("bench.step", 0.0))
    out["bench.host_factor"] = host_factor
    out["trace.loop.ms"] = ms(root_seconds(spans))
    untraced = spent[False] / max(1, steps[False])
    out["trace.overhead_pct"] = (
        100.0 * (spent[True] / n_traced / untraced - 1.0) if steps[False] else 0.0
    )
    total = steps[True] + steps[False]
    for key in before:
        out[key] = (after[key] - before[key]) / total
    out |= wl.gauges()
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=sorted(SHAPES), default="full")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument(
        "--setup-only", action="store_true", help="stop after warm-up"
    )
    args = parser.parse_args(argv)
    probe = HostProbe()
    wl = build(args.workload, args.seed, args.shape)
    if args.setup_only:
        for _ in range(wl.block):
            wl.step()
        result = {"setup_s": time.monotonic() - args.t0}
    else:
        result = run(wl, args.seconds, bool(args.trace), args.t0, probe)
        result["input_seed"] = args.seed % SEED_SPACE
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
