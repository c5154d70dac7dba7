"""Seed-era reference implementations kept as test oracles.

The library replaced these with whole-array versions; the equivalence
suites pin the replacements bit-for-bit against them.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np

from repro.core.pruning import PruneDecision, dynamic_tau_from_counts


class CounterUsageTracker:
    """The seed :class:`repro.core.pruning.UsageTracker`: a ``Counter``
    fed and expired id by id."""

    def __init__(self, window_iters, tau_prune, c_min, c_max):
        self.window_iters = window_iters
        self.tau_prune = tau_prune
        self.c_min = c_min
        self.c_max = c_max
        self._history = deque()
        self._counts = Counter()
        self.iteration = 0

    def record_update(self, ids):
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        self._history.append(ids)
        self._counts.update(int(i) for i in ids)
        self.iteration += 1
        while len(self._history) > self.window_iters:
            for i in self._history.popleft():
                i = int(i)
                self._counts[i] -= 1
                if self._counts[i] <= 0:
                    del self._counts[i]

    def frequency(self, idx):
        return self._counts.get(int(idx), 0)

    @property
    def num_tracked(self):
        return len(self._counts)

    def active_set(self, tau=None):
        tau = self.tau_prune if tau is None else tau
        ids = [i for i, c in self._counts.items() if c >= tau]
        return np.array(sorted(ids), dtype=np.int64)

    def decide(self, tau=None):
        tau = self.tau_prune if tau is None else tau
        active = self.active_set(tau)
        capacity = int(min(max(len(active), self.c_min), self.c_max))
        return PruneDecision(active_ids=active, new_capacity=capacity, tau_used=tau)

    def refresh_tau_from_window(self, hot_fraction=0.10):
        counts = np.array(list(self._counts.values()), dtype=np.float64)
        self.tau_prune = dynamic_tau_from_counts(counts, hot_fraction)
        return self.tau_prune


def accumulate_grad_rounds(adapter, ids, grad_rows, lr):
    """The seed :meth:`LoRAAdapter.accumulate_grad`: every batch goes
    through the occurrence-round loop, unique ids included."""
    ids = np.asarray(ids, dtype=np.int64)
    grad_rows = np.asarray(grad_rows, dtype=np.float64)
    slots = adapter.activate_batch(ids)
    valid = slots >= 0
    updated = int(valid.sum())
    if not updated:
        return 0
    v_slots = slots[valid]
    grads = grad_rows[valid]
    occurrence = adapter._occurrence_index(v_slots)
    grad_b = np.zeros_like(adapter.b)
    for r in range(int(occurrence.max()) + 1):
        sel = occurrence == r
        s = v_slots[sel]
        g = grads[sel]
        grad_b += adapter.a[s].T @ g
        adapter.a[s] -= lr * (g @ adapter.b.T)
    adapter.b -= lr * grad_b
    return updated


def auc_roc_loop(labels, scores):
    """The seed :func:`repro.dlrm.metrics.auc_roc`: midranks found by a
    per-element ``while`` loop over the sorted scores."""
    labels = np.asarray(labels, dtype=np.float64).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    n_pos = float(labels.sum())
    n_neg = float(labels.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty_like(scores)
    sorted_scores = scores[order]
    i = 0
    n = scores.shape[0]
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum_pos = float(ranks[labels > 0.5].sum())
    u = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)
