"""Low-rank adapter tables for embedding updates.

LiveUpdate represents the update to an embedding table as ``Delta W = A B``
with ``A in R^{|V| x k}`` and ``B in R^{k x d}``, ``k << d`` (Eq. 3).  To
keep memory at the paper's <2% target, ``A`` is *not* allocated for every
vocabulary row: an :class:`LoRAAdapter` owns a compact slot array of
``capacity`` rows plus an id -> slot map, so only active ids (survivors of
usage-based pruning) consume memory.

The id -> slot map is an :class:`~repro.core.kernels.IdSlotTable`, so every
algebra entry point (:meth:`~LoRAAdapter.delta_rows`,
:meth:`~LoRAAdapter.apply_to`, :meth:`~LoRAAdapter.accumulate_grad`) is one
batched translate + gather/scatter + matmul with no per-id Python loop.

Rank can be resized at runtime (dynamic rank adaptation, Section IV-C):
growth zero-pads the new directions; shrink projects ``A B`` onto its top-k
SVD subspace so the represented update is preserved as well as a rank-k
object can (Eckart-Young optimality).
"""

from __future__ import annotations

import numpy as np

from .kernels import IdSlotTable

__all__ = ["LoRAAdapter", "LoRACollection"]


class LoRAAdapter:
    """One table's low-rank update factors.

    Args:
        dim: embedding dimension ``d`` of the base table.
        rank: initial LoRA rank ``k``.
        capacity: number of ``A`` rows allocated (active-id budget).
        rng: initialiser for ``B`` (``A`` rows start at zero so the adapter
            is an exact no-op until trained, as in standard LoRA).
        universe: optional id-universe size (the base table's row count).
            When given, id -> slot translation uses the flat
            direct-address lane of :class:`IdSlotTable` — one gather, no
            search — and ids outside ``[0, universe)`` are never
            activated.
    """

    def __init__(
        self,
        dim: int,
        rank: int,
        capacity: int,
        rng: np.random.Generator | None = None,
        universe: int | None = None,
    ) -> None:
        if dim <= 0 or rank <= 0 or capacity <= 0:
            raise ValueError("dim, rank and capacity must be positive")
        if rank > dim:
            raise ValueError("rank cannot exceed the embedding dimension")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.rank = rank
        self.capacity = capacity
        self.universe = universe
        self.a = np.zeros((capacity, rank), dtype=np.float64)
        self.b = rng.normal(0.0, 1.0 / np.sqrt(rank), size=(rank, dim))
        self._slots = IdSlotTable(capacity, universe=universe)
        self.evictions = 0

    # ------------------------------------------------------------------ state
    @property
    def num_active(self) -> int:
        return self._slots.size

    @property
    def active_ids(self) -> np.ndarray:
        """Active ids in ascending order."""
        return self._slots.keys

    @property
    def active_slots(self) -> np.ndarray:
        """Slots of the active ids, aligned with :attr:`active_ids`."""
        return self._slots.slots

    @property
    def nbytes(self) -> int:
        return int(self.a.nbytes + self.b.nbytes)

    def is_active(self, idx: int) -> bool:
        return self._slots.get(int(idx)) is not None

    def slot_of(self, idx: int) -> int | None:
        return self._slots.get(int(idx))

    def slots_of(self, ids: np.ndarray) -> np.ndarray:
        """Batch id -> slot translation; ``-1`` for inactive ids."""
        return self._slots.lookup(ids)

    # ------------------------------------------------------------ activation
    def activate(self, idx: int) -> int | None:
        """Ensure ``idx`` has a slot; returns the slot or None if full."""
        slots = self.activate_batch(np.array([int(idx)], dtype=np.int64))
        return None if slots[0] < 0 else int(slots[0])

    def activate_batch(self, ids: np.ndarray) -> np.ndarray:
        """Give every id a slot (first come first served); ``-1`` if full.

        Newly granted slots have their ``A`` rows zeroed so activation
        alone never changes the represented update.
        """
        slots, new_slots = self._slots.insert(ids)
        if new_slots.size:
            self.a[new_slots] = 0.0
        return slots

    def deactivate(self, idx: int) -> bool:
        """Release ``idx``'s slot (pruning); returns True if it was active."""
        return self.deactivate_batch(np.array([int(idx)], dtype=np.int64)) == 1

    def deactivate_batch(self, ids: np.ndarray) -> int:
        """Release the slots of every active id in ``ids``; returns count."""
        released = self._slots.remove(ids)
        if released.size:
            self.a[released] = 0.0
            self.evictions += released.size
        return int(released.size)

    # --------------------------------------------------------------- algebra
    def delta_rows(self, ids: np.ndarray) -> np.ndarray:
        """``Delta W`` rows for ``ids``; inactive ids contribute zeros."""
        ids = np.asarray(ids, dtype=np.int64)
        slots = self._slots.lookup(ids)
        hit = slots >= 0
        if hit.all():
            # Common serving case (the overlay only sends hot ids): one
            # gather + matmul, no zero-fill/scatter pass.
            return self.a[slots] @ self.b
        out = np.zeros((ids.shape[0], self.dim), dtype=np.float64)
        if hit.any():
            out[hit] = self.a[slots[hit]] @ self.b
        return out

    def apply_to(self, ids: np.ndarray, base_rows: np.ndarray) -> np.ndarray:
        """``W_base[i] + A[i] B`` for the inference path (hot ids)."""
        return np.asarray(base_rows, dtype=np.float64) + self.delta_rows(ids)

    def accumulate_grad(
        self, ids: np.ndarray, grad_rows: np.ndarray, lr: float
    ) -> int:
        """SGD step on ``A`` rows and ``B`` from embedding-space gradients.

        ``dL/dA[i] = g_i B^T`` and ``dL/dB = sum_i A[i]^T g_i`` where ``g_i``
        is the gradient of the (adapted) embedding row.  Ids without a free
        slot are skipped (they keep flowing through the base table only).

        The batch is processed as whole-array matmuls.  ``B`` is read-only
        within a step, so rows with distinct ids commute; repeated ids are
        handled in occurrence order (round ``r`` applies every id's
        ``r``-th gradient row) to preserve the sequential SGD semantics.
        Strictly increasing ids (the sorted unique rows of a sparse
        gradient) are one round, detected with one O(n) comparison.

        Returns the number of ids actually updated.
        """
        ids = np.asarray(ids, dtype=np.int64)
        grad_rows = np.asarray(grad_rows, dtype=np.float64)
        slots = self.activate_batch(ids)
        valid = slots >= 0
        updated = int(valid.sum())
        if not updated:
            return 0
        v_slots = slots[valid]
        grads = grad_rows[valid]
        v_ids = ids[valid]
        if (v_ids[1:] > v_ids[:-1]).all():
            rounds = [(v_slots, grads)]
        else:
            occurrence = self._occurrence_index(v_slots)
            rounds = [
                (v_slots[occurrence == r], grads[occurrence == r])
                for r in range(int(occurrence.max()) + 1)
            ]
        grad_b = np.zeros_like(self.b)
        for s, g in rounds:
            grad_b += self.a[s].T @ g
            self.a[s] -= lr * (g @ self.b.T)
        self.b -= lr * grad_b
        return updated

    @staticmethod
    def _occurrence_index(slots: np.ndarray) -> np.ndarray:
        """Per-row count of earlier rows with the same slot (0 for first)."""
        order = np.argsort(slots, kind="stable")
        sorted_slots = slots[order]
        _, counts = np.unique(sorted_slots, return_counts=True)
        group_start = np.repeat(np.cumsum(counts) - counts, counts)
        occ = np.empty(slots.size, dtype=np.int64)
        occ[order] = np.arange(slots.size, dtype=np.int64) - group_start
        return occ

    def scatter_rows(self, ids: np.ndarray, rows: np.ndarray) -> int:
        """Overwrite the ``A`` rows of ``ids`` (activating as needed).

        Ids that cannot get a slot are skipped; ``rows`` wider/narrower
        than the current rank are truncated / zero-padded.  Returns the
        number of rows written (the synchronizer's apply primitive).
        """
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.float64)
        slots = self.activate_batch(ids)
        hit = slots >= 0
        if not hit.any():
            return 0
        width = min(rows.shape[1], self.rank)
        payload = np.zeros((int(hit.sum()), self.rank), dtype=np.float64)
        payload[:, :width] = rows[hit][:, :width]
        self.a[slots[hit]] = payload
        return int(hit.sum())

    def gather_rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(present_ids, A rows)`` for the subset of ``ids`` that is active."""
        ids = np.asarray(ids, dtype=np.int64)
        slots = self._slots.lookup(ids)
        hit = slots >= 0
        return ids[hit], self.a[slots[hit]].copy()

    # ----------------------------------------------------------- reshaping
    def resize_rank(self, new_rank: int) -> None:
        """Change ``k`` preserving the represented update where possible."""
        if new_rank == self.rank:
            return
        if new_rank <= 0 or new_rank > self.dim:
            raise ValueError("invalid rank")
        if new_rank > self.rank:
            pad_a = np.zeros(
                (self.capacity, new_rank - self.rank), dtype=np.float64
            )
            rng = np.random.default_rng(self.rank * 7919 + new_rank)
            pad_b = rng.normal(
                0.0, 1.0 / np.sqrt(new_rank), size=(new_rank - self.rank, self.dim)
            )
            self.a = np.concatenate([self.a, pad_a], axis=1)
            self.b = np.concatenate([self.b, pad_b], axis=0)
        else:
            # Project the active update onto its best rank-k approximation.
            # The singular-value mass is split as sqrt(s) between the two
            # factors: leaving it all in A (a = u*s, b = vt) preserves the
            # product but unbalances subsequent gradient dynamics, which
            # measurably degrades further online training.
            active = np.sort(self._slots.slots)
            if active.size:
                delta = self.a[active] @ self.b
                u, s, vt = np.linalg.svd(delta, full_matrices=False)
                k = new_rank
                root_s = np.sqrt(s[:k])
                new_a_rows = u[:, :k] * root_s
                new_b = root_s[:, None] * vt[:k]
                # Guard against dead directions: a ~zero B row would stop
                # gradient flow (dA = B g) through that rank forever.  Give
                # such rows a small random direction; the matching A column
                # is ~zero too, so the represented update barely moves.
                rng = np.random.default_rng(self.rank * 7919 + k)
                floor = 0.1 / np.sqrt(k)
                # repro-lint: disable=hot-loop -- one iteration per rank direction (k <= d rows of B), run only when the rank shrinks; each row's replacement draw must follow the seeded stream in order
                for j in range(new_b.shape[0]):
                    if np.linalg.norm(new_b[j]) < floor:
                        new_b[j] = rng.normal(0.0, 1.0 / np.sqrt(k), self.dim)
                self.a = np.zeros((self.capacity, k), dtype=np.float64)
                self.a[active] = new_a_rows
                self.b = new_b
            else:
                # Nothing learned yet: keep the leading learned directions.
                self.a = np.zeros((self.capacity, new_rank), dtype=np.float64)
                self.b = self.b[:new_rank].copy()
        self.rank = new_rank

    def resize_capacity(self, new_capacity: int) -> None:
        """Grow/shrink the slot budget (Eq. 4's table-length control).

        Shrinking evicts the surplus ids with the *smallest* adapter norms
        (they carry the least update information; ties break toward lower
        ids).
        """
        if new_capacity == self.capacity:
            return
        if new_capacity <= 0:
            raise ValueError("capacity must be positive")
        if new_capacity < self.num_active:
            ids = self._slots.keys
            norms = np.linalg.norm(self.a[self._slots.slots], axis=1)
            surplus = self.num_active - new_capacity
            evict = ids[np.argsort(norms, kind="stable")[:surplus]]
            self.deactivate_batch(evict)
        # Repack survivors densely: ascending ids take slots 0..n-1.
        keys = self._slots.keys
        old_slots = self._slots.slots
        new_a = np.zeros((new_capacity, self.rank), dtype=np.float64)
        new_a[: keys.size] = self.a[old_slots]
        self.a = new_a
        self._slots.rebuild_sorted(keys, new_capacity)
        self.capacity = new_capacity

    def reset(self) -> None:
        """Zero the adapter (after merging into base / full re-anchor)."""
        self.a[...] = 0.0
        self._slots.clear()

    def merge_into(self, weight: np.ndarray) -> int:
        """Fold ``A B`` into a base weight matrix in place; then reset.

        Returns the number of rows merged.
        """
        keys = self._slots.keys
        slots = self._slots.slots
        in_range = (keys >= 0) & (keys < weight.shape[0])
        if in_range.any():
            # Active ids are unique, so plain fancy-index += is safe.
            weight[keys[in_range]] += self.a[slots[in_range]] @ self.b
        merged = int(in_range.sum())
        self.reset()
        return merged


class LoRACollection:
    """One adapter per sparse field of a DLRM."""

    def __init__(
        self,
        dims: list[int],
        rank: int,
        capacities: list[int],
        seed: int = 0,
        universes: list[int] | None = None,
    ) -> None:
        if len(dims) != len(capacities):
            raise ValueError("dims and capacities must align")
        if universes is not None and len(universes) != len(dims):
            raise ValueError("universes must align with dims")
        rng = np.random.default_rng(seed)
        self.adapters = [
            LoRAAdapter(
                dim,
                rank,
                cap,
                rng=rng,
                universe=None if universes is None else universes[f],
            )
            for f, (dim, cap) in enumerate(zip(dims, capacities))
        ]

    def __len__(self) -> int:
        return len(self.adapters)

    def __getitem__(self, f: int) -> LoRAAdapter:
        return self.adapters[f]

    def __iter__(self):
        return iter(self.adapters)

    @property
    def nbytes(self) -> int:
        return sum(ad.nbytes for ad in self.adapters)

    @property
    def num_active(self) -> int:
        return sum(ad.num_active for ad in self.adapters)

    def overlay(self, hot_filter=None):
        """Embedding overlay closure for :meth:`repro.dlrm.DLRM.forward`.

        Args:
            hot_filter: optional callable ``(field, ids) -> bool mask``; only
                hot ids get the LoRA adjustment (the paper's Hot Index
                Filter short-circuits cold ids straight to the base table).
        """

        def _overlay(field: int, ids: np.ndarray, base_rows: np.ndarray):
            adapter = self.adapters[field]
            if hot_filter is None:
                return adapter.apply_to(ids, base_rows)
            mask = hot_filter(field, ids)
            if not mask.any():
                return base_rows
            if mask.all():
                return adapter.apply_to(ids, base_rows)
            out = np.array(base_rows, dtype=np.float64, copy=True)
            hot_ids = np.asarray(ids, dtype=np.int64)[mask]
            out[mask] = adapter.apply_to(hot_ids, out[mask])
            return out

        return _overlay

    def reset(self) -> None:
        for ad in self.adapters:
            ad.reset()
