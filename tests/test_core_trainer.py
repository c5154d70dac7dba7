"""Tests for the inference-side LoRA trainer."""

import functools

import numpy as np
import pytest

from oracles import CounterUsageTracker, accumulate_grad_rounds
from repro.core.dtypes import SERVE, TRAIN
from repro.core.trainer import LoRATrainer, TrainerConfig
from repro.data.stream import InferenceLogBuffer
from repro.data.synthetic import DriftingCTRStream, StreamConfig
from repro.dlrm.mlp import MLP
from repro.dlrm.model import DLRM, DLRMConfig


@pytest.fixture
def world():
    table_sizes = (100, 80)
    model = DLRM(
        DLRMConfig(
            num_dense=3,
            embedding_dim=8,
            table_sizes=table_sizes,
            bottom_mlp=(8,),
            top_mlp=(8,),
            seed=0,
        )
    )
    stream = DriftingCTRStream(
        StreamConfig(table_sizes=table_sizes, num_dense=3, seed=1)
    )
    buffer = InferenceLogBuffer(retention_s=600)
    return model, stream, buffer


def _fill(buffer, stream, batches=4, n=64):
    for _ in range(batches):
        buffer.append(stream.next_batch(n, local=True))


class TestTraining:
    def test_empty_buffer_returns_none(self, world):
        model, _, buffer = world
        trainer = LoRATrainer(model, buffer)
        assert trainer.train_step() is None

    def test_train_step_returns_loss_and_counts(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer, TrainerConfig(batch_size=32))
        loss = trainer.train_step()
        assert loss > 0
        assert trainer.report.steps == 1
        assert trainer.report.samples_seen == 32
        assert trainer.report.rows_updated > 0

    def test_base_weights_frozen(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer, TrainerConfig(batch_size=32))
        emb_before = model.embeddings[0].weight.copy()
        dense_before = model.bottom.weights[0].copy()
        for _ in range(5):
            trainer.train_step()
        np.testing.assert_array_equal(emb_before, model.embeddings[0].weight)
        np.testing.assert_array_equal(dense_before, model.bottom.weights[0])

    def test_training_reduces_loss(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=6, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(
                batch_size=128,
                lr=0.3,
                capacity_fraction=1.0,
                dynamic_prune=False,
            ),
        )
        losses = [trainer.train_step() for _ in range(80)]
        assert np.mean(losses[-20:]) < np.mean(losses[:20])

    def test_hot_filter_marks_trained_ids(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(model, buffer, TrainerConfig(batch_size=32))
        trainer.train_step()
        assert trainer.hot_filter.hot_count(0) > 0

    def test_overlay_changes_predictions_after_training(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(
            model, buffer, TrainerConfig(batch_size=64, lr=0.3)
        )
        for _ in range(10):
            trainer.train_step()
        ev = stream.eval_batch(64)
        base = model.predict(ev.dense, ev.sparse_ids)
        adapted = model.predict(ev.dense, ev.sparse_ids, overlay=trainer.overlay())
        assert not np.allclose(base, adapted)


class TestAdaptation:
    def test_dynamic_rank_grows_not_shrinks_live(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(
                rank=2, batch_size=64, adapt_interval=4, dynamic_prune=False
            ),
        )
        for _ in range(20):
            trainer.train_step()
        assert all(r >= 2 for r in trainer.report.current_ranks)

    def test_pending_shrink_applied_at_reset(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(
                rank=8,
                batch_size=64,
                adapt_interval=4,
                dynamic_prune=False,
                min_rank=2,
            ),
        )
        for _ in range(16):
            trainer.train_step()
        pending = dict(trainer._pending_shrink)
        trainer.merge_and_reset()
        for f, target in pending.items():
            assert trainer.lora[f].rank == target

    def test_pruning_bounds_capacity(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(rank=4, batch_size=64, adapt_interval=4),
        )
        for _ in range(16):
            trainer.train_step()
        for f, table in enumerate(model.embeddings):
            assert trainer.lora[f].capacity <= table.num_rows

    def test_fixed_config_disables_adaptation(self, world):
        model, stream, buffer = world
        _fill(buffer, stream, batches=8, n=128)
        trainer = LoRATrainer(
            model,
            buffer,
            TrainerConfig(
                rank=4,
                batch_size=64,
                adapt_interval=4,
                dynamic_rank=False,
                dynamic_prune=False,
            ),
        )
        caps = [ad.capacity for ad in trainer.lora]
        for _ in range(16):
            trainer.train_step()
        assert trainer.report.rank_changes == 0
        assert [ad.capacity for ad in trainer.lora] == caps


class TestMerge:
    def test_merge_moves_adapters_into_base(self, world):
        model, stream, buffer = world
        _fill(buffer, stream)
        trainer = LoRATrainer(
            model, buffer, TrainerConfig(batch_size=64, lr=0.3)
        )
        for _ in range(10):
            trainer.train_step()
        ev = stream.eval_batch(64)
        adapted = model.predict(ev.dense, ev.sparse_ids, overlay=trainer.overlay())
        merged_count = trainer.merge_and_reset()
        assert merged_count > 0
        base_after = model.predict(ev.dense, ev.sparse_ids)
        np.testing.assert_allclose(adapted, base_after, atol=1e-9)
        # post-merge overlay is a no-op (adapters reset, filter cleared)
        np.testing.assert_allclose(
            base_after,
            model.predict(ev.dense, ev.sparse_ids, overlay=trainer.overlay()),
        )

    def test_memory_bytes_positive(self, world):
        model, _, buffer = world
        trainer = LoRATrainer(model, buffer)
        assert trainer.memory_bytes() > 0


class TestEmbeddingOnlyBackward:
    """The frozen-dense step computes exactly what the full backward does
    for the embeddings, and nothing for the MLPs."""

    @pytest.mark.parametrize("policy", [TRAIN, SERVE], ids=["train", "serve"])
    def test_matches_full_backward(self, policy):
        model = DLRM(
            DLRMConfig(
                num_dense=3,
                embedding_dim=8,
                table_sizes=(50, 7),  # the 7-row field repeats ids
                bottom_mlp=(8,),
                top_mlp=(16, 8),
                policy=policy,
            )
        )
        rng = np.random.default_rng(5)
        dense = rng.normal(size=(64, 3))
        ids = np.stack(
            [rng.integers(0, 50, 64), rng.integers(0, 7, 64)], axis=1
        )
        labels = rng.integers(0, 2, 64)
        cache = model.forward(dense, ids)
        loss, grads = model.backward_embeddings(cache, labels)
        full = model.backward(cache, labels)
        assert loss == full.loss
        assert len(grads) == len(full.embedding_grads)
        for got, want in zip(grads, full.embedding_grads):
            assert got.rows.dtype == want.rows.dtype == policy.row_dtype
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.rows, want.rows)

    @pytest.mark.parametrize("final_relu", [False, True])
    def test_mlp_backward_input_matches_backward(self, final_relu):
        mlp = MLP([5, 7, 3], rng=np.random.default_rng(1), final_relu=final_relu)
        rng = np.random.default_rng(2)
        _, cache = mlp.forward(rng.normal(size=(9, 5)))
        grad_out = rng.normal(size=(9, 3))
        want, _ = mlp.backward(cache, grad_out)
        np.testing.assert_array_equal(mlp.backward_input(cache, grad_out), want)

    def test_fifty_steps_bit_equal_to_full_backward_trainer(self, world):
        """The trainer against a reference built from the seed pieces:
        the full ``DLRM.backward``, the ``Counter`` usage tracker and the
        all-rounds ``accumulate_grad``."""
        model, stream, buffer = world
        _fill(buffer, stream, batches=8)
        cfg = TrainerConfig(
            batch_size=48, adapt_interval=8, capacity_fraction=0.2, lr=0.2
        )
        new = LoRATrainer(model, buffer, cfg)
        ref_model = model.copy()

        def full_backward(cache, labels):
            result = ref_model.backward(cache, labels)
            return result.loss, result.embedding_grads

        ref_model.backward_embeddings = full_backward
        ref = LoRATrainer(ref_model, buffer, cfg)
        ref.usage = [
            CounterUsageTracker(u.window_iters, u.tau_prune, u.c_min, u.c_max)
            for u in ref.usage
        ]
        for adapter in ref.lora:
            adapter.accumulate_grad = functools.partial(
                accumulate_grad_rounds, adapter
            )
        for _ in range(50):
            assert new.train_step() == ref.train_step()
        assert new.report.prune_events + new.report.rank_changes > 0
        for a_new, a_ref in zip(new.lora, ref.lora):
            np.testing.assert_array_equal(a_new.a, a_ref.a)
            np.testing.assert_array_equal(a_new.b, a_ref.b)
            np.testing.assert_array_equal(a_new.active_ids, a_ref.active_ids)
            assert a_new.rank == a_ref.rank
            assert a_new.capacity == a_ref.capacity
        assert new.report.rows_updated == ref.report.rows_updated
        assert new.report.current_ranks == ref.report.current_ranks
        assert new.report.current_capacities == ref.report.current_capacities
