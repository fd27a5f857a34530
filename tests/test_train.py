import json
import math
import multiprocessing
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsqnet.data
import fsqnet.ops
from fsqnet.data import Dataset, ImageBuffer, augment, compute_channel_means, normalize
from fsqnet.errors import ConfigError, DataError, NumericError, StateError
from fsqnet.model import (
    Model,
    ModelConfig,
    build_model,
    clone_params,
    layer_plan,
    model_backward,
    model_forward,
    tiny_config,
)
from fsqnet.synthetic import make_dataset
from fsqnet.tensor import rng_from_seed
from fsqnet.train import (
    EpochMetrics,
    History,
    TrainConfig,
    _assemble_batch,
    _batches,
    cross_entropy,
    evaluate,
    fit,
    pearson_correlation,
    sgd_step,
    train_epoch,
)
from oracles import gradient, naive_cross_entropy
from test_data import SPLIT_SIZE
from test_ops import _force_split


def _split_synthetic(num_classes=2, per_class=10, seed=3):
    from fsqnet.data import shuffle_split

    dataset = make_dataset(num_classes, per_class, 32, seed)
    return shuffle_split(dataset, seed, 0.2)


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.learning_rate == 0.001
        assert config.momentum == 0.9
        assert config.batch_size == 32
        assert config.epochs == 10

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=rate)

    def test_zero_learning_rate_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0


class TestCrossEntropy:
    def test_perfect_predictions_near_zero(self):
        probs = np.eye(3, dtype=np.float32)
        loss, _ = cross_entropy(probs, [0, 1, 2])
        assert loss < 1e-6

    @pytest.mark.parametrize("m", range(2, 27))
    def test_uniform_equals_log_m(self, m):
        probs = np.full((4, m), 1.0 / m, dtype=np.float32)
        loss, _ = cross_entropy(probs, [0] * 4)
        assert abs(loss - math.log(m)) < 1e-6

    def test_scalar_oracle(self):
        probs = np.array([[0.2, 0.5, 0.3]], dtype=np.float32)
        loss, d_logits = cross_entropy(probs, [1])
        assert abs(loss - 0.6931472) < 1e-6
        assert np.allclose(d_logits, [[0.2, -0.5, 0.3]], atol=1e-7)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((8, 5)).astype(np.float32)
        from fsqnet.ops import softmax

        probs = softmax(logits)
        labels = rng.integers(0, 5, 8).tolist()
        loss, _ = cross_entropy(probs, labels)
        assert abs(loss - naive_cross_entropy(probs, labels)) < 1e-6

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 9))
    @settings(max_examples=30)
    def test_d_logits_rows_sum_to_zero(self, seed, n, m):
        rng = np.random.default_rng(seed)
        from fsqnet.ops import softmax

        probs = softmax(rng.standard_normal((n, m)).astype(np.float32))
        labels = rng.integers(0, m, n).tolist()
        _, d_logits = cross_entropy(probs, labels)
        assert np.abs(d_logits.sum(axis=1)).max() < 1e-6

    def test_label_out_of_range(self):
        probs = np.full((2, 3), 1 / 3, dtype=np.float32)
        with pytest.raises(DataError):
            cross_entropy(probs, [0, 3])
        with pytest.raises(DataError):
            cross_entropy(probs, [-1, 0])

    def test_label_count_must_match_rows(self):
        with pytest.raises(DataError, match="expected 2 labels"):
            cross_entropy(np.full((2, 3), 1 / 3, dtype=np.float32), [0, 1, 2])

    def test_clamp_prevents_infinite_loss(self):
        probs = np.array([[1.0, 0.0]], dtype=np.float32)
        loss, _ = cross_entropy(probs, [1])
        assert math.isfinite(loss)
        assert abs(loss - -math.log(1e-12)) < 1e-6


def _zero_velocity(model: Model) -> dict:
    return {name: np.zeros_like(p) for name, p in model.params.items()}


def _scalar_state(theta: float):
    """One scalar parameter and its zero velocity."""
    return {"w": np.array([theta], dtype=np.float32)}, {"w": np.zeros(1, dtype=np.float32)}


class TestSgdStep:
    def test_zero_learning_rate_is_null_step(self):
        params, velocity = _scalar_state(1.0)
        sgd_step(params, velocity, {"w": np.array([2.0], np.float32)},
                 TrainConfig(learning_rate=0.0, momentum=0.9))
        assert params["w"][0] == 1.0

    def test_plain_sgd_arithmetic(self):
        params, velocity = _scalar_state(1.0)
        sgd_step(params, velocity, {"w": np.array([2.0], np.float32)},
                 TrainConfig(learning_rate=0.1, momentum=0.0))
        assert abs(params["w"][0] - 0.8) < 1e-7

    def test_momentum_recursion(self):
        params, velocity = _scalar_state(0.0)
        config = TrainConfig(learning_rate=0.1, momentum=0.9)
        g = {"w": np.array([1.0], np.float32)}
        sgd_step(params, velocity, g, config)
        assert abs(params["w"][0] - -0.1) < 1e-7
        sgd_step(params, velocity, g, config)
        assert abs(params["w"][0] - -0.29) < 1e-7

    def test_missing_gradient(self):
        params, velocity = _scalar_state(0.0)
        with pytest.raises(StateError):
            sgd_step(params, velocity, {}, TrainConfig())

    def test_loss_decreases_along_gradient(self):
        # line-search property on the tiny config, several seeds: some small
        # enough step along the gradient must reduce the loss
        train_set, _ = _split_synthetic()
        from fsqnet.train import _assemble_batch

        batch, labels = _assemble_batch(train_set, range(8))
        for seed in range(10):
            model = build_model(tiny_config(num_classes=2), seed)
            probs, tape = model_forward(model, batch, training=True)
            loss_before, d_logits = cross_entropy(probs, labels)
            grads = {n: gradient(t) for n, t in model_backward(tape, d_logits).items()}
            initial = clone_params(model.params)
            decreased = False
            for lr in (0.01, 0.003, 0.001, 0.0003):
                model.params = clone_params(initial)
                sgd_step(model.params, _zero_velocity(model), grads,
                         TrainConfig(learning_rate=lr, momentum=0.0))
                loss_after, _ = cross_entropy(model_forward(model, batch), labels)
                if loss_after < loss_before:
                    decreased = True
                    break
            assert decreased, f"no descent for seed {seed}"


class TestTrainEpoch:
    def test_zero_lr_freezes_parameters(self):
        train_set, val_set = _split_synthetic()
        model = build_model(tiny_config(num_classes=2), 1)
        before = clone_params(model.params)
        train_epoch(model, _zero_velocity(model), train_set, val_set,
                    TrainConfig(learning_rate=0.0, batch_size=4), 1)
        for name in before:
            assert np.array_equal(before[name], model.params[name])

    def test_metrics_fields(self):
        train_set, val_set = _split_synthetic()
        model = build_model(tiny_config(num_classes=2), 1)
        metrics = train_epoch(model, _zero_velocity(model), train_set, val_set,
                              TrainConfig(learning_rate=0.05, batch_size=4), 1)
        assert metrics.epoch == 1
        assert 0.0 <= metrics.train_acc <= 1.0
        assert 0.0 <= metrics.val_acc <= 1.0
        assert metrics.train_loss > 0.0

    def test_deterministic_history(self):
        train_set, val_set = _split_synthetic()
        config = TrainConfig(learning_rate=0.05, batch_size=4, epochs=3, seed=9,
                             deterministic=True)
        runs = []
        for _ in range(2):
            model = build_model(tiny_config(num_classes=2), 9)
            result = fit(model, train_set, val_set, config)
            runs.append([m.to_json_line() for m in result.history.entries])
        assert runs[0] == runs[1]

    def test_empty_dataset_rejected(self):
        train_set, val_set = _split_synthetic()
        empty = Dataset(train_set.samples[:0], [], train_set.label_names, (0.5, 0.5, 0.5))
        model = build_model(tiny_config(num_classes=2), 1)
        with pytest.raises(DataError):
            train_epoch(model, _zero_velocity(model), empty, val_set, TrainConfig(), 1)

    def test_wrong_image_size_rejected(self):
        train_set, val_set = _split_synthetic()
        model = build_model(tiny_config(num_classes=2, input_size=64), 1)
        with pytest.raises(DataError, match="train images are 32x32, expected 64x64"):
            train_epoch(model, _zero_velocity(model), train_set, val_set, TrainConfig(), 1)
        model = build_model(tiny_config(num_classes=2), 1)
        wide = Dataset(np.zeros((4, 32, 40, 3), np.uint8), [0, 1, 0, 1], val_set.label_names,
                       val_set.channel_means)
        with pytest.raises(DataError, match="val images are 40x32"):
            train_epoch(model, _zero_velocity(model), train_set, wide, TrainConfig(), 1)

    def test_failed_epoch_leaves_no_thread(self):
        dataset = make_dataset(2, 12, 32, 3)
        model = build_model(tiny_config(num_classes=2), 1)
        model.params["dense2/bias"][:] = np.inf
        threads = threading.active_count()
        with pytest.raises(NumericError):
            train_epoch(model, _zero_velocity(model), dataset, dataset,
                        TrainConfig(batch_size=2), 1)
        assert threading.active_count() == threads


def _pixel_dataset(samples: np.ndarray) -> Dataset:
    labels = np.arange(len(samples)) % 2
    return Dataset(samples, labels, ["a", "b"], compute_channel_means(samples))


def _per_image_chain(dataset: Dataset, idx, draws, flip) -> np.ndarray:
    """The batch built one image at a time: augment, normalize, stack."""
    means = dataset.channel_means
    if draws is None:
        return np.stack([normalize(ImageBuffer(dataset.samples[i]), means) for i in idx])
    return np.stack([normalize(augment(dataset.samples[[i]], flip, row[None])[0], means)
                     for i, row in zip(idx, draws)])


class TestAssembleBatch:
    @given(st.data())
    @settings(max_examples=60)
    def test_equals_the_per_image_chain(self, data):
        width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        count = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dataset = _pixel_dataset(rng.integers(0, 256, (count, height, width, 3), np.uint8))
        idx = data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=8))
        draws = rng.random((len(idx), 6))
        flip = data.draw(st.booleans())
        # a small budget warps the batch in several groups, as at full size
        warp_pixels = data.draw(st.sampled_from([1, 100, fsqnet.data.WARP_PIXELS]))
        for batch_draws in (draws, None):
            with mock.patch.object(fsqnet.data, "WARP_PIXELS", warp_pixels):
                batch, labels = _assemble_batch(dataset, idx, batch_draws, flip)
            chain = _per_image_chain(dataset, idx, batch_draws, flip)
            assert batch.shape == (len(idx), 3, height, width) and batch.dtype == np.float32
            assert batch.tobytes() == chain.tobytes()
            assert labels.tolist() == dataset.labels[idx].tolist()

    @pytest.mark.parametrize("flip", [False, True])
    @pytest.mark.parametrize("idx", [[2], [1, 1, 1], [0, 3, 0, 2]])
    def test_one_image_and_repeated_indices(self, idx, flip):
        samples = np.random.default_rng(21).integers(0, 256, (4, 5, 9, 3), np.uint8)
        dataset = _pixel_dataset(samples)
        draws = np.random.default_rng(7).random((len(idx), 6))
        batch, _ = _assemble_batch(dataset, idx, draws, flip)
        assert batch.tobytes() == _per_image_chain(dataset, idx, draws, flip).tobytes()

    def test_a_slice_selects_like_an_index_list(self):
        dataset = _pixel_dataset(np.random.default_rng(22).integers(0, 256, (5, 6, 6, 3), np.uint8))
        sliced, sliced_labels = _assemble_batch(dataset, slice(1, 4))
        listed, listed_labels = _assemble_batch(dataset, [1, 2, 3])
        assert sliced.tobytes() == listed.tobytes()
        assert sliced_labels.tolist() == listed_labels.tolist()


class TestAugmentationDraws:
    """An epoch's augmentation comes from one table of draws, a row per image."""

    @staticmethod
    def _rows(dataset: Dataset, batch_size: int, epoch_index: int) -> dict[int, bytes]:
        """The bytes of the row of draws _batches yields for each image index."""
        config = TrainConfig(batch_size=batch_size, seed=5, augment=True)
        rows = {}
        for idx, draws in _batches(dataset, config, epoch_index):
            assert draws.shape == (len(idx), 6)
            rows.update((int(i), row.tobytes()) for i, row in zip(idx, draws))
        return rows

    def test_an_images_draws_do_not_depend_on_the_batch_size(self):
        dataset = make_dataset(2, 20, 8, 1)
        first = self._rows(dataset, 1, 1)
        assert sorted(first) == list(range(40))
        assert self._rows(dataset, 3, 1) == first == self._rows(dataset, 32, 1)
        second = self._rows(dataset, 3, 2)
        assert all(second[i] != first[i] for i in first)

    @staticmethod
    def _generators_per_epoch(monkeypatch, per_class: int) -> tuple[int, int]:
        """Seed sequences and generators built by one augmented tiny@32 epoch on
        2 * per_class training images; dropout, which seeds once per batch, is off."""
        train_set = make_dataset(2, per_class, 32, 3)
        val_set = make_dataset(2, 2, 32, 4)
        model = build_model(tiny_config(num_classes=2), 0)
        config = TrainConfig(batch_size=32, seed=9, augment=True, flip=True)
        counts = {"SeedSequence": 0, "Generator": 0}
        for name in counts:
            def counting(*args, _make=getattr(np.random, name), _name=name, **kwargs):
                counts[_name] += 1
                return _make(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counting)
        try:
            train_epoch(model, _zero_velocity(model), train_set, val_set, config, 1)
        finally:
            monkeypatch.undo()
        return counts["SeedSequence"], counts["Generator"]

    def test_generators_built_do_not_grow_with_the_images(self, monkeypatch):
        few = self._generators_per_epoch(monkeypatch, 8)
        many = self._generators_per_epoch(monkeypatch, 32)
        assert few[1] >= 1 and many == few


def _split_set(count=5, seed=3, size=SPLIT_SIZE) -> Dataset:
    """`count` random size x size images in three classes; from SPLIT_SIZE on,
    training and evaluation run them one at a time, split by image."""
    samples = np.random.default_rng(seed).integers(0, 256, (count, size, size, 3), np.uint8)
    return Dataset(samples, np.arange(count) % 3, ["a", "b", "c"], compute_channel_means(samples))


def _rigged_class0_model() -> Model:
    """Tiny 2-class model whose dense2 layer always votes for class 0."""
    model = build_model(tiny_config(num_classes=2), 0)
    model.params["dense2/weight"][:] = 0.0
    model.params["dense2/bias"][:] = np.array([5.0, 0.0], np.float32)
    return model


class TestEvaluate:
    def test_degenerate_single_class(self):
        dataset = make_dataset(2, 6, 32, 1)
        is0 = dataset.labels == 0
        class0 = Dataset(dataset.samples[is0], dataset.labels[is0],
                         dataset.label_names, dataset.channel_means)
        accuracy, confusion = evaluate(_rigged_class0_model(), class0)
        assert accuracy == 1.0
        assert confusion.tolist() == [[6, 0], [0, 0]]

    def test_hand_tabulated_confusion(self):
        dataset = make_dataset(2, 2, 32, 2)  # two samples per class
        accuracy, confusion = evaluate(_rigged_class0_model(), dataset)
        assert confusion.tolist() == [[2, 0], [2, 0]]
        assert accuracy == 0.5

    def test_totals_equal_dataset_size(self):
        dataset = make_dataset(3, 5, 32, 3)
        model = build_model(tiny_config(num_classes=3), 5)
        _, confusion = evaluate(model, dataset)
        assert confusion.sum() == len(dataset.samples)

    def test_accuracy_matches_naive_recount(self):
        dataset = make_dataset(3, 4, 32, 4)
        model = build_model(tiny_config(num_classes=3), 6)
        accuracy, _ = evaluate(model, dataset)
        hits = 0
        from fsqnet.data import normalize

        for pixels, label in zip(dataset.samples, dataset.labels):
            tensor = normalize(ImageBuffer(pixels), dataset.channel_means)[None, ...]
            predicted = int(model_forward(model, tensor).argmax())
            hits += predicted == label
        assert accuracy == hits / len(dataset.samples)

    @staticmethod
    def _record_forward_threads(monkeypatch) -> list[threading.Thread]:
        """The thread of each evaluation forward from now on."""
        forward, threads = fsqnet.train.model_forward, []

        def recording(*args, **kwargs):
            threads.append(threading.current_thread())
            return forward(*args, **kwargs)

        monkeypatch.setattr(fsqnet.train, "model_forward", recording)
        return threads

    @pytest.mark.parametrize("workers", [1, 3, 5])
    def test_split_pass_equals_one_batched_forward(self, monkeypatch, workers):
        dataset = _split_set()
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)
        probs = model_forward(model, normalize(dataset.samples, dataset.channel_means))
        expected = np.zeros((3, 3), np.int64)
        np.add.at(expected, (dataset.labels, probs.argmax(axis=1)), 1)
        assert np.count_nonzero(expected.sum(axis=0)) > 1  # more than one class predicted
        _force_split(monkeypatch, workers)
        threads = self._record_forward_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the workers interleave as often as they can
        try:
            accuracy, confusion = evaluate(model, dataset)
        finally:
            sys.setswitchinterval(interval)
        assert confusion.tolist() == expected.tolist()
        assert accuracy == np.trace(expected) / len(dataset)
        assert len(threads) == len(dataset)  # one image per forward
        assert len(set(threads)) == workers

    @pytest.mark.parametrize("blas_threads", [2, None], ids=["two-blas-threads", "no-openblas"])
    def test_without_one_blas_thread_the_batch_stays_whole(self, monkeypatch, blas_threads):
        # threaded products ran slower one image at a time
        dataset = _split_set()
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)
        _force_split(monkeypatch, 3)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: blas_threads)
        threads = self._record_forward_threads(monkeypatch)
        _, confusion = evaluate(model, dataset)
        assert threads == [threading.current_thread()]
        assert confusion.sum() == len(dataset)

    @pytest.mark.parametrize("config", [tiny_config(num_classes=3, input_size=SPLIT_SIZE),
                                        ModelConfig(input_size=SPLIT_SIZE)], ids=["tiny", "v11"])
    def test_each_image_gives_its_row_of_the_batched_forward(self, config):
        dataset = _split_set()
        model = build_model(config, 8)
        batch = normalize(dataset.samples, dataset.channel_means)
        rows = model_forward(model, batch)
        for i in range(len(dataset)):
            assert model_forward(model, batch[i : i + 1]).tobytes() == rows[i : i + 1].tobytes()

    def test_peak_memory_does_not_grow_with_the_images(self, monkeypatch):
        # with one worker the peak does not depend on how the workers' peaks overlap
        dataset = _split_set(16)
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)

        def peak(count, workers):
            _force_split(monkeypatch, workers)
            images = Dataset(dataset.samples[:count], dataset.labels[:count],
                             dataset.label_names, dataset.channel_means)
            tracemalloc.start()
            try:
                evaluate(model, images)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4, 1)  # first-call allocations
        one = peak(4, 1)
        assert peak(16, 1) - one < 2**20
        # three workers hold three images' activations, not a batch's
        assert peak(16, 3) < 3 * one + 2**20

    def test_non_finite_split_pass_raises_after_every_join(self, monkeypatch):
        dataset = _split_set()
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)
        model.params["dense2/weight"][0, 0] = np.nan
        _force_split(monkeypatch, 3)
        forwards = self._record_forward_threads(monkeypatch)
        threads = threading.active_count()
        with pytest.raises(NumericError):
            evaluate(model, dataset)
        assert threading.active_count() == threads
        assert len(set(forwards)) == 3  # each worker stopped at its first image


def _record_training_forwards(monkeypatch) -> list[tuple[threading.Thread, int]]:
    """The thread and image count of each training forward from now on."""
    forward, calls = fsqnet.train.model_forward, []

    def recording(model, batch, training=False, dropout_seed=None):
        if training:
            calls.append((threading.current_thread(), len(batch)))
        return forward(model, batch, training, dropout_seed)

    monkeypatch.setattr(fsqnet.train, "model_forward", recording)
    return calls


def _epoch_outcome(model, dataset, config) -> list[Exception]:
    """What one epoch raised, run on a thread of its own so that a hang fails the test."""
    threads = threading.active_count()
    raised = []

    def run():
        try:
            train_epoch(model, _zero_velocity(model), dataset, dataset, config, 1)
        except Exception as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "the epoch hung"
    assert threading.active_count() == threads  # every worker joined
    return raised


class TestImageStep:
    """Training at SPLIT_SIZE and up, with OpenBLAS on one thread, runs each image
    alone through assembly, forward and backward, split across the CPUs."""

    CONFIGS = {"tiny": tiny_config(num_classes=3, input_size=SPLIT_SIZE),
               "v11": ModelConfig(num_classes=3, input_size=182)}

    @staticmethod
    def _epoch(config: ModelConfig, train_config: TrainConfig) -> tuple[bytes, str]:
        """The parameter bytes and metrics line after one epoch on 5 images."""
        model = build_model(config, 4)
        train_set = _split_set(5, seed=5, size=config.input_size)
        val_set = _split_set(2, seed=6, size=config.input_size)
        metrics = train_epoch(model, _zero_velocity(model), train_set, val_set, train_config, 1)
        return b"".join(p.tobytes() for p in model.params.values()), metrics.to_json_line()

    @pytest.mark.parametrize("augment", [False, True], ids=["plain", "augment-flip-dropout"])
    @pytest.mark.parametrize("arch", ["tiny", "v11"])
    def test_epoch_gives_the_bytes_of_the_batched_epoch(self, monkeypatch, arch, augment):
        config = self.CONFIGS[arch]
        # batches of 3 and 2, so momentum carries over and the last batch is partial
        train_config = TrainConfig(learning_rate=0.05, batch_size=3, seed=11, dropout_on=augment,
                                   augment=augment, flip=augment, deterministic=True)
        # the reference runs each batch whole, as with OpenBLAS on two threads
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: 2)
        calls = _record_training_forwards(monkeypatch)
        expected = self._epoch(config, train_config)
        monkeypatch.undo()
        assert calls == [(threading.current_thread(), 3), (threading.current_thread(), 2)]
        for workers in (1, 2, 3):
            _force_split(monkeypatch, workers)
            calls = _record_training_forwards(monkeypatch)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # the workers interleave as often as they can
            try:
                assert self._epoch(config, train_config) == expected
            finally:
                sys.setswitchinterval(interval)
                monkeypatch.undo()
            assert [n for _, n in calls] == [1] * 5
            # each step runs on the caller and on min(images, workers) - 1 threads of its own
            assert len({thread for thread, _ in calls}) == {1: 1, 2: 3, 3: 4}[workers]

    @pytest.mark.parametrize("blas_threads", [2, None], ids=["two-blas-threads", "no-openblas"])
    def test_without_one_blas_thread_the_batch_stays_whole(self, monkeypatch, blas_threads):
        _force_split(monkeypatch, 3)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: blas_threads)
        calls = _record_training_forwards(monkeypatch)
        self._epoch(self.CONFIGS["tiny"], TrainConfig(batch_size=5))
        assert calls == [(threading.current_thread(), 5)]

    def test_peak_memory_does_not_grow_with_the_images(self, monkeypatch):
        # one worker, as for evaluation: the peak does not depend on how workers overlap
        dataset = _split_set(8)
        val_set = _split_set(2, seed=6)
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)
        _force_split(monkeypatch, 1)

        def peak(count):
            images = Dataset(dataset.samples[:count], dataset.labels[:count],
                             dataset.label_names, dataset.channel_means)
            velocity = _zero_velocity(model)
            tracemalloc.start()
            try:
                train_epoch(model, velocity, images, val_set, TrainConfig(batch_size=count), 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-call allocations
        assert peak(8) - peak(2) < 2**20

    def test_non_finite_step_raises_after_every_join(self, monkeypatch):
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)
        model.params["dense2/weight"][0, 0] = np.nan
        _force_split(monkeypatch, 3)
        raised = _epoch_outcome(model, _split_set(), TrainConfig(batch_size=5))
        assert len(raised) == 1 and isinstance(raised[0], NumericError)

    @staticmethod
    def _slow_first_image(monkeypatch, fail: bool) -> list[int]:
        """Hold the batch's first image until the other workers wait for their turn,
        then fail it or let it go on; returns the image of each add_terms call."""
        forward, add = fsqnet.train.model_forward, fsqnet.train.add_terms
        current, added = threading.local(), []

        def slow(model, batch, training=False, dropout_seed=None):
            if training:
                current.image = dropout_seed[1]  # (the batch's seed, the image's row)
                if current.image == 0:
                    time.sleep(0.3)
                    if fail:
                        raise NumericError("image 0")
            return forward(model, batch, training, dropout_seed)

        def recording(acc, terms):
            added.append(current.image)
            add(acc, terms)

        monkeypatch.setattr(fsqnet.train, "model_forward", slow)
        monkeypatch.setattr(fsqnet.train, "add_terms", recording)
        return added

    def test_images_add_their_terms_in_image_order(self, monkeypatch):
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)
        _force_split(monkeypatch, 3)
        added = self._slow_first_image(monkeypatch, fail=False)
        assert _epoch_outcome(model, _split_set(), TrainConfig(batch_size=5, dropout_on=True)) == []
        assert added == sorted(added) and set(added) == set(range(5))

    def test_a_failed_image_releases_the_images_waiting_for_their_turn(self, monkeypatch):
        model = build_model(tiny_config(num_classes=3, input_size=SPLIT_SIZE), 4)
        _force_split(monkeypatch, 3)
        added = self._slow_first_image(monkeypatch, fail=True)
        raised = _epoch_outcome(model, _split_set(), TrainConfig(batch_size=5, dropout_on=True))
        assert [str(exc) for exc in raised] == ["image 0"] and added == []


def _fit_outcome(model, train_set, val_set, config, history=None) -> list[Exception]:
    """What fit raised, run on a thread of its own so that a hang fails the test."""
    raised = []

    def run():
        try:
            fit(model, train_set, val_set, config, history)
        except Exception as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "fit hung"
    return raised


# fit forks its batch helper on Linux only (_assembles_ahead)
forks_a_helper = pytest.mark.skipif(sys.platform != "linux",
                                    reason="fit's batch helper runs on Linux only")


def _two_cpus_one_blas_thread(monkeypatch) -> None:
    """Give _assembles_ahead two CPUs and OpenBLAS on one thread."""
    monkeypatch.setattr(fsqnet.ops, "_cpus", lambda: 2)
    monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: 1)


class TestAssemblyHelper:
    """fit assembles the tiny network's augmented batches ahead in one forked helper process."""

    AUGMENTED = TrainConfig(learning_rate=0.05, batch_size=8, epochs=2, seed=13, augment=True,
                            flip=True, dropout_on=True, deterministic=True)

    @pytest.mark.parametrize("arch,size,batch,cpus,augment,blas_threads,platform,expected", [
        ("tiny", 32, 32, 2, True, 1, "linux", True),
        ("tiny", 32, 36, 2, True, 1, "linux", True),  # stem output 518,400 elements
        ("tiny", 32, 37, 2, True, 1, "linux", False),  # 532,800: the stem splits
        ("tiny", 176, 1, 2, True, 1, "linux", True),
        ("tiny", 182, 1, 2, True, 1, "linux", False),  # _one_image_per_cpu
        ("v11", 32, 8, 2, True, 1, "linux", False),
        ("tiny", 32, 32, 2, False, 1, "linux", False),
        ("tiny", 32, 32, 1, True, 1, "linux", False),
        ("tiny", 32, 32, 2, True, 2, "linux", False),
        ("tiny", 32, 32, 2, True, None, "linux", False),
        ("tiny", 32, 32, 2, True, 1, "darwin", False),
        ("tiny", 32, 32, 2, True, 1, "win32", False),
        # the rule follows the network's fires, not its variant label
        ("tiny-labelled-mine", 32, 32, 2, True, 1, "linux", True),
        ("v11-labelled-tiny", 32, 32, 2, True, 1, "linux", False),
    ], ids=["tiny", "largest-batch", "stem-splits", "one-image", "one-image-per-cpu", "v11",
            "no-augment", "one-cpu", "threaded-blas", "no-openblas", "macos", "windows",
            "tiny-labelled-mine", "v11-labelled-tiny"])
    def test_rule(self, monkeypatch, arch, size, batch, cpus, augment, blas_threads, platform,
                  expected):
        monkeypatch.setattr(fsqnet.ops, "_cpus", lambda: cpus)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: blas_threads)
        monkeypatch.setattr(sys, "platform", platform)
        model_config = {
            "tiny": tiny_config(input_size=size),
            "v11": ModelConfig(input_size=size),
            "tiny-labelled-mine": replace(tiny_config(input_size=size), variant="mine"),
            "v11-labelled-tiny": ModelConfig(variant="tiny", input_size=size),
        }[arch]
        config = TrainConfig(batch_size=batch, augment=augment)
        assert fsqnet.train._assembles_ahead(model_config, config) is expected

    def test_the_pipe_holds_two_of_every_batch_the_rule_admits(self, monkeypatch):
        _two_cpus_one_blas_thread(monkeypatch)
        monkeypatch.setattr(sys, "platform", "linux")
        largest = 0
        for size in range(32, 182):
            model_config = tiny_config(input_size=size)
            stem = layer_plan(model_config)[0].conv
            per_image = stem.out_channels * math.prod(stem.out_hw(size, size))
            last = fsqnet.ops.SPLIT_ELEMENTS // per_image + 1  # the stem output reaches it
            for batch in range(1, last + 1):
                config = TrainConfig(batch_size=batch, augment=True)
                if fsqnet.train._assembles_ahead(model_config, config):
                    assert batch < last
                    batch_bytes = batch * 3 * size * size * np.dtype(np.float32).itemsize
                    assert 2 * batch_bytes <= fsqnet.train.PIPE_BYTES, (size, batch)
                    largest = max(largest, batch_bytes)
        assert largest == 36 * 3 * 32 * 32 * 4  # 442,368 bytes

    @staticmethod
    def _fit(monkeypatch, cpus, train_set, val_set, config, history=None):
        """The bytes of fit's final params and best params and its metrics lines
        with `cpus` CPUs and OpenBLAS on one thread, and the size of each
        training batch assembled here."""
        monkeypatch.setattr(fsqnet.ops, "_cpus", lambda: cpus)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: 1)
        assemble, assembled = fsqnet.train._assemble_batch, []

        def recording(dataset, idx, draws=None, flip=False):
            if draws is not None:
                assembled.append(len(idx))
            return assemble(dataset, idx, draws, flip)

        monkeypatch.setattr(fsqnet.train, "_assemble_batch", recording)
        model = build_model(tiny_config(num_classes=3), 6)
        try:
            result = fit(model, train_set, val_set, config, history)
        finally:
            monkeypatch.undo()
        return (b"".join(p.tobytes() for p in model.params.values()),
                b"".join(p.tobytes() for p in result.best_params.values()),
                [m.to_json_line() for m in result.history.entries]), assembled

    @staticmethod
    def _sets():
        samples = np.random.default_rng(31).integers(0, 256, (41, 32, 32, 3), np.uint8)
        labels, means = np.arange(41) % 3, compute_channel_means(samples[:37])
        return (Dataset(samples[:37], labels[:37], ["a", "b", "c"], means),
                Dataset(samples[37:], labels[37:], ["a", "b", "c"], means))

    @forks_a_helper
    def test_batches_have_the_bytes_of_in_process_assembly(self, monkeypatch):
        train_set, val_set = self._sets()  # 37 images: the last batch of 8 is partial
        expected, here = self._fit(monkeypatch, 1, train_set, val_set, self.AUGMENTED)
        assert here == [8, 8, 8, 8, 5] * 2
        helped, here = self._fit(monkeypatch, 2, train_set, val_set, self.AUGMENTED)
        assert here == [] and helped == expected

    @forks_a_helper
    def test_a_refused_pipe_size_keeps_the_default_and_the_bytes(self, monkeypatch):
        import fcntl

        train_set, val_set = self._sets()
        expected, _ = self._fit(monkeypatch, 1, train_set, val_set, self.AUGMENTED)
        original, refused = fcntl.fcntl, []

        def refusing(fd, cmd, arg=0):
            if cmd == fcntl.F_SETPIPE_SZ:  # as Linux does above pipe-max-size
                refused.append(arg)
                raise PermissionError("Operation not permitted")
            return original(fd, cmd, arg)

        monkeypatch.setattr(fcntl, "fcntl", refusing)
        helped, here = self._fit(monkeypatch, 2, train_set, val_set, self.AUGMENTED)
        assert refused == [fsqnet.train.PIPE_BYTES]
        assert here == [] and helped == expected

    @forks_a_helper
    def test_the_parent_draws_no_augmentation_table(self, monkeypatch):
        _two_cpus_one_blas_thread(monkeypatch)
        tables = []
        monkeypatch.setattr(fsqnet.train, "rng_from_seed",
                            lambda seed: tables.append(seed) or rng_from_seed(seed))
        train_set, val_set = self._sets()
        fit(build_model(tiny_config(num_classes=3), 6), train_set, val_set, self.AUGMENTED)
        assert tables == []

    @forks_a_helper
    def test_a_resumed_fit_gets_the_batches_of_its_own_epochs(self, monkeypatch):
        train_set, val_set = self._sets()
        first = fit(build_model(tiny_config(num_classes=3), 6), train_set, val_set,
                    self.AUGMENTED)
        assert first.history.last_epoch() == 2
        expected, _ = self._fit(monkeypatch, 1, train_set, val_set, self.AUGMENTED,
                                History(list(first.history.entries)))
        helped, here = self._fit(monkeypatch, 2, train_set, val_set, self.AUGMENTED,
                                 History(list(first.history.entries)))
        assert here == [] and helped == expected
        assert [json.loads(line)["epoch"] for line in helped[2]] == [1, 2, 3, 4]

    @staticmethod
    def _left_running(outcome) -> list[Exception]:
        """The exceptions `outcome()` gives, checked to leave no process or thread behind."""
        threads = threading.active_count()
        raised = outcome()
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads
        return raised

    def test_nothing_is_left_running_after_fit_returns(self, monkeypatch):
        _two_cpus_one_blas_thread(monkeypatch)
        train_set, val_set = self._sets()
        model = build_model(tiny_config(num_classes=3), 6)
        assert self._left_running(
            lambda: _fit_outcome(model, train_set, val_set, self.AUGMENTED)) == []

    def test_nothing_is_left_running_after_fit_raises(self, monkeypatch):
        _two_cpus_one_blas_thread(monkeypatch)
        train_set, val_set = self._sets()
        model = build_model(tiny_config(num_classes=3), 6)
        model.params["dense2/bias"][:] = np.inf
        raised = self._left_running(
            lambda: _fit_outcome(model, train_set, val_set, self.AUGMENTED))
        assert len(raised) == 1 and isinstance(raised[0], NumericError)

    @forks_a_helper
    def test_a_failed_helper_raises_in_the_caller(self, monkeypatch):
        _two_cpus_one_blas_thread(monkeypatch)

        def failing(dataset, idx, draws=None, flip=False):
            raise RuntimeError(f"SIGINT handler {signal.getsignal(signal.SIGINT)!r}")

        monkeypatch.setattr(fsqnet.train, "_assemble_batch", failing)
        train_set, val_set = self._sets()
        model = build_model(tiny_config(num_classes=3), 6)
        raised = self._left_running(
            lambda: _fit_outcome(model, train_set, val_set, self.AUGMENTED))
        assert len(raised) == 1 and isinstance(raised[0], StateError)
        # the helper ran with Ctrl-C ignored, which leaves stopping it to the parent
        assert str(raised[0]) == ("batch helper process failed: "
                                  f"RuntimeError: SIGINT handler {signal.SIG_IGN!r}")

    @forks_a_helper
    def test_a_helper_that_dies_raises_in_the_caller(self, monkeypatch):
        _two_cpus_one_blas_thread(monkeypatch)
        monkeypatch.setattr(fsqnet.train, "_assemble_batch", lambda *args: os._exit(3))
        train_set, val_set = self._sets()
        model = build_model(tiny_config(num_classes=3), 6)
        raised = self._left_running(
            lambda: _fit_outcome(model, train_set, val_set, self.AUGMENTED))
        assert [str(exc) for exc in raised] == ["batch helper process exited with code 3"]

    @forks_a_helper
    def test_a_helper_whose_parent_is_killed_exits(self):
        # the parent prints its helper's pid from a step that never ends
        script = (
            "import multiprocessing, time\n"
            "import fsqnet.ops, fsqnet.train as train\n"
            "from fsqnet.model import build_model, tiny_config\n"
            "from fsqnet.synthetic import make_dataset\n"
            "fsqnet.ops._cpus = lambda: 2\n"
            "fsqnet.ops._blas_threads = lambda: 1\n"
            "def stuck(*args):\n"
            "    print(multiprocessing.active_children()[0].pid, flush=True)\n"
            "    time.sleep(60)\n"
            "train._step = stuck\n"
            "data = make_dataset(2, 40, 32, 1)\n"
            "train.fit(build_model(tiny_config(num_classes=2), 0), data, data,\n"
            "          train.TrainConfig(batch_size=4, augment=True))\n")
        src = str(Path(fsqnet.train.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        parent = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, env=env)
        helper = int(parent.stdout.readline())
        parent.kill()
        parent.wait()
        parent.stdout.close()
        state = Path(f"/proc/{helper}/stat")
        deadline = time.monotonic() + 10
        # the helper's sends fail once the parent's end of the pipe is gone
        while state.exists() and state.read_text().rsplit(")", 1)[1].split()[0] != "Z":
            if time.monotonic() > deadline:
                os.kill(helper, signal.SIGKILL)
                pytest.fail("the helper outlived its killed parent")
            time.sleep(0.05)


class TestPearson:
    def test_self_correlation(self):
        assert pearson_correlation([1.0, 2.0, 5.0], [1.0, 2.0, 5.0]) == pytest.approx(1.0)

    def test_anti_correlation(self):
        a = [1.0, 2.0, 5.0]
        assert pearson_correlation(a, [-v for v in a]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 7]) == pytest.approx(0.9934, abs=1e-4)

    @given(st.lists(st.floats(-100, 100), min_size=3, max_size=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_matches_stdlib(self, a, seed):
        noise = np.random.default_rng(seed).standard_normal(len(a))
        b = (np.asarray(a) * 0.5 + noise).tolist()
        if np.std(a) < 1e-6 or np.std(b) < 1e-6:
            return
        ours = pearson_correlation(a, b)
        reference = statistics.correlation(a, b)
        assert ours == pytest.approx(reference, abs=1e-9)

    def test_zero_variance_rejected(self):
        with pytest.raises(NumericError):
            pearson_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_checks(self):
        with pytest.raises(DataError):
            pearson_correlation([1.0], [2.0])
        with pytest.raises(DataError):
            pearson_correlation([1.0, 2.0], [1.0, 2.0, 3.0])


class TestHistory:
    def test_append_enforces_increasing_epochs(self):
        history = History()
        history.append(EpochMetrics(1, 0.5, 0.5, 0.5, 0.0))
        history.append(EpochMetrics(2, 0.4, 0.6, 0.6, 0.0))
        with pytest.raises(StateError):
            history.append(EpochMetrics(2, 0.3, 0.7, 0.7, 0.0))

    def test_must_start_at_one(self):
        with pytest.raises(StateError):
            History().append(EpochMetrics(3, 0.5, 0.5, 0.5, 0.0))

    def test_json_round_trip(self):
        history = History()
        history.append(EpochMetrics(1, 0.51, 0.62, 0.58, 1.25))
        history.append(EpochMetrics(2, 0.42, 0.71, 0.66, 1.31))
        restored = History.from_jsonable(history.to_jsonable())
        assert restored == history

    def test_metrics_line_format(self):
        line = EpochMetrics(3, 0.25, 0.875, 0.8, 2.5).to_json_line()
        record = json.loads(line)
        assert list(record) == ["epoch", "train_loss", "train_acc", "val_acc", "seconds"]
        assert list(record) == [f.name for f in fields(EpochMetrics)]
        assert record["epoch"] == 3 and record["train_acc"] == 0.875

    def test_accuracy_range_validated(self):
        with pytest.raises(ConfigError):
            EpochMetrics(1, 0.5, 1.5, 0.5, 0.0)

    @pytest.mark.parametrize("values", [
        (1.0, 0.5, 0.5, 0.5, 0.0), (True, 0.5, 0.5, 0.5, 0.0), (1, "0.5", 0.5, 0.5, 0.0),
        (1, 0.5, True, 0.5, 0.0), (1, 0.5, 0.5, 0.5, None),
    ])
    def test_field_types_validated(self, values):
        with pytest.raises(ConfigError, match="integer"):
            EpochMetrics(*values)

    def test_from_record_needs_every_key_and_no_other(self):
        record = asdict(EpochMetrics(1, 0.5, 0.5, 0.5, 0.0))
        assert EpochMetrics.from_record(record) == EpochMetrics(1, 0.5, 0.5, 0.5, 0.0)
        with pytest.raises(TypeError):
            EpochMetrics.from_record({k: v for k, v in record.items() if k != "seconds"})
        with pytest.raises(TypeError):
            EpochMetrics.from_record(record | {"lr": 0.1})

    def test_best_prefers_earliest_tie(self):
        history = History()
        for epoch, val_acc in enumerate([0.5, 0.75, 0.25, 0.75], start=1):
            history.append(EpochMetrics(epoch, 0.5, 0.5, val_acc, 0.0))
        assert history.best() is history.entries[1]


class TestFit:
    def test_training_accuracy_trends_upward(self):
        train_set, val_set = _split_synthetic(per_class=20)
        model = build_model(tiny_config(num_classes=2), 42)
        config = TrainConfig(learning_rate=0.05, batch_size=8, epochs=6, seed=42)
        result = fit(model, train_set, val_set, config)
        entries = result.history.entries
        assert entries[-1].train_acc > entries[0].train_acc

    def test_best_checkpoint_tracking(self):
        train_set, val_set = _split_synthetic(per_class=10)
        model = build_model(tiny_config(num_classes=2), 8)
        config = TrainConfig(learning_rate=0.05, batch_size=4, epochs=4, seed=8)
        result = fit(model, train_set, val_set, config)
        best = result.history.best()
        assert best.val_acc == max(m.val_acc for m in result.history.entries)
        assert result.history.entries[best.epoch - 1] is best

    def test_resume_continues_epoch_numbering(self):
        train_set, val_set = _split_synthetic(per_class=10)
        model = build_model(tiny_config(num_classes=2), 8)
        config = TrainConfig(learning_rate=0.05, batch_size=4, epochs=2, seed=8)
        first = fit(model, train_set, val_set, config)
        second = fit(model, train_set, val_set, config, history=first.history)
        assert [m.epoch for m in second.history.entries] == [1, 2, 3, 4]

    def test_second_fit_restarts_momentum(self):
        train_set, val_set = _split_synthetic(per_class=10)
        model = build_model(tiny_config(num_classes=2), 8)
        config = TrainConfig(learning_rate=0.05, batch_size=4, epochs=2, seed=8,
                             deterministic=True)
        first = fit(model, train_set, val_set, config)
        params = clone_params(model.params)
        # fit appends to the history it is given, so each side gets its own copy
        fresh = fit(Model(model.config, params), train_set, val_set, config,
                    history=History(list(first.history.entries)))
        second = fit(model, train_set, val_set, config,
                     history=History(list(first.history.entries)))
        assert second.history == fresh.history
        for name, param in params.items():
            assert np.array_equal(model.params[name], param)
            assert np.array_equal(second.best_params[name], fresh.best_params[name])

    def test_resume_keeps_incoming_best(self):
        train_set, val_set = _split_synthetic(per_class=10)
        model = build_model(tiny_config(num_classes=2), 8)
        start = clone_params(model.params)
        history = History()
        history.append(EpochMetrics(1, 0.5, 1.0, 1.0, 0.0))
        config = TrainConfig(learning_rate=0.05, batch_size=4, epochs=1, seed=8)
        result = fit(model, train_set, val_set, config, history=history)
        best = result.history.best()
        assert best.epoch == 1 and best.val_acc == 1.0
        for name, param in start.items():
            assert np.array_equal(result.best_params[name], param)

    def test_emit_called_per_epoch(self):
        train_set, val_set = _split_synthetic(per_class=10)
        model = build_model(tiny_config(num_classes=2), 8)
        lines = []
        fit(model, train_set, val_set,
            TrainConfig(learning_rate=0.05, batch_size=4, epochs=3, seed=8),
            emit=lines.append)
        assert len(lines) == 3
        assert all(json.loads(line)["epoch"] == i + 1 for i, line in enumerate(lines))
