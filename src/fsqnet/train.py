"""Loss, SGD with momentum, the epoch loop, and evaluation metrics.

The loss is categorical cross-entropy over softmax probabilities,
L = -(1/n) sum_i sum_j y_ij log(p_ij), with the softmax gradient fused so the
backward pass starts from (p - y)/n at the logits.  The optimizer is plain
SGD with momentum: v <- mu v + g, theta <- theta - lr v, where `fit` owns the
velocity v and starts it at zero.

Each epoch reshuffles the training set with seed XOR epoch_index, walks
mini-batches (last partial batch kept), and reports epoch-mean loss, training
accuracy as predicted during the epoch, and validation accuracy with dropout
off.  Its augmentation is one [N, 6] uniform table drawn in one call, image
i's draws in row i, whatever the batch size or order.  Deterministic mode
zeroes the wall times, the only nondeterministic output, so runs are
byte-reproducible.

A training step runs its batch in consecutive sub-batches and adds their
gradient terms to float64 sums in image order, so its bytes do not depend on
the cut.  Images of at least WARP_PIXELS pixels, with OpenBLAS on one thread
(_one_image_per_cpu), go through the whole network one at a time, split
across the CPUs once per training step or evaluation pass.  Otherwise a
training batch is one sub-batch, assembled as one array and run through each
op together, and evaluation images go EVAL_BATCH to a forward.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, astuple, dataclass, field
from numbers import Real

import numpy as np

from . import ops
from .data import WARP_PIXELS, Dataset, _split_images, augment, fisher_yates_order, normalize
from .errors import ConfigError, DataError, NumericError, StateError
from .model import Model, clone_params, model_backward, model_forward
from .ops import add_terms
from .tensor import derive_seed, rng_from_seed

LOG_CLAMP = 1e-12
EVAL_BATCH = 32


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 42
    dropout_on: bool = False
    augment: bool = False
    flip: bool = False
    deterministic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0,1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True)
class EpochMetrics:
    """One epoch's metrics line; field names and order are the JSON keys."""

    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    seconds: float

    def __post_init__(self):
        if type(self.epoch) is not int or any(
            isinstance(v, bool) or not isinstance(v, Real) for v in astuple(self)[1:]
        ):
            raise ConfigError(f"epoch must be an integer and the rest numbers: {self}")
        if not 0.0 <= self.train_acc <= 1.0 or not 0.0 <= self.val_acc <= 1.0:
            raise ConfigError(f"accuracies must be in [0,1]: {self}")

    @classmethod
    def from_record(cls, r: dict) -> "EpochMetrics":
        """Inverse of asdict: every field by name, no other key."""
        return cls(**r)

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))


@dataclass
class History:
    entries: list[EpochMetrics] = field(default_factory=list)

    def append(self, metrics: EpochMetrics) -> None:
        previous = self.last_epoch()
        if metrics.epoch <= previous or (not self.entries and metrics.epoch != 1):
            raise StateError(
                f"epoch {metrics.epoch} does not continue history ending at {previous}"
            )
        self.entries.append(metrics)

    def last_epoch(self) -> int:
        return self.entries[-1].epoch if self.entries else 0

    def best(self) -> EpochMetrics:
        """The entry with the highest val_acc; the earliest one wins ties."""
        return max(self.entries, key=lambda m: m.val_acc)

    def to_jsonable(self) -> list[dict]:
        return [asdict(m) for m in self.entries]

    @classmethod
    def from_jsonable(cls, records: list[dict]) -> "History":
        history = cls()
        for r in records:
            history.append(EpochMetrics.from_record(r))
        return history


def cross_entropy(probs: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and the fused softmax gradient (p - y)/N."""
    labels = np.asarray(labels, dtype=np.intp)
    n, m = probs.shape
    if labels.shape != (n,):
        raise DataError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= m):
        raise DataError(f"label outside [0, {m})")
    picked = probs[np.arange(n), labels].astype(np.float64)
    loss = float(-np.log(np.clip(picked, LOG_CLAMP, 1.0)).sum() / n)
    return loss, _logit_gradient(probs, labels, n)


def _logit_gradient(probs: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """(p - y)/n for rows of an n-image batch, computed in float64 and rounded once."""
    d_logits = probs.astype(np.float64)
    d_logits[np.arange(len(probs)), labels] -= 1.0
    d_logits /= n
    return d_logits.astype(np.float32)


def sgd_step(params: dict, velocity: dict, grads: dict, config: TrainConfig) -> None:
    """In-place momentum update: v <- mu v + g, theta <- theta - lr v."""
    missing = [name for name in params if name not in grads]
    if missing:
        raise StateError(f"gradients missing for {missing}")
    for name, param in params.items():
        v = velocity[name]
        v *= np.float32(config.momentum)
        v += grads[name]
        param -= np.float32(config.learning_rate) * v


def _check_input_sizes(dataset: Dataset, size: int, what: str) -> None:
    if not len(dataset):
        raise DataError(f"{what} dataset is empty")
    height, width = dataset.samples.shape[1:3]
    if (width, height) != (size, size):
        raise DataError(f"{what} images are {width}x{height}, expected {size}x{size}")


def _one_image_per_cpu(size: int) -> bool:
    """Whether size x size images go through the whole network one at a time,
    split across the CPUs once per pass (_split_images): at WARP_PIXELS pixels
    or more, with OpenBLAS on one thread.

    Memory then holds one image's activations per CPU, not a batch's.  A
    smaller image's forward is too little work to pay for a forward of its
    own, and threaded products ran slower one image at a time.
    """
    return size * size >= WARP_PIXELS and ops._blas_threads() == 1


def _assemble_batch(dataset: Dataset, idx, draws=None, flip=False):
    """Normalized images `idx` and their labels; augmented only when given their draws."""
    images = dataset.samples[idx]
    if draws is not None:
        images = augment(images, flip, draws)
    return normalize(images, dataset.channel_means), dataset.labels[idx]


def _batches(train_set: Dataset, config: TrainConfig, epoch_index: int):
    """Each batch's image indices and their rows of the epoch's [N, 6] augmentation draws."""
    order = fisher_yates_order(len(train_set), config.seed ^ epoch_index)
    rng = rng_from_seed(derive_seed(config.seed, epoch_index, 0xA6))
    table = rng.random((len(train_set), 6)) if config.augment else None
    for start in range(0, len(order), config.batch_size):
        chunk = order[start : start + config.batch_size]
        yield chunk, None if table is None else table[chunk]


def _step(model: Model, dataset: Dataset, idx, draws, flip, dropout_seed):
    """Probabilities, mean loss and float32 gradients of one training batch.

    The batch goes through assembly, forward and backward in consecutive
    sub-batches: under _one_image_per_cpu one image each, split across the
    CPUs by _split_images, else the whole batch on the calling thread, its ops
    splitting it themselves.  A worker takes the batch's next sub-batch each
    time, so the images in flight are consecutive and no worker waits long for
    its turn.  Images i..j get rows i..j of the batch's dropout mask and
    d_logits (p - y)/n.  Their gradient terms are added to float64 sums once
    the earlier images' are in, and a failed worker releases the waiting ones.
    The loss comes from the whole batch's probabilities after the join, so
    every output has the same bytes however the batch is cut.
    """
    n, size = len(idx), model.config.input_size
    width = 1 if _one_image_per_cpu(size) else n
    labels = dataset.labels[idx]
    probs = np.empty((n, model.config.num_classes), dtype=np.float32)
    sums = {name: np.zeros(p.shape) for name, p in model.params.items()}
    turn = threading.Condition()
    taken = added = 0
    failed = False

    def run(lo, hi):
        nonlocal taken, added, failed
        try:
            for _ in range(lo, hi):
                with turn:
                    if failed:
                        return
                    k, taken = taken, taken + 1
                i, j = k * width, (k + 1) * width
                images, _ = _assemble_batch(dataset, idx[i:j],
                                            None if draws is None else draws[i:j], flip)
                seed = None if dropout_seed is None else (dropout_seed, i)
                p, tape = model_forward(model, images, training=True, dropout_seed=seed)
                probs[i:j] = p
                terms = model_backward(tape, _logit_gradient(p, labels[i:j], n))
                with turn:
                    turn.wait_for(lambda: added == k or failed)
                    if failed:
                        return
                for name, t in terms.items():  # no other worker adds until this one's turn ends
                    add_terms(sums[name], t)
                with turn:
                    added += 1
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    _split_images(n // width, size, size, run)
    loss, _ = cross_entropy(probs, labels)
    return probs, loss, {name: s.astype(np.float32) for name, s in sums.items()}


def train_epoch(
    model: Model,
    velocity: dict[str, np.ndarray],
    train_set: Dataset,
    val_set: Dataset,
    config: TrainConfig,
    epoch_index: int,
) -> EpochMetrics:
    """One pass of shuffled mini-batch momentum SGD plus a validation evaluation."""
    started = time.perf_counter()
    size = model.config.input_size
    _check_input_sizes(train_set, size, "train")
    _check_input_sizes(val_set, size, "val")

    loss_sum = 0.0
    correct = 0
    seen = 0
    for batch_index, (idx, draws) in enumerate(_batches(train_set, config, epoch_index)):
        dropout_seed = (
            derive_seed(config.seed, epoch_index, batch_index, 0xD0) if config.dropout_on else None
        )
        probs, loss, grads = _step(model, train_set, idx, draws, config.flip, dropout_seed)
        sgd_step(model.params, velocity, grads, config)
        n = len(idx)
        loss_sum += loss * n
        correct += int((probs.argmax(axis=1) == train_set.labels[idx]).sum())
        seen += n

    val_acc, _ = evaluate(model, val_set)
    wall = 0.0 if config.deterministic else time.perf_counter() - started
    return EpochMetrics(
        epoch=epoch_index,
        train_loss=loss_sum / seen,
        train_acc=correct / seen,
        val_acc=val_acc,
        seconds=wall,
    )


def evaluate(model: Model, dataset: Dataset) -> tuple[float, np.ndarray]:
    """Accuracy and an m x m confusion matrix (true class by row).

    Under _one_image_per_cpu, images go one to a forward, in image ranges split
    across the CPUs for the whole pass (_split_images).  Other images go
    EVAL_BATCH to a forward, each op splitting the batch itself.  Each image's
    probabilities are the bytes of its row in a batched forward.
    """
    size = model.config.input_size
    _check_input_sizes(dataset, size, "eval")
    step = 1 if _one_image_per_cpu(size) else EVAL_BATCH
    predicted = np.empty(len(dataset), dtype=np.intp)

    def forward(lo, hi):
        for start in range(lo, hi, step):
            batch, _ = _assemble_batch(dataset, slice(start, min(start + step, hi)))
            probs = model_forward(model, batch, training=False)
            predicted[start : start + len(batch)] = probs.argmax(axis=1)

    _split_images(len(dataset), size, size, forward)
    m = len(dataset.label_names)
    confusion = np.zeros((m, m), dtype=np.int64)
    np.add.at(confusion, (dataset.labels, predicted), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return accuracy, confusion


def pearson_correlation(a, b) -> float:
    """Standard Pearson r of two equal-length series."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or a.shape != b.shape:
        raise DataError(f"series shapes differ: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise DataError(f"need at least 2 points, got {a.size}")
    da = a - a.mean()
    db = b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0.0:
        raise NumericError("correlation undefined: a series has zero variance")
    return float((da * db).sum() / denom)


@dataclass
class FitResult:
    history: History
    best_params: dict[str, np.ndarray]


def fit(
    model: Model,
    train_set: Dataset,
    val_set: Dataset,
    config: TrainConfig,
    history: History | None = None,
    emit=None,
) -> FitResult:
    """Run config.epochs epochs from zero momentum, keeping the params of `history.best()`.

    With a non-empty starting history (resume), epoch numbering continues from
    where it left off.  `emit` receives one JSON metrics line per epoch.
    """
    history = history if history is not None else History()
    first = history.last_epoch() + 1
    best_params = clone_params(model.params)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    for epoch_index in range(first, first + config.epochs):
        metrics = train_epoch(model, velocity, train_set, val_set, config, epoch_index)
        history.append(metrics)
        if emit is not None:
            emit(metrics.to_json_line())
        if history.best() is metrics:
            best_params = clone_params(model.params)
    return FitResult(history, best_params)
