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
op together, and evaluation images go EVAL_BATCH to a forward.  When such a
batch of the tiny network is too small for its ops to split, on Linux with
augmentation, OpenBLAS on one thread and two or more CPUs, fit forks one
helper process that assembles each batch while the step before it trains
(_assembles_ahead), with the bytes the step would assemble: a thread would
wait for the interpreter lock that the step holds.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import signal
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, astuple, dataclass, field
from numbers import Real

import numpy as np

from . import ops
from .data import WARP_PIXELS, Dataset, _split_images, augment, fisher_yates_order, normalize
from .errors import ConfigError, DataError, NumericError, StateError
from .model import Model, ModelConfig, clone_params, layer_plan, model_backward, model_forward
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


@dataclass(frozen=True)
class _Unassembled:
    """A training batch whose rows are assembled when sliced: [i:j] gives
    images idx[i:j], augmented with draws[i:j] when there are draws."""

    dataset: Dataset
    idx: np.ndarray
    draws: np.ndarray | None
    flip: bool

    def __getitem__(self, rows: slice) -> np.ndarray:
        draws = None if self.draws is None else self.draws[rows]
        return _assemble_batch(self.dataset, self.idx[rows], draws, self.flip)[0]


def _batches(train_set: Dataset, config: TrainConfig, epoch_index: int, draw: bool = True):
    """Each batch's image indices and their rows of the epoch's [N, 6]
    augmentation draws, or None without augmentation or `draw`."""
    order = fisher_yates_order(len(train_set), config.seed ^ epoch_index)
    table = None
    if config.augment and draw:
        rng = rng_from_seed(derive_seed(config.seed, epoch_index, 0xA6))
        table = rng.random((len(train_set), 6))
    for start in range(0, len(order), config.batch_size):
        chunk = order[start : start + config.batch_size]
        yield chunk, None if table is None else table[chunk]


def _assembles_ahead(model_config: ModelConfig, config: TrainConfig) -> bool:
    """Whether fit's training batches are assembled ahead by a helper process
    (_assembly_helper): on Linux, with augmentation, OpenBLAS on one thread,
    two or more CPUs, the tiny network, and a batch whose stem output (the
    step's largest array) is below ops.SPLIT_ELEMENTS.

    No op then splits the batch, so the second CPU is idle while the step
    trains, and the helper's augment and normalize run there.  Images are
    also below WARP_PIXELS pixels, so the batch runs whole.  Without
    augmentation there is too little to overlap, and a thread in its place
    would wait for the interpreter lock that the step holds.  The rule covers
    what was measured to gain: the v1.1 network's steps are long beside their
    assembly, and it read 0.90-1.0x with the helper at 32-176 px; macOS forks
    unsafely once system libraries have started threads and Windows cannot
    fork; and a threaded or unknown BLAS would contend with the helper for the
    CPUs.
    """
    size = model_config.input_size
    stem = layer_plan(model_config)[0].conv
    oh, ow = stem.out_hw(size, size)
    return (config.augment and sys.platform == "linux" and model_config.variant == "tiny"
            and config.batch_size * stem.out_channels * oh * ow < ops.SPLIT_ELEMENTS
            and size * size < WARP_PIXELS and ops._blas_threads() == 1 and ops._cpus() >= 2)


def _assemble_epochs(reader, writer, train_set: Dataset, config: TrainConfig, epochs) -> None:
    """The helper process: every batch of `_batches` for each epoch in `epochs`,
    assembled, as float32 bytes down `writer`; an error as an empty message and
    then its text."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C stops the parent, which stops this
    reader.close()  # the fork's copy: once the parent's is gone too, a send here fails
    try:
        for epoch_index in epochs:
            for idx, draws in _batches(train_set, config, epoch_index):
                writer.send_bytes(_assemble_batch(train_set, idx, draws, config.flip)[0])
    except BrokenPipeError:  # the parent died without stopping this
        return
    except Exception as exc:
        writer.send_bytes(b"")
        writer.send_bytes(f"{type(exc).__name__}: {exc}".encode())


@contextmanager
def _assembly_helper(train_set: Dataset, config: TrainConfig, epochs):
    """Yield receive(n), which returns the next n-image training batch that a
    forked helper process assembled for the epochs `epochs`.

    The helper walks each epoch's `_batches`, a pure function of (seed,
    epoch), as train_epoch does, so batch k it sends is the batch of
    train_epoch's step k.  It sends down a one-way pipe with no queue: a batch
    larger than the pipe's buffer blocks it until the step reads it, so it runs
    about one batch ahead.  On exit the helper is terminated and joined,
    whether fit returns or raises; a failed helper raises StateError in
    receive.
    """
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    helper = context.Process(target=_assemble_epochs,
                             args=(reader, writer, train_set, config, epochs),
                             name="fsqnet batch helper")
    helper.start()
    writer.close()  # the helper's is then the only write end: its exit ends a read
    shape = (3, *train_set.samples.shape[1:3])

    def receive(n: int) -> np.ndarray:
        try:
            data = reader.recv_bytes()
            if not data:
                raise StateError(f"batch helper process failed: {reader.recv_bytes().decode()}")
        except EOFError:
            helper.join()
            raise StateError(f"batch helper process exited with code {helper.exitcode}") from None
        return np.frombuffer(data, np.float32).reshape(n, *shape)

    try:
        yield receive
    finally:
        helper.terminate()
        helper.join()
        reader.close()


def _step(model: Model, images, labels: np.ndarray, dropout_seed):
    """Probabilities, mean loss and float32 gradients of one training batch.

    The batch's images (`images[i:j]`: an assembled array, or _Unassembled),
    forward and backward run in consecutive sub-batches: under
    _one_image_per_cpu one image each, split across the CPUs by _split_images,
    else the whole batch on the calling thread, its ops splitting it
    themselves.  A worker takes the batch's next sub-batch each time, so the
    images in flight are consecutive and no worker waits long for its turn.
    Images i..j get rows i..j of the batch's dropout mask and d_logits
    (p - y)/n.  Their gradient terms are added to float64 sums once the
    earlier images' are in, and a failed worker releases the waiting ones.
    The loss comes from the whole batch's probabilities after the join, so
    every output has the same bytes however the batch is cut.
    """
    n, size = len(labels), model.config.input_size
    width = 1 if _one_image_per_cpu(size) else n
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
                seed = None if dropout_seed is None else (dropout_seed, i)
                p, tape = model_forward(model, images[i:j], training=True, dropout_seed=seed)
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
    receive=None,
) -> EpochMetrics:
    """One pass of shuffled mini-batch momentum SGD plus a validation evaluation.

    Each step assembles its batch, unless `receive(n)` returns it assembled
    (fit's helper process, _assembly_helper); the epoch's augmentation draws
    are then the helper's alone.
    """
    started = time.perf_counter()
    size = model.config.input_size
    _check_input_sizes(train_set, size, "train")
    _check_input_sizes(val_set, size, "val")

    loss_sum = 0.0
    correct = 0
    seen = 0
    batches = _batches(train_set, config, epoch_index, draw=receive is None)
    for batch_index, (idx, draws) in enumerate(batches):
        dropout_seed = (
            derive_seed(config.seed, epoch_index, batch_index, 0xD0) if config.dropout_on else None
        )
        if receive is None:
            images = _Unassembled(train_set, idx, draws, config.flip)
        else:
            images = receive(len(idx))
        labels = train_set.labels[idx]
        probs, loss, grads = _step(model, images, labels, dropout_seed)
        sgd_step(model.params, velocity, grads, config)
        n = len(idx)
        loss_sum += loss * n
        correct += int((probs.argmax(axis=1) == labels).sum())
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

    Under _assembles_ahead, one helper process forked here assembles every
    epoch's batches while the steps train (_assembly_helper), and is stopped
    before fit returns or raises.  The batches have the bytes the steps would
    assemble themselves.
    """
    history = history if history is not None else History()
    first = history.last_epoch() + 1
    epochs = range(first, first + config.epochs)
    best_params = clone_params(model.params)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    helper = (_assembly_helper(train_set, config, epochs)
              if _assembles_ahead(model.config, config) else nullcontext())
    with helper as receive:
        for epoch_index in epochs:
            metrics = train_epoch(model, velocity, train_set, val_set, config, epoch_index,
                                  receive)
            history.append(metrics)
            if emit is not None:
                emit(metrics.to_json_line())
            if history.best() is metrics:
                best_params = clone_params(model.params)
    return FitResult(history, best_params)
