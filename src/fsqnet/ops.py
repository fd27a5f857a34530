"""Layer primitives: forward passes and their exact gradients.

All activations are NCHW float32.  Convolution is cross-correlation (no
kernel flip), the usual deep-learning convention, so stored weights are
unambiguous.  The conv forward and its input gradient are float32 BLAS
products, the input gradient an op of its own (conv2d_input_gradient) that a
caller skips where nothing reads it, as for the RGB input of the stem; the
conv weight gradient is float32 products over fixed blocks of
positions, summed in float64 (see WGRAD_BLOCK); the conv bias gradient and
the dense layers run in float64, where every float32 product is exact.  The
float64 sums round to float32 once, after the terms of every image are in
(see LayerGrads).  The tests bound these kernels against
an ordered float64 reference that a naive loop reproduces bit for bit, and
check each backward pass against finite differences.  Max pooling and its
backward are exact, so loop oracles match them bit for bit.

The ops that treat each image alone split a large batch across the CPUs
(``_split``); README's Threads section tells when and why.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
from .tensor import rng_from_seed


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    in_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        if self.kernel_h < 1 or self.kernel_w < 1:
            raise ConfigError(f"kernel dims must be >= 1, got {self}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self}")
        if self.pad < 0:
            raise ConfigError(f"pad must be >= 0, got {self}")

    @property
    def pointwise(self) -> bool:
        """1x1, stride 1, unpadded: the input itself is the patch matrix."""
        return (self.kernel_h, self.kernel_w, self.stride, self.pad) == (1, 1, 1, 0)

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad - self.kernel_h) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"conv output dims {oh}x{ow} not positive for input {h}x{w} with {self}")
        return oh, ow


@dataclass
class LayerGrads:
    """The terms of a layer's weight and bias gradients, and the gradient at its
    input, which a conv leaves to conv2d_input_gradient (None here).

    Terms are stacked along a leading axis.  Added one at a time, in order, to
    float64 zeros (add_terms) and rounded once to float32, they give the
    gradient.  So the terms of images run apart, added in image order, give
    the bytes of their batch's gradient.
    """

    d_input: np.ndarray | None
    d_weight: np.ndarray
    d_bias: np.ndarray


def add_terms(acc: np.ndarray, terms: np.ndarray) -> None:
    """Add terms to the float64 sum acc one at a time, in order."""
    for term in terms:
        acc += term


@functools.cache
def openblas_function(name: str, restype, *argtypes):
    """OpenBLAS's ``openblas_<name>`` in the library numpy loaded, or None.

    numpy's wheels rename the symbols, as ``scipy_openblas_<name>64_``, so
    each spelling is tried in turn.  None also when numpy uses another BLAS.
    """
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    try:
        # a handle to the loaded extension also finds the symbols of its dependencies
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{name}{suffix}", None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, argtypes
                return fn
    return None


def _blas_threads() -> int | None:
    """OpenBLAS's current thread count, or None without OpenBLAS."""
    get_threads = openblas_function("get_num_threads", ctypes.c_int)
    return None if get_threads is None else get_threads()


# elements in an op's largest array below which its batch is not split.
# Starting and joining a thread costs about 0.13 ms: tiny@32's largest ops at
# batch 32 (460,800 elements) ran slower split, and a v1.1@244 batch-8 step
# ran as fast as at 2^18 and faster than at 2^20
SPLIT_ELEMENTS = 1 << 19


def _cpus() -> int:
    """The CPUs this process may run on; on macOS and Windows, every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(n: int, size: int, work) -> None:
    """Run work(lo, hi) over contiguous ranges that cover [0, n), one per CPU.

    Splits only when n >= 2, size (elements in the op's largest array) is at
    least SPLIT_ELEMENTS, and OpenBLAS runs one thread: a threaded product's
    idle workers spin on the cores after it returns.  The first range runs on
    the calling thread, the others on threads started here; all are joined
    before the first exception a worker raised is raised again here.  work
    must write only its own range of its outputs.
    """
    if n < 2 or size < SPLIT_ELEMENTS or _blas_threads() != 1:
        work(0, n)
        return
    workers = min(n, _cpus())
    bounds = [n * i // workers for i in range(workers + 1)]
    errors = []

    def run(lo, hi):
        try:
            work(lo, hi)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=r) for r in zip(bounds[1:-1], bounds[2:])]
    for thread in threads:
        thread.start()
    try:
        work(bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _blocks(lo: int, hi: int, c: int, plane: int, size: int):
    """Index pairs (images, channels) that tile images [lo, hi) x channels [0, c)
    of planes of `plane` elements, in order, in blocks of at most `size`
    elements: as many whole images as fit, else ranges of one image's channels
    (one channel when a plane alone is larger)."""
    images = max(1, size // max(1, c * plane))
    channels = max(1, min(c, size // plane))
    for i in range(lo, hi, images):
        for c0 in range(0, c, channels):
            yield slice(i, min(i + images, hi)), slice(c0, c0 + channels)


def _require_4d(x: np.ndarray, what: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{what} must be 4-D NCHW, got shape {x.shape}")


def _patches(x: np.ndarray, spec: ConvSpec) -> tuple[np.ndarray, int, int]:
    """Patches of x as [N, C*kh*kw, OH*OW] in x's dtype, rows ordered (c, kh, kw).

    A pointwise conv's patches are x itself, a view when x is contiguous.
    """
    n, c, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    if spec.pointwise:
        return x.reshape(n, c, h * w), oh, ow
    kh, kw, s, p = spec.kernel_h, spec.kernel_w, spec.stride, spec.pad
    xp = x
    if p:
        xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, :, p : p + h, p : p + w] = x
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + s * oh : s, j : j + s * ow : s]
    return cols.reshape(n, c * kh * kw, oh * ow), oh, ow


def _col2im(d_cols: np.ndarray, shape: tuple[int, ...], spec: ConvSpec) -> np.ndarray:
    """Adjoint of _patches: gradient at x, in d_cols's dtype, from patch gradients
    [N, C*kh*kw, OH*OW], each input's taps added in (kh, kw) order."""
    if spec.pointwise:
        return d_cols.reshape(shape)
    n, c, h, w = shape
    kh, kw, s, p = spec.kernel_h, spec.kernel_w, spec.stride, spec.pad
    oh, ow = spec.out_hw(h, w)
    d_cols = d_cols.reshape(n, c, kh, kw, oh, ow)
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=d_cols.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += d_cols[:, :, i, j]
    return dxp[:, :, p : p + h, p : p + w]


def _check_conv_shapes(shape: tuple[int, ...], weight, spec: ConvSpec) -> None:
    """Check a conv's input shape and its weight against spec."""
    if len(shape) != 4:
        raise ShapeError(f"conv input must be 4-D NCHW, got shape {shape}")
    _require_4d(weight, "conv weight")
    o, c, kh, kw = weight.shape
    if (o, c, kh, kw) != (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w):
        raise ShapeError(f"conv weight shape {weight.shape} does not match {spec}")
    if shape[1] != spec.in_channels:
        raise ShapeError(f"conv input has {shape[1]} channels, spec wants {spec.in_channels}")


def _upstream(d_out: np.ndarray, shape: tuple[int, ...], spec: ConvSpec) -> np.ndarray:
    """d_out [N,O,OH,OW] of a conv whose input has shape `shape`, as [N, O, OH*OW]."""
    n, _, h, w = shape
    o = spec.out_channels
    oh, ow = spec.out_hw(h, w)
    if d_out.shape != (n, o, oh, ow):
        raise ShapeError(f"conv d_out shape {d_out.shape}, expected {(n, o, oh, ow)}")
    return d_out.reshape(n, o, oh * ow)


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate x [N,C,H,W] with weight [O,C,kh,kw] plus per-channel bias.

    One float32 product [O,K] @ [K,OH*OW] per image gives NCHW directly; the
    bias is added to it in float32.  Image ranges run on their own threads.
    """
    _check_conv_shapes(x.shape, weight, spec)
    if bias.shape != (spec.out_channels,):
        raise ShapeError(f"conv bias shape {bias.shape}, expected ({spec.out_channels},)")
    n = x.shape[0]
    oh, ow = spec.out_hw(*x.shape[2:])
    w = weight.reshape(spec.out_channels, -1)
    acc = np.empty((n, spec.out_channels, oh * ow), dtype=np.result_type(w, x))

    def work(lo, hi):
        np.matmul(w, _patches(x[lo:hi], spec)[0], out=acc[lo:hi])
        acc[lo:hi] += bias[:, None]

    _split(n, n * max(w.shape) * oh * ow, work)
    return acc.reshape(n, spec.out_channels, oh, ow)


# output positions per float32 weight-gradient product.  On OpenBLAS 0.3.31's
# SkylakeX kernels, whole-plane products change bytes with the thread count
# from 841 positions up; blocks of 64 to 4,096 positions gave equal bytes at
# every v1.1@244 conv
WGRAD_BLOCK = 256


def conv2d_backward(x: np.ndarray, weight: np.ndarray, spec: ConvSpec, d_out: np.ndarray) -> LayerGrads:
    """Exact weight and bias gradients of conv2d_forward for upstream d_out
    [N,O,OH,OW]; the input gradient is conv2d_input_gradient's.

    The weight gradient's terms are one float32 product per block of
    WGRAD_BLOCK output positions of each image, in (image, block) order: the
    full blocks in one batched product and the tail in another.  The bias
    gradient's terms are float64 sums of d over np.getbufsize() positions at a
    time, in (image, chunk) order, the order in which numpy sums d over images
    and positions.  One image hands these terms over as they are.  Several
    images' terms are summed here, in order, into one float64 term each, so a
    batch holds its sums, not its terms.  Image ranges, then output-channel
    ranges, run on their own threads.
    """
    _check_conv_shapes(x.shape, weight, spec)
    d = _upstream(d_out, x.shape, spec)
    n, o, positions = d.shape
    k = math.prod(weight.shape[1:])
    blocks, tail = divmod(positions, WGRAD_BLOCK)
    full = blocks * WGRAD_BLOCK
    chunk = np.getbufsize()
    chunks = range(0, positions, chunk)
    parts = np.empty((n, blocks + (tail > 0), o, k), dtype=np.float32)
    sums = np.empty((n, len(chunks), o), dtype=np.float64)

    def images(lo, hi):
        m, d_m = hi - lo, d[lo:hi]
        cols = _patches(x[lo:hi], spec)[0]
        if blocks:
            d_blocks = d_m[:, :, :full].reshape(m, o, blocks, WGRAD_BLOCK).transpose(0, 2, 1, 3)
            col_blocks = cols[:, :, :full].reshape(m, k, blocks, WGRAD_BLOCK).transpose(0, 2, 3, 1)
            np.matmul(d_blocks, col_blocks, out=parts[lo:hi, :blocks])
        if tail:
            np.matmul(d_m[:, :, full:], cols[:, :, full:].transpose(0, 2, 1),
                      out=parts[lo:hi, blocks])
        for j, start in enumerate(chunks):
            d_m[:, :, start : start + chunk].sum(axis=2, dtype=np.float64, out=sums[lo:hi, j])

    _split(n, n * max(k, o) * positions, images)
    weight_terms = parts.reshape(-1, o, k)
    bias_terms = sums.reshape(-1, o)
    if n > 1:
        d_weight = np.empty((1, o, k), dtype=np.float64)
        d_bias = np.empty((1, o), dtype=np.float64)

        def channels(lo, hi):
            weight_terms[:, lo:hi].sum(axis=0, dtype=np.float64, out=d_weight[0, lo:hi])
            bias_terms[:, lo:hi].sum(axis=0, out=d_bias[0, lo:hi])

        _split(o, parts.size, channels)
        weight_terms, bias_terms = d_weight, d_bias
    return LayerGrads(None, weight_terms.reshape(-1, *weight.shape), bias_terms)


def conv2d_input_gradient(weight: np.ndarray, spec: ConvSpec, d_out: np.ndarray,
                          shape: tuple[int, ...]) -> np.ndarray:
    """Exact gradient of conv2d_forward at its input of shape `shape` [N,C,H,W]
    for upstream d_out [N,O,OH,OW], in float32 like the forward.

    One float32 product W.T @ d per image gives the patch gradients, which
    _col2im adds back onto the input; a pointwise conv's product is the
    gradient itself.  Image ranges run on their own threads.
    """
    _check_conv_shapes(shape, weight, spec)
    d = _upstream(d_out, shape, spec)
    n, c, h, w = shape
    o, positions = d.shape[1:]
    w_t = weight.reshape(o, -1).T
    d_input = np.empty(shape, dtype=np.result_type(w_t, d))

    def images(lo, hi):
        m, d_m = hi - lo, d[lo:hi]
        if spec.pointwise:
            np.matmul(w_t, d_m, out=d_input[lo:hi].reshape(m, c, h * w))
        else:
            d_input[lo:hi] = _col2im(w_t @ d_m, (m, c, h, w), spec)

    _split(n, n * max(w_t.shape[0], o) * positions, images)
    return d_input


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0); out=x applies it in place."""
    if out is None:
        out = np.empty_like(x)
    _split(len(x), x.size, lambda lo, hi: np.maximum(x[lo:hi], np.float32(0.0), out=out[lo:hi]))
    return out


def relu_backward(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """Gradient of relu at x: d_out where x > 0, else +0.0, written into d_out
    and returned.

    Callers hand over an upstream gradient they do not read again.  The bytes
    are those of np.where(x > 0, d_out, 0): d_out's int32 bits times x > 0 are
    kept whole or become +0.0, as for x <= 0 and NaN.  The mask covers one block
    of POOL_BLOCK_BYTES // 8 elements at a time (_blocks), so it stays under
    1 MiB.  Image ranges run on their own threads.
    """
    if x.shape != d_out.shape:
        raise ShapeError(f"relu_backward shape mismatch: {x.shape} vs {d_out.shape}")
    if d_out.dtype != np.float32:
        raise ShapeError(f"relu_backward writes into a float32 d_out, got {d_out.dtype}")
    x2, d_bits = np.atleast_2d(x, d_out.view(np.int32))  # [N, C, ...], views
    n, c = x2.shape[:2]

    def work(lo, hi):
        for block in _blocks(lo, hi, c, math.prod(x2.shape[2:]), POOL_BLOCK_BYTES // 8):
            d_bits[block] *= x2[block] > 0

    _split(n, x.size, work)
    return d_out


# bytes a max pool holds at once: the forward's float32 column maxima, the
# backward's float64 sums (relu_backward's mask covers as many elements as
# those sums).  A few channels of v1.1@244's first pool, several
# whole tiny@32 images; blocks in cache beat one pass over the tensor, and
# 1 MiB ran the backward at pool1 faster than 256 KiB, 512 KiB or 2 MiB
POOL_BLOCK_BYTES = 1 << 20


def pool_out_hw(h: int, w: int, kernel: int, stride: int) -> tuple[int, int]:
    """Output dims of an unpadded max pool over an h x w input."""
    if kernel > h or kernel > w:
        raise ShapeError(f"pool window {kernel} larger than input {h}x{w}")
    return (h - kernel) // stride + 1, (w - kernel) // stride + 1


def maxpool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Per-window maximum, floor output dims, no padding.

    Separable, a block of channels at a time: every input row's maximum across
    each window's columns first, then the window's rows in order.  That is the
    tap order of a row-major chain of np.maximum, so among equal values (signed
    zeros) and NaNs the same one wins.  Image ranges run on their own threads.
    """
    _require_4d(x, "maxpool input")
    oh, ow = pool_out_hw(*x.shape[2:], kernel, stride)
    n, c = x.shape[:2]
    rows = x[:, :, : stride * (oh - 1) + kernel]
    y = np.empty((n, c, oh, ow), dtype=x.dtype)

    def work(lo, hi):
        step = max(1, POOL_BLOCK_BYTES // ((hi - lo) * rows.shape[2] * ow * x.itemsize))
        for c0 in range(0, c, step):
            block = rows[lo:hi, c0 : c0 + step]
            row_max = block[..., : stride * ow : stride].copy()
            for j in range(1, kernel):
                np.maximum(row_max, block[..., j : j + stride * ow : stride], out=row_max)
            out = y[lo:hi, c0 : c0 + step]
            out[...] = row_max[:, :, : stride * oh : stride]
            for i in range(1, kernel):
                np.maximum(out, row_max[:, :, i : i + stride * oh : stride], out=out)

    if n:  # the block size divides by the image count
        _split(n, x.size, work)
    return y


def maxpool2d_backward(
    x: np.ndarray, y: np.ndarray, kernel: int, stride: int, d_out: np.ndarray
) -> np.ndarray:
    """Route each upstream gradient to the first maximal position in its window.

    y is maxpool2d(x, kernel, stride).  Ties break toward the lowest flat
    index, so the backward pass is deterministic even on plateaus (a window
    whose maximum is NaN routes to its first position).  Overlapping windows
    accumulate in float64, in window order, in blocks of at most
    POOL_BLOCK_BYTES of sums (_blocks); each sum takes only its own plane's
    windows, so the bytes do not depend on the blocks.  Image ranges run on
    their own threads.
    """
    _require_4d(x, "maxpool input")
    n, c, h, w = x.shape
    oh, ow = pool_out_hw(h, w, kernel, stride)
    expected = (n, c, oh, ow)
    if y.shape != expected or d_out.shape != expected:
        raise ShapeError(f"pool output {y.shape} and d_out {d_out.shape}, expected {expected}")
    bins, plane = POOL_BLOCK_BYTES // 8, h * w  # float64 sums per block, per channel
    # flat index within a plane of each tap's offset and of each window's corner
    index = np.int32 if max(bins, plane) < 2**31 else np.int64
    offsets = np.array([i * w + j for i in range(kernel) for j in range(kernel)], dtype=index)
    corners = (np.arange(oh, dtype=index)[:, None] * w + np.arange(ow, dtype=index)) * stride
    d_input = np.empty(x.shape, dtype=np.float32)

    def work(lo, hi):
        for images, channels in _blocks(lo, hi, c, plane, bins):
            x_b, y_b = x[images, channels], y[images, channels]
            # tap number of each window's first maximum: scan from the last tap back
            # so the lowest match is written last; first - (first - k) * match is a
            # branch-free "k where match"
            first = np.zeros(y_b.shape, dtype=np.min_scalar_type(-kernel * kernel))
            step = np.empty_like(first)
            match = np.empty(y_b.shape, dtype=bool)
            for k in reversed(range(kernel * kernel)):
                i, j = divmod(k, kernel)
                np.equal(x_b[..., i : i + stride * oh : stride, j : j + stride * ow : stride],
                         y_b, out=match)
                np.subtract(first, k, out=step)
                step *= match
                first -= step
            m, cb = y_b.shape[:2]
            flat = offsets[first]
            flat += corners
            flat += np.arange(m * cb, dtype=index).reshape(m, cb, 1, 1) * plane
            # bincount adds in window order, in float64
            sums = np.bincount(flat.ravel(), weights=d_out[images, channels].ravel(),
                               minlength=x_b.size)
            d_input[images, channels] = sums.reshape(x_b.shape)

    _split(n, x.size, work)
    return d_input


def channel_concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two NCHW tensors along the channel axis, a first."""
    _require_4d(a, "concat lhs")
    _require_4d(b, "concat rhs")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat needs matching N/H/W, got {a.shape} and {b.shape}")
    return np.concatenate([a, b], axis=1)


def channel_split(d: np.ndarray, channels_a: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of channel_concat; used by its backward pass.

    Returns two views of d, not copies: writing to either writes to d.
    """
    _require_4d(d, "split input")
    if not 1 <= channels_a < d.shape[1]:
        raise ShapeError(f"cannot split {d.shape[1]} channels at {channels_a}")
    return d[:, :channels_a], d[:, channels_a:]


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the spatial dims: [N,C,H,W] -> [N,C]."""
    _require_4d(x, "gap input")
    return x.mean(axis=(2, 3), dtype=np.float64).astype(np.float32)


def global_avg_pool_backward(d_out: np.ndarray, h: int, w: int) -> np.ndarray:
    """Spread each upstream gradient uniformly over its H*W plane."""
    if d_out.ndim != 2:
        raise ShapeError(f"gap d_out must be 2-D, got {d_out.shape}")
    per = d_out.astype(np.float64) / (h * w)
    return np.broadcast_to(per[:, :, None, None], d_out.shape + (h, w)).astype(np.float32)


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x [N,F] times w [F,U] plus bias: one float64 BLAS product, rounded once."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"dense shapes must be [N,F],[F,U],[U], got {x.shape},{w.shape},{b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"dense dims disagree: {x.shape} x {w.shape} + {b.shape}")
    return (x.astype(np.float64) @ w.astype(np.float64) + b).astype(np.float32)


def dense_backward(x: np.ndarray, w: np.ndarray, d_out: np.ndarray) -> LayerGrads:
    if d_out.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(f"dense d_out shape {d_out.shape}, expected {(x.shape[0], w.shape[1])}")
    d = d_out.astype(np.float64)
    return LayerGrads(
        d_input=(d @ w.astype(np.float64).T).astype(np.float32),
        d_weight=(x.astype(np.float64).T @ d)[None],  # for one image, its exact outer product
        d_bias=d,
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise probabilities; subtracts the row max before exponentiating."""
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError(f"softmax needs [N,m] with m >= 2, got {logits.shape}")
    if not np.isfinite(logits).all():
        raise NumericError("softmax input contains NaN or Inf")
    z = logits.astype(np.float64)
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def dropout_mask(shape, rate: float, seed: int, row: int = 0) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate).

    A [N, F] mask takes its values in order from seed's stream, one draw each;
    from row > 0 on, the draws of the rows before it are skipped, so one image
    gets row `row` of the mask of the batch it belongs to.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    rng = rng_from_seed(seed)
    rng.bit_generator.advance(row * math.prod(shape[1:]))
    keep = rng.random(shape) >= rate
    return (keep / (1.0 - rate)).astype(np.float32)
