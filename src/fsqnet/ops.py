"""Layer primitives: forward passes and their exact gradients.

All activations are NCHW float32.  Convolution is cross-correlation (no
kernel flip), the usual deep-learning convention, so stored weights are
unambiguous.  Forward reductions accumulate in float64 in (channel, kh, kw)
order starting from the bias and round to float32 once; a naive loop that
sums in the same order reproduces them bit for bit.  Backward passes are
exact gradients of those forward maps but may use matrix products for the
reductions since they are checked against finite differences, not against a
bit-exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def out_hw(self, h: int, w: int) -> tuple[int, int]:
        oh = (h + 2 * self.pad - self.kernel_h) // self.stride + 1
        ow = (w + 2 * self.pad - self.kernel_w) // self.stride + 1
        if oh < 1 or ow < 1:
            raise ShapeError(f"conv output dims {oh}x{ow} not positive for input {h}x{w} with {self}")
        return oh, ow


@dataclass
class LayerGrads:
    """Gradients of a layer: input always, weight/bias when the layer has them."""

    d_input: np.ndarray
    d_weight: np.ndarray | None = None
    d_bias: np.ndarray | None = None


def _require_4d(x: np.ndarray, what: str) -> None:
    if x.ndim != 4:
        raise ShapeError(f"{what} must be 4-D NCHW, got shape {x.shape}")


def _im2col(x: np.ndarray, spec: ConvSpec) -> tuple[np.ndarray, int, int]:
    """Patches of x as float64 [N*OH*OW, C*kh*kw], K ordered (c, kh, kw)."""
    n, c, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    p, s = spec.pad, spec.stride
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    win = sliding_window_view(xp, (spec.kernel_h, spec.kernel_w), axis=(2, 3))[:, :, ::s, ::s]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * spec.kernel_h * spec.kernel_w)
    return cols.astype(np.float64), oh, ow


def _check_conv_shapes(x, weight, spec: ConvSpec) -> None:
    _require_4d(x, "conv input")
    _require_4d(weight, "conv weight")
    o, c, kh, kw = weight.shape
    if (o, c, kh, kw) != (spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w):
        raise ShapeError(f"conv weight shape {weight.shape} does not match {spec}")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"conv input has {x.shape[1]} channels, spec wants {spec.in_channels}")


def _linear(a: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Float64 a [M,K] @ w [K,O] + bias, summed from the bias in k order.

    The one reference product under conv and dense: one partial product per
    k keeps the documented accumulation order.
    """
    acc = np.broadcast_to(bias.astype(np.float64), (a.shape[0], w.shape[1])).copy()
    tmp = np.empty_like(acc)
    for k in range(w.shape[0]):
        np.multiply(a[:, k, None], w[None, k, :], out=tmp)
        np.add(acc, tmp, out=acc)
    return acc


def _linear_grads(a: np.ndarray, w: np.ndarray, d: np.ndarray):
    """Float64 gradients of _linear at upstream d [M,O]: (d_a, d_w, d_bias)."""
    return d @ w.T, a.T @ d, d.sum(axis=0)


def conv2d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate x [N,C,H,W] with weight [O,C,kh,kw] plus per-channel bias."""
    _check_conv_shapes(x, weight, spec)
    if bias.shape != (spec.out_channels,):
        raise ShapeError(f"conv bias shape {bias.shape}, expected ({spec.out_channels},)")
    n = x.shape[0]
    cols, oh, ow = _im2col(x, spec)
    w2 = weight.reshape(spec.out_channels, -1).astype(np.float64)
    acc = _linear(cols, w2.T, bias)
    return acc.reshape(n, oh, ow, spec.out_channels).transpose(0, 3, 1, 2).astype(np.float32)


def conv2d_backward(x: np.ndarray, weight: np.ndarray, spec: ConvSpec, d_out: np.ndarray) -> LayerGrads:
    """Exact gradients of conv2d_forward for upstream d_out [N,O,OH,OW]."""
    _check_conv_shapes(x, weight, spec)
    n, c, h, w = x.shape
    oh, ow = spec.out_hw(h, w)
    if d_out.shape != (n, spec.out_channels, oh, ow):
        raise ShapeError(f"conv d_out shape {d_out.shape}, expected {(n, spec.out_channels, oh, ow)}")
    kh, kw, s, p = spec.kernel_h, spec.kernel_w, spec.stride, spec.pad

    dout2 = d_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, spec.out_channels).astype(np.float64)
    cols, _, _ = _im2col(x, spec)
    w2 = weight.reshape(spec.out_channels, -1).astype(np.float64)
    d_cols, d_weight, d_bias = _linear_grads(cols, w2.T, dout2)

    d_cols = d_cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)
    dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=np.float64)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + s * oh : s, j : j + s * ow : s] += d_cols[:, :, :, :, i, j]
    d_input = dxp[:, :, p : p + h, p : p + w]
    return LayerGrads(
        d_input=d_input.astype(np.float32),
        d_weight=d_weight.T.reshape(weight.shape).astype(np.float32),
        d_bias=d_bias.astype(np.float32),
    )


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.float32(0.0))


def relu_backward(x: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    if x.shape != d_out.shape:
        raise ShapeError(f"relu_backward shape mismatch: {x.shape} vs {d_out.shape}")
    return np.where(x > 0, d_out, np.float32(0.0))


def maxpool2d(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Per-window maximum, floor output dims, no padding."""
    _require_4d(x, "maxpool input")
    n, c, h, w = x.shape
    if kernel > h or kernel > w:
        raise ShapeError(f"pool window {kernel} larger than input {h}x{w}")
    win = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    return win.max(axis=(4, 5))


def maxpool2d_backward(x: np.ndarray, kernel: int, stride: int, d_out: np.ndarray) -> np.ndarray:
    """Route each upstream gradient to the first maximal position in its window.

    Ties break toward the lowest flat index, so the backward pass is
    deterministic even on plateaus.  Overlapping windows accumulate.
    """
    n, c, h, w = x.shape
    win = sliding_window_view(x, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2], win.shape[3]
    if d_out.shape != (n, c, oh, ow):
        raise ShapeError(f"pool d_out shape {d_out.shape}, expected {(n, c, oh, ow)}")
    amax = win.reshape(n, c, oh, ow, kernel * kernel).argmax(axis=4)
    di, dj = amax // kernel, amax % kernel
    rows = np.arange(oh)[None, None, :, None] * stride + di
    cols = np.arange(ow)[None, None, None, :] * stride + dj
    nc = np.arange(n * c).reshape(n, c, 1, 1)
    flat = (nc * h + rows) * w + cols
    d_input = np.zeros(n * c * h * w, dtype=np.float64)
    np.add.at(d_input, flat.ravel(), d_out.astype(np.float64).ravel())
    return d_input.reshape(x.shape).astype(np.float32)


def channel_concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stack two NCHW tensors along the channel axis, a first."""
    _require_4d(a, "concat lhs")
    _require_4d(b, "concat rhs")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat needs matching N/H/W, got {a.shape} and {b.shape}")
    return np.concatenate([a, b], axis=1)


def channel_split(d: np.ndarray, channels_a: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of channel_concat; used by its backward pass."""
    _require_4d(d, "split input")
    if not 1 <= channels_a < d.shape[1]:
        raise ShapeError(f"cannot split {d.shape[1]} channels at {channels_a}")
    return d[:, :channels_a].copy(), d[:, channels_a:].copy()


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
    """x [N,F] times w [F,U] plus bias, same accumulation convention as conv."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ShapeError(f"dense shapes must be [N,F],[F,U],[U], got {x.shape},{w.shape},{b.shape}")
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"dense dims disagree: {x.shape} x {w.shape} + {b.shape}")
    return _linear(x.astype(np.float64), w.astype(np.float64), b).astype(np.float32)


def dense_backward(x: np.ndarray, w: np.ndarray, d_out: np.ndarray) -> LayerGrads:
    if d_out.shape != (x.shape[0], w.shape[1]):
        raise ShapeError(f"dense d_out shape {d_out.shape}, expected {(x.shape[0], w.shape[1])}")
    d_input, d_weight, d_bias = _linear_grads(
        x.astype(np.float64), w.astype(np.float64), d_out.astype(np.float64)
    )
    return LayerGrads(
        d_input=d_input.astype(np.float32),
        d_weight=d_weight.astype(np.float32),
        d_bias=d_bias.astype(np.float32),
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


def dropout_mask(shape, rate: float, seed: int) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0,1), got {rate}")
    keep = rng_from_seed(seed).random(shape) >= rate
    return (keep / (1.0 - rate)).astype(np.float32)
