"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (Python loops
over lists, closed-form arithmetic) so a bug in the vectorized code cannot
hide in a shared helper.  The one exception is the float64 reference conv at
the end, which reuses the package's patch helpers ``_patches`` and
``_col2im``: criterion 3 checks that reference bit for bit against
``naive_conv2d``, and the finite-difference tests check ``_col2im`` through
``conv2d_backward``.
"""

from __future__ import annotations

import math

import numpy as np

from fsqnet.ops import LayerGrads, _col2im, _patches


def naive_conv2d(x, w, b, stride: int, pad: int) -> np.ndarray:
    """Seven nested loops over Python floats, bias first, (c, kh, kw) order."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))).tolist()
    wl = w.tolist()
    bl = b.tolist()
    out = np.empty((n, o, oh, ow), dtype=np.float32)
    for nn in range(n):
        for oo in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = bl[oo]
                    for cc in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (
                                    xp[nn][cc][i * stride + ki][j * stride + kj]
                                    * wl[oo][cc][ki][kj]
                                )
                    out[nn, oo, i, j] = np.float32(acc)
    return out


def naive_matmul(a, b) -> np.ndarray:
    al = a.tolist()
    bl = b.tolist()
    n, k = a.shape
    _, m = b.shape
    out = np.empty((n, m), dtype=np.float32)
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for kk in range(k):
                acc += al[i][kk] * bl[kk][j]
            out[i, j] = np.float32(acc)
    return out


def _pool_windows(x, kernel: int, stride: int):
    """(n, c, i, j, values) per pooling window in (n, c, i, j) order, values row-major."""
    n, c, h, w = x.shape
    xl = x.tolist()
    for nn in range(n):
        for cc in range(c):
            for i in range((h - kernel) // stride + 1):
                for j in range((w - kernel) // stride + 1):
                    values = [
                        (xl[nn][cc][i * stride + a][j * stride + b], a, b)
                        for a in range(kernel)
                        for b in range(kernel)
                    ]
                    yield nn, cc, i, j, values


def naive_maxpool2d(x, kernel: int, stride: int) -> np.ndarray:
    """Largest value of every window, found with Python comparisons."""
    n, c, h, w = x.shape
    out = np.empty((n, c, (h - kernel) // stride + 1, (w - kernel) // stride + 1), np.float32)
    for nn, cc, i, j, values in _pool_windows(x, kernel, stride):
        out[nn, cc, i, j] = max(v for v, _, _ in values)
    return out


def tap_chain_maxpool2d(x, kernel: int, stride: int) -> np.ndarray:
    """Window maxima as one np.maximum chain over the window offsets in row-major
    order.  Which of equal values (signed zeros) or of NaNs wins is numpy's
    choice, which Python's max does not make, so bytes are compared with this."""
    n, c, h, w = x.shape
    oh, ow = (h - kernel) // stride + 1, (w - kernel) // stride + 1
    y = None
    for i in range(kernel):
        for j in range(kernel):
            tap = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
            y = tap.copy() if y is None else np.maximum(y, tap, out=y)
    return y


def naive_maxpool2d_backward(x, kernel: int, stride: int, d_out) -> np.ndarray:
    """Each upstream value added, in window order, to its window's first maximum.

    "First" is the row-major scan with a strict comparison, so on a plateau
    the lowest flat index wins.  Sums are Python floats, rounded once.
    """
    acc = np.zeros(x.shape).tolist()
    dl = d_out.tolist()
    for nn, cc, i, j, values in _pool_windows(x, kernel, stride):
        best, a, b = values[0]
        for v, va, vb in values[1:]:
            if v > best:
                best, a, b = v, va, vb
        acc[nn][cc][i * stride + a][j * stride + b] += dl[nn][cc][i][j]
    return np.array(acc, dtype=np.float32)


def naive_cross_entropy(probs, labels) -> float:
    total = 0.0
    for row, label in zip(probs.tolist(), labels):
        total -= math.log(min(max(row[label], 1e-12), 1.0))
    return total / len(labels)


def scalar_resize_bilinear(pixels, out_w: int, out_h: int):
    """Direct transcription of the half-pixel-center bilinear formula."""
    in_h = len(pixels)
    in_w = len(pixels[0])
    out = [[[0, 0, 0] for _ in range(out_w)] for _ in range(out_h)]
    for dy in range(out_h):
        for dx in range(out_w):
            sx = min(max((dx + 0.5) * (in_w / out_w) - 0.5, 0.0), in_w - 1.0)
            sy = min(max((dy + 0.5) * (in_h / out_h) - 0.5, 0.0), in_h - 1.0)
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, in_w - 1), min(y0 + 1, in_h - 1)
            fx, fy = sx - x0, sy - y0
            for ch in range(3):
                top = pixels[y0][x0][ch] * (1 - fx) + pixels[y0][x1][ch] * fx
                bot = pixels[y1][x0][ch] * (1 - fx) + pixels[y1][x1][ch] * fx
                value = top * (1 - fy) + bot * fy
                out[dy][dx][ch] = min(max(int(math.floor(value + 0.5)), 0), 255)
    return out


def scalar_rotate_edge_clamped(pixels, angle_deg: float):
    """Per-pixel inverse rotation about the image center, edge-clamped, bilinear."""
    h = len(pixels)
    w = len(pixels[0])
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    out = [[[0, 0, 0] for _ in range(w)] for _ in range(h)]
    for dy in range(h):
        for dx in range(w):
            xs, ys = dx - cx, dy - cy
            sx = min(max(cos_t * xs + sin_t * ys + cx, 0.0), w - 1.0)
            sy = min(max(-sin_t * xs + cos_t * ys + cy, 0.0), h - 1.0)
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = sx - x0, sy - y0
            for ch in range(3):
                top = pixels[y0][x0][ch] * (1 - fx) + pixels[y0][x1][ch] * fx
                bot = pixels[y1][x0][ch] * (1 - fx) + pixels[y1][x1][ch] * fx
                value = top * (1 - fy) + bot * fy
                out[dy][dx][ch] = min(max(int(math.floor(value + 0.5)), 0), 255)
    return out


def scalar_warp(pixels, crop_w: int, crop_h: int, off_x: int, off_y: int,
                angle_deg: float, gain: float):
    """Per output pixel: inverse rotation about the center clamped to the image,
    half-pixel map into the crop clamped to the crop, one bilinear sample of the
    source, times gain, rounded once."""
    h = len(pixels)
    w = len(pixels[0])
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    out = [[[0, 0, 0] for _ in range(w)] for _ in range(h)]
    for dy in range(h):
        for dx in range(w):
            xs, ys = dx - cx, dy - cy
            rx = min(max(cos_t * xs + sin_t * ys + cx, 0.0), w - 1.0)
            ry = min(max(-sin_t * xs + cos_t * ys + cy, 0.0), h - 1.0)
            sx = min(max((rx + 0.5) * (crop_w / w) - 0.5, 0.0), crop_w - 1.0) + off_x
            sy = min(max((ry + 0.5) * (crop_h / h) - 0.5, 0.0), crop_h - 1.0) + off_y
            x0, y0 = int(math.floor(sx)), int(math.floor(sy))
            x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
            fx, fy = sx - x0, sy - y0
            for ch in range(3):
                top = pixels[y0][x0][ch] * (1 - fx) + pixels[y0][x1][ch] * fx
                bot = pixels[y1][x0][ch] * (1 - fx) + pixels[y1][x1][ch] * fx
                value = (top * (1 - fy) + bot * fy) * gain
                out[dy][dx][ch] = min(max(int(math.floor(value + 0.5)), 0), 255)
    return out


def loop_fisher_yates_order(n: int, seed: int) -> list[int]:
    """Fisher-Yates over range(n), one bounded draw per swap from i = n-1 down to 1."""
    order = list(range(n))
    rng = np.random.Generator(np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def closed_form_param_count(num_classes: int, fire_widths, head_hidden: int) -> int:
    """Layer-by-layer arithmetic from the architecture definition alone."""
    total = 64 * 3 * 3 * 3 + 64  # stem conv
    channels = 64
    for squeeze, e1, e3 in fire_widths:
        total += squeeze * channels + squeeze  # 1x1 squeeze
        total += e1 * squeeze + e1  # 1x1 expand
        total += e3 * squeeze * 9 + e3  # 3x3 expand
        channels = e1 + e3
    total += channels * head_hidden + head_hidden
    total += head_hidden * num_classes + num_classes
    return total


def rel_error(a, b) -> float:
    """Norm-level relative difference, the standard gradient-check metric."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.linalg.norm(a.ravel()), np.linalg.norm(b.ravel()))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm((a - b).ravel()) / denom)


def gradient(terms: np.ndarray) -> np.ndarray:
    """The float32 gradient of stacked terms (ops.LayerGrads): sum(axis=0) adds
    them in ops.add_terms's order, in float64, and rounds once."""
    return terms.sum(axis=0, dtype=np.float64).astype(np.float32)


def fd_gradient(f, x, d_out, delta: float = 1e-3) -> np.ndarray:
    """Central finite differences of L(x) = sum(f(x) * d_out), element by element."""
    d_out = np.asarray(d_out, dtype=np.float64)
    grad = np.zeros(x.shape, dtype=np.float64)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + delta
        plus = float((np.asarray(f(), dtype=np.float64) * d_out).sum())
        flat[i] = original - delta
        minus = float((np.asarray(f(), dtype=np.float64) * d_out).sum())
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * delta)
    return grad


# Float64 reference kernels.  The tests bound the package's float32 and
# blocked BLAS kernels against these, which sum in a documented order.


def _im2col(x, spec):
    """Patches of x as [N*OH*OW, C*kh*kw] in x's dtype, K ordered (c, kh, kw)."""
    cols, oh, ow = _patches(x, spec)
    return cols.transpose(0, 2, 1).reshape(-1, cols.shape[1]), oh, ow


def _linear(a, w, bias) -> np.ndarray:
    """Float64 a [M,K] @ w [K,O] + bias, summed from the bias in k order.

    One partial product per k keeps the order naive_conv2d and naive_matmul
    use, so those reproduce it bit for bit.
    """
    acc = np.broadcast_to(bias.astype(np.float64), (a.shape[0], w.shape[1])).copy()
    tmp = np.empty_like(acc)
    for k in range(w.shape[0]):
        np.multiply(a[:, k, None], w[None, k, :], out=tmp)
        np.add(acc, tmp, out=acc)
    return acc


def conv2d_reference(x, weight, bias, spec) -> np.ndarray:
    """conv2d_forward summed by _linear in (c, kh, kw) order: the bit-exact reference."""
    n = x.shape[0]
    cols, oh, ow = _im2col(x.astype(np.float64), spec)
    acc = _linear(cols, weight.reshape(spec.out_channels, -1).T.astype(np.float64), bias)
    return acc.reshape(n, oh, ow, spec.out_channels).transpose(0, 3, 1, 2).astype(np.float32)


def conv2d_backward_reference(x, weight, spec, d_out) -> LayerGrads:
    """Float64 gradients of conv2d_reference: d @ W, cols.T @ d and the sum of d
    over the [N*OH*OW, K] patches, the patch gradient folded back by _col2im.
    The weight and bias gradients are one float64 term each."""
    n = x.shape[0]
    oh, ow = spec.out_hw(*x.shape[2:])
    d = d_out.transpose(0, 2, 3, 1).reshape(n * oh * ow, spec.out_channels).astype(np.float64)
    cols, _, _ = _im2col(x.astype(np.float64), spec)
    w64 = weight.reshape(spec.out_channels, -1).T.astype(np.float64)
    d_cols = (d @ w64.T).reshape(n, oh * ow, -1).transpose(0, 2, 1)
    return LayerGrads(
        d_input=_col2im(d_cols, x.shape, spec).astype(np.float32),
        d_weight=(cols.T @ d).T.reshape(1, *weight.shape),
        d_bias=d.sum(axis=0)[None],
    )
