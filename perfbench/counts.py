"""Exact work counts computed from a model's layer plan, not measured.

For every convolution the plan implies, in call order: multiply-accumulates
per image, and the bytes of the two float64 buffers conv2d_forward allocates
per image, the im2col matrix [OH*OW, C*kh*kw] and the accumulator [OH*OW, O].
(The forward pass also holds a scratch array the size of the accumulator.)
These repeat exactly from run to run; the tracer checks them against the
shapes it sees at each conv call.
"""

from __future__ import annotations

from fsqnet.model import POOL_KERNEL, POOL_STRIDE, layer_plan
from fsqnet.ops import ConvSpec

from tracer import conv_kind

FLOAT64_BYTES = 8


def plan_convs(config) -> list[tuple[str, ConvSpec, int, int]]:
    """(network layer, ConvSpec, input H, input W) of every conv, in forward call order."""
    convs = []
    h = w = config.input_size
    for step in layer_plan(config):
        if step.kind == "conv":
            convs.append((step.name, step.conv, h, w))
            h, w = step.conv.out_hw(h, w)
        elif step.kind == "pool":
            h = (h - POOL_KERNEL) // POOL_STRIDE + 1
            w = (w - POOL_KERNEL) // POOL_STRIDE + 1
        elif step.kind == "fire":
            fire = step.fire
            squeeze = ConvSpec(fire.squeeze_1x1, step.in_channels, 1, 1)
            convs.append((step.name, squeeze, h, w))
            convs.append((step.name, ConvSpec(fire.expand_1x1, fire.squeeze_1x1, 1, 1), h, w))
            expand3x3 = ConvSpec(fire.expand_3x3, fire.squeeze_1x1, 3, 3, pad=1)
            convs.append((step.name, expand3x3, h, w))
    return convs


def conv_counts(config, batch: int) -> dict:
    """Per conv kind: MACs, im2col and accumulator bytes per image, and the largest
    single accumulator at `batch` images."""
    kinds: dict[str, dict] = {}
    for _, spec, h, w in plan_convs(config):
        oh, ow = spec.out_hw(h, w)
        k = spec.in_channels * spec.kernel_h * spec.kernel_w
        row = kinds.setdefault(conv_kind(spec), {
            "macs_per_image": 0, "im2col_bytes_per_image": 0, "acc_bytes_per_image": 0,
            "largest_acc_bytes_at_batch": 0, "convs": 0})
        acc = oh * ow * spec.out_channels * FLOAT64_BYTES
        row["macs_per_image"] += oh * ow * spec.out_channels * k
        row["im2col_bytes_per_image"] += oh * ow * k * FLOAT64_BYTES
        row["acc_bytes_per_image"] += acc
        row["largest_acc_bytes_at_batch"] = max(row["largest_acc_bytes_at_batch"], acc * batch)
        row["convs"] += 1
    return kinds
