"""Fire modules and the full classifier network.

The backbone is the small-variant SqueezeNet topology: a 3x3 stride-2 stem
convolution, 3/2 max pools, and a list of fire modules (1x1 squeeze into
parallel 1x1 and 3x3 expands whose outputs concatenate along channels).
The classifier head replaces the usual conv10 with global average pooling
followed by two dense layers and a softmax, which keeps the parameter count
small while still producing per-class probabilities.

Each layer kind is one class that owns its parameter shapes, forward and
backward; ``layer_plan`` lists the layers in call order, and the parameter
table, layer summary, forward and backward passes all loop over it.

Parameters live in a flat name -> array dict using ``<layer>/weight`` and
``<layer>/bias`` keys, fully determined by the config, which is what lets
checkpoints validate shapes on load.  A training forward returns its tape, a
list of (layer, layer tape) pairs, instead of keeping it on the model; the
backward pass returns each parameter's gradient terms (ops.LayerGrads).
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from numbers import Real
from typing import ClassVar

import numpy as np

from .errors import ConfigError, ModelError, ShapeError, StateError
from .ops import (
    ConvSpec,
    LayerGrads,
    channel_concat,
    channel_split,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_mask,
    global_avg_pool,
    global_avg_pool_backward,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    softmax,
)
from .tensor import derive_seed, he_init

MIN_INPUT_SIZE = 32
STEM_CHANNELS = 64
POOL_KERNEL = 3
POOL_STRIDE = 2
# mid-network pools sit after these (1-based) fire positions when more follow
POOL_AFTER_FIRES = (2, 4)


@dataclass(frozen=True)
class FireSpec:
    """Channel widths of one fire module."""

    squeeze_1x1: int
    expand_1x1: int
    expand_3x3: int

    def __post_init__(self):
        if any(type(width) is not int for width in astuple(self)):
            raise ConfigError(f"fire widths must be integers, got {self}")
        if min(self.squeeze_1x1, self.expand_1x1, self.expand_3x3) < 1:
            raise ConfigError(f"fire widths must be >= 1, got {self}")
        if self.squeeze_1x1 > self.expand_1x1 + self.expand_3x3:
            raise ConfigError(f"squeeze wider than combined expand in {self}")

    @property
    def out_channels(self) -> int:
        return self.expand_1x1 + self.expand_3x3


V11_FIRES: tuple[FireSpec, ...] = (
    FireSpec(16, 64, 64),
    FireSpec(16, 64, 64),
    FireSpec(32, 128, 128),
    FireSpec(32, 128, 128),
    FireSpec(48, 192, 192),
    FireSpec(48, 192, 192),
    FireSpec(64, 256, 256),
    FireSpec(64, 256, 256),
)

TINY_FIRES: tuple[FireSpec, ...] = (FireSpec(2, 2, 2), FireSpec(2, 2, 2))


@dataclass(frozen=True)
class ModelConfig:
    num_classes: int = 24
    input_size: int = 244
    fire_specs: tuple[FireSpec, ...] = V11_FIRES
    head_hidden: int = 512
    dropout_rate: float = 0.5
    variant: str = "v1.1"

    def __post_init__(self):
        if any(type(v) is not int for v in (self.num_classes, self.input_size, self.head_hidden)):
            raise ConfigError(f"num_classes, input_size and head_hidden must be integers: {self}")
        if isinstance(self.dropout_rate, bool) or not isinstance(self.dropout_rate, Real):
            raise ConfigError(f"dropout_rate must be a number, got {self.dropout_rate!r}")
        if type(self.variant) is not str:
            raise ConfigError(f"variant must be a string, got {self.variant!r}")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.input_size < MIN_INPUT_SIZE:
            raise ConfigError(f"input_size must be >= {MIN_INPUT_SIZE}, got {self.input_size}")
        if not self.fire_specs:
            raise ConfigError("fire_specs must be non-empty")
        if self.head_hidden < 1:
            raise ConfigError(f"head_hidden must be >= 1, got {self.head_hidden}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        object.__setattr__(self, "fire_specs", tuple(self.fire_specs))

    def to_dict(self) -> dict:
        return {**asdict(self), "fire_specs": [list(astuple(f)) for f in self.fire_specs]}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of to_dict: every field by name, no default and no other key."""
        names = [f.name for f in fields(cls)]
        if sorted(d) != sorted(names):
            raise ConfigError(f"model config keys {sorted(d)}, expected {sorted(names)}")
        return cls(**{**d, "fire_specs": tuple(FireSpec(*f) for f in d["fire_specs"])})


def tiny_config(num_classes: int = 3, input_size: int = 32) -> ModelConfig:
    """Two-fire desk-scale network used by tests and quick experiments."""
    return ModelConfig(
        num_classes=num_classes,
        input_size=input_size,
        fire_specs=TINY_FIRES,
        head_hidden=32,
        variant="tiny",
    )


def _store_grads(grads: dict[str, np.ndarray], name: str, g: LayerGrads) -> np.ndarray:
    grads[f"{name}/weight"] = g.d_weight
    grads[f"{name}/bias"] = g.d_bias
    return g.d_input


@dataclass
class Layer:
    """One step of the network.

    ``forward(params, x, dropout_seed)`` returns the output and a tape holding
    what ``backward(tape, d, grads)`` needs, weights included; backward stores the
    terms of the layer's parameter gradients into ``grads`` and returns the
    gradient at its input.
    """

    name: str
    kind: ClassVar[str]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {}

    def _weights(self, params) -> tuple[np.ndarray, ...]:
        shapes = self.param_shapes()
        if any(n not in params or params[n].shape != s for n, s in shapes.items()):
            raise ModelError(f"layer {self.name!r} needs parameters shaped {shapes}")
        return tuple(params[n] for n in shapes)


@dataclass
class Conv(Layer):
    """Convolution followed by ReLU, as every conv in SqueezeNet is.

    The tape keeps the ReLU output y, not the pre-ReLU z: y > 0 exactly
    where z > 0, so relu_backward gives the same bytes from either.
    """

    conv: ConvSpec
    kind: ClassVar[str] = "conv"

    def param_shapes(self):
        c = self.conv
        return {
            f"{self.name}/weight": (c.out_channels, c.in_channels, c.kernel_h, c.kernel_w),
            f"{self.name}/bias": (c.out_channels,),
        }

    def forward(self, params, x, dropout_seed):
        w, b = self._weights(params)
        y = conv2d_forward(x, w, b, self.conv)
        relu(y, out=y)  # in place: the product is a fresh array
        return y, (x, w, y)

    def backward(self, tape, d, grads):
        x, w, y = tape
        g = conv2d_backward(x, w, self.conv, relu_backward(y, d))
        return _store_grads(grads, self.name, g)


@dataclass
class Fire(Layer):
    """relu(squeeze) into parallel relu(expand1x1), relu(expand3x3), concatenated."""

    fire: FireSpec
    in_channels: int
    kind: ClassVar[str] = "fire"

    def __post_init__(self):
        f = self.fire
        self.squeeze = Conv(f"{self.name}_squeeze", ConvSpec(f.squeeze_1x1, self.in_channels, 1, 1))
        self.expand1x1 = Conv(f"{self.name}_expand1x1", ConvSpec(f.expand_1x1, f.squeeze_1x1, 1, 1))
        self.expand3x3 = Conv(
            f"{self.name}_expand3x3", ConvSpec(f.expand_3x3, f.squeeze_1x1, 3, 3, pad=1)
        )

    def param_shapes(self):
        return {
            **self.squeeze.param_shapes(),
            **self.expand1x1.param_shapes(),
            **self.expand3x3.param_shapes(),
        }

    def forward(self, params, x, dropout_seed):
        s, s_tape = self.squeeze.forward(params, x, dropout_seed)
        e1, (_, w1, _) = self.expand1x1.forward(params, s, dropout_seed)
        e3, (_, w3, _) = self.expand3x3.forward(params, s, dropout_seed)
        y = channel_concat(e1, e3)
        # the expand tapes view y, so e1 and e3 are freed on return
        e = self.fire.expand_1x1
        return y, (s_tape, (s, w1, y[:, :e]), (s, w3, y[:, e:]))

    def backward(self, tape, d, grads):
        s_tape, e1_tape, e3_tape = tape
        d1, d3 = channel_split(d, self.fire.expand_1x1)
        d_s = self.expand1x1.backward(e1_tape, d1, grads)
        d_s += self.expand3x3.backward(e3_tape, d3, grads)
        return self.squeeze.backward(s_tape, d_s, grads)


@dataclass
class Pool(Layer):
    """3/2 max pool."""

    kind: ClassVar[str] = "pool"

    def forward(self, params, x, dropout_seed):
        y = maxpool2d(x, POOL_KERNEL, POOL_STRIDE)
        return y, (x, y)

    def backward(self, tape, d, grads):
        x, y = tape
        return maxpool2d_backward(x, y, POOL_KERNEL, POOL_STRIDE, d)


@dataclass
class GlobalAvgPool(Layer):
    kind: ClassVar[str] = "gap"

    def forward(self, params, x, dropout_seed):
        return global_avg_pool(x), x.shape[2:]

    def backward(self, tape, d, grads):
        return global_avg_pool_backward(d, *tape)


@dataclass
class Dense(Layer):
    in_features: int
    units: int
    apply_relu: bool
    kind: ClassVar[str] = "dense"

    def param_shapes(self):
        return {
            f"{self.name}/weight": (self.in_features, self.units),
            f"{self.name}/bias": (self.units,),
        }

    def forward(self, params, x, dropout_seed):
        w, b = self._weights(params)
        y = dense_forward(x, w, b)
        if self.apply_relu:
            y = relu(y)
        return y, (x, w, y)

    def backward(self, tape, d, grads):
        x, w, y = tape
        if self.apply_relu:
            d = relu_backward(y, d)
        return _store_grads(grads, self.name, dense_backward(x, w, d))


@dataclass
class Dropout(Layer):
    """Inverted dropout; the identity unless a dropout_seed is given.

    A (seed, row) pair masks one image with row `row` of its batch's mask.
    """

    rate: float
    kind: ClassVar[str] = "dropout"

    def forward(self, params, x, dropout_seed):
        if dropout_seed is None or self.rate == 0.0:
            return x, None
        seed, row = dropout_seed if isinstance(dropout_seed, tuple) else (dropout_seed, 0)
        mask = dropout_mask(x.shape, self.rate, seed, row)
        return x * mask, mask

    def backward(self, tape, d, grads):
        return d if tape is None else d * tape


@dataclass
class Softmax(Layer):
    kind: ClassVar[str] = "softmax"

    def forward(self, params, x, dropout_seed):
        return softmax(x), None

    def backward(self, tape, d, grads):
        return d  # gradient arrives at the logits, softmax is fused into the loss


def layer_plan(config: ModelConfig) -> list[Layer]:
    """Ordered layer list implied by the config."""
    layers: list[Layer] = [Conv("conv1", ConvSpec(STEM_CHANNELS, 3, 3, 3, stride=2)), Pool("pool1")]
    channels = STEM_CHANNELS
    pools = 1
    for i, fire in enumerate(config.fire_specs, start=1):
        layers.append(Fire(f"fire{i}", fire, channels))
        channels = fire.out_channels
        if i in POOL_AFTER_FIRES and i < len(config.fire_specs):
            pools += 1
            layers.append(Pool(f"pool{pools}"))
    return layers + [
        GlobalAvgPool("gap"),
        Dense("dense1", channels, config.head_hidden, apply_relu=True),
        Dropout("dropout", config.dropout_rate),
        Dense("dense2", config.head_hidden, config.num_classes, apply_relu=False),
        Softmax("softmax"),
    ]


def expected_param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every parameter the config implies, in build order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in layer_plan(config):
        shapes.update(layer.param_shapes())
    return shapes


def layer_summary(config: ModelConfig) -> list[dict]:
    """Per-layer name, output shape (channel-first, no batch dim) and parameter count.

    Each output shape is read from the layer's own forward on an empty batch
    with zero parameters, so the summary cannot disagree with the network.
    """
    rows = []
    x = np.zeros((0, 3, config.input_size, config.input_size), dtype=np.float32)
    for layer in layer_plan(config):
        shapes = layer.param_shapes()
        params = {name: np.zeros(shape, dtype=np.float32) for name, shape in shapes.items()}
        x, _ = layer.forward(params, x, None)
        count = sum(int(np.prod(s)) for s in shapes.values())
        rows.append({"name": layer.name, "output_shape": list(x.shape[1:]), "params": count})
    return rows


@dataclass(eq=False)  # compared by identity, as arrays have no single truth value
class Model:
    """Config plus named parameter tensors."""

    config: ModelConfig
    params: dict[str, np.ndarray]


def build_model(config: ModelConfig, seed: int) -> Model:
    """He-initialized model; bit-identical for identical (config, seed)."""
    params: dict[str, np.ndarray] = {}
    for index, (name, shape) in enumerate(expected_param_shapes(config).items()):
        if name.endswith("/weight"):
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            params[name] = he_init(shape, fan_in, derive_seed(seed, index))
        else:
            params[name] = np.zeros(shape, dtype=np.float32)
    return Model(config, params)


def model_forward(
    model: Model,
    batch: np.ndarray,
    training: bool = False,
    dropout_seed: int | None = None,
) -> np.ndarray | tuple[np.ndarray, list]:
    """Probabilities [N, num_classes] for an NCHW batch at the configured size.

    With training=True it returns (probs, tape) for model_backward.  Dropout
    fires only when training and a dropout_seed is given, so evaluation passes
    stay deterministic.  The seed is the batch's; an image trained alone passes
    (seed, its row in the batch) to get its row of the batch's mask.
    """
    size = model.config.input_size
    if batch.ndim != 4 or batch.shape[1:] != (3, size, size):
        raise ShapeError(f"batch shape {batch.shape}, expected [N,3,{size},{size}]")
    seed = dropout_seed if training else None
    tape: list = []
    x = batch
    for layer in layer_plan(model.config):
        x, layer_tape = layer.forward(model.params, x, seed)
        if training:
            tape.append((layer, layer_tape))
    return (x, tape) if training else x


def model_backward(tape: list, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradient terms per parameter (ops.LayerGrads) given the loss gradient at
    the pre-softmax logits; summed with ops.add_terms, they give each gradient.

    Pops the tape of a training forward from the end, so each layer's
    activations are freed as soon as its backward has run.
    """
    if not tape:
        raise StateError("model_backward needs the tape of a forward pass with training=True")
    grads: dict[str, np.ndarray] = {}
    d = d_logits
    while tape:
        layer, layer_tape = tape.pop()
        d = layer.backward(layer_tape, d, grads)
    return grads


def clone_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: p.copy() for name, p in params.items()}
