"""From-scratch SqueezeNet training and inference for fingerspelling images."""

from .data import (
    Dataset,
    ImageBuffer,
    ImageFiles,
    augment,
    compute_channel_means,
    load_dataset,
    load_image,
    normalize,
    resize_bilinear,
    resize_dataset,
    save_ppm,
    shuffle_split,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import (
    CheckpointError,
    CompatibilityError,
    ConfigError,
    CorruptionError,
    DataError,
    DecodeError,
    FormatError,
    FsqError,
    ModelError,
    NumericError,
    ShapeError,
    StateError,
)
from .model import (
    FireSpec,
    Model,
    ModelConfig,
    build_model,
    layer_summary,
    model_backward,
    model_forward,
    parameter_count,
    tiny_config,
)
from .train import (
    EpochMetrics,
    FitResult,
    History,
    TrainConfig,
    cross_entropy,
    evaluate,
    fit,
    pearson_correlation,
    sgd_step,
    train_epoch,
)

__version__ = "0.1.0"
