"""Small synthetic color/shape datasets for tests and quick experiments.

Each class is a distinct base color with mild pixel noise; classes past the
first two also draw a centered square in a contrasting color, so nets must
pick up more than the mean pixel.  Everything is a pure function of the seed.
"""

from __future__ import annotations

import string
from pathlib import Path

import numpy as np

from .data import Dataset, ImageBuffer, compute_channel_means, save_ppm
from .errors import ConfigError
from .tensor import derive_seed, rng_from_seed

PALETTE = (
    (200, 50, 50),
    (50, 70, 200),
    (60, 190, 80),
    (220, 210, 60),
    (180, 60, 200),
    (60, 200, 200),
)
NOISE = 18


def synth_image(class_index: int, size: int, seed: int) -> ImageBuffer:
    rng = rng_from_seed(seed)
    base = PALETTE[class_index % len(PALETTE)]
    pixels = rng.integers(-NOISE, NOISE + 1, size=(size, size, 3))
    pixels += base
    if class_index >= 2:
        accent = PALETTE[(class_index + 3) % len(PALETTE)]
        lo, hi = size // 4, size - size // 4
        pixels[lo:hi, lo:hi] = accent
    return ImageBuffer(pixels.clip(0, 255))


def class_names(num_classes: int, per_class: int, size: int) -> list[str]:
    if not 1 <= num_classes <= len(string.ascii_lowercase):
        raise ConfigError(f"synthetic datasets have 1 to 26 classes, got {num_classes}")
    if per_class < 1 or size < 1:
        raise ConfigError(f"size and per_class must be >= 1, got {size} and {per_class}")
    return list(string.ascii_lowercase[:num_classes])


def make_dataset(num_classes: int, per_class: int, size: int, seed: int) -> Dataset:
    """In-memory dataset with `per_class` images per class."""
    names = class_names(num_classes, per_class, size)
    images = np.stack([synth_image(label, size, derive_seed(seed, label, index)).pixels
                       for label in range(num_classes) for index in range(per_class)])
    labels = np.repeat(np.arange(num_classes), per_class)
    return Dataset(images, labels, names, compute_channel_means(images))


def write_dataset(root, num_classes: int, per_class: int, size: int, seed: int) -> Path:
    """Write the same dataset as a <root>/<class>/<n>.ppm tree; returns root."""
    root = Path(root)
    for label, name in enumerate(class_names(num_classes, per_class, size)):
        class_dir = root / name
        class_dir.mkdir(parents=True, exist_ok=True)
        for index in range(per_class):
            image = synth_image(label, size, derive_seed(seed, label, index))
            save_ppm(image, class_dir / f"{index:03d}.ppm")
    return root
