"""Dense float32 tensor primitives.

Conventions used across the package:

* A tensor is a C-contiguous ``numpy.ndarray`` of dtype float32 with 1 to 4
  dimensions.  Images and activations use NCHW layout (batch, channel,
  height, width) so inner loops run contiguously over width.
* Randomness comes from numpy's PCG64 generator seeded with an explicit
  64-bit integer; the same seed reproduces the same stream on every
  platform.  ``derive_seed`` folds several integers into one child seed via
  ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

from math import prod, sqrt

import numpy as np

from .errors import NumericError, ShapeError

MAX_NDIM = 4

Shape = tuple[int, ...]


def check_shape(dims) -> Shape:
    """Validate a shape: 1-4 dimensions, every dim a positive int."""
    dims = tuple(int(d) for d in dims)
    if not 1 <= len(dims) <= MAX_NDIM:
        raise ShapeError(f"shape must have 1..{MAX_NDIM} dims, got {dims}")
    for d in dims:
        if d < 1:
            raise ShapeError(f"all dims must be >= 1, got {dims}")
    if prod(dims) > np.iinfo(np.intp).max:
        raise ShapeError(f"element count of {dims} overflows the platform word")
    return dims


def check_finite(t: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.isfinite(t).all():
        raise NumericError(f"{what} contains NaN or Inf")
    return t


def he_init(shape, fan_in: int, seed: int) -> np.ndarray:
    """Normal(0, 2/fan_in) init: std sqrt(2/fan_in), suited to ReLU nets.

    Pure function of (shape, fan_in, seed): a fresh PCG64 stream is created
    per call, so the same arguments always give bit-identical tensors.
    """
    dims = check_shape(shape)
    if fan_in < 1:
        raise ShapeError(f"fan_in must be >= 1, got {fan_in}")
    rng = rng_from_seed(seed)
    samples = rng.standard_normal(prod(dims)) * sqrt(2.0 / fan_in)
    return check_finite(samples.reshape(dims).astype(np.float32))


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator for an explicit 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))


def derive_seed(*parts: int) -> int:
    """Deterministically fold several integers into one 64-bit child seed."""
    state = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(state.generate_state(1, dtype=np.uint64)[0])
