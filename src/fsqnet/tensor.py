"""Dense float32 tensor primitives.

Conventions used across the package:

* A tensor is a C-contiguous ``numpy.ndarray`` of dtype float32.  Images
  and activations use NCHW layout (batch, channel, height, width) so inner
  loops run contiguously over width.
* Randomness comes from numpy's PCG64 generator seeded with an explicit
  64-bit integer; the same seed reproduces the same stream on every
  platform.  ``derive_seed`` folds several integers into one child seed via
  ``numpy.random.SeedSequence``.
"""

from __future__ import annotations

from math import prod, sqrt

import numpy as np


def he_init(shape, fan_in: int, seed: int) -> np.ndarray:
    """Normal(0, 2/fan_in) init: std sqrt(2/fan_in), suited to ReLU nets.

    Pure function of (shape, fan_in, seed): a fresh PCG64 stream is created
    per call, so the same arguments always give bit-identical tensors.
    """
    samples = rng_from_seed(seed).standard_normal(prod(shape)) * sqrt(2.0 / fan_in)
    return samples.reshape(shape).astype(np.float32)


def rng_from_seed(seed: int) -> np.random.Generator:
    """PCG64 generator for an explicit 64-bit seed."""
    return np.random.Generator(np.random.PCG64(int(seed) & 0xFFFFFFFFFFFFFFFF))


def derive_seed(*parts: int) -> int:
    """Deterministically fold several integers into one 64-bit child seed."""
    state = np.random.SeedSequence([int(p) & 0xFFFFFFFFFFFFFFFF for p in parts])
    return int(state.generate_state(1, dtype=np.uint64)[0])
