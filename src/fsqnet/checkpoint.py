"""Binary checkpoint I/O: parameters, normalization means, labels, history.

Byte layout (all integers little-endian unsigned 32-bit):

    magic "FSQ1"
    format_version
    config_len, config JSON  (model config + channel_means + label_names)
    tensor_count
    per tensor: name_len, name UTF-8, ndim, dims..., float32 payload
    history_len, history JSON
    CRC-32 (IEEE, zlib.crc32) over every preceding byte

JSON blocks are canonical (sorted keys, no whitespace) so identical state
serializes to identical bytes.  Writes go to a temp file in the target
directory followed by an atomic rename, so a crashed save never leaves a
partial file at the final path.  No optimizer state is stored: `fit` starts
momentum from zero on every call, a resumed run included.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib

import numpy as np

from .data import check_channel_means
from .errors import CompatibilityError, ConfigError, CorruptionError, FormatError, StateError
from .model import Model, ModelConfig, expected_param_shapes
from .train import History

MAGIC = b"FSQ1"
FORMAT_VERSION = 1


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(model: Model, history: History, channel_means, label_names, path) -> None:
    """Serialize the model atomically to `path`."""
    means = list(check_channel_means(channel_means))
    names = list(label_names)
    if not all(isinstance(n, str) for n in names):
        raise ConfigError(f"label names must be strings, got {names!r}")
    if len(names) != model.config.num_classes:
        raise ConfigError(
            f"{len(names)} label names for {model.config.num_classes} classes"
        )

    config_block = _canonical_json(
        {"model": model.config.to_dict(), "channel_means": means, "label_names": names}
    )
    history_block = _canonical_json(history.to_jsonable())

    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    out += struct.pack("<I", len(config_block))
    out += config_block
    out += struct.pack("<I", len(model.params))
    for name, tensor in model.params.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded))
        out += encoded
        out += struct.pack("<I", tensor.ndim)
        for dim in tensor.shape:
            out += struct.pack("<I", dim)
        out += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
    out += struct.pack("<I", len(history_block))
    out += history_block
    out += struct.pack("<I", zlib.crc32(out) & 0xFFFFFFFF)

    directory = os.path.dirname(os.path.abspath(path))
    temp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    try:
        with open(temp_path, "wb") as fh:
            fh.write(out)
        os.replace(temp_path, path)
    finally:
        if os.path.exists(temp_path):
            os.unlink(temp_path)


class _Reader:
    """Walks a memoryview: payloads are views into the file buffer, not copies."""

    def __init__(self, data: memoryview):
        self.data = data
        self.offset = 0

    def take(self, count: int) -> memoryview:
        if self.offset + count > len(self.data):
            raise FormatError(
                f"truncated checkpoint: wanted {count} bytes at offset {self.offset}"
            )
        chunk = self.data[self.offset : self.offset + count]
        self.offset += count
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def text(self) -> str:
        """A u32 length, then that many UTF-8 bytes."""
        return self.take(self.u32()).tobytes().decode("utf-8")


def load_checkpoint(path) -> tuple[Model, History, tuple[float, float, float], list[str]]:
    """Validate magic, version, CRC, and shapes; reconstruct a frozen model."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 12:
        raise FormatError(f"file too short to be a checkpoint ({len(data)} bytes)")
    if data[: len(MAGIC)] != MAGIC:
        raise FormatError(f"bad magic {data[:len(MAGIC)]!r}, expected {MAGIC!r}")
    version = struct.unpack_from("<I", data, len(MAGIC))[0]
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version}, reader supports {FORMAT_VERSION}")
    stored_crc = struct.unpack_from("<I", data, len(data) - 4)[0]
    actual_crc = zlib.crc32(memoryview(data)[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise CorruptionError(f"CRC mismatch: stored {stored_crc:#010x}, actual {actual_crc:#010x}")

    reader = _Reader(memoryview(data)[:-4])
    reader.take(len(MAGIC) + 4)  # magic + version, already checked
    try:
        config_obj = json.loads(reader.text())
        if type(config_obj) is not dict or config_obj.keys() != {
                "channel_means", "label_names", "model"}:
            raise ValueError("config block must hold exactly channel_means, label_names and model")
        config = ModelConfig.from_dict(config_obj["model"])
        means = check_channel_means(config_obj["channel_means"])
        label_names = config_obj["label_names"]
        if type(label_names) is not list or any(type(n) is not str for n in label_names):
            raise TypeError(f"label names must be a list of strings, got {label_names!r}")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(reader.u32()):
            name = reader.text()
            if name in tensors:
                raise FormatError(f"duplicate tensor {name!r}")
            dims = tuple(reader.u32() for _ in range(reader.u32()))
            # one copy: native float32, writable, and not pinning the file buffer
            payload = reader.take(4 * math.prod(dims))
            tensors[name] = np.frombuffer(payload, "<f4").reshape(dims).astype(np.float32)
        history = History.from_jsonable(json.loads(reader.text()))
    except (KeyError, ValueError, TypeError, OverflowError, ConfigError, StateError) as exc:
        raise FormatError(f"malformed checkpoint structure: {exc}")
    if reader.offset != len(reader.data):
        raise FormatError(f"{len(reader.data) - reader.offset} unexpected trailing bytes")

    expected = expected_param_shapes(config)
    problems = []
    for name, shape in expected.items():
        if name not in tensors:
            problems.append(f"missing tensor {name!r}")
        elif tensors[name].shape != shape:
            problems.append(f"{name!r} has shape {tensors[name].shape}, config implies {shape}")
    for name in tensors:
        if name not in expected:
            problems.append(f"unexpected tensor {name!r}")
    if len(label_names) != config.num_classes:
        problems.append(f"{len(label_names)} label names for {config.num_classes} classes")
    if problems:
        raise CompatibilityError("; ".join(problems))
    return Model(config, tensors), history, means, label_names
