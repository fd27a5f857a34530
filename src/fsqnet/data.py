"""Image decoding, preprocessing, augmentation, and dataset assembly.

Images are 8-bit RGB buffers.  The preprocessing chain for the network is
resize (bilinear, half-pixel centers) -> optional augmentation -> normalize
(divide by 255, subtract per-channel training means), producing a [3, S, S]
float32 tensor.  Augmentation composes its crop, rescale, rotation and
brightness into one bilinear resampling with one rounding.  Resize and
augmentation share one sampler, which gathers uint8 channel planes with
flat 1-D takes.  Channel means are exact integer sums per channel.

Binary PPM (P6) is the always-available image format since it decodes in a
few lines with no dependencies; PGM (P5) grayscale is replicated to three
channels.  PNG works when Pillow is importable and is otherwise skipped.

Datasets follow the ``<root>/<class_name>/<image files>`` convention with
labels assigned by lexicographic directory order.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DecodeError
from .tensor import rng_from_seed

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
IMAGE_EXTENSIONS = (".ppm", ".pgm", ".png")

# training images get one fixed augmentation recipe: these ranges are not settings
MAX_ROTATION_DEG = 10.0
SCALE_JITTER = (0.9, 1.0)
BRIGHTNESS_JITTER = 0.1


@dataclass
class ImageBuffer:
    """Row-major 8-bit RGB raster; width and height are read from the pixels."""

    pixels: np.ndarray  # [height, width, 3] uint8

    def __post_init__(self):
        self.pixels = np.ascontiguousarray(self.pixels, dtype=np.uint8)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise DataError(f"pixel buffer shape {self.pixels.shape} is not HxWx3 RGB")
        if self.pixels.size == 0:
            raise DataError(f"degenerate image {self.width}x{self.height}")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]


@dataclass
class ImageFiles:
    """The image files of a dataset tree and their labels; nothing is decoded."""

    paths: list[Path]
    labels: list[int]
    label_names: list[str]

    def __len__(self) -> int:
        return len(self.paths)


@dataclass
class Dataset:
    """Equal-sized RGB images as one array, with one label per image."""

    samples: np.ndarray  # [N, H, W, 3] uint8
    labels: np.ndarray  # [N] intp
    label_names: list[str]
    channel_means: tuple[float, float, float]

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.intp)
        m = len(self.label_names)
        if len(set(self.label_names)) != m:
            raise DataError("duplicate class names")
        if self.labels.shape != (len(self.samples),):
            raise DataError(f"{self.labels.shape} labels for {len(self.samples)} images")
        if self.labels.size and not 0 <= self.labels.min() <= self.labels.max() < m:
            raise DataError(f"label outside [0, {m})")

    def __len__(self) -> int:
        return len(self.samples)

    def class_counts(self) -> list[int]:
        return np.bincount(self.labels, minlength=len(self.label_names)).tolist()


# ---------------------------------------------------------------------------
# decoding / encoding


def _ppm_tokens(data: bytes, count: int, path: str) -> tuple[list[int], int]:
    """First `count` whitespace/comment-separated integers and the offset just
    past the single whitespace byte that terminates the last one."""
    tokens: list[int] = []
    pos = 0
    while len(tokens) < count:
        if pos >= len(data):
            raise DecodeError(f"truncated header in {path}")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            token = data[start:pos]
            try:
                tokens.append(int(token))
            except ValueError:
                raise DecodeError(f"bad header token {token!r} in {path}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DecodeError(f"missing header terminator in {path}")
    return tokens, pos + 1


def _decode_pnm(data: bytes, path: str) -> ImageBuffer:
    magic = data[:2]
    if not data[2:3].isspace():
        raise DecodeError(f"no whitespace after magic {magic!r} in {path}")
    (width, height, maxval), offset = _ppm_tokens(data[2:], 3, path)
    offset += 2
    if width < 1 or height < 1:
        raise DecodeError(f"bad dimensions {width}x{height} in {path}")
    if maxval != 255:
        raise DecodeError(f"unsupported maxval {maxval} in {path} (only 255)")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    payload = data[offset : offset + need]
    if len(payload) != need:
        raise DecodeError(f"truncated pixel data in {path} ({len(payload)} of {need} bytes)")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    return ImageBuffer(arr.copy())


def _decode_png(data: bytes, path: str) -> ImageBuffer:
    try:
        from PIL import Image
    except ImportError:
        raise DecodeError(f"PNG support needs Pillow, cannot read {path}")
    try:
        with Image.open(io.BytesIO(data)) as img:
            rgb = img.convert("RGB")
            arr = np.asarray(rgb, dtype=np.uint8)
    except Exception as exc:
        raise DecodeError(f"cannot decode PNG {path}: {exc}")
    return ImageBuffer(arr)


def load_image(path) -> ImageBuffer:
    """Decode a P6/P5 PNM or (with Pillow) PNG file into an RGB buffer."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise DecodeError(f"cannot read {path}: {exc}")
    if data[:2] in (b"P6", b"P5"):
        return _decode_pnm(data, str(path))
    if data[: len(PNG_SIGNATURE)] == PNG_SIGNATURE:
        return _decode_png(data, str(path))
    raise DecodeError(f"unrecognized image format in {path}")


def save_ppm(img: ImageBuffer, path) -> None:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(img.pixels.tobytes())


# ---------------------------------------------------------------------------
# geometry and normalization


def _round_u8(values: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(values + 0.5), 0.0, 255.0).astype(np.uint8)


def _sample_bilinear(pixels: np.ndarray, src_x: np.ndarray, src_y: np.ndarray) -> np.ndarray:
    """Float64 bilinear samples of HxWx3 pixels at in-range source coordinates.

    src_x and src_y broadcast against each other to the output grid; each
    output pixel lerps along x on the two bracketing rows, then along y.
    The uint8 channel planes are gathered with flat 1-D takes, never copied
    to float64.  The result is an HxWx3 view of channel-planar memory.
    """
    h, w = pixels.shape[:2]
    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = src_x - x0
    fy = src_y - y0

    planes = pixels.transpose(2, 0, 1).reshape(3, h * w)
    r0, r1 = y0 * w, y1 * w
    top = planes.take(r0 + x0, axis=1) * (1.0 - fx) + planes.take(r0 + x1, axis=1) * fx
    bottom = planes.take(r1 + x0, axis=1) * (1.0 - fx) + planes.take(r1 + x1, axis=1) * fx
    return (top * (1.0 - fy) + bottom * fy).transpose(1, 2, 0)


def resize_bilinear(img: ImageBuffer, out_w: int, out_h: int) -> ImageBuffer:
    """Bilinear resample with half-pixel centers, channels independent.

    Source coordinate for destination index d is (d + 0.5) * (in/out) - 0.5,
    clamped to the source extent, so interpolation never overshoots.
    """
    if out_w < 1 or out_h < 1:
        raise ConfigError(f"output dims must be >= 1, got {out_w}x{out_h}")
    if out_w == img.width and out_h == img.height:
        return ImageBuffer(img.pixels.copy())

    sx = np.clip((np.arange(out_w) + 0.5) * (img.width / out_w) - 0.5, 0.0, img.width - 1.0)
    sy = np.clip((np.arange(out_h) + 0.5) * (img.height / out_h) - 0.5, 0.0, img.height - 1.0)
    return ImageBuffer(_round_u8(_sample_bilinear(img.pixels, sx[None, :], sy[:, None])))


def normalize(img: ImageBuffer, channel_means) -> np.ndarray:
    """[3, H, W] float32 tensor: pixel/255 minus the per-channel mean."""
    means = tuple(float(m) for m in channel_means)
    if len(means) != 3 or any(not 0.0 <= m <= 1.0 for m in means):
        raise ConfigError(f"channel means must be 3 floats in [0,1], got {channel_means}")
    scaled = img.pixels.astype(np.float64) / 255.0
    scaled -= np.asarray(means, dtype=np.float64)[None, None, :]
    return np.ascontiguousarray(scaled.transpose(2, 0, 1).astype(np.float32))


def compute_channel_means(images) -> tuple[float, float, float]:
    """Per-channel mean of pixel/255 over every pixel of a [..., 3] uint8 array.

    Each channel is summed in exact uint64 integers, so the quotients equal
    those of an exact float64 sum to the bit."""
    pixels = np.asarray(images).reshape(-1, 3)
    if not len(pixels):
        raise DataError("cannot compute channel means of an empty dataset")
    sums = np.array([pixels[:, c].sum(dtype=np.uint64) for c in range(3)])
    means = sums / (255.0 * len(pixels))
    return (float(means[0]), float(means[1]), float(means[2]))


# ---------------------------------------------------------------------------
# augmentation


def _warp(pixels: np.ndarray, crop_w: int, crop_h: int, off_x: int, off_y: int,
          angle_deg: float, gain: float) -> np.ndarray:
    """Crop at (off_x, off_y), rescale to full size, rotate about the center and
    scale by gain as one inverse map: rotate each output pixel by -angle_deg and
    clamp to the image, then map it into the crop with resize's half-pixel formula
    and clamp to the crop.  Sampled and rounded once; identity returns the input."""
    h, w = pixels.shape[:2]
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs = np.arange(w, dtype=np.float64) - cx
    ys = np.arange(h, dtype=np.float64) - cy
    rot_x = np.clip(cos_t * xs[None, :] + sin_t * ys[:, None] + cx, 0.0, w - 1.0)
    rot_y = np.clip(-sin_t * xs[None, :] + cos_t * ys[:, None] + cy, 0.0, h - 1.0)
    src_x = np.clip((rot_x + 0.5) * (crop_w / w) - 0.5, 0.0, crop_w - 1.0) + off_x
    src_y = np.clip((rot_y + 0.5) * (crop_h / h) - 0.5, 0.0, crop_h - 1.0) + off_y
    return _round_u8(_sample_bilinear(pixels, src_x, src_y) * gain)


def augment(img: ImageBuffer, flip: bool, seed: int) -> ImageBuffer:
    """Random crop-and-rescale, rotation, brightness, and a flip if allowed.

    Every random draw happens unconditionally in a fixed order, so the output
    is a pure function of (img, flip, seed) and the flip setting changes no
    other stage.
    """
    rng = rng_from_seed(seed)
    scale = float(rng.uniform(*SCALE_JITTER))
    crop_w = max(1, round(img.width * scale))
    crop_h = max(1, round(img.height * scale))
    off_x = int(rng.integers(0, img.width - crop_w + 1))
    off_y = int(rng.integers(0, img.height - crop_h + 1))
    angle = float(rng.uniform(-MAX_ROTATION_DEG, MAX_ROTATION_DEG))
    brightness = float(rng.uniform(-BRIGHTNESS_JITTER, BRIGHTNESS_JITTER))
    mirror = bool(rng.integers(0, 2))

    out = _warp(img.pixels, crop_w, crop_h, off_x, off_y, angle, 1.0 + brightness)
    return ImageBuffer(out[:, ::-1] if flip and mirror else out)


# ---------------------------------------------------------------------------
# dataset assembly


def fisher_yates_order(n: int, seed: int) -> list[int]:
    """Deterministic permutation of range(n)."""
    order = list(range(n))
    rng = rng_from_seed(seed)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        order[i], order[j] = order[j], order[i]
    return order


def load_dataset(root_dir) -> ImageFiles:
    """The image files of one subdirectory per class, labels by lexicographic
    directory order.  Nothing is decoded; see resize_dataset."""
    root = Path(root_dir)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if len(class_dirs) < 2:
        raise DataError(f"dataset root {root} needs >= 2 class directories")
    paths: list[Path] = []
    labels: list[int] = []
    for label, class_dir in enumerate(class_dirs):
        for path in sorted(class_dir.iterdir()):
            if path.suffix.lower() in IMAGE_EXTENSIONS and path.is_file():
                paths.append(path)
                labels.append(label)
    return ImageFiles(paths, labels, [d.name for d in class_dirs])


def resize_dataset(files: ImageFiles, size: int) -> Dataset:
    """Each file decoded and resized to size x size, one at a time, into one array.

    Undecodable files are skipped with a warning on stderr; a class left with
    no decodable images is an error.
    """
    pixels = np.empty((len(files), size, size, 3), dtype=np.uint8)
    kept: list[int] = []
    for index, path in enumerate(files.paths):
        try:
            image = load_image(path)
        except DecodeError as exc:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
            continue
        pixels[len(kept)] = resize_bilinear(image, size, size).pixels
        kept.append(index)
    labels = np.asarray(files.labels, dtype=np.intp)[kept]
    counts = np.bincount(labels, minlength=len(files.label_names))
    if not counts.all():
        raise DataError(f"class {files.label_names[counts.argmin()]!r} has no decodable images")
    pixels = pixels[: len(kept)]
    return Dataset(pixels, labels, list(files.label_names), compute_channel_means(pixels))


def shuffle_split(dataset: Dataset, seed: int, val_fraction: float) -> tuple[Dataset, Dataset]:
    """Fisher-Yates shuffle then a stratified split.

    Each class contributes its first ceil(val_fraction * count) shuffled
    samples to the validation split.  Both splits carry the training split's
    channel means so validation is normalized with training statistics.
    """
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0,1), got {val_fraction}")
    counts = dataset.class_counts()
    quotas = [math.ceil(val_fraction * c) for c in counts]
    for name, count, quota in zip(dataset.label_names, counts, quotas):
        if count < 2 or quota >= count:
            raise DataError(
                f"class {name!r} has {count} samples, too few to appear in both splits"
            )
    order = np.asarray(fisher_yates_order(len(dataset), seed), dtype=np.intp)
    shuffled = dataset.labels[order]
    rank = np.empty_like(order)  # position of each sample among its class in shuffled order
    for label, count in enumerate(counts):
        rank[shuffled == label] = np.arange(count)
    to_val = rank < np.asarray(quotas, dtype=np.intp)[shuffled]
    train_idx, val_idx = order[~to_val], order[to_val]
    train_samples = dataset.samples[train_idx]
    means = compute_channel_means(train_samples)
    names = list(dataset.label_names)
    return (Dataset(train_samples, dataset.labels[train_idx], names, means),
            Dataset(dataset.samples[val_idx], dataset.labels[val_idx], list(names), means))
