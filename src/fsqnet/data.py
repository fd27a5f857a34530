"""Image decoding, preprocessing, augmentation, and dataset assembly.

Images are 8-bit RGB buffers.  The preprocessing chain for the network is
resize (bilinear, half-pixel centers) -> optional augmentation -> normalize
(divide by 255, subtract per-channel training means), producing a [3, S, S]
float32 tensor.  Augmentation takes only a uint8 [N, S, S, 3] batch and one
row of six uniform draws per image, which it maps to the image's crop,
rescale, rotation, brightness and mirror bit with array ops; the batch is
warped as one bilinear resampling with one rounding.
Resize and augmentation share one sampler, which gathers the uint8 channel
planes of a batch of images with flat 1-D takes.  Resize takes one image or a
batch of equal-size ones; resize_dataset resizes each run of consecutive
equal-size sources in one call, as many as fit WARP_PIXELS.  Normalize takes
one image or a batch and looks each pixel up in its channel's table of 256
float32 values.  Channel means are exact integer sums per channel.

Decode-and-resize, augment and normalize split a batch by image across the
CPUs (``ops._split``); README's Threads section tells when and why.

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
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DecodeError
from .ops import SPLIT_ELEMENTS, _split
from .tensor import rng_from_seed

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
IMAGE_EXTENSIONS = (".ppm", ".pgm", ".png")

# training images get one fixed augmentation recipe: these ranges are not settings
MAX_ROTATION_DEG = 10.0
SCALE_JITTER = (0.9, 1.0)
BRIGHTNESS_JITTER = 0.1

# pixels warped or resized at once: a batch of 32 px images together, a 244 px image
# alone, so the float64 grids and samples stay near the size of the caches.  Also the
# per-image output size from which the data path splits a batch across the CPUs:
# resize_dataset of 288 images at 40 -> 32 px runs no faster split
WARP_PIXELS = 1 << 15


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


def _ppm_tokens(data: bytes, pos: int, count: int, path: str) -> tuple[list[int], int]:
    """First `count` whitespace/comment-separated integers from offset pos on, and
    the offset just past the single whitespace byte that terminates the last one."""
    tokens: list[int] = []
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
    (width, height, maxval), offset = _ppm_tokens(data, 2, 3, path)
    if width < 1 or height < 1:
        raise DecodeError(f"bad dimensions {width}x{height} in {path}")
    if maxval != 255:
        raise DecodeError(f"unsupported maxval {maxval} in {path} (only 255)")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    if len(data) - offset < need:
        raise DecodeError(f"truncated pixel data in {path} ({len(data) - offset} of {need} bytes)")
    # a view of the file's bytes, copied once into the decoded array
    arr = np.frombuffer(data, np.uint8, need, offset).reshape(height, width, channels)
    return ImageBuffer(np.repeat(arr, 3, axis=2) if channels == 1 else arr.copy())


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


def _split_images(n: int, h: int, w: int, work) -> None:
    """work(lo, hi) over image ranges covering [0, n) of h x w output images, split
    across the CPUs by ops._split whenever each image has WARP_PIXELS pixels: two
    such images split, although they hold fewer than SPLIT_ELEMENTS elements."""
    _split(n, SPLIT_ELEMENTS if h * w >= WARP_PIXELS else 0, work)


def _round_u8(values: np.ndarray) -> np.ndarray:
    """values rounded half up and clamped to uint8, computed in values itself."""
    np.floor(np.add(values, 0.5, out=values), out=values)
    return np.clip(values, 0.0, 255.0, out=values).astype(np.uint8)


def _sample_bilinear(pixels: np.ndarray, src_x: np.ndarray, src_y: np.ndarray) -> np.ndarray:
    """Float64 bilinear samples of [N, h, w, 3] pixels at in-range source coordinates.

    src_x and src_y broadcast against each other to the [N, H, W] output grids,
    image k's grid in its coordinates; each output pixel lerps along x on the two
    bracketing rows, then along y.  Flat 1-D takes gather from one uint8 copy of
    the channel planes, [3, N*h*w], image k at offset k*h*w; np.take would copy a
    strided view at every take.  The result: an [N, H, W, 3] view of planar memory.
    """
    n, h, w = pixels.shape[:3]
    x0 = np.floor(src_x).astype(np.intp)
    y0 = np.floor(src_y).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = src_x - x0
    fy = src_y - y0
    gx = 1.0 - fx

    planes = np.ascontiguousarray(pixels.transpose(3, 0, 1, 2)).reshape(3, n * h * w)
    offsets = np.arange(0, n * h * w, h * w).reshape(n, 1, 1)
    r0, r1 = y0 * w + offsets, y1 * w + offsets
    # (A*gx + B*fx) * (1-fy) + (C*gx + D*fx) * fy, one float64 step at a time, in 3 buffers
    top, t = planes.take(r0 + x0, axis=1) * gx, planes.take(r0 + x1, axis=1) * fx
    top += t
    bottom = planes.take(r1 + x0, axis=1) * gx
    bottom += np.multiply(planes.take(r1 + x1, axis=1), fx, out=t)
    top *= 1.0 - fy
    bottom *= fy
    top += bottom
    return top.transpose(1, 2, 3, 0)


def resize_bilinear(images, out_w: int, out_h: int):
    """Bilinear resample with half-pixel centers, channels independent: an
    ImageBuffer for one ImageBuffer, uint8 [N, out_h, out_w, 3] for uint8
    [N, h, w, 3] pixels, each image of a batch given the float64 steps it gets alone.

    Source coordinate for destination index d is (d + 0.5) * (in/out) - 0.5,
    clamped to the source extent, so interpolation never overshoots.
    """
    if out_w < 1 or out_h < 1:
        raise ConfigError(f"output dims must be >= 1, got {out_w}x{out_h}")
    one = isinstance(images, ImageBuffer)
    pixels = images.pixels[None] if one else images
    h, w = pixels.shape[1:3]
    if (out_h, out_w) == (h, w):
        out = pixels.copy()
    else:
        sx = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
        sy = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
        out = _round_u8(_sample_bilinear(pixels, sx, sy[:, None]))
    return ImageBuffer(out[0]) if one else out


def check_channel_means(channel_means) -> tuple[float, float, float]:
    """The means as 3 floats; ConfigError unless each is a number in [0, 1] (NaN is not)."""
    means = tuple(channel_means)
    if len(means) != 3 or any(
        isinstance(m, bool) or not isinstance(m, Real) or not 0.0 <= m <= 1.0 for m in means
    ):
        raise ConfigError(f"channel means must be 3 numbers in [0,1], got {channel_means}")
    return tuple(float(m) for m in means)


def normalize(images, channel_means) -> np.ndarray:
    """Pixel/255 minus the per-channel mean as float32, channels first: [3, H, W]
    for one ImageBuffer, [..., 3, H, W] for uint8 [..., H, W, 3] pixels.

    Each channel's 256 values are computed once in float64 and rounded to
    float32; the pixels then look them up, which gives the bits of converting
    every pixel without a float64 copy of the images.
    """
    means = check_channel_means(channel_means)
    pixels = images.pixels if isinstance(images, ImageBuffer) else images
    table = (np.arange(256) / 255.0 - np.asarray(means)[:, None]).astype(np.float32)
    batch = pixels.reshape(-1, *pixels.shape[-3:])
    n, h, w = batch.shape[:3]
    out = np.empty((n, 3, h, w), dtype=np.float32)

    def work(lo, hi):
        for c in range(3):  # uint8 indices stay in the table; "clip" writes into out unbuffered
            np.take(table[c], batch[lo:hi, ..., c], out=out[lo:hi, c], mode="clip")

    _split_images(n, h, w, work)
    return out.reshape(*pixels.shape[:-3], 3, h, w)


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


def _warp(pixels: np.ndarray, crop_w, crop_h, off_x, off_y, angle_deg, gain,
          mirror) -> np.ndarray:
    """Crop at (off_x, off_y), rescale to full size, rotate about the center,
    scale by gain and mirror left-right as one inverse map: rotate each output
    pixel by -angle_deg and clamp to the image, then map it into the crop with
    resize's half-pixel formula and clamp to the crop.  Sampled and rounded once;
    identity returns the input.  A mirrored image takes its output columns in
    reverse order, so its pixels are those of the unmirrored warp, reversed.

    pixels are uint8 [N, H, W, 3] and each parameter holds N values, one per
    image.  Each image's trigonometry is done in Python floats.  The [n, H, W]
    grids of as many images as fit in WARP_PIXELS output pixels are built and
    sampled at once, within the image ranges of _split_images.
    """
    n, h, w = pixels.shape[:3]
    thetas = [math.radians(a) for a in angle_deg]
    per_image = np.array([[math.cos(t) for t in thetas], [math.sin(t) for t in thetas],
                          crop_w, crop_h, off_x, off_y, gain], dtype=np.float64)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    xs = np.arange(w, dtype=np.float64) - cx
    columns = np.where(np.asarray(mirror, dtype=bool)[:, None, None], xs[::-1], xs)
    ys = (np.arange(h, dtype=np.float64) - cy)[:, None]
    out = np.empty((3, n, h, w), dtype=np.uint8)
    step = max(1, WARP_PIXELS // (h * w))

    def work(lo, hi):
        for k in range(lo, hi, step):
            j = min(k + step, hi)
            cos_t, sin_t, cw, ch, ox, oy, g = per_image[:, k:j, None, None]
            x = columns[k:j]
            rot_x = np.clip(cos_t * x + sin_t * ys + cx, 0.0, w - 1.0)
            rot_y = np.clip(-sin_t * x + cos_t * ys + cy, 0.0, h - 1.0)
            src_x = np.clip((rot_x + 0.5) * (cw / w) - 0.5, 0.0, cw - 1.0) + ox
            src_y = np.clip((rot_y + 0.5) * (ch / h) - 0.5, 0.0, ch - 1.0) + oy
            samples = _sample_bilinear(pixels[k:j], src_x, src_y)
            samples *= g[..., None]
            out[:, k:j] = _round_u8(samples).transpose(3, 0, 1, 2)

    _split_images(n, h, w, work)
    return out.transpose(1, 2, 3, 0)


def augment(images: np.ndarray, flip: bool, draws) -> np.ndarray:
    """Random crop-and-rescale, rotation, brightness, and a flip if allowed.

    Takes uint8 [N, H, W, 3] pixels and float64 draws [N, 6] in [0, 1), a row
    (u0..u5) per image: crop scale lo + (hi - lo)*u0 over SCALE_JITTER, sides
    rounded and at least 1; offsets floor(u*(side - crop + 1)) from u1, u2; angle
    and gain spread evenly over +-MAX_ROTATION_DEG and 1 +- BRIGHTNESS_JITTER by
    u3, u4; mirror bit u5 < 0.5, used only when flip is allowed.  An image's output
    is a pure function of (image, flip, row).  The batch goes through one _warp call.
    """
    n, h, w = images.shape[:3]
    u = np.asarray(draws, dtype=np.float64)
    if u.shape != (n, 6) or not ((u >= 0.0) & (u < 1.0)).all():
        raise ConfigError(f"augmentation draws must be [{n}, 6] in [0, 1), got shape {u.shape}")
    lo, hi = SCALE_JITTER
    crop = np.maximum(1, np.rint(np.multiply.outer(lo + (hi - lo) * u[:, 0], (w, h))))
    offset = np.floor(u[:, 1:3] * ((w, h) - crop + 1))
    angle = MAX_ROTATION_DEG * (2.0 * u[:, 3] - 1.0)
    gain = 1.0 + BRIGHTNESS_JITTER * (2.0 * u[:, 4] - 1.0)
    return _warp(images, *crop.T, *offset.T, angle, gain, flip & (u[:, 5] < 0.5))


# ---------------------------------------------------------------------------
# dataset assembly


def fisher_yates_order(n: int, seed: int) -> list[int]:
    """Deterministic permutation of range(n).

    The swap partners of i = n-1 .. 1 come from one bounded-integer call,
    which draws the stream one `rng.integers(0, i + 1)` per i would."""
    order = list(range(n))
    partners = rng_from_seed(seed).integers(0, np.arange(n, 1, -1)).tolist()
    for i, j in zip(range(n - 1, 0, -1), partners):
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
    """Each file decoded and resized to size x size into its row of one array,
    in file ranges split across the CPUs (_split_images).

    Within a range, each run of consecutive decoded sources of one shape goes
    through one resize_bilinear call, as many as fit in WARP_PIXELS pixels, each
    counted as the larger of its source and output.  A source that fills that
    alone is resized by itself, without a stacked copy, before the next file
    is decoded.  Undecodable files are skipped with a warning on stderr each,
    in file order; a class left with no decodable images is an error.
    """
    pixels = np.empty((len(files), size, size, 3), dtype=np.uint8)
    errors: list[DecodeError | None] = [None] * len(files)

    def work(lo, hi):
        run, rows = [], []  # decoded sources of one shape and their rows

        def resize_run():
            block = np.stack(run) if len(run) > 1 else run[0][None]
            pixels[rows] = resize_bilinear(block, size, size)
            run.clear()
            rows.clear()

        for index in range(lo, hi):
            try:
                source = load_image(files.paths[index]).pixels
            except DecodeError as exc:
                errors[index] = exc
                continue
            if run and source.shape != run[0].shape:
                resize_run()
            run.append(source)
            rows.append(index)
            del source  # only the run holds it, so a resized source is freed before the next decode
            if len(run) >= WARP_PIXELS // max(run[0].shape[0] * run[0].shape[1], size * size):
                resize_run()
        if run:
            resize_run()

    _split_images(len(files), size, size, work)
    kept = [index for index, exc in enumerate(errors) if exc is None]
    for path, exc in zip(files.paths, errors):
        if exc is not None:
            print(f"warning: skipping {path}: {exc}", file=sys.stderr)
    labels = np.asarray(files.labels, dtype=np.intp)[kept]
    counts = np.bincount(labels, minlength=len(files.label_names))
    if not counts.all():
        raise DataError(f"class {files.label_names[counts.argmin()]!r} has no decodable images")
    if len(kept) < len(files):  # move the kept rows up, in order, within the array
        for row, index in enumerate(kept):
            pixels[row] = pixels[index]
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
