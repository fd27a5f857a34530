import math
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsqnet.data import (
    Dataset,
    ImageBuffer,
    augment,
    compute_channel_means,
    fisher_yates_order,
    load_dataset,
    load_image,
    normalize,
    resize_bilinear,
    resize_dataset,
    save_ppm,
    shuffle_split,
)
import fsqnet.data
import fsqnet.ops
from fsqnet.data import WARP_PIXELS, _warp
from fsqnet.errors import ConfigError, DataError, DecodeError
from fsqnet.model import build_model, tiny_config
from fsqnet.ops import ConvSpec, conv2d_forward
from fsqnet.train import evaluate
from oracles import (loop_fisher_yates_order, scalar_resize_bilinear, scalar_rotate_edge_clamped,
                     scalar_warp)
from test_ops import _force_split


def _solid(width, height, rgb):
    pixels = np.zeros((height, width, 3), np.uint8)
    pixels[:] = rgb
    return ImageBuffer(pixels)


def _random_image(rng, width, height):
    return ImageBuffer(rng.integers(0, 256, (height, width, 3), dtype=np.uint8))


class TestImageBuffer:
    def test_shape_validated(self):
        with pytest.raises(DataError):
            ImageBuffer(np.zeros((2, 3, 4), np.uint8))

    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            ImageBuffer(np.zeros((2, 0, 3), np.uint8))


class TestPpm:
    def test_known_bytes_decode(self, tmp_path):
        # 2x2 P6: red, green / blue, white
        payload = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255])
        path = tmp_path / "two.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + payload)
        img = load_image(path)
        assert (img.width, img.height) == (2, 2)
        assert img.pixels[0, 0].tolist() == [255, 0, 0]
        assert img.pixels[0, 1].tolist() == [0, 255, 0]
        assert img.pixels[1, 0].tolist() == [0, 0, 255]
        assert img.pixels[1, 1].tolist() == [255, 255, 255]

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1\n255\n\x01\x02\x03")
        assert load_image(path).pixels[0, 0].tolist() == [1, 2, 3]

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(DecodeError, match="trunc.ppm"):
            load_image(path)

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
        with pytest.raises(DecodeError):
            load_image(path)

    def test_grayscale_replicated(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\x10\x80")
        img = load_image(path)
        assert img.pixels[0, 0].tolist() == [0x10] * 3
        assert img.pixels[0, 1].tolist() == [0x80] * 3

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_encode_decode_round_trip(self, width, height, seed):
        img = _random_image(np.random.default_rng(seed), width, height)
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "rt.ppm"
            save_ppm(img, path)
            back = load_image(path)
        assert back.width == width and back.height == height
        assert np.array_equal(back.pixels, img.pixels)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DecodeError):
            load_image(tmp_path / "absent.ppm")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "junk.ppm"
        path.write_bytes(b"GIF89a....")
        with pytest.raises(DecodeError):
            load_image(path)

    @pytest.mark.parametrize("data,message", [
        (b"P6\n2 2", "truncated header"),
        (b"P6\n2 x 255\n", "bad header token"),
        (b"P6\n1 1\n255", "missing header terminator"),
        (b"P6\n0 1\n255\n", "bad dimensions"),
    ])
    def test_bad_header_rejected(self, tmp_path, data, message):
        path = tmp_path / "h.ppm"
        path.write_bytes(data)
        with pytest.raises(DecodeError, match=message):
            load_image(path)

    def test_decoding_copies_the_pixels_once(self, tmp_path):
        # the file's bytes and the decoded array, with no copy of the payload between
        source = 640 * 480 * 3
        path = tmp_path / "photo.ppm"
        save_ppm(_random_image(np.random.default_rng(44), 640, 480), path)
        tracemalloc.start()
        try:
            load_image(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * source

    def test_magic_needs_whitespace(self, tmp_path):
        path = tmp_path / "m.ppm"
        path.write_bytes(b"P61 1 255\n\x01\x02\x03")
        with pytest.raises(DecodeError, match="m.ppm"):
            load_image(path)


class TestPng:
    def test_round_trip_via_pillow(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        img = _random_image(np.random.default_rng(5), 6, 4)
        path = tmp_path / "x.png"
        PIL.fromarray(img.pixels, mode="RGB").save(path)
        back = load_image(path)
        assert np.array_equal(back.pixels, img.pixels)

    def test_grayscale_png_replicated(self, tmp_path):
        PIL = pytest.importorskip("PIL.Image")
        gray = np.arange(6, dtype=np.uint8).reshape(2, 3) * 40
        path = tmp_path / "g.png"
        PIL.fromarray(gray, mode="L").save(path)
        back = load_image(path)
        assert np.array_equal(back.pixels, np.repeat(gray[:, :, None], 3, axis=2))


class TestResize:
    def test_same_size_identity(self):
        img = _random_image(np.random.default_rng(0), 5, 7)
        out = resize_bilinear(img, 5, 7)
        assert np.array_equal(out.pixels, img.pixels)

    def test_constant_stays_constant(self):
        img = _solid(4, 4, (10, 200, 77))
        for w, h in [(1, 1), (3, 5), (9, 2)]:
            out = resize_bilinear(img, w, h)
            assert (out.pixels.reshape(-1, 3) == [10, 200, 77]).all()

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(1)
        img = _random_image(rng, 4, 4)
        out = resize_bilinear(img, 2, 2)
        reference = scalar_resize_bilinear(img.pixels.tolist(), 2, 2)
        assert out.pixels.tolist() == reference

    # sources up to 40 px against outputs up to 10 px draw downscales past 2x
    # (rows and columns the sampler never reads) and non-square grids
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 10), st.integers(1, 10),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_matches_scalar_reference_everywhere(self, in_w, in_h, out_w, out_h, seed):
        img = _random_image(np.random.default_rng(seed), in_w, in_h)
        ours = resize_bilinear(img, out_w, out_h)
        assert ours.pixels.tolist() == scalar_resize_bilinear(img.pixels.tolist(), out_w, out_h)

    @pytest.mark.parametrize("n", [1, 3])
    def test_strided_sources_match_the_scalar_reference(self, n):
        # channel-planar memory seen as [N, h, w, 3], and every other column of a
        # wider batch: the sampler copies each into channel planes once per call
        rng = np.random.default_rng(44)
        planar = rng.integers(0, 256, (n, 3, 9, 11), dtype=np.uint8).transpose(0, 2, 3, 1)
        every_other = rng.integers(0, 256, (n, 9, 22, 3), dtype=np.uint8)[:, :, ::2]
        for pixels in (planar, every_other):
            assert not pixels.flags.c_contiguous
            out = resize_bilinear(pixels, 7, 5)
            assert np.array_equal(out, resize_bilinear(np.ascontiguousarray(pixels), 7, 5))
            for image, resized in zip(pixels, out):
                assert resized.tolist() == scalar_resize_bilinear(image.tolist(), 7, 5)
                assert np.array_equal(resize_bilinear(ImageBuffer(image), 7, 5).pixels, resized)

    def test_no_overshoot(self):
        rng = np.random.default_rng(2)
        img = _random_image(rng, 6, 6)
        out = resize_bilinear(img, 13, 3)
        assert out.pixels.min() >= img.pixels.min()
        assert out.pixels.max() <= img.pixels.max()

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            resize_bilinear(_solid(2, 2, (0, 0, 0)), 0, 2)


class TestNormalize:
    def test_endpoints(self):
        white = normalize(_solid(1, 1, (255, 255, 255)), (0.5, 0.5, 0.5))
        black = normalize(_solid(1, 1, (0, 0, 0)), (0.5, 0.5, 0.5))
        assert np.allclose(white, 0.5) and np.allclose(black, -0.5)

    def test_layout_and_dtype(self):
        img = _random_image(np.random.default_rng(3), 5, 4)
        t = normalize(img, (0.0, 0.0, 0.0))
        assert t.shape == (3, 4, 5) and t.dtype == np.float32
        assert t[1, 2, 3] == np.float32(img.pixels[2, 3, 1] / 255.0)

    def test_training_means_center_the_data(self):
        for shape in [(10, 8, 8, 3), (1, 1, 1, 3), (2, 7, 5, 3), (3, 64, 64, 3)]:
            images = np.random.default_rng(4).integers(0, 256, shape, dtype=np.uint8)
            means = compute_channel_means(images)
            totals = sum(pixels.reshape(-1, 3).sum(axis=0, dtype=np.float64) for pixels in images)
            assert means == tuple(totals / (255.0 * (images.size // 3))), shape
            stacked = np.stack([normalize(ImageBuffer(pixels), means) for pixels in images])
            per_channel = stacked.mean(axis=(0, 2, 3))
            assert np.abs(per_channel).max() < 1e-4, shape

    def test_matches_the_float64_formula_bit_for_bit(self):
        # every byte value in every channel, one image and a batch
        rng = np.random.default_rng(5)
        pixels = rng.permuted(np.tile(np.arange(256, dtype=np.uint8), (3, 3)), axis=1)
        batch = pixels.T.reshape(2, 16, 24, 3)
        means = tuple(float(m) for m in rng.uniform(0.0, 1.0, 3))
        direct = batch.astype(np.float64) / 255.0
        direct -= np.asarray(means, dtype=np.float64)
        direct = direct.transpose(0, 3, 1, 2).astype(np.float32)
        assert normalize(batch, means).tobytes() == direct.tobytes()
        assert normalize(ImageBuffer(batch[1]), means).tobytes() == direct[1].tobytes()

    def test_bad_means(self):
        with pytest.raises(ConfigError):
            normalize(_solid(1, 1, (0, 0, 0)), (0.5, 1.5, 0.5))
        with pytest.raises(ConfigError):
            normalize(_solid(1, 1, (0, 0, 0)), (0.5, 0.5))


class TestChannelMeans:
    def test_all_black(self):
        images = _solid(3, 3, (0, 0, 0)).pixels[None]
        assert compute_channel_means(images) == (0.0, 0.0, 0.0)

    def test_all_white(self):
        images = _solid(3, 3, (255, 255, 255)).pixels[None]
        assert compute_channel_means(images) == (1.0, 1.0, 1.0)

    def test_half_and_half(self):
        images = np.stack([_solid(2, 2, (0, 0, 0)).pixels, _solid(2, 2, (255, 255, 255)).pixels])
        assert compute_channel_means(images) == (0.5, 0.5, 0.5)
        dataset = Dataset(images, [0, 1], ["a", "b"], (0.0, 0.0, 0.0))
        assert compute_channel_means(dataset.samples) == (0.5, 0.5, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            compute_channel_means([])
        with pytest.raises(DataError):
            compute_channel_means(np.zeros((0, 3, 3, 3), np.uint8))


def _warp_one(pixels, *args):
    """_warp of one unmirrored [H, W, 3] image: a batch of one, one value per parameter."""
    return _warp(pixels[None], *([a] for a in args), [False])[0]


def _draws(seed, n=1) -> np.ndarray:
    """n rows of augmentation draws from a generator seeded with `seed`."""
    return np.random.default_rng(seed).random((n, 6))


def _recording_warp(monkeypatch) -> list[tuple]:
    """The parameters of each _warp call augment makes from now on."""
    calls = []

    def warp(pixels, *args):
        calls.append(args)
        return _warp(pixels, *args)

    monkeypatch.setattr(fsqnet.data, "_warp", warp)
    return calls


class TestAugment:
    def test_deterministic_per_seed(self):
        batch = _random_image(np.random.default_rng(6), 12, 12).pixels[None]
        a = augment(batch, True, _draws(33))
        b = augment(batch, True, _draws(33))
        assert np.array_equal(a, b)

    def test_seed_varies_output(self):
        batch = _random_image(np.random.default_rng(7), 12, 12).pixels[None]
        outputs = {augment(batch, False, _draws(s)).tobytes() for s in range(8)}
        assert len(outputs) > 1

    def test_flip_only_mirrors(self):
        image = _random_image(np.random.default_rng(8), 9, 5).pixels
        draws = _draws(8, 8)
        draws[:, 5] = [0.0, 0.49, 0.5, 0.99, 0.25, 0.75, 0.1, 0.9]
        flipped = augment(np.stack([image] * 8), True, draws)
        plain = augment(np.stack([image] * 8), False, draws)
        for f, p, u in zip(flipped, plain, draws[:, 5]):
            assert np.array_equal(f, p[:, ::-1] if u < 0.5 else p)
        assert any(not np.array_equal(p, p[:, ::-1]) for p in plain)  # a mirror shows

    def test_size_preserved(self):
        batch = _random_image(np.random.default_rng(9), 10, 14).pixels[None]
        out = augment(batch, True, _draws(2))
        assert out.shape == (1, 14, 10, 3) and out.dtype == np.uint8

    @pytest.mark.parametrize("draws", [np.zeros((2, 6)), np.zeros((1, 7)), np.full((1, 6), 1.0),
                                       np.full((1, 6), -0.25), np.full((1, 6), np.nan)],
                             ids=["two-rows", "seven-columns", "one", "negative", "nan"])
    def test_draws_outside_one_row_of_six_in_the_unit_interval_rejected(self, draws):
        batch = _random_image(np.random.default_rng(9), 6, 6).pixels[None]
        with pytest.raises(ConfigError):
            augment(batch, True, draws)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_map_to_parameters_in_range(self, data):
        width, height = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 300))
        below_one = float(np.nextafter(1.0, 0.0))
        value = st.sampled_from([0.0, 0.5, below_one]) | st.floats(0.0, 1.0, exclude_max=True)
        row = st.just([0.0] * 6) | st.just([below_one] * 6) | st.lists(value, min_size=6,
                                                                        max_size=6)
        draws = np.array(data.draw(st.lists(row, min_size=1, max_size=4)))
        pixels = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(
            0, 256, (len(draws), height, width, 3), dtype=np.uint8)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _recording_warp(monkeypatch)
            flipped = augment(pixels, True, draws)
            plain = augment(pixels, False, draws)
        crop_w, crop_h, off_x, off_y, angle, gain, mirror = map(np.asarray, calls[0])
        assert ((1 <= crop_w) & (crop_w <= width) & (1 <= crop_h) & (crop_h <= height)).all()
        assert (crop_w == np.floor(crop_w)).all() and (crop_h == np.floor(crop_h)).all()
        assert ((0 <= off_x) & (off_x <= width - crop_w)).all()
        assert ((0 <= off_y) & (off_y <= height - crop_h)).all()
        assert (off_x == np.floor(off_x)).all() and (off_y == np.floor(off_y)).all()
        assert (np.abs(angle) <= 10.0).all() and ((0.9 <= gain) & (gain <= 1.1)).all()
        assert not np.asarray(calls[1][-1]).any()  # nothing mirrored without flip
        for f, p, m in zip(flipped, plain, mirror):
            assert np.array_equal(f, p[:, ::-1] if m else p)

    @pytest.mark.parametrize("width,height", [(7, 5), (8, 6)])
    @pytest.mark.parametrize("angle", [0.0, 7.5, -10.0, 90.0, 180.0])
    def test_rotation_matches_scalar_reference(self, width, height, angle):
        img = _random_image(np.random.default_rng(11), width, height)
        # (crop shrink x, y, offset x, y, gain): a full crop and two partial ones
        for dw, dh, off_x, off_y, gain in [(0, 0, 0, 0, 1.1), (2, 1, 1, 1, 0.9),
                                           (1, 2, 1, 2, 1.1)]:
            args = (width - dw, height - dh, off_x, off_y, angle, gain)
            ours = _warp_one(img.pixels, *args)
            assert ours.tolist() == scalar_warp(img.pixels.tolist(), *args), args

    @given(st.data())
    @settings(max_examples=60)
    def test_warp_matches_scalar_reference_everywhere(self, data):
        width, height = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12))
        crop_w, crop_h = data.draw(st.integers(1, width)), data.draw(st.integers(1, height))
        args = (crop_w, crop_h, data.draw(st.integers(0, width - crop_w)),
                data.draw(st.integers(0, height - crop_h)),
                data.draw(st.floats(-180.0, 180.0)), data.draw(st.floats(0.5, 1.5)))
        img = _random_image(np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))),
                            width, height)
        ours = _warp_one(img.pixels, *args)
        assert ours.tolist() == scalar_warp(img.pixels.tolist(), *args), args

    def test_identity_warp_returns_input(self):
        img = _random_image(np.random.default_rng(12), 8, 6)
        assert np.array_equal(_warp_one(img.pixels, 8, 6, 0, 0, 0.0, 1.0), img.pixels)

    def test_one_pass_matches_two_pass_chain_on_a_ramp(self, monkeypatch):
        # bilinear sampling is exact on a linear image, so the paths differ by the
        # roundings: the two-pass chain's first two, times a gain <= 1.1, move a
        # value by <= 1.1 and the last roundings of both paths by < 1 more
        height, width = 64, 48
        y, x = np.mgrid[0:height, 0:width]
        ramp = np.stack([5 * x, 3 * y, 2 * (x + y)], axis=-1).astype(np.uint8)
        calls = _recording_warp(monkeypatch)
        for seed in range(50):
            ours = augment(ramp[None], False, _draws(seed))[0]
            crop_w, crop_h, off_x, off_y, angle, gain = (a[0] for a in calls[-1][:6])
            crop_w, crop_h, off_x, off_y = int(crop_w), int(crop_h), int(off_x), int(off_y)
            crop = [row[off_x:off_x + crop_w] for row in ramp[off_y:off_y + crop_h].tolist()]
            rotated = scalar_rotate_edge_clamped(
                scalar_resize_bilinear(crop, width, height), angle)
            chain = np.array(rotated, dtype=np.float64) * gain
            chain = np.clip(np.floor(chain + 0.5), 0, 255)
            assert np.abs(ours - chain).max() <= 2, seed


class TestFisherYates:
    def test_is_permutation(self):
        order = fisher_yates_order(20, 3)
        assert sorted(order) == list(range(20))

    def test_deterministic(self):
        assert fisher_yates_order(15, 9) == fisher_yates_order(15, 9)

    def test_seed_changes_order(self):
        assert fisher_yates_order(30, 1) != fisher_yates_order(30, 2)

    @given(st.integers(0, 600), st.one_of(st.integers(0, 2**63 - 1),
                                          st.integers(2**63, 2**64 - 1)))
    @example(5000, 2**63 + 5)
    @example(0, 42)
    @example(1, 1)
    @settings(max_examples=80)
    def test_equals_one_draw_per_swap(self, n, seed):
        assert fisher_yates_order(n, seed) == loop_fisher_yates_order(n, seed)


def _write_tree(root, spec):
    """spec: {class_name: count}; writes 3x3 solid PPMs."""
    rng = np.random.default_rng(0)
    for name, count in spec.items():
        d = root / name
        d.mkdir(parents=True)
        for i in range(count):
            save_ppm(_random_image(rng, 3, 3), d / f"{i}.ppm")


class TestLoadDataset:
    def test_counting_and_labels(self, tmp_path):
        _write_tree(tmp_path, {"a": 2, "b": 3})
        files = load_dataset(tmp_path)
        assert files.label_names == ["a", "b"]
        assert files.labels == [0, 0, 1, 1, 1]
        assert len(files) == 5
        dataset = resize_dataset(files, 3)
        assert dataset.samples.shape == (5, 3, 3, 3) and dataset.samples.dtype == np.uint8
        assert dataset.labels.tolist() == [0, 0, 1, 1, 1]
        assert dataset.class_counts() == [2, 3]
        for pixels, path in zip(dataset.samples, files.paths):
            assert np.array_equal(pixels, load_image(path).pixels)

    def test_lexicographic_label_order(self, tmp_path):
        _write_tree(tmp_path, {"z": 1, "a": 1})
        dataset = load_dataset(tmp_path)
        assert dataset.label_names == ["a", "z"]

    def test_reload_is_identical(self, tmp_path):
        _write_tree(tmp_path, {"a": 3, "b": 2})
        first = load_dataset(tmp_path)
        second = load_dataset(tmp_path)
        assert first == second
        first, second = resize_dataset(first, 2), resize_dataset(second, 2)
        assert np.array_equal(first.samples, second.samples)
        assert np.array_equal(first.labels, second.labels)
        assert first.channel_means == second.channel_means

    def test_empty_class_rejected(self, tmp_path):
        _write_tree(tmp_path, {"a": 2})
        (tmp_path / "b").mkdir()
        with pytest.raises(DataError, match="'b'"):
            resize_dataset(load_dataset(tmp_path), 3)

    def test_needs_two_classes(self, tmp_path):
        _write_tree(tmp_path, {"only": 3})
        with pytest.raises(DataError):
            load_dataset(tmp_path)

    def test_undecodable_skipped_with_warning(self, tmp_path, capsys):
        _write_tree(tmp_path, {"a": 2, "b": 2})
        (tmp_path / "a" / "bad.ppm").write_bytes(b"P6\n9 9\n255\nshort")
        dataset = resize_dataset(load_dataset(tmp_path), 3)
        assert len(dataset.samples) == 4
        assert dataset.labels.tolist() == [0, 0, 1, 1]
        assert "bad.ppm" in capsys.readouterr().err

    def test_non_image_files_ignored(self, tmp_path):
        _write_tree(tmp_path, {"a": 2, "b": 2})
        (tmp_path / "a" / "notes.txt").write_text("hello")
        assert len(load_dataset(tmp_path)) == 4

    def test_listing_decodes_nothing(self, tmp_path, capsys):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            for i in range(2):
                (tmp_path / name / f"{i}.ppm").write_bytes(b"not an image")
        files = load_dataset(tmp_path)
        assert len(files) == 4 and files.labels == [0, 0, 1, 1]
        assert capsys.readouterr().err == ""
        with pytest.raises(DataError, match="no decodable images"):
            resize_dataset(files, 3)


class TestShuffleSplit:
    def _dataset(self, per_class=5, classes=2, size=4):
        rng = np.random.default_rng(11)
        images = rng.integers(0, 256, (classes * per_class, size, size, 3), dtype=np.uint8)
        labels = np.repeat(np.arange(classes), per_class)
        names = [chr(ord("a") + i) for i in range(classes)]
        return Dataset(images, labels, names, compute_channel_means(images))

    @staticmethod
    def _assert_walks_shuffled_order(dataset, train, val, seed, fraction):
        # the first ceil(fraction * count) of each class in Fisher-Yates order go to val
        quotas = [math.ceil(fraction * c) for c in dataset.class_counts()]
        taken = [0] * len(quotas)
        want_train, want_val = [], []
        for i in fisher_yates_order(len(dataset), seed):
            label = dataset.labels[i]
            (want_val if taken[label] < quotas[label] else want_train).append(i)
            taken[label] += 1
        for split, want in ((train, want_train), (val, want_val)):
            assert np.array_equal(split.samples, dataset.samples[want])
            assert np.array_equal(split.labels, dataset.labels[want])

    def test_stratified_half_split(self):
        dataset = self._dataset(per_class=5)
        train, val = shuffle_split(dataset, 7, 0.5)
        assert len(train.samples) + len(val.samples) == 10
        assert sorted(val.class_counts()) == [3, 3]  # ceil(0.5 * 5) each
        assert all(c >= 1 for c in train.class_counts())
        self._assert_walks_shuffled_order(dataset, train, val, 7, 0.5)

    def test_same_seed_same_split(self):
        a_train, a_val = shuffle_split(self._dataset(), 42, 0.4)
        b_train, b_val = shuffle_split(self._dataset(), 42, 0.4)
        assert np.array_equal(a_train.samples, b_train.samples)
        assert np.array_equal(a_val.samples, b_val.samples)

    def test_union_is_original_multiset(self):
        dataset = self._dataset(per_class=7, classes=3)
        train, val = shuffle_split(dataset, 5, 0.3)
        combined = sorted(img.tobytes() for img in np.concatenate([train.samples, val.samples]))
        assert combined == sorted(img.tobytes() for img in dataset.samples)
        self._assert_walks_shuffled_order(dataset, train, val, 5, 0.3)

    def test_too_small_class_rejected(self):
        dataset = self._dataset(per_class=1)
        with pytest.raises(DataError):
            shuffle_split(dataset, 1, 0.5)

    def test_val_uses_training_means(self):
        train, val = shuffle_split(self._dataset(), 3, 0.4)
        assert val.channel_means == train.channel_means
        assert train.channel_means == compute_channel_means(train.samples)

    def test_fraction_validated(self):
        with pytest.raises(ConfigError):
            shuffle_split(self._dataset(), 1, 0.0)


class TestResizeDataset:
    def test_resizes_and_recomputes_means(self, tmp_path):
        rng = np.random.default_rng(12)
        sources = {"a": _random_image(rng, 10, 6), "b": _random_image(rng, 4, 4)}
        for name, image in sources.items():
            (tmp_path / name).mkdir()
            save_ppm(image, tmp_path / name / "0.ppm")
        out = resize_dataset(load_dataset(tmp_path), 8)
        assert out.samples.shape == (2, 8, 8, 3)
        for pixels, image in zip(out.samples, sources.values()):
            assert np.array_equal(pixels, resize_bilinear(image, 8, 8).pixels)
        assert out.channel_means == compute_channel_means(out.samples)

    @staticmethod
    def _check_runs(root, shapes, bad, monkeypatch, capsys) -> list[int]:
        """resize_dataset at one and three forced workers against per-file
        resize_bilinear, labels and warnings in file order; the images per
        resize_bilinear call of the one-worker run."""
        paths = _write_sources(root, shapes, bad)
        kept = [index for index in range(len(paths)) if index not in bad]
        want = np.stack([resize_bilinear(load_image(paths[index]), RUN_SIZE, RUN_SIZE).pixels
                         for index in kept])
        files = load_dataset(root)
        calls = _record_resize_calls(monkeypatch)
        runs = []
        for workers in (1, 3):
            _force_split(monkeypatch, workers)
            calls.clear()
            dataset = resize_dataset(files, RUN_SIZE)
            assert dataset.samples.tobytes() == want.tobytes()
            assert dataset.labels.tolist() == [files.labels[index] for index in kept]
            warnings = capsys.readouterr().err.splitlines()
            assert len(warnings) == len(bad)
            for line, index in zip(warnings, sorted(bad)):
                assert line.startswith(f"warning: skipping {paths[index]}: ")
            runs.append(list(calls))
        assert runs[0] == runs[1]  # at 16 px nothing splits
        return runs[0]

    def test_interleaved_shapes_resize_in_runs(self, tmp_path, monkeypatch, capsys):
        # runs end at a change of shape or a full budget, not at a class boundary
        shapes = ([("a", 100, 90)] * 4 + [("a", 60, 50)] * 2 + [("a", 100, 90)]
                  + [("b", 100, 90)] * 3 + [("b", 60, 50)] * 12)
        runs = self._check_runs(tmp_path, shapes, (), monkeypatch, capsys)
        assert runs == [3, 1, 2, 3, 1, 10, 2]

    def test_undecodable_files_inside_and_at_the_edge_of_runs(self, tmp_path, monkeypatch,
                                                              capsys):
        # file 1 lies inside the first run, file 4 just after it ends, file 9 last
        shapes = [("a", 100, 90)] * 6 + [("b", 100, 90)] * 4
        runs = self._check_runs(tmp_path, shapes, (1, 4, 9), monkeypatch, capsys)
        assert runs == [3, 3, 1]

    def test_sources_at_the_target_size(self, tmp_path, monkeypatch, capsys):
        shapes = ([("a", RUN_SIZE, RUN_SIZE)] * 3 + [("a", 20, RUN_SIZE)]
                  + [("a", RUN_SIZE, RUN_SIZE)] * 2 + [("b", RUN_SIZE, RUN_SIZE)] * 2)
        runs = self._check_runs(tmp_path, shapes, (), monkeypatch, capsys)
        assert runs == [3, 1, 4]
        dataset = resize_dataset(load_dataset(tmp_path), RUN_SIZE)
        assert np.array_equal(dataset.samples[0], load_image(tmp_path / "a" / "00.ppm").pixels)

    @pytest.mark.parametrize("out_w, out_h", [(7, 9), (30, 20), (17, 13), (1, 1)])
    def test_batch_form_matches_one_image_form(self, out_w, out_h):
        batch = np.random.default_rng(43).integers(0, 256, (5, 13, 17, 3), dtype=np.uint8)
        out = resize_bilinear(batch, out_w, out_h)
        assert out.shape == (5, out_h, out_w, 3) and out.dtype == np.uint8
        for pixels, image in zip(out, batch):
            assert np.array_equal(pixels, resize_bilinear(ImageBuffer(image), out_w, out_h).pixels)

    def test_photo_sized_sources_hold_one_decoded_source(self, tmp_path):
        # a 640x480 source fills WARP_PIXELS alone, so it is resized and freed
        # before the next file is decoded.  Decoding peaks at two copies of a
        # source's pixels (the file's bytes and the decoded array), and resizing
        # at the source and its channel planes; holding one more would read three
        source = 640 * 480 * 3
        _write_sources(tmp_path, [("a", 640, 480)] * 3 + [("b", 640, 480)] * 3)
        files = load_dataset(tmp_path)
        tracemalloc.start()
        try:
            resize_dataset(files, 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * source


# at RUN_SIZE px a 100x90 source counts 9,000 pixels, so a run holds 3 of them
# (WARP_PIXELS // 9,000); it holds 10 of 60x50 and 128 at RUN_SIZE x RUN_SIZE
RUN_SIZE = 16


def _write_sources(root, shapes, bad=()) -> list[Path]:
    """One PPM per (class, width, height), in file order; the indices in `bad` are truncated."""
    rng = np.random.default_rng(41)
    paths = []
    for index, (name, width, height) in enumerate(shapes):
        (root / name).mkdir(exist_ok=True)
        paths.append(root / name / f"{index:02d}.ppm")
        if index in bad:
            paths[-1].write_bytes(b"P6\n100 90\n255\nshort")
        else:
            save_ppm(_random_image(rng, width, height), paths[-1])
    return paths


def _record_resize_calls(monkeypatch) -> list[int]:
    """The number of images of each resize_bilinear call resize_dataset makes from now on."""
    resize, calls = fsqnet.data.resize_bilinear, []

    def recording(images, out_w, out_h):
        calls.append(len(images))
        return resize(images, out_w, out_h)

    monkeypatch.setattr(fsqnet.data, "resize_bilinear", recording)
    return calls


class TestDataset:
    def test_validation(self):
        images = np.zeros((2, 3, 3, 3), np.uint8)
        with pytest.raises(DataError):
            Dataset(images, [0, 2], ["a", "b"], (0.5, 0.5, 0.5))
        with pytest.raises(DataError):
            Dataset(images, [0], ["a", "b"], (0.5, 0.5, 0.5))
        with pytest.raises(DataError):
            Dataset(images, [0, 0], ["a", "a"], (0.5, 0.5, 0.5))


# 5 images at 192 px: each has WARP_PIXELS output pixels, the batch 2**19 elements
# or more, so a forced split runs them 1 + 2 + 2 over three workers
SPLIT_SIZE = 192
SPLIT_DRAWS = _draws(3, 5)


def _write_split_sources(root, bad=()):
    """Five PPMs of assorted sizes near SPLIT_SIZE, 3 in class a and 2 in b, in
    file order; the indices in `bad` are truncated."""
    rng = np.random.default_rng(29)
    for index, (name, width, height) in enumerate(
            [("a", 200, 190), ("a", 192, 192), ("a", 230, 210), ("b", 180, 200), ("b", 256, 192)]):
        (root / name).mkdir(exist_ok=True)
        path = root / name / f"{index}.ppm"
        if index in bad:
            path.write_bytes(b"P6\n200 200\n255\nshort")
        else:
            save_ppm(_random_image(rng, width, height), path)


def _record_split_threads(monkeypatch, module=fsqnet.data) -> list[int]:
    """Per split call of the module (the data path's by default) from now on, the
    number of threads its ranges ran on."""
    split, counts = module._split, []

    def recording(n, size, work, **kwargs):
        threads = set()

        def traced(lo, hi):
            threads.add(threading.current_thread())
            work(lo, hi)

        split(n, size, traced, **kwargs)
        counts.append(len(threads))

    monkeypatch.setattr(module, "_split", recording)
    return counts


class TestSplitByImage:
    @staticmethod
    def _op_bytes(root) -> list[bytes]:
        pixels = np.random.default_rng(31).integers(
            0, 256, (len(SPLIT_DRAWS), SPLIT_SIZE, SPLIT_SIZE, 3), dtype=np.uint8)
        assert SPLIT_SIZE**2 >= WARP_PIXELS and pixels.size >= fsqnet.ops.SPLIT_ELEMENTS
        augmented = augment(pixels, True, SPLIT_DRAWS)
        dataset = resize_dataset(load_dataset(root), SPLIT_SIZE)
        return [augmented.tobytes(), normalize(augmented, (0.5, 0.4, 0.3)).tobytes(),
                dataset.samples.tobytes(), dataset.labels.tobytes()]

    def test_same_bytes_at_one_and_three_workers(self, tmp_path, monkeypatch):
        # the draws mirror some images and not others
        assert set(SPLIT_DRAWS[:, 5] < 0.5) == {False, True}
        _write_split_sources(tmp_path)
        _force_split(monkeypatch, 1)
        one = self._op_bytes(tmp_path)
        _force_split(monkeypatch, 3)
        threads = _record_split_threads(monkeypatch)
        assert self._op_bytes(tmp_path) == one
        assert threads == [3, 3, 3]  # augment's warp, normalize, resize_dataset

    def test_small_images_stay_on_the_caller(self, monkeypatch):
        # below WARP_PIXELS per image nothing splits, however large the batch
        _force_split(monkeypatch, 3)
        threads = _record_split_threads(monkeypatch)
        pixels = np.zeros((600, 32, 32, 3), dtype=np.uint8)
        assert pixels.size >= fsqnet.ops.SPLIT_ELEMENTS
        normalize(augment(pixels, True, _draws(0, 600)), (0.5, 0.5, 0.5))
        assert threads == [1, 1]

    def test_two_large_images_split(self, monkeypatch):
        # 2 * 182 * 182 * 3 elements are fewer than SPLIT_ELEMENTS, but each image
        # has WARP_PIXELS pixels
        assert 182**2 >= WARP_PIXELS and 2 * 182**2 * 3 < fsqnet.ops.SPLIT_ELEMENTS
        _force_split(monkeypatch, 3)
        threads = _record_split_threads(monkeypatch)
        ranges = []
        fsqnet.data._split_images(2, 182, 182, lambda lo, hi: ranges.append((lo, hi)))
        assert sorted(ranges) == [(0, 1), (1, 2)]
        assert threads == [2]

    def test_skips_match_the_unsplit_run(self, tmp_path, monkeypatch, capsys):
        # file 2 is in the second of three ranges, file 4 in the third
        _write_split_sources(tmp_path, bad=(2, 4))
        runs = []
        for workers in (1, 3):
            _force_split(monkeypatch, workers)
            dataset = resize_dataset(load_dataset(tmp_path), SPLIT_SIZE)
            runs.append((dataset.samples.tobytes(), dataset.labels.tolist(),
                         dataset.channel_means, capsys.readouterr().err))
        assert runs[0] == runs[1]
        assert runs[0][1] == [0, 0, 1]
        warnings = runs[0][3].splitlines()
        assert len(warnings) == 2
        assert "a/2.ppm" in warnings[0] and "b/4.ppm" in warnings[1]

    def test_class_without_decodable_files_rejected(self, tmp_path, monkeypatch, capsys):
        _write_split_sources(tmp_path, bad=(3, 4))
        _force_split(monkeypatch, 3)
        with pytest.raises(DataError, match="'b' has no decodable images"):
            resize_dataset(load_dataset(tmp_path), SPLIT_SIZE)
        assert len(capsys.readouterr().err.splitlines()) == 2


class TestSetUpSplitsAtAnyBlasThreadCount:
    @pytest.mark.parametrize("blas_threads", [2, None], ids=["two-blas-threads", "no-openblas"])
    def test_resize_dataset_runs_its_file_ranges_on_every_worker(self, tmp_path, monkeypatch,
                                                                 capsys, blas_threads):
        # file 2 is in the second of three ranges, file 4 in the third
        _write_split_sources(tmp_path, bad=(2, 4))
        files = load_dataset(tmp_path)
        runs = []
        for workers in (1, 3):
            _force_split(monkeypatch, workers)
            monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: blas_threads)
            threads = _record_split_threads(monkeypatch)
            dataset = resize_dataset(files, SPLIT_SIZE)
            runs.append((dataset.samples.tobytes(), dataset.labels.tolist(),
                         dataset.channel_means, capsys.readouterr().err))
            assert threads == [workers]
        assert runs[0] == runs[1]
        warnings = runs[0][3].splitlines()
        assert len(warnings) == 2
        assert "a/2.ppm" in warnings[0] and "b/4.ppm" in warnings[1]

    def test_work_between_products_stays_on_the_caller(self, monkeypatch):
        # at 182 px each of these splits with OpenBLAS on one thread
        size = 182
        pixels = np.random.default_rng(35).integers(0, 256, (3, size, size, 3), dtype=np.uint8)
        dataset = Dataset(pixels, [0, 1, 0], ["a", "b"], compute_channel_means(pixels))
        model = build_model(tiny_config(num_classes=2, input_size=size), 5)
        x = normalize(pixels, dataset.channel_means)
        weight = np.random.default_rng(36).standard_normal((64, 3, 3, 3), dtype=np.float32)
        stem = ConvSpec(64, 3, 3, 3, stride=2)
        _force_split(monkeypatch, 3)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: 2)
        data_threads = _record_split_threads(monkeypatch)
        op_threads = _record_split_threads(monkeypatch, fsqnet.ops)
        normalize(augment(pixels, True, _draws(37, 3)), dataset.channel_means)
        assert data_threads == [1, 1]
        conv2d_forward(x, weight, np.zeros(64, np.float32), stem)
        assert op_threads == [1]
        evaluate(model, dataset)
        assert len(data_threads) > 2 and len(op_threads) > 1
        assert set(data_threads) == set(op_threads) == {1}

    @pytest.mark.parametrize("width, height, out_w, out_h", [
        (272, 272, 244, 244), (300, 97, 244, 244), (300, 97, 250, 140), (640, 480, 182, 182),
        (150, 120, 244, 244), (300, 97, 64, 64)])
    def test_one_image_resize_splits_its_rows_into_one_calls_bytes(
            self, monkeypatch, width, height, out_w, out_h):
        image = _random_image(np.random.default_rng(width + height), width, height)
        whole = resize_bilinear(image.pixels[None], out_w, out_h)[0]  # a batch never splits
        for workers in (1, 3):
            _force_split(monkeypatch, workers)
            monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: 2)
            threads = _record_split_threads(monkeypatch)
            assert resize_bilinear(image, out_w, out_h).pixels.tobytes() == whole.tobytes()
            assert threads == [workers if out_w * out_h >= WARP_PIXELS else 1]
