import json
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from fsqnet.checkpoint import FORMAT_VERSION, MAGIC, load_checkpoint, save_checkpoint
from fsqnet.cli import main
from fsqnet.errors import (
    CompatibilityError,
    ConfigError,
    CorruptionError,
    FormatError,
)
from fsqnet.model import Model, build_model, model_forward, parameter_count, tiny_config
from fsqnet.synthetic import write_dataset
from fsqnet.train import EpochMetrics, History

HEXDUMP = Path(__file__).resolve().parents[1] / "scripts" / "checkpoint_hexdump.py"


def _fixture(seed=3):
    model = build_model(tiny_config(), seed)
    history = History()
    history.append(EpochMetrics(1, 0.9, 0.4, 0.35, 1.5))
    history.append(EpochMetrics(2, 0.5, 0.8, 0.7, 1.4))
    means = (0.41, 0.41, 0.44)
    labels = ["a", "b", "c"]
    return model, history, means, labels


class TestRoundTrip:
    def test_parameters_bit_identical(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        loaded, got_history, got_means, got_labels = load_checkpoint(path)
        assert set(loaded.params) == set(model.params)
        for name in model.params:
            assert np.array_equal(loaded.params[name], model.params[name])
            assert loaded.params[name].dtype == np.float32
        assert loaded.config == model.config
        assert got_means == means
        assert got_labels == labels
        assert got_history == history

    def test_forward_bit_identical_after_round_trip(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        x = np.random.default_rng(1).standard_normal((2, 3, 32, 32)).astype(np.float32)
        before = model_forward(model, x)
        save_checkpoint(model, history, means, labels, path)
        loaded, _, _, _ = load_checkpoint(path)
        assert np.array_equal(model_forward(loaded, x), before)

    def test_two_saves_byte_identical(self, tmp_path):
        model, history, means, labels = _fixture()
        save_checkpoint(model, history, means, labels, tmp_path / "a.fsq")
        save_checkpoint(model, history, means, labels, tmp_path / "b.fsq")
        assert (tmp_path / "a.fsq").read_bytes() == (tmp_path / "b.fsq").read_bytes()

    def test_size_is_payload_plus_small_metadata(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        size = path.stat().st_size
        payload = 4 * parameter_count(model)
        assert size > payload
        assert size - payload < 64 * 1024


def _forge(path, edit):
    """Replace a checkpoint's config and history JSON by edit(config, history), with a valid CRC."""
    data = path.read_bytes()[:-4]
    header = len(MAGIC) + 4
    (config_len,) = struct.unpack_from("<I", data, header)
    config_end = header + 4 + config_len
    history_start = data.rindex(b"[{")  # the history block is the last field
    config, history = edit(json.loads(data[header + 4 : config_end]),
                           json.loads(data[history_start:]))
    config_block, history_block = json.dumps(config).encode(), json.dumps(history).encode()
    body = (data[:header] + struct.pack("<I", len(config_block)) + config_block
            + data[config_end : history_start - 4]
            + struct.pack("<I", len(history_block)) + history_block)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _saved_with_crc(tmp_path, edit):
    """The fixture saved, its bytes before the CRC replaced by edit(bytes), with a valid CRC."""
    path = tmp_path / "m.fsq"
    save_checkpoint(*_fixture(), path)
    body = edit(path.read_bytes()[:-4])
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    return path


MALFORMED = {
    "config block is a list": lambda c, h: ([c], h),
    "unknown config key": lambda c, h: (c | {"extra": 1}, h),
    "history entry is not an object": lambda c, h: (c, [1, *h[1:]]),
    "fire spec has two widths":
        lambda c, h: (c | {"model": c["model"] | {"fire_specs": [[2, 2], [2, 2, 2]]}}, h),
    # 2.0 gives the same tensor shapes as the saved width 2
    "fire width is a float":
        lambda c, h: (c | {"model": c["model"] | {"fire_specs": [[2.0, 2, 2], [2, 2, 2]]}}, h),
    "one class": lambda c, h: (c | {"model": c["model"] | {"num_classes": 1}}, h),
    "infinite class count":
        lambda c, h: (c | {"model": c["model"] | {"num_classes": float("inf")}}, h),
    "accuracy above one": lambda c, h: (c, [h[0] | {"val_acc": 5}, *h[1:]]),
    "history starts at epoch 2": lambda c, h: (c, [h[0] | {"epoch": 2}, *h[1:]]),
    # each value below is checked for its type, not converted
    "class count is a float":
        lambda c, h: (c | {"model": c["model"] | {"num_classes": 2.9}}, h),
    "head width is a string":
        lambda c, h: (c | {"model": c["model"] | {"head_hidden": "32"}}, h),
    "variant is a number": lambda c, h: (c | {"model": c["model"] | {"variant": 7}}, h),
    "dropout rate is a string":
        lambda c, h: (c | {"model": c["model"] | {"dropout_rate": "0.5"}}, h),
    "unknown model key": lambda c, h: (c | {"model": c["model"] | {"depth": 3}}, h),
    "missing model key":
        lambda c, h: (c | {"model": {k: v for k, v in c["model"].items() if k != "variant"}}, h),
    "label names are not strings": lambda c, h: (c | {"label_names": [None, 5, "c"]}, h),
    "channel means are not numbers": lambda c, h: (c | {"channel_means": ["0.5", 0.5, True]}, h),
    "history epoch is a float": lambda c, h: (c, [h[0] | {"epoch": 1.9}, *h[1:]]),
    "history accuracy is a bool": lambda c, h: (c, [h[0] | {"val_acc": True}, *h[1:]]),
    "history loss is a string": lambda c, h: (c, [h[0] | {"train_loss": "0.25"}, *h[1:]]),
    "unknown history key": lambda c, h: (c, [h[0] | {"lr": 0.1}, *h[1:]]),
}


class TestValidation:
    def test_every_corrupted_byte_detected(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        data = bytearray(path.read_bytes())
        # flip one bit at several offsets through config, tensor, and history regions
        for offset in [10, 60, len(data) // 2, len(data) - 40, len(data) - 6]:
            mutated = bytearray(data)
            mutated[offset] ^= 0x20
            bad = tmp_path / "bad.fsq"
            bad.write_bytes(bytes(mutated))
            with pytest.raises((CorruptionError, FormatError)):
                load_checkpoint(bad)

    def test_payload_flip_is_corruption_error(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01  # deep inside the tensor payload
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_future_version_is_format_error(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, len(MAGIC), FORMAT_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short.fsq"
        path.write_bytes(MAGIC + b"\x01")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(tmp_path / "absent.fsq")

    def test_shape_mismatch_is_compatibility_error(self, tmp_path):
        model, history, means, labels = _fixture()
        broken = Model(model.config, dict(model.params))
        broken.params["conv1/weight"] = np.zeros((1, 1, 1, 1), np.float32)
        path = tmp_path / "m.fsq"
        save_checkpoint(broken, history, means, labels, path)
        with pytest.raises(CompatibilityError, match="conv1/weight"):
            load_checkpoint(path)

    def test_missing_tensor_is_compatibility_error(self, tmp_path):
        model, history, means, labels = _fixture()
        broken = Model(model.config, dict(model.params))
        del broken.params["dense2/bias"]
        path = tmp_path / "m.fsq"
        save_checkpoint(broken, history, means, labels, path)
        with pytest.raises(CompatibilityError, match="dense2/bias"):
            load_checkpoint(path)

    def test_duplicate_tensor_name_is_format_error(self, tmp_path):
        model, history, means, labels = _fixture()
        # a later all-zero copy of conv1/weight, saved under a name of the same length
        params = dict(model.params, **{"conv1/weighX": np.zeros_like(model.params["conv1/weight"])})
        path = tmp_path / "m.fsq"
        save_checkpoint(Model(model.config, params), history, means, labels, path)
        body = path.read_bytes()[:-4].replace(b"conv1/weighX", b"conv1/weight")
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        with pytest.raises(FormatError, match="duplicate tensor 'conv1/weight'"):
            load_checkpoint(path)

    def test_label_count_must_match_classes(self, tmp_path):
        model, history, means, _ = _fixture()
        with pytest.raises(ConfigError):
            save_checkpoint(model, history, means, ["a", "b"], tmp_path / "m.fsq")

    def test_label_names_must_be_strings(self, tmp_path):
        model, history, means, labels = _fixture()
        assert len(labels) == 3
        path = tmp_path / "m.fsq"
        with pytest.raises(ConfigError, match="label names must be strings"):
            save_checkpoint(model, history, means, [None, 5, "c"], path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("edit", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_structure_is_format_error(self, tmp_path, capsys, edit):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        _forge(path, lambda c, h: (c, h))
        load_checkpoint(path)  # an unedited rewrite still loads
        _forge(path, edit)
        with pytest.raises(FormatError):
            load_checkpoint(path)
        assert main(["inspect", "--checkpoint", str(path)]) == 3
        assert "malformed checkpoint structure" in capsys.readouterr().err

    @pytest.mark.parametrize("means", [(2.0, 0.5, float("nan")), (-0.1, 0.4, 0.4),
                                       (0.4, float("inf"), 0.4)])
    def test_channel_means_outside_unit_interval(self, tmp_path, capsys, means):
        model, history, good_means, labels = _fixture()
        path = tmp_path / "m.fsq"
        with pytest.raises(ConfigError):
            save_checkpoint(model, history, means, labels, path)
        save_checkpoint(model, history, good_means, labels, path)
        _forge(path, lambda c, h: (c | {"channel_means": list(means)}, h))
        with pytest.raises(FormatError):
            load_checkpoint(path)
        data = write_dataset(tmp_path / "data", num_classes=3, per_class=1, size=8, seed=0)
        for argv in (["inspect"], ["eval", "--data", str(data)],
                     ["predict", "--image", str(data / "a" / "000.ppm")]):
            assert main(argv + ["--checkpoint", str(path)]) == 3, argv
            assert "channel means" in capsys.readouterr().err

    def test_config_length_past_the_end_is_truncated(self, tmp_path):
        header = len(MAGIC) + 4
        path = _saved_with_crc(
            tmp_path, lambda b: b[:header] + struct.pack("<I", len(b)) + b[header + 4 :])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_bytes_after_the_history_block(self, tmp_path):
        path = _saved_with_crc(tmp_path, lambda b: b + b"\0")
        with pytest.raises(FormatError, match="1 unexpected trailing bytes"):
            load_checkpoint(path)

    def test_extra_tensor_is_compatibility_error(self, tmp_path):
        model, history, means, labels = _fixture()
        extra = Model(model.config, dict(model.params, **{"extra/bias": np.zeros(2, np.float32)}))
        path = tmp_path / "m.fsq"
        save_checkpoint(extra, history, means, labels, path)
        with pytest.raises(CompatibilityError, match="unexpected tensor 'extra/bias'"):
            load_checkpoint(path)

    def test_three_label_names_for_two_classes(self, tmp_path):
        path = tmp_path / "m.fsq"
        _, history, means, _ = _fixture()
        save_checkpoint(build_model(tiny_config(num_classes=2), 0), history, means, ["a", "b"], path)
        _forge(path, lambda c, h: (c | {"label_names": ["a", "b", "c"]}, h))
        with pytest.raises(CompatibilityError, match="3 label names for 2 classes"):
            load_checkpoint(path)


class TestHexdump:
    @staticmethod
    def _dump(path) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(HEXDUMP), str(path)],
                              capture_output=True, text=True)

    def test_walks_a_checkpoint_and_checks_its_crc(self, tmp_path):
        model, history, means, labels = _fixture()
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        data = path.read_bytes()
        fresh = self._dump(path)
        assert fresh.returncode == 0, fresh.stderr
        assert fresh.stdout.splitlines()[-1].endswith("ok")

        flipped = bytearray(data)
        flipped[len(data) // 2] ^= 0x01  # deep inside the tensor payload
        path.write_bytes(bytes(flipped))
        mismatch = self._dump(path)
        assert mismatch.returncode == 1
        assert "MISMATCH" in mismatch.stdout.splitlines()[-1]

        path.write_bytes(data[: len(data) // 2])
        truncated = self._dump(path)
        assert truncated.returncode != 0
        assert "truncated" in truncated.stderr


class TestAtomicity:
    def test_failed_save_leaves_no_file(self, tmp_path):
        model, history, means, labels = _fixture()
        target_dir = tmp_path / "nozone"
        with pytest.raises(OSError):
            save_checkpoint(model, history, means, labels, target_dir / "m.fsq")
        assert not target_dir.exists()

    def test_save_overwrites_atomically(self, tmp_path):
        model, history, means, labels = _fixture(seed=1)
        path = tmp_path / "m.fsq"
        save_checkpoint(model, history, means, labels, path)
        other = build_model(tiny_config(), 2)
        save_checkpoint(other, history, means, labels, path)
        loaded, _, _, _ = load_checkpoint(path)
        assert np.array_equal(loaded.params["conv1/weight"], other.params["conv1/weight"])

    def test_no_temp_files_left_behind(self, tmp_path):
        model, history, means, labels = _fixture()
        save_checkpoint(model, history, means, labels, tmp_path / "m.fsq")
        assert [p.name for p in tmp_path.iterdir()] == ["m.fsq"]
