import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import fsqnet.cli
from fsqnet.cli import main
from fsqnet.synthetic import write_dataset

TRAIN_FLAGS = [
    "--arch", "tiny", "--image-size", "32", "--epochs", "3", "--lr", "0.05",
    "--batch", "8", "--seed", "42", "--val-fraction", "0.2", "--no-augment",
    "--deterministic",
]
SRC = str(Path(fsqnet.cli.__file__).resolve().parents[1])


def _env_without_malloc_settings(**extra) -> dict:
    """os.environ less glibc's malloc settings, with fsqnet's src on the path and extra added."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    return {**env, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]),
            **extra}


@pytest.fixture(scope="session")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    write_dataset(data, num_classes=2, per_class=12, size=40, seed=5)
    checkpoint = root / "model.fsq"
    code = main(["train", "--data", str(data), "--out", str(checkpoint)] + TRAIN_FLAGS)
    assert code == 0
    return {"root": root, "data": data, "checkpoint": checkpoint}


def _stdout_json_lines(capsys):
    return [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["train", "--out", "x.fsq"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_value(self, capsys):
        assert main(["train", "--data", "d", "--out", "o", "--lr", "-1"]) == 2
        assert main(["train", "--data", "d", "--out", "o", "--epochs", "0"]) == 2
        assert main(["train", "--data", "d", "--out", "o", "--image-size", "8"]) == 2

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_learning_rate(self, capsys, rate):
        assert main(["train", "--data", "d", "--out", "o", "--lr", rate]) == 2
        assert "--lr" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--momentum", "--val-fraction"])
    def test_unit_interval_flag_excludes_one(self, capsys, flag):
        assert main(["train", "--data", "d", "--out", "o", flag, "1"]) == 2
        assert f"argument {flag}" in capsys.readouterr().err

    def test_inspect_needs_exactly_one_source(self, capsys):
        assert main(["inspect"]) == 2
        assert main(["inspect", "--checkpoint", "x", "--arch-only"]) == 2


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, workspace):
        assert workspace["checkpoint"].exists()
        metrics_path = workspace["root"] / "model.fsq.metrics.jsonl"
        assert metrics_path.exists()
        lines = metrics_path.read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["config"]["epochs"] == 3
        assert header["config"]["deterministic"] is True
        epochs = [json.loads(line) for line in lines[1:]]
        assert [e["epoch"] for e in epochs] == [1, 2, 3]
        assert all(e["seconds"] == 0.0 for e in epochs)

    def test_missing_data_dir_is_exit_3(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "none"), "--out",
                     str(tmp_path / "o.fsq")] + TRAIN_FLAGS)
        assert code == 3

    def test_unwritable_metrics_is_exit_4(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace["data"]),
            "--out", str(tmp_path / "o.fsq"),
            "--metrics", str(tmp_path / "missing-dir" / "m.jsonl"),
        ] + TRAIN_FLAGS)
        assert code == 4

    def test_resume_continues_epochs(self, workspace, tmp_path, capsys):
        out = tmp_path / "resumed.fsq"
        code = main([
            "train", "--data", str(workspace["data"]), "--out", str(out),
            "--resume", str(workspace["checkpoint"]),
        ] + TRAIN_FLAGS)
        assert code == 0
        epochs = [r["epoch"] for r in _stdout_json_lines(capsys) if "epoch" in r]
        assert epochs == [4, 5, 6]

    def test_resume_flag_mismatch_is_exit_3(self, workspace, tmp_path, capsys):
        flags = [f if f != "32" else "36" for f in TRAIN_FLAGS]
        code = main([
            "train", "--data", str(workspace["data"]), "--out", str(tmp_path / "x.fsq"),
            "--resume", str(workspace["checkpoint"]),
        ] + flags)
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_resume_with_other_class_names_is_exit_3(self, workspace, tmp_path, capsys):
        data = tmp_path / "renamed"
        shutil.copytree(workspace["data"], data)
        (data / "b").rename(data / "z")
        code = main([
            "train", "--data", str(data), "--out", str(tmp_path / "x.fsq"),
            "--resume", str(workspace["checkpoint"]),
        ] + TRAIN_FLAGS)
        assert code == 3
        assert "resume labels ['a', 'b'] do not match dataset ['a', 'z']" in capsys.readouterr().err

    def test_augmented_epoch_runs(self, workspace, tmp_path, capsys):
        code = main([
            "train", "--data", str(workspace["data"]), "--out", str(tmp_path / "a.fsq"),
            "--arch", "tiny", "--image-size", "32", "--epochs", "1", "--lr", "0.05",
            "--batch", "8", "--seed", "1", "--val-fraction", "0.2", "--augment",
        ])
        assert code == 0


@pytest.mark.parametrize("command,consumer,loader", [("train", "fit", "load_dataset"),
                                                    ("eval", "evaluate", "load_dataset"),
                                                    ("train", "fit", "resize_dataset")],
                         ids=["train-fit", "eval-evaluate", "train-fit-resize_dataset"])
def test_full_size_dataset_freed_before_use(workspace, tmp_path, monkeypatch, capsys,
                                            command, consumer, loader):
    real_load, real_consumer = getattr(fsqnet.cli, loader), getattr(fsqnet.cli, consumer)
    loaded, alive = [], []

    def load(*args):
        dataset = real_load(*args)
        loaded.append(weakref.ref(dataset))
        return dataset

    def consume(*args, **kwargs):
        gc.collect()
        alive.append(loaded[0]() is not None)
        return real_consumer(*args, **kwargs)

    monkeypatch.setattr(fsqnet.cli, loader, load)
    monkeypatch.setattr(fsqnet.cli, consumer, consume)
    if command == "train":
        argv = ["train", "--out", str(tmp_path / "m.fsq")] + TRAIN_FLAGS
    else:
        argv = ["eval", "--checkpoint", str(workspace["checkpoint"])]
    assert main(argv + ["--data", str(workspace["data"])]) == 0
    assert alive == [False]


def test_train_peak_memory_independent_of_source_size(tmp_path, capsys):
    # sources are decoded and resized one at a time, so 512 px sources may add
    # less than the float64 copy of one source to the peak of 64 px ones
    peaks = {}
    for size in (512, 64):  # one-time allocations count against the larger sources
        data = write_dataset(tmp_path / str(size), num_classes=4, per_class=24, size=size, seed=5)
        argv = ["train", "--data", str(data), "--out", str(tmp_path / f"{size}.fsq"),
                "--arch", "tiny", "--image-size", "32", "--epochs", "1", "--batch", "16",
                "--deterministic"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[size] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[512] - peaks[64] < 512 * 512 * 3 * 8


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, workspace, tmp_path, capsys):
        out = tmp_path / "d.fsq"
        argv = ["train", "--data", str(workspace["data"]), "--out", str(out)] + TRAIN_FLAGS
        assert main(argv) == 0
        first_ckpt = out.read_bytes()
        first_metrics = (tmp_path / "d.fsq.metrics.jsonl").read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first_ckpt
        assert (tmp_path / "d.fsq.metrics.jsonl").read_bytes() == first_metrics

    @staticmethod
    def _train_in_subprocess(data, run: Path, env: dict) -> tuple[bytes, bytes]:
        run.mkdir()
        argv = ["train", "--data", str(data), "--out", "d.fsq"] + TRAIN_FLAGS
        subprocess.run([sys.executable, "-m", "fsqnet", *argv], cwd=run, env=env, check=True,
                       capture_output=True)
        return (run / "d.fsq").read_bytes(), (run / "d.fsq.metrics.jsonl").read_bytes()

    def test_blas_thread_count_leaves_bytes_unchanged(self, workspace, tmp_path):
        runs = [self._train_in_subprocess(workspace["data"], tmp_path / f"threads{threads}",
                                          _env_without_malloc_settings(OPENBLAS_NUM_THREADS=threads))
                for threads in ("1", "2")]
        assert runs[0] == runs[1]

    def test_blas_thread_count_leaves_paper_scale_step_bytes_unchanged(self):
        # tiny@32 never reaches OpenBLAS's threaded paths; a v1.1@244 batch-8 step
        # does.  One BLAS thread splits the batch across the CPUs, two do not, and
        # on one CPU nothing splits
        one_cpu = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        digests = [subprocess.run([sys.executable, "-c", prefix + _PAPER_SCALE_STEP],
                                  env=_env_without_malloc_settings(OPENBLAS_NUM_THREADS=threads),
                                  check=True, capture_output=True, text=True).stdout
                   for prefix, threads in (("", "1"), ("", "2"), (one_cpu, "1"))]
        assert len(digests[0].strip()) == 64
        assert digests[0] == digests[1] == digests[2]

    def test_allocator_setting_leaves_bytes_unchanged(self, workspace, tmp_path):
        # the plain run keeps glibc's heap; keep_heap leaves a user's malloc setting alone
        runs = [self._train_in_subprocess(workspace["data"], tmp_path / name,
                                          _env_without_malloc_settings(**extra))
                for name, extra in (("plain", {}),
                                    ("user", {"MALLOC_MMAP_THRESHOLD_": "131072"}))]
        assert runs[0] == runs[1]


GATE = Path(__file__).resolve().parents[1] / "scripts" / "determinism_gate.py"
GATE_HASHES = Path(__file__).with_name("determinism_gate.sha256")


@pytest.mark.parametrize("threads", [None, "1"], ids=["default-threads", "one-thread"])
def test_determinism_gate_matches_checked_in_hashes(tmp_path, threads):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, str(GATE), str(tmp_path / "gate")], env=env,
                         check=True, capture_output=True, text=True).stdout.splitlines()
    expected = GATE_HASHES.read_text().splitlines()
    # the float32 kernels may round differently on another numpy or BLAS core
    builds = [[line for line in lines if line.startswith("#")] for lines in (expected, out)]
    if builds[0] != builds[1]:
        pytest.skip(f"hashes recorded on {builds[0]}, this build is {builds[1]}")
    assert out == expected


# one SHA-256 over the probabilities and every gradient of one v1.1@244 batch-8 training step,
# and over an augmented (flips allowed) and normalized uint8 batch of 8 at 244 px
_PAPER_SCALE_STEP = """
import hashlib
import numpy as np
from fsqnet.data import augment, normalize
from fsqnet.model import ModelConfig, build_model, model_backward, model_forward
from fsqnet.ops import gradient
from fsqnet.train import cross_entropy

model = build_model(ModelConfig(), seed=0)
x = np.random.default_rng(0).standard_normal((8, 3, 244, 244), dtype=np.float32)
probs, tape = model_forward(model, x, training=True, dropout_seed=0)
grads = model_backward(tape, cross_entropy(probs, np.arange(8))[1])
digest = hashlib.sha256(probs.tobytes())
for name in sorted(grads):
    digest.update(name.encode() + gradient(grads[name]).tobytes())
pixels = np.random.default_rng(1).integers(0, 256, (8, 244, 244, 3), dtype=np.uint8)
digest.update(normalize(augment(pixels, True, range(8)), (0.5, 0.4, 0.3)).tobytes())
print(digest.hexdigest())
"""


# 3 warm-up steps, then the minor page faults per tiny@32 batch-32 training step
_FAULTS_PER_STEP = """
import json, resource
import numpy as np
from fsqnet.cli import keep_heap
from fsqnet.model import build_model, model_backward, model_forward, tiny_config
from fsqnet.train import cross_entropy

applied = keep_heap()
model = build_model(tiny_config(num_classes=4, input_size=32), seed=0)
x = np.random.default_rng(0).random((32, 3, 32, 32), dtype=np.float32)
labels = np.arange(32) % 4

def step():
    probs, tape = model_forward(model, x, training=True, dropout_seed=0)
    model_backward(tape, cross_entropy(probs, labels)[1])

for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    step()
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"applied": applied, "faults_per_step": faults / 20}))
"""


class TestKeepHeap:
    def test_training_steps_reuse_freed_pages(self):
        # glibc's defaults fault about 3,100 pages per step; a kept heap about 1
        out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP],
                             env=_env_without_malloc_settings(), check=True,
                             capture_output=True, text=True).stdout
        result = json.loads(out)
        if not result["applied"]:
            pytest.skip("glibc's mallopt is not available")
        assert result["faults_per_step"] < 500

    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        for name in list(os.environ):
            if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES":
                monkeypatch.delenv(name)
        opened = []

        def cdll(name):
            opened.append(name)
            return object()

        monkeypatch.setattr(fsqnet.cli.ctypes, "CDLL", cdll)
        assert fsqnet.cli.keep_heap() is False
        assert opened == [None]

    @pytest.mark.parametrize("name,value", [("MALLOC_MMAP_THRESHOLD_", "131072"),
                                            ("MALLOC_TOP_PAD_", "0"),
                                            ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")])
    def test_user_malloc_setting_is_left_alone(self, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        monkeypatch.setattr(fsqnet.cli.ctypes, "CDLL", pytest.fail)
        assert fsqnet.cli.keep_heap() is False


class TestSingleBlasThread:
    def test_no_openblas_is_a_no_op(self, monkeypatch):
        for name in fsqnet.cli._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        looked_up = []

        def openblas_function(name, *types):
            looked_up.append(name)

        monkeypatch.setattr(fsqnet.cli, "openblas_function", openblas_function)
        assert fsqnet.cli.single_blas_thread() is False
        assert looked_up == ["set_num_threads"]

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
    def test_user_thread_setting_is_left_alone(self, monkeypatch, name):
        monkeypatch.setenv(name, "2")
        monkeypatch.setattr(fsqnet.cli, "openblas_function", pytest.fail)
        assert fsqnet.cli.single_blas_thread() is False

    def test_train_leaves_openblas_on_one_thread(self, workspace, tmp_path):
        script = ("import sys\nfrom fsqnet.cli import main\nfrom fsqnet.ops import _blas_threads\n"
                  "assert main(sys.argv[1:]) == 0\nprint(_blas_threads())\n")
        env = {k: v for k, v in _env_without_malloc_settings().items()
               if k not in fsqnet.cli._BLAS_THREAD_VARIABLES}
        argv = ["train", "--data", str(workspace["data"]), "--out", "m.fsq"] + TRAIN_FLAGS
        out = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path, env=env,
                             check=True, capture_output=True, text=True).stdout.splitlines()
        if out[-1] == "None":
            pytest.skip("numpy does not use OpenBLAS")
        assert out[-1] == "1"

    def test_only_train_and_eval_set_it(self, workspace, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(fsqnet.cli, "_single_blas_thread_once", lambda: calls.append(1))
        ckpt = ["--checkpoint", str(workspace["checkpoint"])]
        image = next((workspace["data"] / "a").glob("*.ppm"))
        assert main(["predict", *ckpt, "--image", str(image)]) == 0
        assert main(["inspect", *ckpt]) == 0
        assert calls == []
        assert main(["eval", *ckpt, "--data", str(workspace["data"])]) == 0
        assert main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "m.fsq"),
                     *TRAIN_FLAGS]) == 0
        assert len(calls) == 2


class TestEval:
    def test_accuracy_json(self, workspace, capsys):
        code = main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--data", str(workspace["data"])])
        assert code == 0
        result = _stdout_json_lines(capsys)[-1]
        assert result["n"] == 24
        assert 0.0 <= result["accuracy"] <= 1.0

    def test_confusion_csv_accounting(self, workspace, tmp_path, capsys):
        csv_path = tmp_path / "conf.csv"
        code = main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--data", str(workspace["data"]), "--confusion", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == ",a,b"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["a", "b"]
        for row in rows:
            assert sum(int(c) for c in row[1:]) == 12  # per-class sample count

    def test_confusion_csv_quotes_class_names(self, workspace, tmp_path, capsys):
        # a comma or a quote in a class directory's name must not shift the columns
        names = ["a,b", 'q"x']
        data = tmp_path / "data"
        for old, new in zip(["a", "b"], names):
            shutil.copytree(workspace["data"] / old, data / new)
        checkpoint, csv_path = tmp_path / "model.fsq", tmp_path / "conf.csv"
        assert main(["train", "--data", str(data), "--out", str(checkpoint)] + TRAIN_FLAGS) == 0
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data),
                     "--confusion", str(csv_path)]) == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["", *names]
        assert [row[0] for row in rows[1:]] == names
        assert [sum(int(c) for c in row[1:]) for row in rows[1:]] == [12, 12]
        assert csv_path.read_text(encoding="utf-8").splitlines()[0] == ',"a,b","q""x"'

    def test_extra_class_is_exit_3(self, workspace, tmp_path, capsys):
        extra = tmp_path / "extra_data"
        write_dataset(extra, num_classes=3, per_class=2, size=40, seed=5)
        code = main(["eval", "--checkpoint", str(workspace["checkpoint"]),
                     "--data", str(extra)])
        assert code == 3
        assert "c" in capsys.readouterr().err

    def test_missing_checkpoint_is_exit_4(self, workspace, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.fsq"),
                     "--data", str(workspace["data"])])
        assert code == 4


class TestPredict:
    def test_top_list_descending(self, workspace, capsys):
        image = next((workspace["data"] / "a").glob("*.ppm"))
        code = main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                     "--image", str(image), "--top", "2"])
        assert code == 0
        ranked = _stdout_json_lines(capsys)[-1]
        assert len(ranked) == 2
        probs = [r["p"] for r in ranked]
        assert probs == sorted(probs, reverse=True)
        assert sum(probs) <= 1.0 + 1e-6

    def test_top_clamped_to_class_count(self, workspace, capsys):
        image = next((workspace["data"] / "b").glob("*.ppm"))
        code = main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                     "--image", str(image), "--top", "10"])
        assert code == 0
        assert len(_stdout_json_lines(capsys)[-1]) == 2

    def test_undecodable_image_is_exit_3(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"not an image at all")
        code = main(["predict", "--checkpoint", str(workspace["checkpoint"]),
                     "--image", str(bad)])
        assert code == 3


class TestInspect:
    def test_arch_only_default_totals(self, capsys):
        assert main(["inspect", "--arch-only"]) == 0
        table = _stdout_json_lines(capsys)[-1]
        assert table["variant"] == "v1.1"
        assert table["total_params"] == 997464
        assert table["layers"][0]["name"] == "conv1"

    def test_checkpoint_inspect_matches_arch(self, workspace, capsys):
        assert main(["inspect", "--checkpoint", str(workspace["checkpoint"])]) == 0
        from_ckpt = _stdout_json_lines(capsys)[-1]
        assert main(["inspect", "--arch-only", "--arch", "tiny", "--image-size", "32",
                     "--classes", "2"]) == 0
        from_flags = _stdout_json_lines(capsys)[-1]
        assert from_ckpt == from_flags

    def test_output_shapes_chain(self, capsys):
        assert main(["inspect", "--arch-only"]) == 0
        layers = _stdout_json_lines(capsys)[-1]["layers"]
        for previous, current in zip(layers, layers[1:]):
            if current["name"].startswith(("pool", "fire")):
                # spatial layers consume the previous layer's channel count
                assert len(previous["output_shape"]) == 3
