"""The benchmark's tracer wraps fsqnet functions by module and name.

A renamed, moved or re-signed function breaks every traced benchmark run, and
a batch step that stops calling the traced names moves its time to another
layer.  These checks load `perfbench/tracer.py` by path and fail first.
"""

import importlib.util
import inspect
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import fsqnet.cli
import fsqnet.data
import fsqnet.train
from fsqnet.checkpoint import save_checkpoint
from fsqnet.data import Dataset, ImageBuffer, save_ppm
from fsqnet.model import build_model, tiny_config
from fsqnet.train import History, TrainConfig
from test_data import SPLIT_SIZE, _record_split_threads, _write_split_sources
from test_ops import _force_split

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_exists(tracer):
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracer.TARGETS
               if not hasattr(module, attr)]
    assert not missing


def test_every_attribute_hook_wraps_a_target(tracer):
    wrapped = {getattr(module, attr).__name__ for module, attr, _ in tracer.TARGETS}
    assert set(tracer._ATTRS) <= wrapped


def test_attribute_hooks_bind_the_wrapped_positional_parameters(tracer):
    for module, attr, _ in tracer.TARGETS:
        fn = getattr(module, attr)
        hook = tracer._ATTRS.get(fn.__name__)
        if hook is None:
            continue
        params = [p for p in inspect.signature(fn).parameters.values() if p.kind in POSITIONAL]
        required = sum(p.default is inspect.Parameter.empty for p in params)
        for count in range(required, len(params) + 1):
            try:
                inspect.signature(hook).bind(*range(count))
            except TypeError as exc:
                pytest.fail(f"hook for {module.__name__}.{attr} with {count} arguments: {exc}")


def test_traced_predict_is_one_cli_main_span_around_its_work(tracer, tmp_path, capsys):
    # cli.self_ms_per_call is the time in this span outside its children
    checkpoint, image = tmp_path / "tiny.fsq", tmp_path / "image.ppm"
    save_checkpoint(build_model(tiny_config(num_classes=3, input_size=32), 0), History(),
                    (0.5, 0.5, 0.5), ["a", "b", "c"], checkpoint)
    save_ppm(ImageBuffer(np.random.default_rng(0).integers(0, 256, (40, 40, 3))), image)
    recorder = tracer.Tracer()
    with recorder.installed():
        assert fsqnet.cli.main(["predict", "--checkpoint", str(checkpoint),
                                "--image", str(image)]) == 0
    mains = [s for s in recorder.spans if s.name == "cli.main"]
    assert len(mains) == 1 and mains[0].parent is None
    assert [s.name for s in recorder.spans if s.parent == mains[0].id] == [
        "checkpoint.load_checkpoint", "data.load_image", "data.resize_bilinear",
        "data.normalize", "model.model_forward"]


def test_batch_assembly_is_traced_as_data(tracer):
    samples = np.random.default_rng(0).integers(0, 256, (3, 8, 8, 3), np.uint8)
    dataset = Dataset(samples, [0, 1, 0], ["a", "b"], (0.5, 0.5, 0.5))
    recorder = tracer.Tracer()
    with recorder.installed():
        fsqnet.train._assemble_batch(dataset, [2, 0], np.random.default_rng(1).random((2, 6)),
                                     True)
        fsqnet.train._assemble_batch(dataset, slice(0, 3))
    assert [(s.name, s.layer) for s in recorder.spans] == [
        ("data.augment", "data"), ("data.normalize", "data"), ("data.normalize", "data")]



def test_split_decode_and_resize_are_traced_on_every_thread(tracer, tmp_path, monkeypatch):
    _write_split_sources(tmp_path)
    files = fsqnet.data.load_dataset(tmp_path)
    _force_split(monkeypatch, 3)
    recorder = tracer.Tracer()
    with recorder.installed():
        fsqnet.data.resize_dataset(files, SPLIT_SIZE)
    counts = Counter(s.name for s in recorder.spans)
    assert counts["data.load_image"] == 5 and counts["data.resize_bilinear"] == 5
    assert len({s.thread for s in recorder.spans if s.name == "data.load_image"}) >= 2


def test_split_batch_assembly_is_traced_as_data(tracer, monkeypatch):
    samples = np.random.default_rng(0).integers(0, 256, (5, SPLIT_SIZE, SPLIT_SIZE, 3), np.uint8)
    dataset = Dataset(samples, [0, 1, 0, 1, 0], ["a", "b"], (0.5, 0.5, 0.5))
    _force_split(monkeypatch, 3)
    threads = _record_split_threads(monkeypatch)
    recorder = tracer.Tracer()
    with recorder.installed():
        fsqnet.train._assemble_batch(dataset, [4, 0, 1, 2, 3],
                                     np.random.default_rng(1).random((5, 6)), True)
    assert threads == [3, 3]  # augment's warp and normalize ran split
    assert [(s.name, s.layer) for s in recorder.spans] == [
        ("data.augment", "data"), ("data.normalize", "data")]


def test_split_evaluation_traces_one_image_per_forward_on_every_thread(tracer, monkeypatch):
    samples = np.random.default_rng(0).integers(0, 256, (5, SPLIT_SIZE, SPLIT_SIZE, 3), np.uint8)
    dataset = Dataset(samples, [0, 1, 0, 1, 0], ["a", "b"], (0.5, 0.5, 0.5))
    model = build_model(tiny_config(num_classes=2, input_size=SPLIT_SIZE), 0)
    _force_split(monkeypatch, 3)
    recorder = tracer.Tracer()
    with recorder.installed():
        fsqnet.train.evaluate(model, dataset)
    forwards = [s for s in recorder.spans if s.name == "model.model_forward"]
    assert [(s.attrs["n"], s.attrs["training"]) for s in forwards] == [(1, False)] * 5
    assert len({s.thread for s in forwards}) >= 2
    [evaluation] = [s for s in recorder.spans if s.name == "train.evaluate"]
    assert evaluation.thread == threading.current_thread().name


def test_split_training_traces_one_image_per_forward_and_backward_on_every_thread(
        tracer, monkeypatch):
    samples = np.random.default_rng(0).integers(0, 256, (5, SPLIT_SIZE, SPLIT_SIZE, 3), np.uint8)
    dataset = Dataset(samples, [0, 1, 0, 1, 0], ["a", "b"], (0.5, 0.5, 0.5))
    model = build_model(tiny_config(num_classes=2, input_size=SPLIT_SIZE), 0)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    _force_split(monkeypatch, 3)
    recorder = tracer.Tracer()
    with recorder.installed():
        fsqnet.train.train_epoch(model, velocity, dataset, dataset, TrainConfig(batch_size=5), 1)
    forwards = [s for s in recorder.spans
                if s.name == "model.model_forward" and s.attrs["training"]]
    backwards = [s for s in recorder.spans if s.name == "model.model_backward"]
    assert [s.attrs["n"] for s in forwards] == [s.attrs["n"] for s in backwards] == [1] * 5
    assert len({s.thread for s in forwards}) >= 2
    [epoch] = [s for s in recorder.spans if s.name == "train.train_epoch"]
    assert epoch.thread == threading.current_thread().name


def test_whole_batch_training_traces_one_forward_and_backward_on_the_calling_thread(tracer):
    # train-tiny-32's step: the batch goes whole through forward and backward
    samples = np.random.default_rng(0).integers(0, 256, (5, 32, 32, 3), np.uint8)
    dataset = Dataset(samples, [0, 1, 0, 1, 0], ["a", "b"], (0.5, 0.5, 0.5))
    model = build_model(tiny_config(num_classes=2, input_size=32), 0)
    velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
    recorder = tracer.Tracer()
    with recorder.installed():
        fsqnet.train.train_epoch(model, velocity, dataset, dataset, TrainConfig(batch_size=5), 1)
    forwards = [s for s in recorder.spans
                if s.name == "model.model_forward" and s.attrs["training"]]
    backwards = [s for s in recorder.spans if s.name == "model.model_backward"]
    caller = threading.current_thread().name
    assert [(s.attrs["n"], s.thread) for s in forwards] == [(5, caller)]
    assert [(s.attrs["n"], s.thread) for s in backwards] == [(5, caller)]
