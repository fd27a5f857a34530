"""The benchmark's tracer wraps fsqnet functions by module and name.

A renamed, moved or re-signed function breaks every traced benchmark run, and
a batch step that stops calling the traced names moves its time to another
layer.  These checks load `perfbench/tracer.py` by path and fail first.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import fsqnet.train
from fsqnet.data import Dataset

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


def test_batch_assembly_is_traced_as_data(tracer):
    samples = np.random.default_rng(0).integers(0, 256, (3, 8, 8, 3), np.uint8)
    dataset = Dataset(samples, [0, 1, 0], ["a", "b"], (0.5, 0.5, 0.5))
    recorder = tracer.Tracer()
    with recorder.installed():
        fsqnet.train._assemble_batch(dataset, [2, 0], [11, 12], True)
        fsqnet.train._assemble_batch(dataset, slice(0, 3))
    assert [(s.name, s.layer) for s in recorder.spans] == [
        ("data.augment", "data"), ("data.normalize", "data"), ("data.normalize", "data")]
