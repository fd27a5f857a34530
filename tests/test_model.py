import math
import threading
import tracemalloc

import numpy as np
import pytest

import fsqnet.model
import fsqnet.ops
from fsqnet.errors import ConfigError, ModelError, ShapeError, StateError
from fsqnet.model import (
    TINY_FIRES,
    V11_FIRES,
    Fire,
    FireSpec,
    Model,
    ModelConfig,
    build_model,
    expected_param_shapes,
    layer_plan,
    layer_summary,
    model_backward,
    model_forward,
    tiny_config,
)
from fsqnet.ops import (
    ConvSpec,
    channel_concat,
    conv2d_forward,
    dense_forward,
    dropout_mask,
    global_avg_pool,
    maxpool2d,
    relu,
    softmax,
)
from fsqnet.train import TrainConfig, cross_entropy, sgd_step
from oracles import closed_form_param_count, gradient, sequential_he_init


def _tiny_model(seed=7, num_classes=3):
    return build_model(tiny_config(num_classes=num_classes), seed)


def _batch(rng, n, size=32):
    return rng.standard_normal((n, 3, size, size)).astype(np.float32)


class TestFireSpec:
    def test_valid(self):
        spec = FireSpec(16, 64, 64)
        assert spec.out_channels == 128

    def test_squeeze_property_enforced(self):
        with pytest.raises(ConfigError):
            FireSpec(129, 64, 64)

    def test_positive_widths(self):
        with pytest.raises(ConfigError):
            FireSpec(0, 4, 4)


class TestModelConfig:
    def test_defaults(self):
        config = ModelConfig()
        assert config.num_classes == 24
        assert config.input_size == 244
        assert config.fire_specs == V11_FIRES

    def test_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_classes=1)
        with pytest.raises(ConfigError):
            ModelConfig(input_size=16)
        with pytest.raises(ConfigError):
            ModelConfig(fire_specs=())
        with pytest.raises(ConfigError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ConfigError):
            ModelConfig(head_hidden=0)

    @pytest.mark.parametrize("field,value", [
        ("num_classes", 3.0), ("num_classes", True), ("input_size", "64"),
        ("head_hidden", 32.5), ("dropout_rate", "0.5"), ("dropout_rate", False),
        ("variant", 7),
    ])
    def test_field_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ModelConfig(**{field: value})

    def test_from_dict_needs_every_key_and_no_other(self):
        d = tiny_config().to_dict()
        with pytest.raises(ConfigError, match="keys"):
            ModelConfig.from_dict({k: v for k, v in d.items() if k != "dropout_rate"})
        with pytest.raises(ConfigError, match="keys"):
            ModelConfig.from_dict(d | {"depth": 3})

    def test_dict_round_trip(self):
        config = tiny_config(num_classes=4, input_size=64)
        assert ModelConfig.from_dict(config.to_dict()) == config


class TestLayerSummary:
    def test_shapes_chain(self):
        rows = layer_summary(ModelConfig())
        names = [r["name"] for r in rows]
        assert names[0] == "conv1" and names[-1] == "softmax"
        assert rows[0]["output_shape"] == [64, 121, 121]
        assert rows[1]["output_shape"] == [64, 60, 60]
        # spatial dims only ever shrink; channel changes happen at fires/dense
        spatial = [r["output_shape"][-1] for r in rows if len(r["output_shape"]) == 3]
        assert spatial == sorted(spatial, reverse=True)
        assert rows[-1]["output_shape"] == [24]

    def test_total_matches_closed_form(self):
        rows = layer_summary(ModelConfig())
        widths = [(f.squeeze_1x1, f.expand_1x1, f.expand_3x3) for f in V11_FIRES]
        assert sum(r["params"] for r in rows) == closed_form_param_count(24, widths, 512)

    def test_tiny_totals(self):
        rows = layer_summary(tiny_config())
        widths = [(2, 2, 2), (2, 2, 2)]
        assert sum(r["params"] for r in rows) == closed_form_param_count(3, widths, 32)

    def test_params_not_counted_by_name_prefix(self):
        # fire1 is a name prefix of fire10 and fire11; each row counts its own layer only
        config = ModelConfig(num_classes=3, input_size=64, fire_specs=(FireSpec(2, 2, 2),) * 11,
                             head_hidden=32)
        rows = {r["name"]: r["params"] for r in layer_summary(config)}
        assert sum(rows.values()) == sum(p.size for p in build_model(config, 0).params.values())
        own = [s for n, s in expected_param_shapes(config).items() if n.startswith("fire1_")]
        assert rows["fire1"] == sum(int(np.prod(s)) for s in own)
        assert rows["fire2"] == rows["fire10"]  # same widths, same input channels

    def test_pool_rows_present(self):
        names = [r["name"] for r in layer_summary(ModelConfig())]
        assert names.count("pool1") == 1
        assert "pool2" in names and "pool3" in names
        tiny_names = [r["name"] for r in layer_summary(tiny_config())]
        assert "pool2" not in tiny_names  # only two fires, no mid-network pools


class TestFireForward:
    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(0)
        spec = FireSpec(3, 4, 5)
        x = rng.standard_normal((2, 6, 5, 5)).astype(np.float32)
        params = {
            "f_squeeze/weight": rng.standard_normal((3, 6, 1, 1)).astype(np.float32),
            "f_squeeze/bias": rng.standard_normal(3).astype(np.float32),
            "f_expand1x1/weight": rng.standard_normal((4, 3, 1, 1)).astype(np.float32),
            "f_expand1x1/bias": rng.standard_normal(4).astype(np.float32),
            "f_expand3x3/weight": rng.standard_normal((5, 3, 3, 3)).astype(np.float32),
            "f_expand3x3/bias": rng.standard_normal(5).astype(np.float32),
        }
        out = Fire("f", spec, x.shape[1]).forward(params, x, None)[0]

        squeezed = relu(
            conv2d_forward(x, params["f_squeeze/weight"], params["f_squeeze/bias"],
                           ConvSpec(3, 6, 1, 1))
        )
        e1 = relu(
            conv2d_forward(squeezed, params["f_expand1x1/weight"], params["f_expand1x1/bias"],
                           ConvSpec(4, 3, 1, 1))
        )
        e3 = relu(
            conv2d_forward(squeezed, params["f_expand3x3/weight"], params["f_expand3x3/bias"],
                           ConvSpec(5, 3, 3, 3, pad=1))
        )
        assert np.array_equal(out, channel_concat(e1, e3))

    def test_output_shape(self):
        model = _tiny_model()
        x = np.random.default_rng(1).standard_normal((1, 64, 7, 7)).astype(np.float32)
        out = Fire("fire1", TINY_FIRES[0], x.shape[1]).forward(model.params, x, None)[0]
        assert out.shape == (1, 4, 7, 7)

    def test_missing_params(self):
        x = np.zeros((1, 3, 4, 4), np.float32)
        with pytest.raises(ModelError):
            Fire("nope", FireSpec(2, 2, 2), x.shape[1]).forward({}, x, None)


class TestBuildModel:
    def test_deterministic(self):
        a = _tiny_model(seed=5)
        b = _tiny_model(seed=5)
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_seed_changes_weights(self):
        a, b = _tiny_model(seed=1), _tiny_model(seed=2)
        assert not np.array_equal(a.params["conv1/weight"], b.params["conv1/weight"])

    def test_zero_biases(self):
        model = _tiny_model()
        for name, p in model.params.items():
            if name.endswith("/bias"):
                assert not p.any()

    def test_shapes_match_plan(self):
        model = _tiny_model()
        expected = expected_param_shapes(model.config)
        assert set(model.params) == set(expected)
        for name, shape in expected.items():
            assert model.params[name].shape == shape
            assert model.params[name].dtype == np.float32

    def test_param_count_tiny(self):
        assert sum(p.size for p in _tiny_model().params.values()) == 2279

    def test_param_count_default(self):
        shapes = expected_param_shapes(ModelConfig())
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert total == 997464

    @pytest.mark.parametrize("blas_threads", [1, 2, None], ids=["one", "two", "no-openblas"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("config", [ModelConfig(), tiny_config()], ids=["v11", "tiny"])
    def test_equals_the_sequential_oracle(self, monkeypatch, config, workers, blas_threads):
        monkeypatch.setattr(fsqnet.ops, "_cpus", lambda: workers)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: blas_threads)
        params = build_model(config, 42).params
        want = sequential_he_init(expected_param_shapes(config), 42)
        assert list(params) == list(want)
        for name, tensor in want.items():
            assert params[name].dtype == tensor.dtype
            assert params[name].tobytes() == tensor.tobytes()

    @pytest.mark.parametrize("blas_threads", [2, None], ids=["two-blas-threads", "no-openblas"])
    def test_v11_builds_on_every_cpu_and_tiny_on_the_caller(self, monkeypatch, blas_threads):
        monkeypatch.setattr(fsqnet.ops, "_cpus", lambda: 2)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: blas_threads)
        he_init, threads = fsqnet.model.he_init, {}

        def recording(shape, fan_in, seed):
            threads.setdefault(threading.current_thread(), []).append(math.prod(shape))
            return he_init(shape, fan_in, seed)

        monkeypatch.setattr(fsqnet.model, "he_init", recording)
        build_model(ModelConfig(), 0)
        # ranges of the cumulative element count: dense1 shares no CPU with fire1-7
        drawn = [sum(sizes) for sizes in threads.values()]
        assert len(drawn) == 2 and min(drawn) > 0.45 * sum(drawn)
        threads.clear()
        build_model(tiny_config(), 0)
        assert list(threads) == [threading.current_thread()]


class TestModelForward:
    def test_probability_rows(self):
        model = _tiny_model()
        probs = model_forward(model, _batch(np.random.default_rng(0), 4))
        assert probs.shape == (4, 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_duplicated_rows_identical(self):
        model = _tiny_model()
        one = _batch(np.random.default_rng(1), 1)
        pair = np.concatenate([one, one])
        probs = model_forward(model, pair)
        assert np.array_equal(probs[0], probs[1])

    def test_pure_function(self):
        model = _tiny_model()
        x = _batch(np.random.default_rng(2), 2)
        assert np.array_equal(model_forward(model, x), model_forward(model, x))

    def test_wrong_input_size(self):
        model = _tiny_model()
        with pytest.raises(ShapeError):
            model_forward(model, np.zeros((1, 3, 16, 16), np.float32))
        with pytest.raises(ShapeError):
            model_forward(model, np.zeros((1, 1, 32, 32), np.float32))

    def test_matches_op_composition(self):
        model = build_model(tiny_config(), 4)
        p = model.params
        x = _batch(np.random.default_rng(8), 2)

        def conv(name, h, spec):
            return relu(conv2d_forward(h, p[f"{name}/weight"], p[f"{name}/bias"], spec))

        h = maxpool2d(conv("conv1", x, ConvSpec(64, 3, 3, 3, stride=2)), 3, 2)
        for name, c_in in (("fire1", 64), ("fire2", 4)):
            s = conv(f"{name}_squeeze", h, ConvSpec(2, c_in, 1, 1))
            h = channel_concat(conv(f"{name}_expand1x1", s, ConvSpec(2, 2, 1, 1)),
                               conv(f"{name}_expand3x3", s, ConvSpec(2, 2, 3, 3, pad=1)))
        h = relu(dense_forward(global_avg_pool(h), p["dense1/weight"], p["dense1/bias"]))
        dropped = h * dropout_mask(h.shape, 0.5, 5)

        def head(hidden):
            return softmax(dense_forward(hidden, p["dense2/weight"], p["dense2/bias"]))

        assert np.array_equal(model_forward(model, x), head(h))
        probs, _ = model_forward(model, x, training=True, dropout_seed=5)
        assert np.array_equal(probs, head(dropped))

    def test_eval_keeps_no_tapes(self):
        model = build_model(ModelConfig(input_size=64), 1)
        x = _batch(np.random.default_rng(9), 2, size=64)

        def peak(training):
            tracemalloc.start()
            try:
                out = model_forward(model, x, training=training)
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (probs, eval_peak), ((_, tape), train_peak) = peak(False), peak(True)
        assert isinstance(probs, np.ndarray)
        assert [layer for layer, _ in tape] == layer_plan(model.config)
        assert eval_peak < train_peak

    def test_training_tape_holds_each_activation_once(self):
        config = ModelConfig(input_size=64)
        model = build_model(config, 1)
        n = 2
        x = _batch(np.random.default_rng(9), n, size=64)
        rows = layer_summary(config)
        # every layer output plus each fire's squeeze output, float32
        values = sum(int(np.prod(r["output_shape"])) for r in rows)
        for r, fire in zip((r for r in rows if r["name"].startswith("fire")), config.fire_specs):
            values += fire.squeeze_1x1 * r["output_shape"][1] * r["output_shape"][2]
        activation_bytes = 4 * n * values
        tracemalloc.start()
        try:
            _, tape = model_forward(model, x, training=True)  # bound, so held while measured
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # a tape that also kept each conv's pre-ReLU sum would hold about 1.9x this
        assert held < 1.1 * activation_bytes

    def test_dropout_only_with_seed(self):
        model = build_model(tiny_config(), 3)
        x = _batch(np.random.default_rng(3), 2)
        plain, _ = model_forward(model, x, training=True)
        dropped, _ = model_forward(model, x, training=True, dropout_seed=11)
        again, _ = model_forward(model, x, training=True, dropout_seed=11)
        assert np.array_equal(plain, model_forward(model, x))
        assert not np.array_equal(plain, dropped)
        assert np.array_equal(dropped, again)


class TestModelBackward:
    def test_requires_training_forward(self):
        model = _tiny_model()
        probs = model_forward(model, _batch(np.random.default_rng(4), 1))  # inference: no tape
        assert isinstance(probs, np.ndarray)
        with pytest.raises(StateError):
            model_backward([], np.zeros((1, 3), np.float32))

    def test_consumes_the_tape(self):
        model = _tiny_model()
        _, tape = model_forward(model, _batch(np.random.default_rng(4), 1), training=True)
        d = np.zeros((1, 3), np.float32)
        model_backward(tape, d)
        assert tape == []
        with pytest.raises(StateError):
            model_backward(tape, d)

    def test_covers_every_parameter(self):
        model = _tiny_model()
        x = _batch(np.random.default_rng(5), 2)
        probs, tape = model_forward(model, x, training=True)
        _, d_logits = cross_entropy(probs, [0, 1])
        grads = model_backward(tape, d_logits)
        assert set(grads) == set(model.params)
        for name in grads:
            assert gradient(grads[name]).shape == model.params[name].shape

    def test_deterministic(self):
        model = _tiny_model()
        x = _batch(np.random.default_rng(6), 2)
        d = np.full((2, 3), 0.1, np.float32)
        first = model_backward(model_forward(model, x, training=True)[1], d)
        second = model_backward(model_forward(model, x, training=True)[1], d)
        for name in first:
            assert np.array_equal(first[name], second[name])

    @pytest.mark.parametrize("config", [ModelConfig(), tiny_config()], ids=["v1.1", "tiny"])
    def test_empty_batch(self, config):
        model = build_model(config, 0)
        x = np.zeros((0, 3, config.input_size, config.input_size), np.float32)
        assert model_forward(model, x).shape == (0, config.num_classes)
        probs, tape = model_forward(model, x, training=True, dropout_seed=1)
        assert probs.shape == (0, config.num_classes)
        grads = model_backward(tape, np.zeros((0, config.num_classes), np.float32))
        assert set(grads) == set(model.params)
        for name, terms in grads.items():
            assert gradient(terms).shape == model.params[name].shape and not terms.any()

    @pytest.mark.parametrize("config", [ModelConfig(input_size=64), tiny_config()],
                             ids=["v1.1", "tiny"])
    def test_every_conv_but_the_stem_computes_its_input_gradient(self, monkeypatch, config):
        # the stem's input is the batch, data whose gradient nothing reads
        model = build_model(config, 0)
        convs = {id(p): name.split("/")[0] for name, p in model.params.items()
                 if name.endswith("/weight") and p.ndim == 4}
        backwards, input_gradients = [], []

        def record(op, calls, weight_at):
            def wrapper(*args):
                calls.append(convs[id(args[weight_at])])
                return op(*args)
            return wrapper

        monkeypatch.setattr(fsqnet.model, "conv2d_backward",
                            record(fsqnet.model.conv2d_backward, backwards, 1))
        monkeypatch.setattr(fsqnet.model, "conv2d_input_gradient",
                            record(fsqnet.model.conv2d_input_gradient, input_gradients, 0))
        x = _batch(np.random.default_rng(9), 2, size=config.input_size)
        probs, tape = model_forward(model, x, training=True, dropout_seed=1)
        model_backward(tape, cross_entropy(probs, [0, 1])[1])
        names = sorted(convs.values())
        assert "conv1" in names and sorted(backwards) == names
        assert sorted(input_gradients) == [name for name in names if name != "conv1"]

    def test_one_large_image_backward_holds_little_scratch(self):
        # each CPU trains one v1.1@244 image at a time: its tape is 13 MB, and
        # the gradients and scratch of its backward stay within 10 MB on top
        model = build_model(ModelConfig(), 0)
        x = _batch(np.random.default_rng(8), 1, size=244)
        tracemalloc.start()
        try:
            probs, tape = model_forward(model, x, training=True, dropout_seed=1)
            d_logits = cross_entropy(probs, [3])[1]
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            model_backward(tape, d_logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - live <= 10e6

    def test_count_invariant_under_steps(self):
        model = _tiny_model()
        before = sum(p.size for p in model.params.values())
        x = _batch(np.random.default_rng(7), 2)
        probs, tape = model_forward(model, x, training=True)
        _, d_logits = cross_entropy(probs, [0, 2])
        velocity = {name: np.zeros_like(p) for name, p in model.params.items()}
        grads = {name: gradient(t) for name, t in model_backward(tape, d_logits).items()}
        sgd_step(model.params, velocity, grads, TrainConfig(learning_rate=0.01))
        assert sum(p.size for p in model.params.values()) == before
