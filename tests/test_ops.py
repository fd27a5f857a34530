import dataclasses
import itertools
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsqnet.model
import fsqnet.ops
from fsqnet.errors import ConfigError, NumericError, ShapeError
from fsqnet.model import Dropout, ModelConfig, build_model, model_backward, model_forward
from fsqnet.ops import (
    ConvSpec,
    channel_concat,
    channel_split,
    conv2d_backward,
    conv2d_forward,
    dense_backward,
    dense_forward,
    dropout_mask,
    global_avg_pool,
    global_avg_pool_backward,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    softmax,
)
from fsqnet.train import cross_entropy
from oracles import (
    _linear,
    conv2d_backward_reference,
    conv2d_reference,
    fd_gradient,
    naive_conv2d,
    naive_matmul,
    naive_maxpool2d,
    naive_maxpool2d_backward,
    rel_error,
    tap_chain_maxpool2d,
)

FD_TOL = 1e-3

# (n, c, o, k, stride, pad, seed) of the small conv cases the property tests draw
CONV_CASES = (
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from([1, 3]),
    st.sampled_from([1, 2]),
    st.sampled_from([0, 1]),
    st.integers(0, 2**32 - 1),
)


def _randn(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def _conv_case(n, c, o, k, stride, pad, seed):
    rng = np.random.default_rng(seed)
    h = int(rng.integers(max(1, k - 2 * pad), 8))
    w = int(rng.integers(max(1, k - 2 * pad), 8))
    return rng, _randn(rng, n, c, h, w), _randn(rng, o, c, k, k), _randn(rng, o), ConvSpec(
        o, c, k, k, stride=stride, pad=pad
    )


def _assert_within_reordering_bound(fast, ref, magnitude, terms):
    """fast and ref each sum the same `terms` float64 values and round to float32 once.

    The values are products of float32 numbers, exact in float64.  In any
    order, a float64 sum of m values lies within (m-1)*2^-53*S of the exact
    sum, S being the sum of their magnitudes (`magnitude`, the same op on
    |inputs|), so the two sums differ by at most 2*m*2^-53*S.  Rounding each
    to float32 moves it by at most half the float32 spacing at its result,
    together at most the spacing at the larger of the two.
    """
    fast64, ref64 = fast.astype(np.float64), ref.astype(np.float64)
    rounding = np.spacing(np.maximum(np.abs(fast), np.abs(ref))).astype(np.float64)
    bound = rounding + 2 * terms * 2.0**-53 * magnitude.astype(np.float64)
    assert (np.abs(fast64 - ref64) <= bound).all()


def _gamma(m, u):
    """Higham's gamma_m = m*u / (1 - m*u) for unit roundoff u."""
    return m * u / (1 - m * u)


def _assert_within_float32_bound(fast, ref, magnitude, terms):
    """fast sums `terms` float32 products in float32, in some order; ref is
    the float64 sum of the same products, rounded to float32 once.

    Each value takes part in at most `terms` float32 roundings, its product's
    included, so fast lies within gamma_m*S of the exact sum, with m = terms,
    u = 2^-24 and S the sum of the terms' magnitudes (Higham, Accuracy and
    Stability of Numerical Algorithms, 3.1).  Before its rounding ref lies
    within the same bound at u = 2^-53, and rounding it to float32 moves it by
    at most half the float32 spacing at ref.  `magnitude` is the reference on
    |inputs|, a float64 sum rounded to float32, so S is below magnitude plus
    its spacing.  Valid while nothing underflows, as with normal samples.
    """
    assert fast.dtype == np.float32 and fast.shape == ref.shape
    s = magnitude.astype(np.float64) + np.spacing(magnitude).astype(np.float64)
    rounding = np.spacing(np.abs(ref)).astype(np.float64) / 2
    bound = (_gamma(terms, 2.0**-24) + _gamma(terms, 2.0**-53)) * s + rounding
    assert (np.abs(fast.astype(np.float64) - ref.astype(np.float64)) <= bound).all()


def _assert_within_blocked_bound(fast, ref, magnitude, block, terms):
    """fast sums `terms` float32 products as float32 sums over blocks of at most
    `block` products, adds the block sums in float64 and rounds to float32
    once; ref is the float64 sum of the same products, rounded to float32 once.

    Each block sum lies within gamma_B(2^-24) times the magnitudes of its
    terms of its exact value, B = block, so all of them together within
    gamma_B(2^-24)*S.  Adding at most M = terms block sums in float64 moves the
    total by at most gamma_M(2^-53) times their magnitudes, which are below
    2*S, and ref lies within gamma_M(2^-53)*S of the exact sum before its
    rounding; gamma_M + 2*gamma_M <= gamma_3M.  This is blocked summation
    (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).  Rounding
    fast and ref to float32 moves each by at most half the float32 spacing at
    it, together at most the spacing at the larger.  S is bounded as in
    _assert_within_float32_bound.
    """
    assert fast.dtype == np.float32 and fast.shape == ref.shape
    s = magnitude.astype(np.float64) + np.spacing(magnitude).astype(np.float64)
    rounding = np.spacing(np.maximum(np.abs(fast), np.abs(ref))).astype(np.float64)
    bound = (_gamma(block, 2.0**-24) + _gamma(3 * terms, 2.0**-53)) * s + rounding
    assert (np.abs(fast.astype(np.float64) - ref.astype(np.float64)) <= bound).all()


# the stem (K = 27) and fire7/8's 3x3 expand (K = 576, the largest K of v1.1)
# at v1.1's channel counts, on small planes: (x shape, spec)
PAPER_SCALE_CONVS = {
    "stem": ((2, 3, 35, 35), ConvSpec(64, 3, 3, 3, stride=2)),
    "fire7_expand3x3": ((2, 64, 14, 14), ConvSpec(256, 64, 3, 3, pad=1)),
}

# convs at v1.1 channel counts whose planes have output positions just below, at
# and above a multiple of WGRAD_BLOCK = 256 (255, 256, 513) and past 4,096
# (4,225), so the weight gradient's full-block product runs: (x shape, spec)
WGRAD_BLOCK_CONVS = {
    "p255": ((2, 16, 15, 17), ConvSpec(64, 16, 3, 3, pad=1)),
    "p256": ((2, 128, 16, 16), ConvSpec(16, 128, 1, 1)),
    "p513": ((2, 32, 55, 39), ConvSpec(128, 32, 3, 3, stride=2)),
    "p4225": ((2, 16, 65, 65), ConvSpec(64, 16, 3, 3, pad=1)),
}


class TestConvSpec:
    def test_out_hw_floor(self):
        spec = ConvSpec(1, 1, 3, 3, stride=2, pad=0)
        assert spec.out_hw(7, 7) == (3, 3)

    def test_invalid_fields(self):
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 0, 3)
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 3, 3, stride=0)
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 3, 3, pad=-1)

    def test_nonpositive_output(self):
        with pytest.raises(ShapeError):
            ConvSpec(1, 1, 5, 5).out_hw(3, 3)


class TestConvForward:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).standard_normal((2, 1, 4, 4)).astype(np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out = conv2d_forward(x, w, b, ConvSpec(1, 1, 1, 1))
        assert np.array_equal(out, x)

    def test_zero_weight_gives_bias(self):
        x = np.random.default_rng(1).standard_normal((1, 2, 3, 3)).astype(np.float32)
        w = np.zeros((2, 2, 3, 3), dtype=np.float32)
        b = np.array([1.5, -2.0], dtype=np.float32)
        out = conv2d_forward(x, w, b, ConvSpec(2, 2, 3, 3, pad=1))
        assert (out[:, 0] == 1.5).all() and (out[:, 1] == -2.0).all()

    def test_diagonal_window(self):
        x = np.array([[[[1, 2], [3, 4]]]], dtype=np.float32)
        w = np.array([[[[1, 0], [0, 1]]]], dtype=np.float32)
        b = np.zeros(1, dtype=np.float32)
        out = conv2d_forward(x, w, b, ConvSpec(1, 1, 2, 2))
        assert out.tolist() == [[[[5.0]]]]

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d_forward(
                np.zeros((1, 3, 4, 4), np.float32),
                np.zeros((2, 2, 3, 3), np.float32),
                np.zeros(2, np.float32),
                ConvSpec(2, 2, 3, 3),
            )

    @given(*CONV_CASES)
    @settings(max_examples=40)
    def test_matches_naive_oracle_bit_exactly(self, n, c, o, k, stride, pad, seed):
        _, x, weight, bias, spec = _conv_case(n, c, o, k, stride, pad, seed)
        ours = conv2d_reference(x, weight, bias, spec)
        naive = naive_conv2d(x, weight, bias, stride, pad)
        assert np.array_equal(ours, naive)

    @staticmethod
    def _check_float32_bound(x, weight, bias, spec):
        fast = conv2d_forward(x, weight, bias, spec)
        ref = conv2d_reference(x, weight, bias, spec)
        magnitude = conv2d_reference(np.abs(x), np.abs(weight), np.abs(bias), spec)
        terms = spec.in_channels * spec.kernel_h * spec.kernel_w + 1  # K products and the bias
        _assert_within_float32_bound(fast, ref, magnitude, terms)

    @given(*CONV_CASES)
    @settings(max_examples=40)
    def test_float32_within_error_bound_of_reference(self, n, c, o, k, stride, pad, seed):
        _, x, weight, bias, spec = _conv_case(n, c, o, k, stride, pad, seed)
        self._check_float32_bound(x, weight, bias, spec)

    @pytest.mark.parametrize("name", PAPER_SCALE_CONVS)
    def test_float32_within_error_bound_at_paper_scale_k(self, name):
        shape, spec = PAPER_SCALE_CONVS[name]
        rng = np.random.default_rng(17)
        weight = _randn(rng, spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        self._check_float32_bound(_randn(rng, *shape), weight, _randn(rng, spec.out_channels), spec)

    def test_batch_equals_per_image(self):
        rng = np.random.default_rng(12)
        x = _randn(rng, 4, 5, 9, 9)
        for spec in (ConvSpec(6, 5, 3, 3, stride=2, pad=1), ConvSpec(6, 5, 1, 1)):
            w, b = _randn(rng, 6, 5, spec.kernel_h, spec.kernel_w), _randn(rng, 6)
            singles = [conv2d_forward(x[i : i + 1], w, b, spec) for i in range(4)]
            assert np.array_equal(conv2d_forward(x, w, b, spec), np.concatenate(singles))


class TestConvBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(2)
        x, w = _randn(rng, 1, 2, 4, 4), _randn(rng, 3, 2, 3, 3)
        spec = ConvSpec(3, 2, 3, 3, pad=1)
        g = conv2d_backward(x, w, spec, np.zeros((1, 3, 4, 4), np.float32))
        assert not g.d_input.any() and not g.d_weight.any() and not g.d_bias.any()

    def test_identity_kernel_chain_rule(self):
        rng = np.random.default_rng(3)
        x = _randn(rng, 2, 1, 4, 4)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        d_out = _randn(rng, 2, 1, 4, 4)
        g = conv2d_backward(x, w, ConvSpec(1, 1, 1, 1), d_out)
        assert np.allclose(g.d_input, d_out, atol=1e-6)

    def test_grad_shapes(self):
        rng = np.random.default_rng(4)
        x, w = _randn(rng, 2, 3, 5, 5), _randn(rng, 4, 3, 3, 3)
        spec = ConvSpec(4, 3, 3, 3, stride=2, pad=1)
        g = conv2d_backward(x, w, spec, _randn(rng, 2, 4, 3, 3))
        assert g.d_input.shape == x.shape
        assert g.d_weight.shape == w.shape
        assert g.d_bias.shape == (4,)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_matches_finite_differences(self, seed, stride, pad):
        rng = np.random.default_rng(seed)
        spec = ConvSpec(2, 3, 3, 3, stride=stride, pad=pad)
        x, w, b = _randn(rng, 2, 3, 5, 5), _randn(rng, 2, 3, 3, 3), _randn(rng, 2)
        oh, ow = spec.out_hw(5, 5)
        d_out = _randn(rng, 2, 2, oh, ow)
        g = conv2d_backward(x, w, spec, d_out)
        forward = lambda: conv2d_forward(x, w, b, spec)
        assert rel_error(fd_gradient(forward, x, d_out), g.d_input) < FD_TOL
        assert rel_error(fd_gradient(forward, w, d_out), g.d_weight) < FD_TOL
        assert rel_error(fd_gradient(forward, b, d_out), g.d_bias) < FD_TOL

    @staticmethod
    def _check_bounds(x, weight, spec, d_out):
        """d_input within the float32 bound, d_weight within the blocked bound
        and d_bias, a float64 sum over every position, within the float64
        reordering bound."""
        fast = conv2d_backward(x, weight, spec, d_out)
        ref = conv2d_backward_reference(x, weight, spec, d_out)
        magnitude = conv2d_backward_reference(np.abs(x), np.abs(weight), spec, np.abs(d_out))
        terms = spec.out_channels * spec.kernel_h * spec.kernel_w  # W.T @ d, then _col2im's adds
        _assert_within_float32_bound(fast.d_input, ref.d_input, magnitude.d_input, terms)
        positions = d_out.size // spec.out_channels
        _assert_within_blocked_bound(fast.d_weight, ref.d_weight, magnitude.d_weight,
                                     fsqnet.ops.WGRAD_BLOCK, positions)
        assert fast.d_bias.dtype == np.float32 and fast.d_bias.shape == ref.d_bias.shape
        _assert_within_reordering_bound(fast.d_bias, ref.d_bias, magnitude.d_bias, positions)

    @staticmethod
    def _check_fixed_case(shape, spec):
        rng = np.random.default_rng(18)
        weight = _randn(rng, spec.out_channels, spec.in_channels, spec.kernel_h, spec.kernel_w)
        d_out = _randn(rng, shape[0], spec.out_channels, *spec.out_hw(*shape[2:]))
        TestConvBackward._check_bounds(_randn(rng, *shape), weight, spec, d_out)

    @given(*CONV_CASES)
    @settings(max_examples=40)
    def test_fast_within_error_bounds_of_reference(self, n, c, o, k, stride, pad, seed):
        rng, x, weight, _, spec = _conv_case(n, c, o, k, stride, pad, seed)
        self._check_bounds(x, weight, spec, _randn(rng, n, o, *spec.out_hw(*x.shape[2:])))

    @pytest.mark.parametrize("name", PAPER_SCALE_CONVS)
    def test_within_error_bounds_at_paper_scale_k(self, name):
        self._check_fixed_case(*PAPER_SCALE_CONVS[name])

    @pytest.mark.parametrize("name", WGRAD_BLOCK_CONVS)
    def test_within_error_bounds_across_weight_gradient_blocks(self, name):
        self._check_fixed_case(*WGRAD_BLOCK_CONVS[name])

    def test_blas_thread_count_leaves_weight_gradient_bytes_unchanged(self):
        # batch 8, as v1.1@244 trains, and v1.1@244's stem with 14,641 positions:
        # whole-plane float32 products change bytes with the thread count there
        cases = [[(8, *shape[1:]), dataclasses.astuple(spec)]
                 for shape, spec in WGRAD_BLOCK_CONVS.values()]
        cases.append([(8, 3, 244, 244), dataclasses.astuple(ConvSpec(64, 3, 3, 3, stride=2))])
        src = str(Path(fsqnet.ops.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        digests = [subprocess.run([sys.executable, "-c", _WEIGHT_GRADIENT_DIGESTS, json.dumps(cases)],
                                  env={**env, "OPENBLAS_NUM_THREADS": threads},
                                  check=True, capture_output=True, text=True).stdout.split()
                   for threads in ("1", "2")]
        assert len(digests[0]) == len(cases)
        assert digests[0] == digests[1]


# one SHA-256 of conv2d_backward's d_weight per case, for the JSON list of
# [x shape, ConvSpec fields] in argv[1]
_WEIGHT_GRADIENT_DIGESTS = """
import hashlib, json, sys
import numpy as np
from fsqnet.ops import ConvSpec, conv2d_backward

for shape, fields in json.loads(sys.argv[1]):
    spec = ConvSpec(*fields)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape, dtype=np.float32)
    weight = rng.standard_normal((spec.out_channels, spec.in_channels, spec.kernel_h,
                                  spec.kernel_w), dtype=np.float32)
    d_out = rng.standard_normal((shape[0], spec.out_channels, *spec.out_hw(*shape[2:])),
                                dtype=np.float32)
    print(hashlib.sha256(conv2d_backward(x, weight, spec, d_out).d_weight.tobytes()).hexdigest())
"""


class TestRelu:
    def test_sign_cases(self):
        assert relu(np.array([-1.0, 0.0, 2.0], np.float32)).tolist() == [0.0, 0.0, 2.0]

    def test_positive_unchanged(self):
        x = np.abs(np.random.default_rng(5).standard_normal(10)).astype(np.float32) + 0.1
        assert np.array_equal(relu(x), x)

    def test_backward_routing(self):
        x = np.array([-1.0, 0.5, 0.0], np.float32)
        d = np.array([10.0, 20.0, 30.0], np.float32)
        assert relu_backward(x, d).tolist() == [0.0, 20.0, 0.0]

    def test_backward_bytes_match_where(self):
        ds = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 3.5, -2.0], np.float32)
        ys = np.array([-1.0, -0.0, 0.0, 1e-45, 2.0, np.nan], np.float32)
        y = np.repeat(ys[:, None], ds.size, axis=1)
        d = np.repeat(ds[:, None], ys.size, axis=1).T  # a strided view, as channel_split gives
        expected = np.where(y > 0, d, np.float32(0.0))
        assert relu_backward(y, d).tobytes() == expected.tobytes()

    def test_backward_matches_fd_away_from_kink(self):
        rng = np.random.default_rng(6)
        x = _randn(rng, 3, 4)
        x[np.abs(x) < 0.05] = 0.1  # keep clear of the non-differentiable point
        d_out = _randn(rng, 3, 4)
        fd = fd_gradient(lambda: relu(x), x, d_out)
        assert rel_error(fd, relu_backward(x, d_out)) < FD_TOL


def _pool_backward(x, kernel, stride, d_out):
    return maxpool2d_backward(x, maxpool2d(x, kernel, stride), kernel, stride, d_out)


class TestMaxPool:
    def test_constant_field(self):
        x = np.full((1, 1, 4, 4), 3.5, np.float32)
        assert (maxpool2d(x, 2, 2) == 3.5).all()

    def test_single_window(self):
        x = np.array([[[[1, 2], [3, 4]]]], np.float32)
        assert maxpool2d(x, 2, 2).tolist() == [[[[4.0]]]]

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1, 2], [3, 4]]]], np.float32)
        d = np.array([[[[1.0]]]], np.float32)
        assert _pool_backward(x, 2, 2, d).tolist() == [[[[0.0, 0.0], [0.0, 1.0]]]]

    def test_tie_breaks_to_lowest_flat_index(self):
        x = np.full((1, 1, 2, 2), 7.0, np.float32)
        d = np.array([[[[1.0]]]], np.float32)
        assert _pool_backward(x, 2, 2, d).tolist() == [[[[1.0, 0.0], [0.0, 0.0]]]]

    def test_window_too_large(self):
        with pytest.raises(ShapeError):
            maxpool2d(np.zeros((1, 1, 2, 2), np.float32), 3, 1)

    def test_overlapping_windows_accumulate(self):
        x = np.array([[[[0, 0, 0], [0, 9, 0], [0, 0, 0]]]], np.float32)
        d = np.ones((1, 1, 2, 2), np.float32)
        out = _pool_backward(x, 2, 1, d)
        assert out[0, 0, 1, 1] == 4.0  # the center wins all four windows

    @given(
        st.integers(1, 2),
        st.integers(1, 3),
        st.sampled_from([(2, 2), (3, 2), (2, 1), (3, 1), (3, 3)]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60)
    def test_matches_naive_oracle_bit_exactly(self, n, c, window, plateaus, seed):
        kernel, stride = window
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(kernel, 10, size=2))
        if plateaus:  # few distinct values: ties in most windows
            x = rng.integers(-1, 2, size=(n, c, h, w)).astype(np.float32)
        else:
            x = _randn(rng, n, c, h, w)
        y = maxpool2d(x, kernel, stride)
        d_out = _randn(rng, *y.shape)
        assert np.array_equal(y, naive_maxpool2d(x, kernel, stride))
        assert np.array_equal(
            maxpool2d_backward(x, y, kernel, stride, d_out),
            naive_maxpool2d_backward(x, kernel, stride, d_out),
        )

    @given(
        st.integers(1, 2),
        st.integers(1, 3),
        st.sampled_from([(2, 2), (3, 2), (2, 1), (3, 1), (3, 3)]),
        st.booleans(),
        st.sampled_from([1, 200, fsqnet.ops.POOL_BLOCK_BYTES]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_matches_tap_chain_bytes_on_signed_zero_and_nan_plateaus(
        self, n, c, window, with_nans, block_bytes, seed
    ):
        # array_equal cannot tell +0 from -0 or one NaN from another; small
        # blocks split the channels as large tensors are split
        kernel, stride = window
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(kernel, 12, size=2))
        values = np.array([0.0, -0.0, 1.0, -1.0], np.float32)
        if with_nans:
            nans = np.array([0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800001], np.uint32)
            values = np.concatenate([values, nans.view(np.float32)])
        x = rng.choice(values, size=(n, c, h, w))
        with mock.patch.object(fsqnet.ops, "POOL_BLOCK_BYTES", block_bytes):
            y = maxpool2d(x, kernel, stride)
        assert y.tobytes() == tap_chain_maxpool2d(x, kernel, stride).tobytes()

    def test_backward_shape_checks(self):
        x = np.zeros((1, 1, 4, 4), np.float32)
        y = maxpool2d(x, 2, 2)
        with pytest.raises(ShapeError):
            maxpool2d_backward(x, y, 2, 2, np.zeros((1, 1, 3, 3), np.float32))
        with pytest.raises(ShapeError):
            maxpool2d_backward(x, y[:, :, :1], 2, 2, y[:, :, :1])

    @pytest.mark.parametrize("seed", range(3))
    def test_backward_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        x = _randn(rng, 1, 2, 4, 4)
        d_out = _randn(rng, 1, 2, 2, 2)
        fd = fd_gradient(lambda: maxpool2d(x, 2, 2), x, d_out)
        assert rel_error(fd, _pool_backward(x, 2, 2, d_out)) < FD_TOL


class TestConcatSplit:
    def test_layout(self):
        a = np.ones((1, 1, 2, 2), np.float32)
        b = np.full((1, 1, 2, 2), 2.0, np.float32)
        out = channel_concat(a, b)
        assert out.shape == (1, 2, 2, 2)
        assert (out[:, 0] == 1.0).all() and (out[:, 1] == 2.0).all()

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(7)
        a, b = _randn(rng, 2, 3, 4, 4), _randn(rng, 2, 2, 4, 4)
        ra, rb = channel_split(channel_concat(a, b), 3)
        assert np.array_equal(ra, a) and np.array_equal(rb, b)

    def test_backward_is_split(self):
        rng = np.random.default_rng(8)
        d_a, d_b = _randn(rng, 1, 2, 3, 3), _randn(rng, 1, 1, 3, 3)
        back_a, back_b = channel_split(channel_concat(d_a, d_b), 2)
        assert np.array_equal(back_a, d_a) and np.array_equal(back_b, d_b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            channel_concat(np.zeros((1, 1, 2, 2), np.float32), np.zeros((1, 1, 3, 3), np.float32))

    def test_bad_split_point(self):
        with pytest.raises(ShapeError):
            channel_split(np.zeros((1, 2, 2, 2), np.float32), 2)


class TestGlobalAvgPool:
    def test_constant_plane(self):
        x = np.full((2, 3, 4, 4), 1.25, np.float32)
        assert (global_avg_pool(x) == 1.25).all()

    def test_hand_value(self):
        x = np.array([[[[1, 2], [3, 4]]]], np.float32)
        assert global_avg_pool(x).tolist() == [[2.5]]

    def test_singleton_identity(self):
        rng = np.random.default_rng(9)
        x = _randn(rng, 2, 5, 1, 1)
        assert np.array_equal(global_avg_pool(x), x[:, :, 0, 0])

    def test_backward_matches_fd(self):
        rng = np.random.default_rng(10)
        x = _randn(rng, 2, 3, 3, 3)
        d_out = _randn(rng, 2, 3)
        fd = fd_gradient(lambda: global_avg_pool(x), x, d_out)
        assert rel_error(fd, global_avg_pool_backward(d_out, 3, 3)) < FD_TOL


class TestDense:
    def test_identity_weight(self):
        x = np.random.default_rng(11).standard_normal((3, 4)).astype(np.float32)
        out = dense_forward(x, np.eye(4, dtype=np.float32), np.zeros(4, np.float32))
        assert np.allclose(out, x, atol=1e-6)

    def test_zero_input_gives_bias(self):
        b = np.array([1.0, 2.0, 3.0], np.float32)
        out = dense_forward(np.zeros((2, 4), np.float32), np.zeros((4, 3), np.float32), b)
        assert np.array_equal(out, np.tile(b, (2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            dense_forward(np.zeros((2, 3), np.float32), np.zeros((4, 5), np.float32),
                          np.zeros(5, np.float32))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_matches_naive_matmul_bit_exactly(self, n, k, m, seed):
        rng = np.random.default_rng(seed)
        x, w = _randn(rng, n, k), _randn(rng, k, m)
        ours = _linear(x.astype(np.float64), w.astype(np.float64), np.zeros(m, np.float32))
        assert np.array_equal(ours.astype(np.float32), naive_matmul(x, w))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_fast_within_reordering_bound_of_reference(self, n, k, m, seed):
        rng = np.random.default_rng(seed)
        x, w, b = _randn(rng, n, k), _randn(rng, k, m), _randn(rng, m)
        fast = dense_forward(x, w, b)
        ref = _linear(x.astype(np.float64), w.astype(np.float64), b).astype(np.float32)
        magnitude = _linear(np.abs(x).astype(np.float64), np.abs(w).astype(np.float64), np.abs(b))
        assert fast.dtype == np.float32
        _assert_within_reordering_bound(fast, ref, magnitude, terms=k + 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_match_fd(self, seed):
        rng = np.random.default_rng(seed)
        x, w, b = _randn(rng, 3, 4), _randn(rng, 4, 5), _randn(rng, 5)
        d_out = _randn(rng, 3, 5)
        g = dense_backward(x, w, d_out)
        forward = lambda: dense_forward(x, w, b)
        assert rel_error(fd_gradient(forward, x, d_out), g.d_input) < FD_TOL
        assert rel_error(fd_gradient(forward, w, d_out), g.d_weight) < FD_TOL
        assert rel_error(fd_gradient(forward, b, d_out), g.d_bias) < FD_TOL


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax(np.zeros((1, 3), np.float32))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-7)

    def test_scalar_oracle(self):
        out = softmax(np.array([[1.0, 2.0, 3.0]], np.float32))[0]
        expected = [0.090030573, 0.244728471, 0.665240956]
        assert np.allclose(out, expected, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        z = _randn(rng, 4, 5)
        assert np.allclose(softmax(z), softmax(z + np.float32(13.5)), atol=1e-6)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(1, 5))
    def test_rows_sum_to_one_and_argmax_preserved(self, seed, m, n):
        z = (np.random.default_rng(seed).standard_normal((n, m)) * 10).astype(np.float32)
        p = softmax(z)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-6)
        # float32 saturates to exactly 0/1 once logit gaps exceed ~16, so the
        # open-interval and argmax claims are only testable away from that
        assert ((p >= 0) & (p <= 1)).all()
        clear_winner = np.ptp(z, axis=1) < 10.0
        assert np.array_equal(p.argmax(axis=1)[clear_winner], z.argmax(axis=1)[clear_winner])

    def test_interior_probabilities_for_moderate_logits(self):
        rng = np.random.default_rng(16)
        z = rng.standard_normal((20, 6)).astype(np.float32)
        p = softmax(z)
        assert ((p > 0) & (p < 1)).all()
        assert np.array_equal(p.argmax(axis=1), z.argmax(axis=1))

    def test_nan_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(NumericError):
                softmax(np.array([[bad, 0.0]], np.float32))

    def test_needs_two_classes(self):
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 1), np.float32))

    def test_large_logits_stable(self):
        p = softmax(np.array([[1000.0, 1001.0]], np.float32))
        assert np.isfinite(p).all() and abs(p.sum() - 1.0) < 1e-6


class TestDropout:
    def test_rate_zero_identity(self):
        x = np.random.default_rng(13).standard_normal((3, 3)).astype(np.float32)
        assert np.array_equal(x * dropout_mask(x.shape, 0.0, seed=1), x)

    def test_inference_identity(self):
        x = np.random.default_rng(14).standard_normal((3, 3)).astype(np.float32)
        out, tape = Dropout("dropout", 0.9).forward({}, x, dropout_seed=None)
        assert out is x and tape is None

    def test_statistical_mean(self):
        x = np.ones(100_000, dtype=np.float32)
        out = x * dropout_mask(x.shape, 0.5, seed=42)
        assert abs(out.mean() - 1.0) < 0.02

    def test_deterministic_per_seed(self):
        a = dropout_mask((10, 10), 0.3, seed=7)
        assert np.array_equal(a, dropout_mask((10, 10), 0.3, seed=7))

    def test_mask_values(self):
        mask = dropout_mask((1000,), 0.25, seed=3)
        assert set(np.unique(mask).tolist()) <= {0.0, np.float32(1.0 / 0.75)}

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout_mask((3,), 1.0, seed=0)


def _force_split(monkeypatch, workers):
    """Have fsqnet.ops split a large enough batch across this many workers."""
    monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: 1)
    monkeypatch.setattr(fsqnet.ops.os, "sched_getaffinity", lambda pid: set(range(workers)))


class TestSplit:
    def test_ranges_cover_the_batch_on_their_own_threads(self, monkeypatch):
        _force_split(monkeypatch, 3)
        ranges = []
        fsqnet.ops._split(5, fsqnet.ops.SPLIT_ELEMENTS,
                          lambda lo, hi: ranges.append((lo, hi, threading.current_thread())))
        assert sorted(r[:2] for r in ranges) == [(0, 1), (1, 3), (3, 5)]
        assert len({r[2] for r in ranges}) == 3
        assert (0, 1, threading.current_thread()) in ranges

    @pytest.mark.parametrize("n,size,blas_threads", [
        (1, fsqnet.ops.SPLIT_ELEMENTS, 1),
        (5, fsqnet.ops.SPLIT_ELEMENTS - 1, 1),
        (5, fsqnet.ops.SPLIT_ELEMENTS, 2),
        (5, fsqnet.ops.SPLIT_ELEMENTS, None),
    ], ids=["one-image", "small", "two-blas-threads", "no-openblas"])
    def test_runs_on_the_caller_unless_every_condition_holds(self, monkeypatch, n, size,
                                                             blas_threads):
        _force_split(monkeypatch, 3)
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: blas_threads)
        ranges = []
        fsqnet.ops._split(n, size,
                          lambda lo, hi: ranges.append((lo, hi, threading.current_thread())))
        assert ranges == [(0, n, threading.current_thread())]

    def test_worker_exception_reaches_the_caller_after_every_join(self, monkeypatch):
        _force_split(monkeypatch, 3)
        threads = threading.active_count()

        def work(lo, hi):
            if lo == 3:
                raise ValueError(f"range {lo}-{hi}")

        with pytest.raises(ValueError, match="range 3-5"):
            fsqnet.ops._split(5, fsqnet.ops.SPLIT_ELEMENTS, work)
        assert threading.active_count() == threads

    def test_splits_over_cpu_count_without_sched_getaffinity(self, monkeypatch):
        # macOS and Windows Python have no os.sched_getaffinity
        rng = np.random.default_rng(20)
        x = np.round(_randn(rng, 5, 16, 96, 96), 1)
        spec = ConvSpec(24, 16, 3, 3)
        weight, bias = _randn(rng, 24, 16, 3, 3), _randn(rng, 24)
        y = maxpool2d(x, 3, 2)
        d = _randn(rng, *y.shape)

        def op_bytes():
            return [conv2d_forward(x, weight, bias, spec).tobytes(),
                    maxpool2d_backward(x, y, 3, 2, d).tobytes()]

        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: None)
        unsplit = op_bytes()
        monkeypatch.delattr(fsqnet.ops.os, "sched_getaffinity")
        monkeypatch.setattr(fsqnet.ops, "_blas_threads", lambda: 1)
        monkeypatch.setattr(fsqnet.ops.os, "cpu_count", lambda: 3)
        ranges = []
        fsqnet.ops._split(5, fsqnet.ops.SPLIT_ELEMENTS, lambda lo, hi: ranges.append((lo, hi)))
        assert sorted(ranges) == [(0, 1), (1, 3), (3, 5)]
        assert op_bytes() == unsplit

    @staticmethod
    def _split_op_bytes() -> list[bytes]:
        # a batch of 5 splits 1 + 2 + 2 over three workers; every op is above
        # SPLIT_ELEMENTS, and the one-decimal values make pool windows tie
        rng = np.random.default_rng(19)
        x = np.round(_randn(rng, 5, 16, 96, 96), 1)
        assert x.size >= fsqnet.ops.SPLIT_ELEMENTS
        out = []
        # 1x1; 3x3 with 8,836 positions, so a weight-gradient tail; 3x3 stride 2
        for spec in (ConvSpec(16, 16, 1, 1), ConvSpec(24, 16, 3, 3),
                     ConvSpec(16, 16, 3, 3, stride=2, pad=1)):
            weight = _randn(rng, spec.out_channels, 16, spec.kernel_h, spec.kernel_w)
            y = conv2d_forward(x, weight, _randn(rng, spec.out_channels), spec)
            g = conv2d_backward(x, weight, spec, _randn(rng, *y.shape))
            out += [y.tobytes(), g.d_input.tobytes(), g.d_weight.tobytes(), g.d_bias.tobytes()]
        in_place = x.copy()
        relu(in_place, out=in_place)
        d = _randn(rng, *x.shape)
        out += [relu(x).tobytes(), in_place.tobytes(), relu_backward(x, d).tobytes()]
        y = maxpool2d(x, 3, 2)
        out += [y.tobytes(), maxpool2d_backward(x, y, 3, 2, _randn(rng, *y.shape)).tobytes()]
        return out

    def test_every_split_op_gives_the_same_bytes_at_one_and_three_workers(self, monkeypatch):
        _force_split(monkeypatch, 1)
        one = self._split_op_bytes()
        _force_split(monkeypatch, 3)
        assert self._split_op_bytes() == one


class TestPaperScaleStep:
    def test_every_conv_of_a_split_v11_step_within_bounds_of_reference(self, monkeypatch):
        # each conv of one v1.1@244 batch-2 training step is checked on the inputs
        # it was given, so errors do not compound from layer to layer
        _force_split(monkeypatch, 2)
        forwards, backwards = [], []

        def record(calls, op):
            def wrapper(*args):
                calls.append(args)
                return op(*args)
            return wrapper

        monkeypatch.setattr(fsqnet.model, "conv2d_forward", record(forwards, conv2d_forward))
        monkeypatch.setattr(fsqnet.model, "conv2d_backward", record(backwards, conv2d_backward))
        model = build_model(ModelConfig(), seed=0)
        x = np.random.default_rng(21).standard_normal((2, 3, 244, 244), dtype=np.float32)
        probs, tape = model_forward(model, x, training=True, dropout_seed=0)
        model_backward(tape, cross_entropy(probs, np.arange(2))[1])
        assert len(forwards) == len(backwards) == 25
        for x, weight, bias, spec in forwards:
            TestConvForward._check_float32_bound(x, weight, bias, spec)
            # the reference shares _patches with the fast path, so it is held bit for
            # bit to the loop oracle on a 5x5 corner of the same input, at two channels
            corner, w2, b2 = x[:1, :, :5, :5], weight[:2], bias[:2]
            ours = conv2d_reference(corner, w2, b2, dataclasses.replace(spec, out_channels=2))
            assert np.array_equal(ours, naive_conv2d(corner, w2, b2, spec.stride, spec.pad))
        for args in backwards:
            TestConvBackward._check_bounds(*args)


class TestPurity:
    def test_forward_ops_bit_stable(self):
        rng = np.random.default_rng(15)
        x = _randn(rng, 2, 3, 6, 6)
        w, b = _randn(rng, 4, 3, 3, 3), _randn(rng, 4)
        spec = ConvSpec(4, 3, 3, 3, pad=1)
        assert np.array_equal(conv2d_forward(x, w, b, spec), conv2d_forward(x, w, b, spec))
        assert np.array_equal(maxpool2d(x, 2, 2), maxpool2d(x, 2, 2))
        z = _randn(rng, 3, 4)
        assert np.array_equal(softmax(z), softmax(z))
