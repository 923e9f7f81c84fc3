import numpy as np
import pytest

from rawphone.net import (
    ConvLayerParams,
    NetworkConfig,
    StageConfig,
    backward_pass,
    forward_pass,
    init_params,
    log_softmax,
    maxpool_forward,
    param_count,
    softmax,
    stage_forward,
)
from rawphone.training import frame_loss, sgd_step

from gradcheck_util import check_config_gradients, random_small_config
from oracles import simulate_stage_frames

BEST_RAW = NetworkConfig(
    input_frames=4320,
    input_dim=1,
    stages=(
        StageConfig(10, 10, 90, 3),
        StageConfig(5, 1, 90, 3),
        StageConfig(9, 1, 90, 3),
    ),
    hidden_units=500,
    num_classes=40,
)


def layer(weight, bias, kw, dw):
    return ConvLayerParams(np.asarray(weight, dtype=np.float64),
                           np.asarray(bias, dtype=np.float64), kw, dw)


def conv_stage(x, lay):
    """Stage output of one T x d sequence with pooling width 1: tanh(conv(x))."""
    return stage_forward(np.asarray(x)[None], lay, 1)[0]


class TestConvForward:
    """The convolution inside stage_forward, seen through pool width 1."""

    def test_hand_example(self):
        x = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = conv_stage(x, layer([[1.0, 0.0, -1.0]], [0.0], 3, 1))
        np.testing.assert_array_equal(out, np.tanh([[-2.0], [-2.0]]))

    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(7, 3))
        out = conv_stage(x, layer(np.eye(3), np.zeros(3), 1, 1))
        np.testing.assert_allclose(out, np.tanh(x))

    def test_output_frame_count(self):
        x = np.zeros((4320, 1))
        out = conv_stage(x, layer(np.zeros((4, 10)), np.zeros(4), 10, 10))
        assert out.shape == (432, 4)

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            conv_stage(np.zeros((2, 1)), layer(np.zeros((1, 3)), np.zeros(1), 3, 1))

    def test_linearity_with_zero_bias(self):
        rng = np.random.default_rng(1)
        lay = layer(0.1 * rng.normal(size=(4, 6)), np.zeros(4), 3, 2)
        x = rng.normal(size=(11, 2))
        y = rng.normal(size=(11, 2))
        lhs = np.arctanh(conv_stage(0.25 * x - 0.05 * y, lay))
        rhs = 0.25 * np.arctanh(conv_stage(x, lay)) - 0.05 * np.arctanh(conv_stage(y, lay))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_shift_equivariance_for_unit_shift(self):
        rng = np.random.default_rng(2)
        lay = layer(rng.normal(size=(3, 4)), rng.normal(size=3), 4, 1)
        x = rng.normal(size=(12, 1))
        out = conv_stage(x, lay)
        out_shifted = conv_stage(x[1:], lay)
        np.testing.assert_array_equal(out[1:], out_shifted)

    def test_frame_major_window_layout(self):
        # weight picking the first coordinate of the second window frame
        w = np.zeros((1, 4))
        w[0, 2] = 1.0  # offset 1, dim 0 in a kW=2, d_in=2 window
        x = np.arange(8, dtype=np.float64).reshape(4, 2)
        out = conv_stage(x, layer(w, [0.0], 2, 1))
        np.testing.assert_array_equal(out[:, 0], np.tanh(x[1:, 0]))


class TestStageForward:
    def test_batch_rows_match_single_sequences(self):
        rng = np.random.default_rng(6)
        lay = layer(rng.normal(size=(5, 6)), rng.normal(size=5), 3, 2)
        x = rng.normal(size=(4, 20, 2))
        out = stage_forward(x, lay, 3)
        assert out.shape == (4, 3, 5)
        for i in range(4):
            np.testing.assert_allclose(out[i], stage_forward(x[i : i + 1], lay, 3)[0], atol=1e-12)

    def test_pooling_takes_block_maxima_before_tanh(self):
        rng = np.random.default_rng(7)
        lay = layer(rng.normal(size=(3, 2)), rng.normal(size=3), 1, 1)
        x = rng.normal(size=(2, 9, 2))
        conv = np.arctanh(stage_forward(x, lay, 1))
        pooled = np.arctanh(stage_forward(x, lay, 3))
        np.testing.assert_allclose(pooled, conv.reshape(2, 3, 3, 3).max(axis=2), atol=1e-9)

    def test_cache_records_single_window_for_backward(self):
        cfg = NetworkConfig(20, 1, (StageConfig(4, 2, 3, 2),), 5, 3)
        params = init_params(cfg, 0, dtype=np.float64)
        # a silent window ties every pool block: the first maximum must win
        for x in (np.random.default_rng(8).normal(size=(1, 20, 1)), np.zeros((1, 20, 1))):
            _, cache = forward_pass(x[0], params)
            stage = cache.plan.stages[0]
            assert stage.windows.shape == (9, 4)
            assert stage.conv.shape == (9, 3)
            assert stage.winner.shape == (4, 3)
            np.testing.assert_array_equal(stage.out, stage_forward(x, params.conv[0], 2)[0])
            _, arg = maxpool_forward(stage.conv, 2)
            expected = (np.arange(4)[:, None] * 2 + arg) * 3 + np.arange(3)
            np.testing.assert_array_equal(stage.winner, expected)

    def test_non_batch_input_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            stage_forward(np.zeros((5, 1)), layer(np.zeros((1, 3)), np.zeros(1), 3, 1), 1)


class TestMaxPool:
    def test_hand_example(self):
        x = np.array([[1.0], [5.0], [3.0], [2.0], [2.0], [4.0]])
        pooled, _ = maxpool_forward(x, 3)
        np.testing.assert_array_equal(pooled, [[5.0], [4.0]])

    def test_width_one_is_identity(self):
        x = np.random.default_rng(3).normal(size=(5, 4))
        pooled, arg = maxpool_forward(x, 1)
        np.testing.assert_array_equal(pooled, x)
        assert arg.max() == 0

    def test_trailing_remainder_dropped(self):
        x = np.arange(7, dtype=np.float64)[:, None]
        pooled, _ = maxpool_forward(x, 3)
        assert pooled.shape == (2, 1)
        np.testing.assert_array_equal(pooled[:, 0], [2.0, 5.0])

    def test_never_exceeds_window_max_and_permutation_invariant(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(12, 5))
        pooled, _ = maxpool_forward(x, 4)
        for j in range(3):
            window = x[4 * j : 4 * (j + 1)]
            np.testing.assert_array_equal(pooled[j], window.max(axis=0))
            shuffled = window[rng.permutation(4)]
            repooled, _ = maxpool_forward(
                np.concatenate([shuffled, np.zeros((4, 5)) - 99]), 4
            )
            np.testing.assert_array_equal(repooled[0], pooled[j])

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            maxpool_forward(np.zeros((2, 1)), 3)

    def test_leading_batch_axis_pools_each_item(self):
        x = np.random.default_rng(10).normal(size=(3, 7, 2))
        pooled, arg = maxpool_forward(x, 3)
        assert pooled.shape == arg.shape == (3, 2, 2)
        for i in range(3):
            p1, a1 = maxpool_forward(x[i], 3)
            np.testing.assert_array_equal(pooled[i], p1)
            np.testing.assert_array_equal(arg[i], a1)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_analytic_values(self):
        np.testing.assert_allclose(softmax([np.log(2.0), 0.0]), [2 / 3, 1 / 3])

    def test_large_scores_do_not_overflow(self):
        out = softmax([1000.0, 1000.0])
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = rng.normal(scale=10.0, size=rng.integers(2, 9))
            p = softmax(f)
            assert abs(p.sum() - 1.0) < 1e-9
            assert (p > 0).all()
            np.testing.assert_allclose(softmax(f + 123.4), p, atol=1e-9)

    def test_rows_bit_identical_to_vector_form(self):
        rng = np.random.default_rng(11)
        for fn in (softmax, log_softmax):
            for k in (5, 39):
                f = rng.normal(scale=5.0, size=(50, k))
                rows = np.array([fn(r) for r in f])
                assert fn(f).tobytes() == rows.tobytes()
                assert fn(f[None]).tobytes() == rows.tobytes()


class TestLogSoftmax:
    def test_is_log_of_softmax(self):
        rng = np.random.default_rng(12)
        f = rng.normal(scale=10.0, size=(40, 7))
        np.testing.assert_allclose(log_softmax(f), np.log(softmax(f)), rtol=0, atol=1e-12)

    def test_finite_where_softmax_underflows(self):
        f = np.array([[800.0, 0.0], [0.0, 800.0]])
        assert (softmax(f) == np.eye(2)).all()
        assert log_softmax(f).tolist() == [[0.0, -800.0], [-800.0, 0.0]]


class TestForwardPass:
    def test_best_raw_stage_shapes_match_bruteforce(self):
        sim = simulate_stage_frames(4320, [(10, 10, 3), (5, 1, 3), (9, 1, 3)])
        assert sim == [(432, 144), (140, 46), (38, 12)]
        assert BEST_RAW.frame_counts() == sim
        assert BEST_RAW.flattened_size() == 12 * 90 == 1080

    def test_random_config_shapes_match_bruteforce(self):
        rng = np.random.Generator(np.random.PCG64(77))
        for _ in range(30):
            cfg = random_small_config(rng, input_dim=int(rng.integers(1, 4)))
            sim = simulate_stage_frames(
                cfg.input_frames,
                [(s.kernel_width, s.shift, s.pool_width) for s in cfg.stages],
            )
            assert cfg.frame_counts() == sim

    def test_zero_stage_config_is_mlp(self):
        cfg = NetworkConfig(1, 3, (), hidden_units=4, num_classes=2)
        params = init_params(cfg, 0, dtype=np.float64)
        x = np.array([[0.5, -1.0, 2.0]])
        scores, _ = forward_pass(x, params)
        hidden = np.tanh(params.hidden_weight @ x[0] + params.hidden_bias)
        expected = params.output_weight @ hidden + params.output_bias
        np.testing.assert_allclose(scores, expected)

    def test_all_zero_weights_give_output_bias(self):
        cfg = NetworkConfig(12, 1, (StageConfig(3, 1, 2, 2),), 4, 3)
        params = init_params(cfg, 0, dtype=np.float64)
        for name, t in params.named_tensors():
            t[...] = 0.0
        params.output_bias[...] = [1.0, -2.0, 0.5]
        for seed in range(3):
            x = np.random.default_rng(seed).normal(size=(12, 1))
            scores, _ = forward_pass(x, params)
            np.testing.assert_array_equal(scores, [1.0, -2.0, 0.5])

    def test_pure_function_bitwise(self):
        cfg = NetworkConfig(30, 1, (StageConfig(5, 2, 3, 2),), 6, 4)
        params = init_params(cfg, 9)
        x = np.random.default_rng(1).normal(size=(30, 1)).astype(np.float32)
        a, _ = forward_pass(x, params)
        b, _ = forward_pass(x, params)
        assert a.tobytes() == b.tobytes()

    def test_shape_mismatch_names_offender(self):
        cfg = NetworkConfig(30, 1, (StageConfig(5, 2, 3, 2),), 6, 4)
        params = init_params(cfg, 9)
        with pytest.raises(ValueError, match="window shape"):
            forward_pass(np.zeros((29, 1)), params)


class TestParamCount:
    def test_zero_stage_arithmetic(self):
        cfg = NetworkConfig(1, 1, (), hidden_units=500, num_classes=40)
        assert param_count(cfg) == 1 * 500 + 500 + 500 * 40 + 40 == 21040

    def test_best_raw_arithmetic(self):
        expected = (900 + 90) + (40500 + 90) + (72900 + 90) + (1080 * 500 + 500) + (500 * 40 + 40)
        assert param_count(BEST_RAW) == expected

    def test_count_matches_allocated_tensors(self):
        rng = np.random.Generator(np.random.PCG64(21))
        for _ in range(10):
            cfg = random_small_config(rng, input_dim=int(rng.integers(1, 3)))
            params = init_params(cfg, 0)
            allocated = sum(t.size for _n, t in params.named_tensors())
            assert param_count(cfg) == allocated

    def test_extra_pooling_reduces_count(self):
        base = NetworkConfig(90, 1, (StageConfig(5, 1, 8, 1),), 16, 5)
        pooled = NetworkConfig(90, 1, (StageConfig(5, 1, 8, 3),), 16, 5)
        assert param_count(pooled) < param_count(base)


class TestBackwardPass:
    def test_zero_upstream_gives_zero_gradients(self):
        cfg = NetworkConfig(20, 1, (StageConfig(4, 2, 3, 2),), 5, 3)
        params = init_params(cfg, 0, dtype=np.float64)
        x = np.random.default_rng(0).normal(size=(20, 1))
        _, cache = forward_pass(x, params)
        grads, dx = backward_pass(cache, params, np.zeros(3))
        for name, g in grads.items():
            assert not g.any(), name
        assert not dx.any()

    def test_output_row_gradient_is_layer_input(self):
        cfg = NetworkConfig(20, 1, (StageConfig(4, 2, 3, 2),), 5, 3)
        params = init_params(cfg, 1, dtype=np.float64)
        x = np.random.default_rng(1).normal(size=(20, 1))
        _, cache = forward_pass(x, params)
        upstream = np.array([1.0, 0.0, 0.0])
        grads, _ = backward_pass(cache, params, upstream)
        np.testing.assert_array_equal(grads["output.weight"][0], cache.hidden_out)
        assert not grads["output.weight"][1:].any()
        np.testing.assert_array_equal(grads["output.bias"], upstream)

    def test_stale_cache_rejected(self):
        cfg = NetworkConfig(20, 1, (StageConfig(4, 2, 3, 2),), 5, 3)
        params = init_params(cfg, 2)
        x = np.random.default_rng(2).normal(size=(20, 1)).astype(np.float32)
        scores, cache = forward_pass(x, params)
        grads, _ = backward_pass(cache, params, frame_loss(scores, 0)[1])
        sgd_step(params, grads, 0.01)
        with pytest.raises(ValueError, match="stale"):
            backward_pass(cache, params, frame_loss(scores, 0)[1])

    def test_mismatched_params_rejected(self):
        cfg = NetworkConfig(20, 1, (StageConfig(4, 2, 3, 2),), 5, 3)
        params = init_params(cfg, 2)
        other = init_params(cfg, 3)
        x = np.random.default_rng(2).normal(size=(20, 1)).astype(np.float32)
        _, cache = forward_pass(x, params)
        with pytest.raises(ValueError, match="mismatched|stale"):
            backward_pass(cache, other, np.zeros(3, dtype=np.float32))

    def test_gradients_match_finite_differences(self):
        rng = np.random.Generator(np.random.PCG64(4242))
        for i in range(8):
            cfg = random_small_config(rng, input_dim=int(rng.integers(1, 3)))
            errors = check_config_gradients(cfg, seed=50 + i)
            assert max(errors.values()) < 1e-4, (cfg, errors)

    def test_input_gradient_matches_finite_differences(self):
        from oracles import numeric_gradient_inplace, max_rel_error

        cfg = NetworkConfig(16, 2, (StageConfig(3, 2, 4, 2),), 5, 4)
        params = init_params(cfg, 11, dtype=np.float64)
        x = np.random.default_rng(11).normal(size=(16, 2))
        scores, cache = forward_pass(x, params)
        _, dx = backward_pass(cache, params, frame_loss(scores, 1)[1])

        def loss():
            s, _ = forward_pass(x, params)
            return frame_loss(s, 1)[0]

        numeric = numeric_gradient_inplace(x, loss, 1e-4)
        assert max_rel_error(dx, numeric, 1e-6) < 1e-4


class TestInitParams:
    def test_same_seed_bitwise_identical(self):
        cfg = NetworkConfig(30, 1, (StageConfig(5, 2, 3, 2),), 6, 4)
        a = init_params(cfg, 123)
        b = init_params(cfg, 123)
        for (n1, t1), (n2, t2) in zip(a.named_tensors(), b.named_tensors()):
            assert n1 == n2
            assert t1.tobytes() == t2.tobytes()

    def test_bounds_follow_fan_in(self):
        cfg = NetworkConfig(30, 1, (StageConfig(5, 2, 3, 2),), 6, 4)
        params = init_params(cfg, 0)
        assert np.abs(params.conv[0].weight).max() <= 1.0 / np.sqrt(5)
        flat = cfg.flattened_size()
        assert np.abs(params.hidden_weight).max() <= 1.0 / np.sqrt(flat)
