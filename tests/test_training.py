import numpy as np
import pytest

from rawphone.errors import DivergenceError
from rawphone.model_io import save_model
from rawphone.net import NetworkConfig, StageConfig, forward_pass, init_params, param_count, softmax
from rawphone.training import (
    FrameDataset,
    GridSpec,
    TrainConfig,
    frame_accuracy_of,
    frame_loss,
    grid_search,
    sgd_step,
    train_network,
)

from oracles import logadd, max_rel_error, perceptron_separates


class TestLogadd:
    def test_two_zeros(self):
        assert abs(logadd([0.0, 0.0]) - np.log(2.0)) < 1e-12

    def test_large_values_stable(self):
        assert abs(logadd([1000.0, 1000.0]) - (1000.0 + np.log(2.0))) < 1e-9

    def test_singleton_identity(self):
        for x in (-4.2, 0.0, 17.0):
            assert logadd([x]) == pytest.approx(x, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logadd([])

    def test_axis_variant_matches_scalar(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(4, 5))
        rows = logadd(z, axis=1)
        for i in range(4):
            assert rows[i] == pytest.approx(logadd(z[i]), abs=1e-12)


def frame_log_likelihood(scores, target):
    return frame_loss(scores, target)[0]


class TestFrameLogLikelihood:
    def test_analytic_example(self):
        assert frame_log_likelihood([2.0, 0.0], 0) == pytest.approx(-0.126928, abs=1e-6)

    def test_uniform_scores_give_log_k(self):
        for k in (2, 5, 9):
            assert frame_log_likelihood([1.7] * k, 0) == pytest.approx(-np.log(k), abs=1e-12)

    def test_saturated_scores_near_zero(self):
        assert frame_log_likelihood([0.0, -1e6], 0) == pytest.approx(0.0, abs=1e-12)

    def test_confidently_wrong_scores_stay_finite(self):
        for dtype in (np.float32, np.float64):
            ll, dscores = frame_loss(np.array([0.0, 800.0], dtype=dtype), 0)
            assert ll == -800.0
            assert dscores.tolist() == [1.0, -1.0]

    def test_nonfinite_scores_give_nonfinite_loss(self):
        with np.errstate(invalid="ignore"):
            for bad in (np.nan, np.inf, -np.inf):
                assert not np.isfinite(frame_log_likelihood([0.0, bad, 1.0], 1))
            assert not np.isfinite(frame_log_likelihood([np.inf, 1.0], 1))

    def test_never_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            f = rng.normal(scale=5.0, size=rng.integers(2, 8))
            assert frame_log_likelihood(f, int(rng.integers(len(f)))) <= 0.0

    def test_exp_matches_softmax(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            f = rng.normal(scale=3.0, size=6)
            i = int(rng.integers(6))
            assert abs(np.exp(frame_log_likelihood(f, i)) - softmax(f)[i]) < 1e-9

    def test_matches_logadd_reference(self):
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            for _ in range(30):
                f = rng.normal(scale=4.0, size=rng.integers(2, 40)).astype(dtype)
                i = int(rng.integers(len(f)))
                expected = float(f[i]) - logadd(f)
                tol = 1e-5 if dtype == np.float32 else 1e-12
                assert frame_log_likelihood(f, i) == pytest.approx(expected, abs=tol)

    def test_target_out_of_range(self):
        for target in (2, -1):
            with pytest.raises(ValueError):
                frame_loss([0.0, 1.0], target)

    def test_score_gradient_bytes_equal_one_hot_minus_softmax(self):
        rng = np.random.default_rng(7)
        for dtype in (np.float32, np.float64):
            for k in (2, 5, 39):
                f = rng.normal(scale=6.0, size=k).astype(dtype)
                target = int(rng.integers(k))
                # -softmax(f), then +1 at the target, operation for operation
                e = np.exp(f - f.max(axis=-1, keepdims=True))
                expected = -(e / e.sum(axis=-1, keepdims=True))
                expected[target] += 1.0
                _, dscores = frame_loss(f, target)
                assert dscores.dtype == dtype
                assert dscores.tobytes() == expected.tobytes()

    def test_score_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.normal(scale=2.0, size=5)
            target = int(rng.integers(5))
            _, analytic = frame_loss(f, target)
            eps = 1e-4  # smaller eps lets eval rounding noise dominate tiny entries
            numeric = np.zeros(5)
            for j in range(5):
                up, down = f.copy(), f.copy()
                up[j] += eps
                down[j] -= eps
                numeric[j] = (
                    frame_log_likelihood(up, target) - frame_log_likelihood(down, target)
                ) / (2 * eps)
            assert max_rel_error(analytic, numeric, 1e-6) < 1e-6


def tiny_params(seed=0):
    cfg = NetworkConfig(10, 1, (StageConfig(3, 1, 2, 2),), 4, 3)
    return init_params(cfg, seed)


class TestSgdStep:
    def test_zero_learning_rate_is_bitwise_noop(self):
        params = tiny_params()
        before = {n: t.copy() for n, t in params.named_tensors()}
        grads = {n: np.ones_like(t) for n, t in params.named_tensors()}
        sgd_step(params, grads, 0.0)
        for n, t in params.named_tensors():
            assert t.tobytes() == before[n].tobytes()

    def test_single_entry_arithmetic(self):
        params = tiny_params()
        params.output_bias[...] = 0.0
        params.output_bias[0] = 1.0
        grads = {n: np.zeros_like(t) for n, t in params.named_tensors()}
        grads["output.bias"][0] = 2.0
        sgd_step(params, grads, 0.1)
        assert params.output_bias[0] == pytest.approx(1.2)

    def test_ascends_by_lr_times_grad(self):
        params = tiny_params(1)
        before = {n: t.copy() for n, t in params.named_tensors()}
        rng = np.random.default_rng(0)
        grads = {n: rng.normal(size=t.shape).astype(t.dtype) for n, t in params.named_tensors()}
        sgd_step(params, grads, 0.05)
        for n, t in params.named_tensors():
            np.testing.assert_array_equal(t, before[n] + np.float32(0.05) * grads[n])

    def test_nonfinite_gradient_names_tensor(self):
        params = tiny_params(2)
        grads = {n: np.zeros_like(t) for n, t in params.named_tensors()}
        grads["hidden.weight"][0, 0] = np.nan
        with pytest.raises(DivergenceError, match="hidden.weight"):
            sgd_step(params, grads, 0.1)

    def test_two_steps_differ_from_combined_step_on_tanh_net(self):
        cfg = NetworkConfig(6, 1, (), 4, 2)
        x = np.random.default_rng(5).normal(size=(6, 1)).astype(np.float32)

        def run(two_steps):
            params = init_params(cfg, 7, dtype=np.float64)
            scores, cache = forward_pass(x, params)
            from rawphone.net import backward_pass

            g1, _ = backward_pass(cache, params, frame_loss(scores, 0)[1])
            if two_steps:
                sgd_step(params, g1, 0.5)
                scores2, cache2 = forward_pass(x, params)
                g2, _ = backward_pass(cache2, params, frame_loss(scores2, 0)[1])
                sgd_step(params, g2, 0.5)
            else:
                scores2, cache2 = forward_pass(x, params)
                g2, _ = backward_pass(cache2, params, frame_loss(scores2, 0)[1])
                combined = {n: g1[n] + g2[n] for n in g1}
                sgd_step(params, combined, 0.5)
            return params

        a = run(two_steps=True)
        b = run(two_steps=False)
        diffs = [
            np.abs(t1 - t2).max()
            for (_n1, t1), (_n2, t2) in zip(a.named_tensors(), b.named_tensors())
        ]
        assert max(diffs) > 1e-9


def separable_toy(n_per_class=40, seed=0):
    """Two tight clusters in 2-D, one frame per example (zero-stage input)."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal([2.0, 1.0], 0.3, size=(n_per_class, 2))
    x1 = rng.normal([-2.0, -1.0], 0.3, size=(n_per_class, 2))
    windows = np.concatenate([x0, x1])[:, None, :].astype(np.float32)
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return FrameDataset(windows, labels)


class TestTrainNetwork:
    CFG = NetworkConfig(1, 2, (), hidden_units=8, num_classes=2)

    def test_lr_zero_returns_initialization(self):
        data = separable_toy()
        tc = TrainConfig(learning_rate=0.0, max_epochs=1, seed=3)
        best, history = train_network(data, data, self.CFG, tc)
        init = init_params(self.CFG, 3)
        for (n1, t1), (n2, t2) in zip(best.named_tensors(), init.named_tensors()):
            assert t1.tobytes() == t2.tobytes(), n1
        assert len(history) == 1

    def test_separable_toy_reaches_full_accuracy(self):
        train = separable_toy(seed=0)
        cv = separable_toy(seed=1)
        # the toy really is linearly separable (independent perceptron check)
        assert perceptron_separates(train.windows[:, 0, :], train.labels)
        tc = TrainConfig(learning_rate=0.05, max_epochs=20, patience=20, seed=0)
        best, history = train_network(train, cv, self.CFG, tc)
        assert max(h[2] for h in history) == 100.0
        assert frame_accuracy_of(best, cv) == 100.0

    def test_deterministic_history_and_model(self, tmp_path):
        train = separable_toy(seed=2)
        cv = separable_toy(seed=3)
        tc = TrainConfig(learning_rate=0.02, max_epochs=3, seed=9)
        h = []
        for run in range(2):
            best, history = train_network(train, cv, self.CFG, tc)
            save_model(tmp_path / f"m{run}.rcn", best, ["a", "b"])
            h.append(history)
        assert h[0] == h[1]
        assert (tmp_path / "m0.rcn").read_bytes() == (tmp_path / "m1.rcn").read_bytes()

    def test_returned_params_hit_best_cv_epoch(self):
        train = separable_toy(seed=4, n_per_class=15)
        cv = separable_toy(seed=5, n_per_class=15)
        tc = TrainConfig(learning_rate=0.03, max_epochs=8, patience=3, seed=1)
        best, history = train_network(train, cv, self.CFG, tc)
        assert frame_accuracy_of(best, cv) == max(h[2] for h in history)

    def test_early_stopping_respects_patience(self):
        train = separable_toy(seed=6, n_per_class=10)
        cv = separable_toy(seed=7, n_per_class=10)
        tc = TrainConfig(learning_rate=0.05, max_epochs=50, patience=2, seed=1)
        _, history = train_network(train, cv, self.CFG, tc)
        # once accuracy saturates, at most `patience` stale epochs follow the best
        best_epoch = max(history, key=lambda h: h[2])[0]
        first_best = min(h[0] for h in history if h[2] == max(x[2] for x in history))
        assert history[-1][0] <= first_best + 2
        assert best_epoch <= history[-1][0]

    def test_label_out_of_range_rejected(self):
        data = separable_toy()
        bad = FrameDataset(data.windows, data.labels + 5)
        with pytest.raises(ValueError):
            train_network(bad, data, self.CFG, TrainConfig())


def xor_toy(seed, n_per_cluster=25):
    """XOR layout: needs more than one hidden unit to separate."""
    rng = np.random.default_rng(seed)
    centers = [(2, 2, 0), (-2, -2, 0), (2, -2, 1), (-2, 2, 1)]
    xs, ys = [], []
    for cx, cy, label in centers:
        xs.append(rng.normal([cx, cy], 0.3, size=(n_per_cluster, 2)))
        ys.extend([label] * n_per_cluster)
    windows = np.concatenate(xs)[:, None, :].astype(np.float32)
    return FrameDataset(windows, np.array(ys))


class TestGridSearch:
    def fixed_data(self, cfg):
        return xor_toy(0), xor_toy(1)

    def test_single_config_grid(self):
        cfg = NetworkConfig(1, 2, (), 8, 2)
        results = grid_search(self.fixed_data, [cfg], TrainConfig(learning_rate=0.05, max_epochs=5))
        assert len(results) == 1
        assert not results[0].failed

    def test_capable_config_ranks_first(self):
        weak = NetworkConfig(1, 2, (), hidden_units=1, num_classes=2)
        strong = NetworkConfig(1, 2, (), hidden_units=16, num_classes=2)
        tc = TrainConfig(learning_rate=0.05, max_epochs=15, patience=15, seed=0)
        results = grid_search(self.fixed_data, [weak, strong], tc)
        assert results[0].config is strong
        assert results[0].cv_accuracy > results[1].cv_accuracy

    def test_tie_broken_by_fewer_params(self):
        small = NetworkConfig(1, 2, (), hidden_units=6, num_classes=2)
        big = NetworkConfig(1, 2, (), hidden_units=24, num_classes=2)
        tc = TrainConfig(learning_rate=0.08, max_epochs=25, patience=25, seed=0)

        def easy(cfg):
            return separable_toy(seed=0), separable_toy(seed=1)

        results = grid_search(easy, [big, small], tc)
        # both reach 100 on the separable toy; the smaller net must win the tie
        assert results[0].cv_accuracy == results[1].cv_accuracy == 100.0
        assert param_count(results[0].config) < param_count(results[1].config)

    def test_failures_recorded_without_aborting(self):
        bad = NetworkConfig(5, 2, (), 4, 2)  # window disagrees with the data
        good = NetworkConfig(1, 2, (), 8, 2)
        tc = TrainConfig(learning_rate=0.05, max_epochs=3)
        results = grid_search(self.fixed_data, [bad, good], tc)
        assert len(results) == 2
        assert not results[0].failed
        assert results[1].failed and "shape" in results[1].error.lower() or results[1].failed

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search(self.fixed_data, [], TrainConfig())

    def test_max_configs_subsamples_deterministically(self):
        cfgs = [NetworkConfig(1, 2, (), h, 2) for h in (2, 3, 4, 5, 6)]
        tc = TrainConfig(learning_rate=0.05, max_epochs=2, seed=5)
        a = grid_search(self.fixed_data, cfgs, tc, max_configs=2)
        b = grid_search(self.fixed_data, cfgs, tc, max_configs=2)
        assert [r.ordinal for r in a] == [r.ordinal for r in b]
        assert len(a) == 2


class TestGridSpecDefaults:
    def test_default_ranges_cover_standard_search_space(self):
        spec = GridSpec()
        assert min(spec.window_ms) == 100 and max(spec.window_ms) == 700
        assert min(spec.kernel_width) == 1 and max(spec.kernel_width) == 9
        assert min(spec.num_filters) == 10 and max(spec.num_filters) == 90
        assert min(spec.hidden_units) == 100 and max(spec.hidden_units) == 1500

    def test_configs_materialize_for_raw_input(self):
        spec = GridSpec(window_ms=(100.0,), kernel_width=(5,), num_filters=(10,),
                        hidden_units=(100,), pool_width=(3,))
        cfgs = spec.configs(sample_rate=16000, input_dim=1, num_classes=5)
        assert len(cfgs) == 1
        assert cfgs[0].input_frames == 1600
        assert cfgs[0].stages[0].shift == 5  # stage one strides by its kernel

    def test_infeasible_combinations_skipped(self):
        spec = GridSpec(window_ms=(1.0,), kernel_width=(9,), num_filters=(10,),
                        hidden_units=(100,), pool_width=(3,))
        # 16 samples cannot survive three 9-wide convs with pooling
        assert spec.configs(16000, 1, 5) == []
