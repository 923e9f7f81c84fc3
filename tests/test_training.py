import numpy as np
import pytest

from rawphone.corpus import (
    FrameDataset,
    LabeledUtterance,
    SynthSpec,
    build_frame_dataset,
    collect_alphabet,
    synth_corpus,
)
from rawphone.errors import DivergenceError
from rawphone.framing import SegmentAnnotation
from rawphone.model_io import save_model
from rawphone.net import (
    Gradients,
    NetworkConfig,
    StageConfig,
    forward_pass,
    init_params,
    param_count,
    softmax,
    step_plan,
)
from rawphone.training import (
    GridSpec,
    TrainConfig,
    frame_accuracy_of,
    frame_loss,
    gradient_errors,
    grid_search,
    sgd_step,
    train_network,
)

import oracles
from gradcheck_util import check_config_gradients, random_small_config
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


def filled_gradients(params, value):
    """A Gradients for `params` with every entry set to `value`."""
    plan = step_plan(params)
    return Gradients(plan, np.full_like(plan.grad, value))


class TestGradientErrors:
    def test_equal_to_the_test_reference_check(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for seed in range(3):
            config = random_small_config(rng, input_dim=2)
            case = np.random.Generator(np.random.PCG64(seed))
            params = init_params(config, seed, dtype=np.float64)
            window = case.normal(size=(config.input_frames, config.input_dim))
            target = int(case.integers(config.num_classes))
            assert gradient_errors(params, window, target, 1e-4) == check_config_gradients(
                config, seed)


class TestSgdStep:
    def test_zero_learning_rate_is_bitwise_noop(self):
        params = tiny_params()
        before = {n: t.copy() for n, t in params.named_tensors()}
        grads = filled_gradients(params, 1.0)
        sgd_step(params, grads, 0.0)
        for n, t in params.named_tensors():
            assert t.tobytes() == before[n].tobytes()

    def test_single_entry_arithmetic(self):
        params = tiny_params()
        params.output_bias[...] = 0.0
        params.output_bias[0] = 1.0
        grads = filled_gradients(params, 0.0)
        grads["output.bias"][0] = 2.0
        sgd_step(params, grads, 0.1)
        assert params.output_bias[0] == pytest.approx(1.2)

    def test_ascends_by_lr_times_grad(self):
        params = tiny_params(1)
        before = {n: t.copy() for n, t in params.named_tensors()}
        rng = np.random.default_rng(0)
        grads = filled_gradients(params, 0.0)
        for n, t in params.named_tensors():
            grads[n][...] = rng.normal(size=t.shape)
        sgd_step(params, grads, 0.05)
        for n, t in params.named_tensors():
            np.testing.assert_array_equal(t, before[n] + np.float32(0.05) * grads[n])

    def test_nonfinite_gradient_names_tensor(self):
        for name, bad in (("stage0.weight", np.nan), ("hidden.weight", np.nan),
                          ("output.bias", -np.inf)):
            params = tiny_params(2)
            grads = filled_gradients(params, 1.0)
            grads[name].reshape(-1)[-1] = bad
            before, version = params.flat.tobytes(), params.version
            with pytest.raises(DivergenceError, match=f"non-finite gradient for {name}"):
                sgd_step(params, grads, 0.1)
            # nothing moved: the check runs before the update
            assert params.flat.tobytes() == before
            assert params.version == version

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_in_any_tensor_raises_before_any_update(self, bad):
        params = tiny_params(2)
        for name, tensor in params.named_tensors():
            for position in (0, tensor.size - 1):
                for fill in (1.0, 1e20):  # 1e20 ** 2 overflows float32: the tensor scan decides
                    grads = filled_gradients(params, fill)
                    grads[name].reshape(-1)[position] = bad
                    before, version = params.flat.tobytes(), params.version
                    with pytest.raises(DivergenceError, match=f"non-finite gradient for {name}$"):
                        sgd_step(params, grads, 0.1)
                    assert params.flat.tobytes() == before
                    assert params.version == version

    def test_finite_gradient_whose_squares_overflow_steps_as_before(self):
        params = tiny_params(3)
        reference = params.copy()
        rng = np.random.default_rng(3)
        grads = filled_gradients(params, 0.0)
        grads.flat[...] = rng.uniform(-1.5e20, 1.5e20, size=grads.flat.size)
        assert (grads.flat.astype(np.float64) ** 2).sum() > np.finfo(np.float32).max
        sgd_step(params, grads, 1e-21)
        oracles.sgd_step(reference, grads, 1e-21)
        assert params.flat.tobytes() == reference.flat.tobytes()
        assert params.version == reference.version

    def test_two_steps_differ_from_combined_step_on_tanh_net(self):
        cfg = NetworkConfig(6, 1, (), 4, 2)
        x = np.random.default_rng(5).normal(size=(6, 1)).astype(np.float32)

        def run(two_steps):
            params = init_params(cfg, 7, dtype=np.float64)
            scores, cache = forward_pass(x, params)
            from rawphone.net import backward_pass

            g1 = backward_pass(cache, params, frame_loss(scores, 0)[1])
            if two_steps:
                sgd_step(params, g1, 0.5)
                scores2, cache2 = forward_pass(x, params)
                g2 = backward_pass(cache2, params, frame_loss(scores2, 0)[1])
                sgd_step(params, g2, 0.5)
            else:
                scores2, cache2 = forward_pass(x, params)
                g2 = backward_pass(cache2, params, frame_loss(scores2, 0)[1])
                combined = Gradients(g1.plan, g1.flat + g2.flat)
                sgd_step(params, combined, 0.5)
            return params

        a = run(two_steps=True)
        b = run(two_steps=False)
        diffs = [
            np.abs(t1 - t2).max()
            for (_n1, t1), (_n2, t2) in zip(a.named_tensors(), b.named_tensors())
        ]
        assert max(diffs) > 1e-9


def toy_dataset(points, labels):
    """One feature utterance whose rows are the frames, each a 1-frame window."""
    utt = LabeledUtterance("toy", SegmentAnnotation(), features=points.astype(np.float32))
    return FrameDataset([utt], [labels], input_frames=1, hop_samples=1)


def separable_toy(n_per_class=40, seed=0):
    """Two tight clusters in 2-D, one frame per example (zero-stage input)."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal([2.0, 1.0], 0.3, size=(n_per_class, 2))
    x1 = rng.normal([-2.0, -1.0], 0.3, size=(n_per_class, 2))
    labels = np.array([0] * n_per_class + [1] * n_per_class)
    return toy_dataset(np.concatenate([x0, x1]), labels)


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
        # at a 1-frame window the padded signal is the points themselves
        assert perceptron_separates(train.framed[0].signal, train.labels)
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

    @pytest.mark.parametrize("lr", [-1e-4, float("nan"), float("inf")])
    def test_negative_or_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and >= 0"):
            TrainConfig(learning_rate=lr)

    def test_label_out_of_range_rejected(self):
        data = separable_toy()
        utt = LabeledUtterance("toy", SegmentAnnotation(), features=data.framed[0].signal)
        bad = FrameDataset([utt], [data.labels + 5], 1, 1)
        with pytest.raises(ValueError):
            train_network(bad, data, self.CFG, TrainConfig())


def loop_accuracy(params, dataset):
    """Percent of frames whose per-frame forward_pass argmax matches the label."""
    x = np.empty(dataset.window_shape, params.hidden_weight.dtype)
    hits = 0
    for i in range(len(dataset)):
        dataset.read_window(i, x)
        hits += int(forward_pass(x, params)[0].argmax() == dataset.labels[i])
    return 100.0 * hits / len(dataset)


class TestFrameAccuracyOnSharedScorer:
    """CV accuracy scores utterances through compute_emissions, as decoding does."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_raw_set_matches_forward_pass_loop(self, seed):
        utts, _, _ = synth_corpus(SynthSpec(seed=seed), 3, 0, 0)
        alphabet = collect_alphabet(utts)
        cfg = NetworkConfig(1600, 1, (StageConfig(160, 10, 12, 3), StageConfig(5, 1, 12, 3)),
                            hidden_units=20, num_classes=len(alphabet))
        dataset = build_frame_dataset(utts, 1600, 160, alphabet)
        params = init_params(cfg, seed)
        acc = frame_accuracy_of(params, dataset)
        assert acc == loop_accuracy(params, dataset)
        assert 0.0 < acc < 100.0

    @pytest.mark.parametrize("seed", [1, 2])
    def test_feature_set_matches_forward_pass_loop(self, seed):
        rng = np.random.default_rng(seed)
        utts = []
        for t in (40, 25, 33):
            cut = int(rng.integers(5, t - 5))
            utts.append(LabeledUtterance(
                "f", SegmentAnnotation(((0, cut, "a"), (cut, t, "b"))),
                features=rng.normal(size=(t, 6)),
            ))
        cfg = NetworkConfig(7, 6, (StageConfig(3, 1, 8, 2),), hidden_units=10, num_classes=2)
        dataset = build_frame_dataset(utts, 7, 1, ["a", "b"])
        params = init_params(cfg, seed)
        acc = frame_accuracy_of(params, dataset)
        assert acc == loop_accuracy(params, dataset)
        assert 0.0 < acc < 100.0


def xor_toy(seed, n_per_cluster=25):
    """XOR layout: needs more than one hidden unit to separate."""
    rng = np.random.default_rng(seed)
    centers = [(2, 2, 0), (-2, -2, 0), (2, -2, 1), (-2, 2, 1)]
    xs, ys = [], []
    for cx, cy, label in centers:
        xs.append(rng.normal([cx, cy], 0.3, size=(n_per_cluster, 2)))
        ys.extend([label] * n_per_cluster)
    return toy_dataset(np.concatenate(xs), np.array(ys))


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
        # 100 to 700 ms at 16 kHz, in samples
        assert min(spec.window_frames) == 1600 and max(spec.window_frames) == 11200
        assert min(spec.kernel_width) == 1 and max(spec.kernel_width) == 9
        assert min(spec.num_filters) == 10 and max(spec.num_filters) == 90
        assert min(spec.hidden_units) == 100 and max(spec.hidden_units) == 1500

    def test_configs_materialize_for_raw_input(self):
        spec = GridSpec(window_frames=(1600,), kernel_width=(5,), num_filters=(10,),
                        hidden_units=(100,), pool_width=(3,))
        cfgs = spec.configs(input_dim=1, num_classes=5)
        assert len(cfgs) == 1
        assert cfgs[0].input_frames == 1600
        assert cfgs[0].stages[0].shift == 5  # stage one strides by its kernel

    def test_infeasible_combinations_skipped(self):
        spec = GridSpec(window_frames=(16,), kernel_width=(9,), num_filters=(10,),
                        hidden_units=(100,), pool_width=(3,))
        # 16 samples cannot survive three 9-wide convs with pooling
        assert spec.configs(1, 5) == []

    def test_stageless_grid_keeps_each_network_once(self):
        spec = GridSpec(window_frames=(800, 1600), kernel_width=(1, 5, 9), num_filters=(10, 50),
                        hidden_units=(8, 16), pool_width=(2, 3), num_stages=0)
        cfgs = spec.configs(1, 5)
        # kernels, filters and pools do not apply: windows x hidden sizes remain,
        # in the order of their first occurrence
        assert [(c.input_frames, c.hidden_units, c.stages) for c in cfgs] == [
            (800, 8, ()), (800, 16, ()), (1600, 8, ()), (1600, 16, ())]
        with pytest.raises(ValueError, match="num_stages must be >= 0"):
            GridSpec(num_stages=-1)
