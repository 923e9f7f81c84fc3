import numpy as np
import pytest

from rawphone.crf import (
    crf_log_likelihood,
    forward_backward,
    log_partition,
    path_score,
    train_transitions,
    transition_counts,
    transition_gradient,
    viterbi,
    viterbi_batch,
)
from rawphone.errors import DivergenceError

from oracles import (
    crf_enum_marginals,
    crf_enum_partition,
    crf_enum_viterbi,
    max_rel_error,
    numeric_gradient_inplace,
    reference_forward_backward,
    reference_log_partition,
    reference_train_transitions,
    reference_transition_gradient,
    reference_viterbi,
)

# worked two-frame instance used across several tests
E2 = np.array([[1.0, 0.0], [0.0, 1.0]])
A2 = np.array([[0.5, -0.5], [-0.5, 0.5]])


def random_instance(rng, max_t=6, max_k=4):
    t = int(rng.integers(1, max_t + 1))
    k = int(rng.integers(1, max_k + 1))
    e = rng.normal(scale=2.0, size=(t, k))
    a = rng.normal(scale=1.0, size=(k, k))
    return e, a


class TestPathScore:
    def test_hand_example(self):
        assert path_score(E2, A2, [0, 1]) == pytest.approx(1.5)

    def test_single_frame_has_no_transition(self):
        e = np.array([[3.0, -1.0]])
        assert path_score(e, A2, [0]) == 3.0
        assert path_score(e, A2, [1]) == -1.0

    def test_zero_transitions_sum_emissions(self):
        rng = np.random.default_rng(0)
        e = rng.normal(size=(5, 3))
        y = [0, 2, 1, 1, 0]
        expected = sum(e[t, y[t]] for t in range(5))
        assert path_score(e, np.zeros((3, 3)), y) == pytest.approx(expected)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            path_score(E2, A2, [0])


class TestLogPartition:
    def test_single_frame_is_column_logadd(self):
        e = np.array([[1.0, 2.0, -0.5]])
        a = np.zeros((3, 3))
        expected = np.logaddexp.reduce(e[0])
        assert log_partition(e, a) == pytest.approx(expected, abs=1e-12)

    def test_two_frame_worked_example(self):
        # the four paths score (1.5, 1.5, -0.5, 1.5): ln(3 e^1.5 + e^-0.5)
        expected = np.log(3.0 * np.exp(1.5) + np.exp(-0.5))
        assert expected == pytest.approx(2.6427361, abs=1e-7)
        assert crf_enum_partition(E2, A2) == pytest.approx(expected, abs=1e-12)
        assert log_partition(E2, A2) == pytest.approx(expected, abs=1e-12)

    def test_uniform_scores_count_paths(self):
        for t, k in [(1, 2), (3, 2), (4, 3)]:
            e = np.zeros((t, k))
            a = np.zeros((k, k))
            assert log_partition(e, a) == pytest.approx(t * 0 + np.log(k**t) if t == 1 else np.log(float(k**t)), abs=1e-10)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            e, a = random_instance(rng)
            assert log_partition(e, a) == pytest.approx(crf_enum_partition(e, a), abs=1e-8)

    def test_dominates_every_path_score(self):
        rng = np.random.default_rng(2)
        e, a = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        z = log_partition(e, a)
        import itertools

        for y in itertools.product(range(3), repeat=4):
            assert z > path_score(e, a, list(y))


class TestCrfLogLikelihood:
    def test_single_class_is_certain(self):
        e = np.random.default_rng(3).normal(size=(4, 1))
        a = np.zeros((1, 1))
        assert crf_log_likelihood(e, a, [0, 0, 0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_worked_example(self):
        assert crf_log_likelihood(E2, A2, [0, 1]) == pytest.approx(1.5 - 2.6427361, abs=1e-7)

    def test_uniform_gives_minus_t_log_k(self):
        e = np.zeros((5, 3))
        a = np.zeros((3, 3))
        assert crf_log_likelihood(e, a, [0, 1, 2, 0, 1]) == pytest.approx(-5 * np.log(3), abs=1e-10)

    def test_path_probabilities_sum_to_one(self):
        import itertools

        rng = np.random.default_rng(4)
        for _ in range(10):
            t = int(rng.integers(1, 6))
            k = int(rng.integers(1, 4))
            e = rng.normal(size=(t, k))
            a = rng.normal(size=(k, k))
            total = sum(
                np.exp(crf_log_likelihood(e, a, list(y)))
                for y in itertools.product(range(k), repeat=t)
            )
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_never_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            e, a = random_instance(rng)
            y = rng.integers(e.shape[1], size=e.shape[0])
            assert crf_log_likelihood(e, a, y) <= 1e-12


class TestViterbi:
    def test_worked_example(self):
        e = np.array([[2.0, 0.0], [0.0, 1.0]])
        a = np.array([[0.3, 0.1], [0.2, 0.4]])
        path, score = viterbi(e, a)
        np.testing.assert_array_equal(path, [0, 1])
        assert score == pytest.approx(3.2)

    def test_zero_transitions_reduce_to_framewise_argmax(self):
        rng = np.random.default_rng(6)
        e = rng.normal(size=(7, 4))
        path, _ = viterbi(e, np.zeros((4, 4)))
        np.testing.assert_array_equal(path, e.argmax(axis=1))

    def test_single_class(self):
        e = np.random.default_rng(7).normal(size=(3, 1))
        path, score = viterbi(e, np.zeros((1, 1)))
        np.testing.assert_array_equal(path, [0, 0, 0])
        assert score == pytest.approx(e.sum())

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            e, a = random_instance(rng)
            path, score = viterbi(e, a)
            ref_path, ref_score = crf_enum_viterbi(e, a)
            np.testing.assert_array_equal(path, ref_path)
            assert score == ref_score  # bit-exact: same accumulation order

    def test_tie_break_prefers_small_label_at_latest_position(self):
        # all paths score identically: the all-zeros path must win
        e = np.zeros((3, 3))
        a = np.zeros((3, 3))
        path, _ = viterbi(e, a)
        np.testing.assert_array_equal(path, [0, 0, 0])

    def test_emission_shift_leaves_argmax_alone(self):
        rng = np.random.default_rng(9)
        e, a = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
        path, score = viterbi(e, a)
        shifted = e.copy()
        shifted[2] += 7.5
        path2, score2 = viterbi(shifted, a)
        np.testing.assert_array_equal(path, path2)
        assert score2 == pytest.approx(score + 7.5, abs=1e-9)


class TestViterbiBatch:
    @pytest.mark.parametrize("k", [1, 5, 39])
    def test_bit_identical_to_per_utterance_reference(self, k):
        rng = np.random.Generator(np.random.PCG64(200 + k))
        for trial in range(12):
            lengths = [1, 2, 3, *rng.integers(1, 30, size=int(rng.integers(1, 6)))]
            rng.shuffle(lengths)
            integer = trial % 2 == 0  # integer scores force ties
            utts = [rng.integers(-2, 1, size=(t, k)).astype(float) if integer
                    else rng.normal(size=(t, k)) for t in lengths]
            if trial % 3 == 0:
                for x in utts:
                    x[rng.random(x.shape) < 0.3] = -np.inf
            a = rng.integers(-1, 2, size=(k, k)).astype(float) if integer else rng.normal(size=(k, k))
            batch = np.zeros((len(utts), max(lengths), k))
            for row, x in zip(batch, utts):
                row[: len(x)] = x
            for x, (path, score) in zip(utts, viterbi_batch(batch, lengths, a)):
                ref_path, ref_score = reference_viterbi(x, a)
                assert path.dtype == ref_path.dtype
                np.testing.assert_array_equal(path, ref_path)
                assert score == ref_score or (np.isnan(score) and np.isnan(ref_score))
                assert type(score) is float
                single_path, single_score = viterbi(x, a)
                np.testing.assert_array_equal(single_path, path)

    def test_labels_above_255_survive_compact_back_pointers(self):
        e = np.random.default_rng(3).normal(size=(2, 5, 300))
        paths = viterbi_batch(e, [5, 4], np.zeros((300, 300)))
        for (path, _), x, t in zip(paths, e, (5, 4)):
            np.testing.assert_array_equal(path, x[:t].argmax(axis=1))

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            viterbi_batch(np.zeros((2, 3, 2)), [3, 0], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="lengths"):
            viterbi_batch(np.zeros((1, 3, 2)), [4], np.zeros((2, 2)))


class TestEmissionShiftInvariance:
    def test_constant_shift_moves_scores_not_likelihood(self):
        rng = np.random.default_rng(10)
        e, a = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        y = [2, 0, 1, 1]
        c = 3.25
        shifted = e.copy()
        shifted[1] += c
        assert path_score(shifted, a, y) == pytest.approx(path_score(e, a, y) + c, abs=1e-9)
        assert log_partition(shifted, a) == pytest.approx(log_partition(e, a) + c, abs=1e-9)
        assert crf_log_likelihood(shifted, a, y) == pytest.approx(
            crf_log_likelihood(e, a, y), abs=1e-9
        )


class TestForwardBackward:
    def test_single_frame_marginals_are_softmax(self):
        from rawphone.net import softmax

        e = np.array([[0.3, -1.2, 2.0]])
        node, pairwise = forward_backward(e, np.zeros((3, 3)))
        np.testing.assert_allclose(node[0], softmax(e[0]), atol=1e-12)
        assert pairwise.shape == (0, 3, 3)

    def test_uniform_instance_gives_uniform_marginals(self):
        node, _ = forward_backward(np.zeros((4, 3)), np.zeros((3, 3)))
        np.testing.assert_allclose(node, np.full((4, 3), 1 / 3), atol=1e-12)

    def test_rows_and_slices_normalize(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            e, a = random_instance(rng)
            node, pairwise = forward_backward(e, a)
            np.testing.assert_allclose(node.sum(axis=1), 1.0, atol=1e-8)
            if pairwise.shape[0]:
                np.testing.assert_allclose(pairwise.sum(axis=(1, 2)), 1.0, atol=1e-8)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            e, a = random_instance(rng)
            node, pairwise = forward_backward(e, a)
            ref_node, ref_pair = crf_enum_marginals(e, a)
            np.testing.assert_allclose(node, ref_node, atol=1e-8)
            np.testing.assert_allclose(pairwise, ref_pair, atol=1e-8)


class TestTransitionGradient:
    def test_observed_counts(self):
        counts = transition_counts([0, 1, 1, 0], 2)
        np.testing.assert_array_equal(counts, [[0.0, 1.0], [1.0, 1.0]])

    def test_matches_finite_differences(self):
        # Central differences in float64 bottom out around 1e-10 absolute
        # here, so entries under 1e-3 are held to that absolute bound via
        # the denominator floor; larger entries face the strict 1e-6 ratio.
        rng = np.random.default_rng(13)
        for _ in range(50):
            t = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            e = rng.normal(scale=2.0, size=(t, k))
            a = rng.normal(size=(k, k))
            y = rng.integers(k, size=t)
            analytic = transition_gradient(e, a, y)
            numeric = numeric_gradient_inplace(
                a, lambda: crf_log_likelihood(e, a, y), 3e-5
            )
            assert max_rel_error(analytic, numeric, 1e-3) < 1e-6


class TestTrainTransitions:
    def test_zero_lr_keeps_zero_matrix(self):
        rng = np.random.default_rng(14)
        data = [(rng.normal(size=(5, 3)), rng.integers(3, size=5)) for _ in range(4)]
        result = train_transitions(data, 3, lr=0.0, epochs=3)
        np.testing.assert_array_equal(result.transitions, np.zeros((3, 3)))

    def test_absent_transition_score_decreases_monotonically(self):
        # labels alternate 0,1,0,1,... so 0->0 and 1->1 never occur; with
        # uninformative emissions their expected counts stay positive and
        # the ascent pushes those entries down every epoch.
        data = [(np.zeros((8, 2)), np.array([0, 1] * 4)) for _ in range(3)]
        values = []
        for epochs in range(1, 5):
            result = train_transitions(data, 2, lr=0.2, epochs=epochs, seed=0)
            values.append((result.transitions[0, 0], result.transitions[1, 1]))
        for later, earlier in zip(values[1:], values[:-1]):
            assert later[0] < earlier[0]
            assert later[1] < earlier[1]

    def test_training_raises_likelihood(self):
        rng = np.random.default_rng(15)
        paths = [np.array([0, 0, 1, 1, 2, 2]) for _ in range(5)]
        data = [(rng.normal(scale=0.1, size=(6, 3)), p) for p in paths]
        result = train_transitions(data, 3, lr=0.1, epochs=8, seed=1)
        assert result.history[-1][1] > result.history[0][1]

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        data = [(rng.normal(size=(6, 3)), rng.integers(3, size=6)) for _ in range(4)]
        a1 = train_transitions(data, 3, lr=0.05, epochs=4, seed=7).transitions
        a2 = train_transitions(data, 3, lr=0.05, epochs=4, seed=7).transitions
        assert a1.tobytes() == a2.tobytes()


def k39_dataset(seed=39, utterances=12):
    """K = 39 utterances of 100-400 frames with scale-5 emissions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    data = []
    for _ in range(utterances):
        t = int(rng.integers(100, 401))
        data.append((rng.normal(scale=5.0, size=(t, 39)), rng.integers(39, size=t)))
    return data


class TestScaledRecursionAgainstLogSpace:
    """The scaled forward-backward against the log-space reference code."""

    def test_trained_transitions_match_reference(self):
        data = k39_dataset()
        result = train_transitions(data, 39, lr=0.05, epochs=3, seed=0)
        reference, _history = reference_train_transitions(data, 39, lr=0.05, epochs=3, seed=0)
        assert np.abs(result.transitions - reference).max() <= 1e-9

    def test_wide_range_partition_and_marginals(self):
        # A spans 60 nats and emissions have scale 20: path scores run into
        # the thousands, far outside exp's range without the rescaling
        rng = np.random.Generator(np.random.PCG64(30))
        for k in (5, 39):
            e = rng.normal(scale=20.0, size=(200, k))
            a = rng.uniform(-30.0, 30.0, size=(k, k))
            ref_z = reference_log_partition(e, a)
            assert log_partition(e, a) == pytest.approx(ref_z, rel=1e-8)
            node, pairwise = forward_backward(e, a)
            ref_node, ref_pair = reference_forward_backward(e, a)
            np.testing.assert_allclose(node, ref_node, rtol=1e-8, atol=0)
            np.testing.assert_allclose(pairwise, ref_pair, rtol=1e-8, atol=0)
            y = rng.integers(k, size=200)
            np.testing.assert_allclose(
                transition_gradient(e, a, y), reference_transition_gradient(e, a, y),
                rtol=1e-8, atol=1e-9,
            )

    def test_history_is_pre_update_mean_log_likelihood(self):
        data = k39_dataset(seed=40, utterances=5)
        result = train_transitions(data, 39, lr=0.05, epochs=3, seed=2)
        # replay the same visiting order with the reference gradient,
        # taking each utterance's likelihood before its update
        rng = np.random.Generator(np.random.PCG64(2))
        a = np.zeros((39, 39))
        for epoch, ll in result.history:
            lls = []
            for u in rng.permutation(len(data)):
                e, y = data[u]
                lls.append(crf_log_likelihood(e, a, y))
                a += 0.05 * reference_transition_gradient(e, a, y)
            assert ll == pytest.approx(np.mean(lls), abs=1e-9), f"epoch {epoch}"

    def test_on_epoch_reports_each_history_row(self):
        data = k39_dataset(seed=41, utterances=2)
        seen = []
        result = train_transitions(
            data, 39, lr=0.05, epochs=3, on_epoch=lambda *row: seen.append(row)
        )
        assert [(e, ll) for e, ll, _s in seen] == result.history
        assert all(s >= 0.0 for _e, _ll, s in seen)

    def test_nan_emissions_raise_divergence(self):
        data = k39_dataset(seed=42, utterances=3)
        data[1][0][7, 3] = np.nan
        with pytest.raises(DivergenceError, match="utterance 1"):
            train_transitions(data, 39, lr=0.05, epochs=1, shuffle=False)
        with pytest.raises(DivergenceError):
            log_partition(data[1][0], np.zeros((39, 39)))

    def test_underflowing_transition_range_raises_divergence(self):
        # every move out of label 0 or 1 costs e^-2000 against the best
        # entry: each normaliser underflows to zero
        e = np.array([[0.0, -np.inf, -np.inf], [-np.inf, 0.0, -np.inf]])
        a = np.full((3, 3), -2000.0)
        a[2, 2] = 0.0
        with pytest.raises(DivergenceError):
            forward_backward(e, a)
