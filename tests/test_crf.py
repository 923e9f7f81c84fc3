import weakref

import numpy as np
import pytest

from rawphone.crf import (
    GROUP_FRAMES,
    _TransitionBatch,
    crf_log_likelihood,
    forward_backward,
    log_partition,
    path_score,
    train_transitions,
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
    reference_crf_log_likelihood,
    reference_forward_backward,
    reference_log_partition,
    reference_train_transitions,
    reference_transition_gradient,
    reference_viterbi,
)

# worked two-frame instance used across several tests
E2 = np.array([[1.0, 0.0], [0.0, 1.0]])
A2 = np.array([[0.5, -0.5], [-0.5, 0.5]])
# two frames whose one legal path makes a move of weight e^-720, a subnormal
SUBNORMAL_E = np.array([[0.0, -np.inf], [-np.inf, 0.0]])
SUBNORMAL_A = np.array([[0.0, -720.0], [-720.0, 0.0]])


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
            result = train_transitions(data, 2, lr=0.2, epochs=epochs)
            values.append((result.transitions[0, 0], result.transitions[1, 1]))
        for later, earlier in zip(values[1:], values[:-1]):
            assert later[0] < earlier[0]
            assert later[1] < earlier[1]

    def test_training_raises_likelihood(self):
        rng = np.random.default_rng(15)
        paths = [np.array([0, 0, 1, 1, 2, 2]) for _ in range(5)]
        data = [(rng.normal(scale=0.1, size=(6, 3)), p) for p in paths]
        result = train_transitions(data, 3, lr=0.1, epochs=8)
        assert result.history[-1][1] > result.history[0][1]

    def test_deterministic(self):
        rng = np.random.default_rng(16)
        data = [(rng.normal(size=(6, 3)), rng.integers(3, size=6)) for _ in range(4)]
        a1 = train_transitions(data, 3, lr=0.05, epochs=4).transitions
        a2 = train_transitions(data, 3, lr=0.05, epochs=4).transitions
        assert a1.tobytes() == a2.tobytes()


def k39_dataset(seed=39, utterances=12):
    """K = 39 utterances of 100-400 frames with scale-5 emissions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    data = []
    for _ in range(utterances):
        t = int(rng.integers(100, 401))
        data.append((rng.normal(scale=5.0, size=(t, 39)), rng.integers(39, size=t)))
    return data


def weak_dataset(seed, k=5, utterances=20):
    """Labels in runs of 3-9 frames; emissions favour the label by 0.5 under
    unit noise, so the transitions carry much of the likelihood."""
    rng = np.random.Generator(np.random.PCG64(seed))
    data = []
    for _ in range(utterances):
        t = int(rng.integers(60, 101))
        y = np.repeat(rng.integers(k, size=t), rng.integers(3, 10, size=t))[:t]
        e = rng.normal(size=(t, k))
        e[np.arange(t), y] += 0.5
        data.append((e, y))
    return data


class TestFullBatchTraining:
    """The batched, time-major objective and its line-searched ascent."""

    # one group holding lengths 1, 2 and T_max = 30; then groups of at most
    # 47 frames, {30}, {30, 17} and {5, 2, 1}, split between equal lengths
    @pytest.mark.parametrize("group_frames, groups", [(GROUP_FRAMES, 1), (47, 3)])
    def test_batch_sums_match_per_utterance_reference(self, group_frames, groups):
        rng = np.random.Generator(np.random.PCG64(50))
        lengths = [30, 2, 1, 17, 30, 5]
        data = [(rng.normal(scale=2.0, size=(t, 4)), rng.integers(4, size=t)) for t in lengths]
        batch = _TransitionBatch(data, 4, group_frames=group_frames)
        assert len(batch.groups) == groups
        for _ in range(3):
            a = rng.uniform(-3.0, 3.0, size=(4, 4))
            lls = np.empty(len(data))
            lls[batch.order] = batch.log_likelihoods(a)
            gradient = batch.gradient()
            for (e, y), ll in zip(data, lls):
                assert ll == pytest.approx(reference_crf_log_likelihood(e, a, y), abs=1e-10)
            reference = sum(reference_transition_gradient(e, a, y) for e, y in data)
            np.testing.assert_allclose(gradient, reference, rtol=0, atol=1e-10)

    def test_objective_never_decreases_on_weak_emissions(self):
        data = weak_dataset(seed=60)
        start = np.mean([crf_log_likelihood(e, np.zeros((5, 5)), y) for e, y in data])
        result = train_transitions(data, 5, lr=0.05, epochs=20)
        objective = [start] + [f for _i, f in result.history]
        assert len(objective) == 21
        for i, (before, after) in enumerate(zip(objective, objective[1:]), 1):
            assert after >= before, f"iteration {i}"
        assert objective[-1] > objective[0] + 10.0

    def test_emission_noise_of_1e_7_moves_transitions_by_at_most_1e_5(self):
        # per-utterance SGD steps at lr 0.05 moved A by 0.6 here
        data = weak_dataset(seed=0)
        rng = np.random.Generator(np.random.PCG64(61))
        noisy = [(e + rng.normal(scale=1e-7, size=e.shape), y) for e, y in data]
        a = train_transitions(data, 5, lr=0.05, epochs=5).transitions
        a_noisy = train_transitions(noisy, 5, lr=0.05, epochs=5).transitions
        assert np.abs(a).max() > 1.0
        assert np.abs(a_noisy - a).max() <= 1e-5

    def test_oversized_first_step_is_backtracked(self):
        data = weak_dataset(seed=62)
        result = train_transitions(data, 5, lr=1e6, epochs=3)
        objective = [f for _i, f in result.history]
        assert len(objective) == 3 and np.isfinite(objective).all()
        assert objective == sorted(objective)
        assert objective[0] > np.mean([crf_log_likelihood(e, np.zeros((5, 5)), y)
                                       for e, y in data])
        assert np.isfinite(result.transitions).all()

    def test_handed_over_emissions_are_released_once_packed(self):
        data = weak_dataset(seed=64, utterances=6)
        pairs = [(e.copy(), y) for e, y in data]
        alive = [weakref.ref(e) for e, _y in pairs]

        def handed_over():  # keeps no reference to a pair it has yielded
            for i in range(len(pairs)):
                pair, pairs[i] = pairs[i], None
                yield pair

        batch = _TransitionBatch(handed_over(), 5, group_frames=200)
        assert len(batch.groups) > 1
        assert [ref() for ref in alive] == [None] * len(data)
        reference = _TransitionBatch(data, 5, group_frames=200)
        a = np.random.default_rng(64).normal(size=(5, 5))
        assert batch.log_likelihoods(a).tobytes() == reference.log_likelihoods(a).tobytes()
        assert batch.gradient().tobytes() == reference.gradient().tobytes()

    def test_bad_lr_rejected(self):
        data = weak_dataset(seed=63, utterances=2)
        for lr in (-0.1, np.nan):
            with pytest.raises(ValueError, match="lr must be at least 0"):
                train_transitions(data, 5, lr=lr, epochs=1)


class TestScaledRecursionAgainstLogSpace:
    """The scaled forward-backward against the log-space reference code."""

    def test_trained_transitions_match_reference(self):
        data = k39_dataset()
        result = train_transitions(data, 39, lr=0.05, epochs=3)
        reference, _history = reference_train_transitions(data, 39, lr=0.05, epochs=3)
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

    def test_history_rows_are_the_reference_objective(self):
        data = k39_dataset(seed=40, utterances=5)
        result = train_transitions(data, 39, lr=0.05, epochs=3)
        _a, reference = reference_train_transitions(data, 39, lr=0.05, epochs=3)
        assert [i for i, _f in result.history] == [i for i, _f in reference] == [1, 2, 3]
        for (i, f), (_i, ref) in zip(result.history, reference):
            assert f == pytest.approx(ref, abs=1e-9), f"iteration {i}"

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
            train_transitions(data, 39, lr=0.05, epochs=1)
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
        # a normaliser of e^-720 is subnormal, not zero, but 1 / c overflows beta
        with pytest.raises(DivergenceError):
            forward_backward(SUBNORMAL_E, SUBNORMAL_A)
        with pytest.raises(DivergenceError):
            transition_gradient(SUBNORMAL_E, SUBNORMAL_A, [0, 1])

    def test_subnormal_normaliser_gives_the_one_legal_path(self):
        # only the path 0 -> 1 is legal, and it scores -720; log Z needs no beta
        assert crf_enum_partition(SUBNORMAL_E, SUBNORMAL_A) == -720.0
        assert log_partition(SUBNORMAL_E, SUBNORMAL_A) == pytest.approx(-720.0, abs=1e-8)
