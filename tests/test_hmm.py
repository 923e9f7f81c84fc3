import tracemalloc

import numpy as np
import pytest

from rawphone.decoding import decoder
from rawphone.errors import NoLegalPathError
from rawphone.hmm import build_duration_graph, decode_batch, decode_scores, hmm_decode

from oracles import hmm_enum_best_score, min_duration_sequences, reference_decode_scores


def run_lengths(frame_labels):
    lengths = []
    current = 1
    for a, b in zip(frame_labels[:-1], frame_labels[1:]):
        if a == b:
            current += 1
        else:
            lengths.append(current)
            current = 1
    lengths.append(current)
    return lengths


class TestDurationGraph:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_duration_graph(0, 3)
        with pytest.raises(ValueError):
            build_duration_graph(2, 0)


class TestDecodeScores:
    def test_three_frame_forced_choice(self):
        # T == D: only the two all-one-phoneme paths are legal
        log_e = np.array([[0.0, -10.0], [0.0, -10.0], [-1.0, 0.0]])
        result = decode_scores(log_e, build_duration_graph(2, 3))
        assert result.phonemes == [0]
        assert result.score == pytest.approx(-1.0)

    def test_uniform_scores_pick_smallest_phoneme(self):
        log_e = np.zeros((5, 3))
        result = decode_scores(log_e, build_duration_graph(3, 3))
        assert result.phonemes == [0]
        np.testing.assert_array_equal(result.frame_labels, np.zeros(5))

    def test_clean_two_segment_split(self):
        strong = np.log(0.98)
        weak = np.log(0.02)
        log_e = np.array([[strong, weak]] * 3 + [[weak, strong]] * 3)
        result = decode_scores(log_e, build_duration_graph(2, 3))
        assert result.phonemes == [0, 1]
        assert run_lengths(result.frame_labels) == [3, 3]
        # oracle: enumerate all min-duration segmentations of T=6
        assert result.score == hmm_enum_best_score(log_e, 2, 3)

    def test_too_short_sequence_raises(self):
        with pytest.raises(NoLegalPathError):
            decode_scores(np.zeros((2, 2)), build_duration_graph(2, 3))

    def test_single_phoneme_graph(self):
        log_e = np.random.default_rng(0).normal(size=(4, 1))
        result = decode_scores(log_e, build_duration_graph(1, 3))
        assert result.phonemes == [0]
        assert result.score == pytest.approx(log_e.sum())

    def test_min_duration_one_is_framewise_argmax(self):
        rng = np.random.default_rng(1)
        log_e = rng.normal(size=(9, 4))
        result = decode_scores(log_e, build_duration_graph(4, 1))
        np.testing.assert_array_equal(result.frame_labels, log_e.argmax(axis=1))

    def test_matches_enumeration_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(120):
            t = int(rng.integers(3, 10))
            k = int(rng.integers(1, 4))
            log_e = rng.normal(scale=2.0, size=(t, k))
            result = decode_scores(log_e, build_duration_graph(k, 3))
            assert result.score == hmm_enum_best_score(log_e, k, 3)
            assert min(run_lengths(result.frame_labels)) >= 3

    def test_every_segment_meets_min_duration(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            t = int(rng.integers(4, 40))
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, 4))
            if t < d:
                continue
            log_e = rng.normal(size=(t, k))
            result = decode_scores(log_e, build_duration_graph(k, d))
            assert min(run_lengths(result.frame_labels)) >= d
            # collapsed sequence matches the frame labels
            collapsed = [result.frame_labels[0]]
            for x in result.frame_labels[1:]:
                if x != collapsed[-1]:
                    collapsed.append(x)
            assert result.phonemes == [int(x) for x in collapsed]


def ragged_batch(rng, k, lengths, integer=False, neg_inf=0.0, nan=0.0):
    """Zero-padded (N, T_max, K) batch of seeded emissions, and its utterances.

    Integer-valued scores force ties; `neg_inf` is the share of -inf entries
    (zero posteriors) and `nan` the share of NaN entries."""
    utts = []
    for t in lengths:
        x = rng.integers(-2, 1, size=(t, k)).astype(float) if integer else rng.normal(size=(t, k))
        x[rng.random(x.shape) < neg_inf] = -np.inf
        x[rng.random(x.shape) < nan] = np.nan
        utts.append(x)
    batch = np.zeros((len(lengths), max(lengths), k))
    for row, x in zip(batch, utts):
        row[: len(x)] = x
    return batch, utts


def time_major(batch):
    """The batch as the (N, T_max, K) view of a (T_max, N, K) array, as decoder("hmm") passes it."""
    return np.ascontiguousarray(batch.transpose(1, 0, 2)).transpose(1, 0, 2)


class TestDecodeBatch:
    @pytest.mark.parametrize("k", [1, 5, 39])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_bit_identical_to_per_utterance_reference(self, k, d):
        rng = np.random.Generator(np.random.PCG64(100 * k + d))
        graph = build_duration_graph(k, d)
        checked = 0
        for trial in range(12):
            # lengths of 0 and below d sit among the decodable ones
            lengths = [0, 1, d - 1, d, *rng.integers(1, 30, size=int(rng.integers(1, 6)))]
            rng.shuffle(lengths)
            batch, utts = ragged_batch(rng, k, lengths, integer=trial % 2 == 0,
                                       neg_inf=0.3 if trial % 3 == 0 else 0.0,
                                       nan=0.02 if trial % 4 == 1 else 0.0)
            for layout in (batch, time_major(batch)):
                for t, x, got in zip(lengths, utts, decode_batch(layout, lengths, graph)):
                    expected = reference_decode_scores(x, k, d)
                    if expected is None:
                        assert isinstance(got, NoLegalPathError)
                        assert str(got) == (
                            f"sequence of {t} frames admits no path with minimum duration {d}"
                            if t < d else "no finite-score legal path"
                        )
                        continue
                    labels, score = expected
                    assert got.frame_labels.dtype == labels.dtype
                    np.testing.assert_array_equal(got.frame_labels, labels)
                    assert got.score == score and type(got.score) is float
                    single = decode_scores(x, graph)
                    assert single.phonemes == got.phonemes and single.score == got.score
                    checked += 1
        assert checked > 0

    def test_decoder_on_a_group_equals_each_utterance_alone(self):
        rng = np.random.default_rng(7)
        alphabet = [f"p{i}" for i in range(5)]
        group = [rng.normal(scale=3.0, size=(t, 5)) for t in (7, 2, 12, 3, 1, 9)]
        group[3][1, 2] = -np.inf
        graph = build_duration_graph(5, 3)
        decoded = decoder("hmm", alphabet, None, 3)(group)
        assert len(decoded) == len(group)
        for e, got in zip(group, decoded):
            top = e.max(axis=1, keepdims=True)
            log_posteriors = e - top - np.log(np.exp(e - top).sum(axis=1, keepdims=True))
            try:
                alone = decode_scores(log_posteriors, graph)
            except NoLegalPathError as err:
                assert isinstance(got, NoLegalPathError) and str(got) == str(err)
                continue
            assert got == [alphabet[i] for i in alone.phonemes]

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_decoder_ignores_a_per_frame_offset(self, d):
        # integer scores and offsets keep every path sum exact, ties included,
        # so the frame's softmax normalizer cannot move the decoded path
        rng = np.random.default_rng(d)
        alphabet = [f"p{i}" for i in range(4)]
        group = [rng.integers(-3, 4, size=(t, 4)).astype(float) for t in (11, 4, 17, 6, 30)]
        shifted = [e + rng.integers(-1000, 1001, size=(len(e), 1)) for e in group]
        decode = decoder("hmm", alphabet, None, d)
        raw = decode(group)
        assert [str(r) for r in decode(shifted)] == [str(r) for r in raw]
        graph = build_duration_graph(4, d)
        for e, got in zip(group, raw):
            if len(e) < d:
                assert isinstance(got, NoLegalPathError)
            else:
                assert got == [alphabet[i] for i in decode_scores(e, graph).phonemes]

    def test_errors_stay_with_their_utterance(self):
        graph = build_duration_graph(2, 3)
        dead = np.full((4, 2), -np.inf)  # no finite path
        good = np.log(np.array([[0.9, 0.1]] * 3 + [[0.1, 0.9]] * 3))
        batch = np.zeros((4, 6, 2))
        batch[0, :2] = good[:2]
        batch[1] = good
        batch[2, :4] = dead
        batch[3, :3] = good[:3]
        results = decode_batch(batch, [2, 6, 4, 3], graph)
        assert str(results[0]) == "sequence of 2 frames admits no path with minimum duration 3"
        assert results[1].phonemes == [0, 1]
        assert str(results[2]) == "no finite-score legal path"
        assert results[3].phonemes == [0]
        with pytest.raises(NoLegalPathError, match="no finite-score"):
            decode_scores(dead, graph)

    def test_back_pointers_are_compact(self):
        # far below the (N, T_max, K, D) int64 back-pointer tensor of the plain loop
        graph = build_duration_graph(39, 3)
        batch = np.random.default_rng(0).normal(size=(8, 200, 39))
        tracemalloc.start()
        try:
            results = decode_batch(batch, [200] * 8, graph)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(results) == 8
        assert peak < 8 * 200 * 39 * 3 * 8 / 4

    def test_bad_lengths_rejected(self):
        graph = build_duration_graph(2, 1)
        with pytest.raises(ValueError, match="lengths"):
            decode_batch(np.zeros((2, 3, 2)), [3, 4], graph)
        with pytest.raises(ValueError, match="lengths"):
            decode_batch(np.zeros((2, 3, 2)), [3], graph)


class TestHmmDecode:
    def posterior_matrix(self, log_like):
        p = np.exp(log_like)
        return p / p.sum(axis=1, keepdims=True)

    def test_decodes_posteriors(self):
        rng = np.random.default_rng(4)
        p = self.posterior_matrix(rng.normal(size=(8, 3)))
        result = hmm_decode(p, build_duration_graph(3, 3))
        assert min(run_lengths(result.frame_labels)) >= 3

    def test_row_sum_validated(self):
        bad = np.full((6, 2), 0.6)
        with pytest.raises(ValueError, match="sums to"):
            hmm_decode(bad, build_duration_graph(2, 3))

    def test_negative_probability_rejected(self):
        bad = np.array([[1.2, -0.2]] * 6)
        with pytest.raises(ValueError, match="non-negative"):
            hmm_decode(bad, build_duration_graph(2, 3))

    def test_agrees_with_decode_scores(self):
        rng = np.random.default_rng(5)
        p = self.posterior_matrix(rng.normal(size=(10, 2)))
        via_posteriors = hmm_decode(p, build_duration_graph(2, 3))
        via_scores = decode_scores(np.log(p), build_duration_graph(2, 3))
        assert via_posteriors.phonemes == via_scores.phonemes


class TestOracleSanity:
    def test_sequence_counts_for_small_cases(self):
        # T=6, K=2, D=3: all-a, all-b, a^3 b^3, b^3 a^3
        assert len(min_duration_sequences(6, 2, 3)) == 4
        # T=3..5, K=2, D=3: only the two single-run sequences
        for t in (3, 4, 5):
            assert len(min_duration_sequences(t, 2, 3)) == 2
        assert min_duration_sequences(2, 2, 3) == []
