import numpy as np
import pytest

from rawphone.errors import DataError
from rawphone.scoring import (
    collapse_path,
    corpus_report,
    levenshtein,
    map_labels,
)

from oracles import levenshtein_recursive, levenshtein_two_rows, reference_levenshtein


class TestMapLabels:
    def test_identity(self):
        table = {"a": "a", "b": "b"}
        assert map_labels(["a", "b", "a"], table) == ["a", "b", "a"]

    def test_many_to_one(self):
        table = {"x": "a", "y": "a"}
        assert map_labels(["x", "y", "x"], table) == ["a", "a", "a"]

    def test_missing_symbol_named(self):
        with pytest.raises(DataError, match="'q'"):
            map_labels(["q"], {"a": "a"})


class TestCollapsePath:
    def test_merges_runs(self):
        assert collapse_path(["a", "a", "b", "b", "b", "a"]) == ["a", "b", "a"]

    def test_single_token(self):
        assert collapse_path(["a"]) == ["a"]

    def test_strip_garbage(self):
        assert collapse_path(["a", "g", "g", "b"], strip="g") == ["a", "b"]

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            seq = [str(x) for x in rng.integers(0, 4, size=rng.integers(1, 15))]
            once = collapse_path(seq)
            assert collapse_path(once) == once

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collapse_path([])


class TestLevenshtein:
    def test_breakdown_prefers_deterministic_alignment(self):
        dist, (subs, dels, ins) = levenshtein(["a", "b", "c"], ["a", "x", "c"])
        assert dist == 1 and (subs, dels, ins) == (1, 0, 0)

    def test_breakdown_totals_match_distance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ref = [str(x) for x in rng.integers(0, 4, size=rng.integers(0, 10))]
            hyp = [str(x) for x in rng.integers(0, 4, size=rng.integers(0, 10))]
            dist, (subs, dels, ins) = levenshtein(ref, hyp)
            assert subs + dels + ins == dist
            assert len(ref) - dels - subs == len(hyp) - ins - subs

    def test_matches_two_independent_oracles(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            ref = [str(x) for x in rng.integers(0, 5, size=rng.integers(0, 13))]
            hyp = [str(x) for x in rng.integers(0, 5, size=rng.integers(0, 13))]
            dist, _ = levenshtein(ref, hyp)
            assert dist == levenshtein_two_rows(ref, hyp)
            assert dist == levenshtein_recursive(ref, hyp)


    def test_identical_to_cell_by_cell_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(3000):
            symbols = int(rng.integers(1, 6))
            ref = [f"p{x}" for x in rng.integers(0, symbols, size=rng.integers(0, 16))]
            hyp = [f"p{x}" for x in rng.integers(0, symbols, size=rng.integers(0, 16))]
            assert levenshtein(ref, hyp) == reference_levenshtein(ref, hyp), (ref, hyp)

    @pytest.mark.parametrize("symbols, lengths", [
        (39, (30, 91)),  # feat39-sized references and hypotheses
        (3, (65, 120)),  # past one 64-bit word, few symbols: many tied alignments
    ])
    def test_long_pairs_identical_to_cell_by_cell_reference(self, symbols, lengths):
        rng = np.random.default_rng(symbols)
        for trial in range(150):
            alphabet = [f"p{x}" for x in range(int(rng.integers(1, symbols + 1)))]

            def draw():
                return [alphabet[x] for x in rng.integers(0, len(alphabet),
                                                          size=rng.integers(*lengths))]

            ref = draw()
            if trial % 2:  # an unrelated hypothesis
                hyp = draw()
            else:  # the reference with up to len/2 random edits
                hyp = list(ref)
                for _edit in range(int(rng.integers(0, len(ref) // 2))):
                    at = int(rng.integers(0, len(hyp) + 1))
                    del hyp[at : at + int(rng.integers(0, 2))]
                    if rng.integers(0, 2):
                        hyp.insert(at, alphabet[rng.integers(0, len(alphabet))])
            assert levenshtein(ref, hyp) == reference_levenshtein(ref, hyp), (ref, hyp)
            deletions = (len(ref), (0, len(ref), 0))
            assert levenshtein(ref, []) == reference_levenshtein(ref, []) == deletions


def phoneme_accuracy(ref, hyp):
    """The accuracy `eval` reports for a one-utterance corpus, checked against its row."""
    rows, overall = corpus_report([("u", list(ref), list(hyp))])
    assert rows[0][3] == rows[1][3] == f"{overall:.6f}"
    return overall


class TestPhonemeAccuracy:
    def test_one_deletion(self):
        assert phoneme_accuracy(["a", "b", "c"], ["a", "c"]) == pytest.approx(100 * 2 / 3)

    def test_one_insertion(self):
        assert phoneme_accuracy(["a", "b"], ["a", "b", "b"]) == pytest.approx(50.0)

    def test_identity_is_exactly_hundred(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ref = [str(x) for x in rng.integers(0, 5, size=rng.integers(1, 12))]
            assert phoneme_accuracy(ref, ref) == 100.0

    def test_can_go_negative_under_heavy_insertion(self):
        assert phoneme_accuracy(["a"], ["a", "b", "c", "d"]) == pytest.approx(-200.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError, match="empty reference"):
            phoneme_accuracy([], ["a"])

    def test_invariant_under_consistent_relabeling(self):
        rng = np.random.default_rng(4)
        symbols = ["a", "b", "c", "d"]
        renamed = {"a": "w", "b": "x", "c": "y", "d": "z"}
        for _ in range(50):
            ref = [symbols[i] for i in rng.integers(0, 4, size=rng.integers(1, 10))]
            hyp = [symbols[i] for i in rng.integers(0, 4, size=rng.integers(0, 10))]
            base = phoneme_accuracy(ref, hyp)
            mapped = phoneme_accuracy(map_labels(ref, renamed), map_labels(hyp, renamed))
            assert base == mapped
