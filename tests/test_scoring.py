import numpy as np
import pytest

from rawphone.cli import _score
from rawphone.errors import DataError
from rawphone.scoring import (
    collapse_path,
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


def phoneme_accuracy(ref, hyp):
    """The accuracy `eval` reports for a one-utterance corpus, checked against its row."""
    rows, overall = _score([("u", list(ref), list(hyp))])
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
