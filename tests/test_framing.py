import numpy as np
import pytest

from rawphone.errors import DataError
from rawphone.framing import (
    FrameGrid,
    SegmentAnnotation,
    Waveform,
    extract_feature_windows,
    extract_windows,
    frame_labels,
    normalize_window,
    row_stats,
)

from oracles import reference_frame_labels, reference_row_stats


class TestNormalizeWindow:
    def test_three_point_window(self):
        out = normalize_window([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_constant_window_maps_to_zeros(self):
        np.testing.assert_array_equal(normalize_window([5.0, 5.0, 5.0]), [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("length", [3, 160])
    def test_constant_window_with_inexact_mean_maps_to_zeros(self, length):
        x = np.full(length, 0.1)
        assert x.mean() != 0.1  # the mean is off by an ulp
        np.testing.assert_array_equal(normalize_window(x), np.zeros(length))

    def test_two_point_window(self):
        np.testing.assert_allclose(normalize_window([0.0, 1.0]), [-1.0, 1.0], atol=1e-12)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            normalize_window([])

    def test_zero_mean_unit_population_variance(self):
        rng = np.random.Generator(np.random.PCG64(7))
        for _ in range(20):
            x = rng.normal(3.0, 10.0, size=rng.integers(2, 400))
            out = normalize_window(x)
            assert abs(out.mean()) < 1e-9
            assert abs(np.mean(out * out) - 1.0) < 1e-6

    def test_idempotent(self):
        rng = np.random.Generator(np.random.PCG64(8))
        x = rng.normal(size=128)
        once = normalize_window(x)
        np.testing.assert_allclose(normalize_window(once), once, atol=1e-6)

    def test_scale_shift_invariance(self):
        rng = np.random.Generator(np.random.PCG64(9))
        x = rng.normal(size=64)
        base = normalize_window(x)
        for a, b in [(2.0, 0.0), (0.01, -5.0), (300.0, 7.5)]:
            np.testing.assert_allclose(normalize_window(a * x + b), base, atol=1e-6)


def stats_rows(width, dtype):
    """Rows whose statistics sit at or near a constant row's rounding."""
    rng = np.random.default_rng(width)
    c = np.float64(1e4).astype(dtype)
    off_by_ulp = np.full(width, c)
    off_by_ulp[width // 2] = np.nextafter(c, dtype(np.inf))
    rows = [
        np.full(width, 1e4), np.full(width, 1 / 3), np.full(width, -0.1),  # constant
        np.zeros(width),
        off_by_ulp,
        1e8 + rng.normal(size=width) * 1e-4,  # a DC offset far above the std:
        1e8 + rng.normal(size=width) * 1e-6,  # std / mean 1e-12 and 1e-14, about the
        1e3 + rng.normal(size=width) * 1e-9,  # rounding of a constant row's mean
        rng.normal(size=width),
    ]
    return np.array(rows).astype(dtype)


class TestRowStats:
    """row_stats gives the bytes of the statistics that checked every row for max == min."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width", [1, 2, 33, 1600])
    def test_equals_checking_every_row(self, dtype, width):
        rows = stats_rows(width, dtype)
        # chunked as framing reads them: a strided view, several chunks
        rows = np.lib.stride_tricks.sliding_window_view(np.tile(rows, (3, 1)).ravel(), width)[::width]
        mean, std = row_stats(rows)
        expected_mean, expected_std = reference_row_stats(rows)
        assert mean.tobytes() == expected_mean.tobytes()
        assert std.tobytes() == expected_std.tobytes()
        if width > 1:  # the constant rows, though not all their means are exact; the ulp off
            assert not std.reshape(3, -1)[:, :4].any() and std.reshape(3, -1)[:, 4].all()

    @pytest.mark.parametrize("row", [
        [1.0, np.inf, 2.0], [np.inf] * 4, [-np.inf, np.inf, 0.0], [np.nan, 1.0, 1.0],
        [1e308, 1e308, 1e308], [1e308, -1e308, 1e308],
    ], ids=["inf", "all-inf", "both-infs", "nan", "huge-constant", "overflow"])
    def test_non_finite_rows_normalize_as_before(self, row):
        x = np.array(row)
        with np.errstate(invalid="ignore", over="ignore"):
            got = normalize_window(x)
            mean, std = reference_row_stats(x[None])
            expected = np.zeros_like(x) if std[0] == 0.0 else (x - mean[0]) / std[0]
        assert got.tobytes() == expected.tobytes()


class TestExtractWindows:
    def test_frame_count_matches_hop(self):
        w = Waveform(np.zeros(16000), 16000)
        grid = FrameGrid.for_length(len(w), 160, 4320)
        assert grid.num_frames == 100
        out = extract_windows(w, grid)
        assert out.shape == (100, 4320)

    def test_single_sample_window_hits_centers(self):
        samples = np.arange(480, dtype=np.float64)
        w = Waveform(samples, 16000)
        grid = FrameGrid.for_length(480, 160, 1)
        out = extract_windows(w, grid)
        assert out.shape == (3, 1)
        # single-sample windows are constant, so they normalize to zero
        np.testing.assert_array_equal(out, np.zeros((3, 1)))
        centers = [grid.center(t) for t in range(3)]
        assert centers == [80, 240, 400]

    def test_hop_equal_to_length_gives_one_frame(self):
        w = Waveform(np.ones(555), 16000)
        grid = FrameGrid.for_length(555, 555, 64)
        assert grid.num_frames == 1
        assert extract_windows(w, grid).shape == (1, 64)

    def test_signal_shorter_than_hop_gives_no_frames(self):
        for length, hop, window in ((1, 1000, 2), (100, 160, 1600)):
            grid = FrameGrid.for_length(length, hop, window)
            out = extract_windows(Waveform(np.ones(length), 16000), grid)
            assert out.shape == (0, window)

    def test_frame_count_independent_of_window_size(self):
        w = Waveform(np.sin(np.arange(2000) * 0.01), 16000)
        for window in (1, 7, 160, 900, 3999):
            grid = FrameGrid.for_length(2000, 100, window)
            assert extract_windows(w, grid).shape == (20, window)

    def test_window_content_is_centered(self):
        # impulse at a known sample should appear at the window center
        samples = np.zeros(800)
        samples[240] = 1.0
        w = Waveform(samples, 16000)
        grid = FrameGrid.for_length(800, 160, 11)
        out = extract_windows(w, grid)
        # frame 1 center is 240; within the 11-wide window the impulse sits at offset 5
        assert np.argmax(out[1]) == 5

    def test_rows_bit_identical_to_normalize_window(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for length, hop, window in ((3000, 160, 1600), (999, 7, 33), (500, 1, 8), (480, 160, 1)):
            samples = rng.normal(size=length)
            samples[length // 3 : length // 3 + 2 * window] = 0.0  # silent stretch
            w = Waveform(samples, 16000)
            grid = FrameGrid.for_length(length, hop, window)
            out = extract_windows(w, grid)
            padded = np.concatenate([np.zeros(window // 2), samples, np.zeros(window // 2)])
            for t in range(grid.num_frames):
                start = grid.center(t)
                expected = normalize_window(padded[start : start + window])
                assert out[t].tobytes() == expected.tobytes(), (length, hop, window, t)

    def test_constant_rows_with_inexact_mean_give_zeros(self):
        w = Waveform(np.full(3000, 0.1), 16000)
        grid = FrameGrid.for_length(3000, 160, 320)
        out = extract_windows(w, grid)
        assert out[0].any()  # frame 0's window takes in padding
        np.testing.assert_array_equal(out[1:], np.zeros_like(out[1:]))

    def test_windows_are_normalized_after_padding(self):
        w = Waveform(np.ones(100), 16000)
        grid = FrameGrid.for_length(100, 100, 300)
        out = extract_windows(w, grid)
        # padded window mixes zeros and ones, so it is non-constant
        assert abs(out[0].mean()) < 1e-9
        assert abs(np.mean(out[0] ** 2) - 1.0) < 1e-6


class TestFrameLabels:
    def grid(self, length, hop):
        return FrameGrid.for_length(length, hop, 1)

    def test_center_rule(self):
        ann = SegmentAnnotation(((0, 320, "a"), (320, 640, "b")))
        out = frame_labels(ann, self.grid(640, 160), {"a": 0, "b": 1})
        np.testing.assert_array_equal(out, [0, 0, 1, 1])

    def test_uncovered_center_gets_garbage(self):
        ann = SegmentAnnotation(((0, 100, "a"),))
        out = frame_labels(ann, self.grid(480, 160), {"a": 0, "g": 1}, garbage_index=1)
        np.testing.assert_array_equal(out, [0, 1, 1])

    def test_empty_segments_all_garbage(self):
        ann = SegmentAnnotation(())
        out = frame_labels(ann, self.grid(480, 160), {"g": 0}, garbage_index=0)
        np.testing.assert_array_equal(out, [0, 0, 0])

    def test_uncovered_center_without_garbage_is_data_error(self):
        ann = SegmentAnnotation(((0, 100, "a"),))
        with pytest.raises(DataError, match="frame 1"):
            frame_labels(ann, self.grid(480, 160), {"a": 0})

    def test_length_always_matches_grid(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            length = int(rng.integers(50, 2000))
            hop = int(rng.integers(1, 300))
            grid = self.grid(length, hop)
            ann = SegmentAnnotation(((0, length, "a"),))
            assert len(frame_labels(ann, grid, {"a": 0})) == grid.num_frames


    @pytest.mark.parametrize("garbage", [None, 3])
    def test_matches_per_frame_loop_on_gapped_annotations(self, garbage):
        rng = np.random.Generator(np.random.PCG64(5))
        labels = {"a": 0, "b": 1, "c": 2, "g": 3}
        outcomes = set()
        for _ in range(200):
            length, hop = int(rng.integers(20, 1500)), int(rng.integers(1, 200))
            bounds = np.sort(rng.choice(np.arange(length + 1), size=2 * int(rng.integers(0, 6)),
                                        replace=False))
            # segments between alternate bounds leave gaps, at the edges too
            ann = SegmentAnnotation(tuple(
                (int(s), int(e), "abc"[i % 3]) for i, (s, e) in enumerate(bounds.reshape(-1, 2))
            ))
            grid = self.grid(length, hop)
            try:
                expected = reference_frame_labels(ann, grid, labels, garbage)
            except DataError as e:
                with pytest.raises(DataError) as got:
                    frame_labels(ann, grid, labels, garbage)
                assert str(got.value) == str(e)
                outcomes.add("error")
                continue
            out = frame_labels(ann, grid, labels, garbage)
            assert out.dtype == np.int64
            np.testing.assert_array_equal(out, expected)
            outcomes.add("labels")
        assert outcomes == ({"labels", "error"} if garbage is None else {"labels"})


class TestFeatureWindows:
    def test_shape_and_centering(self):
        feats = np.arange(12, dtype=np.float64).reshape(6, 2)
        out = extract_feature_windows(feats, 3)
        assert out.shape == (6, 3, 2)
        # center row of each context block is the frame itself
        np.testing.assert_array_equal(out[2][1], feats[2])
        # leading edge zero-padded
        np.testing.assert_array_equal(out[0][0], [0.0, 0.0])

    def test_blocks_equal_padded_slices(self):
        feats = np.random.default_rng(1).normal(size=(7, 3))
        for context in (1, 4, 5):
            half = context // 2
            padded = np.concatenate([np.zeros((half, 3)), feats, np.zeros((context - half, 3))])
            out = extract_feature_windows(feats, context)
            for t in range(7):
                np.testing.assert_array_equal(out[t], padded[t : t + context])

    def test_context_one_is_identity(self):
        feats = np.random.default_rng(0).normal(size=(5, 4))
        out = extract_feature_windows(feats, 1)
        np.testing.assert_array_equal(out[:, 0, :], feats)
