"""Waveform framing: fixed-size analysis windows on a regular grid.

A waveform of length L with hop h yields exactly floor(L / h) frames.
Frame t is centered at sample t*h + h//2; the waveform is zero-padded
symmetrically so edge frames keep full context. Each raw window is
normalized to zero mean and unit population variance after padding.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples, nominally in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if len(self.samples) < 1:
            raise ValueError("waveform must contain at least one sample")

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class FrameGrid:
    """Regular frame grid over a signal of num_frames * hop samples or more."""

    hop_samples: int
    window_samples: int
    num_frames: int

    def __post_init__(self):
        if self.hop_samples < 1:
            raise ValueError(f"hop_samples must be >= 1, got {self.hop_samples}")
        if self.window_samples < 1:
            raise ValueError(f"window_samples must be >= 1, got {self.window_samples}")
        if self.num_frames < 0:
            raise ValueError(f"num_frames must be >= 0, got {self.num_frames}")

    @classmethod
    def for_length(cls, length, hop_samples, window_samples):
        """Grid covering a signal of `length` samples: floor(length/hop) frames."""
        if length < 1:
            raise ValueError("signal length must be >= 1")
        return cls(hop_samples, window_samples, length // hop_samples)

    def center(self, t):
        """Center sample of frame t."""
        return t * self.hop_samples + self.hop_samples // 2


@dataclass(frozen=True)
class SegmentAnnotation:
    """Sorted, non-overlapping labeled spans [start, end) in sample units."""

    segments: tuple = field(default_factory=tuple)

    def __post_init__(self):
        prev_end = 0
        for start, end, _label in self.segments:
            if start < 0 or end <= start:
                raise ValueError(f"bad segment bounds ({start}, {end})")
            if start < prev_end:
                raise ValueError("segments must be sorted and non-overlapping")
            prev_end = end

    def labels(self):
        return [label for _s, _e, label in self.segments]


def normalize_window(window):
    """Shift and scale a window to zero mean, unit population variance.

    A constant window maps to all zeros instead of raising, so padded
    silence does not abort a run. Computation is float64 regardless of
    the input dtype; the statistics are those of row_stats.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("window must be a non-empty 1-D sequence")
    mean, std = row_stats(x[None])
    if std[0] == 0.0:
        return np.zeros_like(x)
    return (x - mean[0]) / std[0]


def grid_windows(waveform, grid):
    """(signal, rows): `signal` is the waveform zero-padded by window_samples
    // 2 on both ends, from where frame 0's window starts, and row t of
    the read-only view `rows` is signal[t * hop : t * hop + window_samples],
    the window centered at grid.center(t)."""
    pad = np.zeros(grid.window_samples // 2)
    padded = np.concatenate([pad, np.asarray(waveform.samples, dtype=np.float64), pad])
    first, hop = grid.center(0), grid.hop_samples  # the window centered on c starts at padded c
    rows = np.lib.stride_tricks.sliding_window_view(padded, grid.window_samples)
    return padded[first:], rows[first : first + grid.num_frames * hop : hop]


STATS_CHUNK_BYTES = 16 * 1600 * 8  # rows row_stats reduces at once: 16 default raw windows


def row_stats(rows, mean=None, std=None):
    """Each row's mean and population std, float64 vectors (into `mean` and
    `std` where given). The rows are copied STATS_CHUNK_BYTES at a time
    into one buffer that the reductions overwrite, and each row gets the
    same bits whatever the chunk. A constant row (max == min) gets std 0,
    so it normalizes to zeros: its mean may be off by an ulp, which would
    otherwise leave a tiny nonzero std.
    """
    n, width = rows.shape
    mean = np.empty(n) if mean is None else mean
    std = np.empty(n) if std is None else std
    chunk = max(1, STATS_CHUNK_BYTES // (8 * width))
    buf = np.empty((min(chunk, n), width))
    for a in range(0, n, chunk):
        part = buf[: len(rows[a : a + chunk])]
        m, s = mean[a : a + len(part)], std[a : a + len(part)]
        np.copyto(part, rows[a : a + chunk])
        constant = part.max(axis=1) == part.min(axis=1)
        np.mean(part, axis=1, out=m)
        np.subtract(part, m[:, None], out=part)
        np.square(part, out=part)
        np.sqrt(np.mean(part, axis=1, out=s), out=s)
        s[constant] = 0.0
    return mean, std


@dataclass(frozen=True, eq=False)
class FramedSignal:
    """Frame t's window, t < num_frames, is rows t * hop .. t * hop + window - 1
    of `signal` (L x d). A raw window is normalized by its frame's `mean`
    and `std` (of row_stats) when read; a feature window is read as it is."""

    signal: np.ndarray
    hop: int
    num_frames: int
    mean: np.ndarray = None
    std: np.ndarray = None


def extract_windows(waveform, grid):
    """Cut one normalized window per grid frame from a waveform.

    Returns a (num_frames, window_samples) float64 matrix. Frame t is the
    window of `grid.window_samples` samples centered at `grid.center(t)`,
    on a waveform zero-padded by window_samples // 2 on both ends. Each
    row equals normalize_window of that raw window, bit for bit.
    """
    _signal, rows = grid_windows(waveform, grid)
    return np.array([normalize_window(row) for row in rows]).reshape(rows.shape)


def pad_features(features, context_frames, dtype):
    """A feature matrix zero-padded for framing, as `dtype`.

    context_frames // 2 zero rows go before the features and the rest
    after, so rows t .. t + context_frames - 1 of the result are the
    window centered on feature row t.
    """
    feats = np.asarray(features)
    if feats.ndim != 2 or feats.shape[0] < 1:
        raise ValueError("features must be a non-empty T x d matrix")
    if context_frames < 1:
        raise ValueError("context_frames must be >= 1")
    T, d = feats.shape
    half = context_frames // 2
    padded = np.zeros((T + context_frames, d), dtype)
    padded[half : half + T] = feats
    return padded


def extract_feature_windows(features, context_frames):
    """Cut a centered context block per frame from a precomputed feature matrix.

    Returns (T, context_frames, d): the windows of pad_features. No
    normalization is applied (feature matrices arrive already conditioned).
    """
    padded = pad_features(features, context_frames, np.float64)
    view = np.lib.stride_tricks.sliding_window_view(padded, context_frames, axis=0)
    return np.ascontiguousarray(view[: len(features)].transpose(0, 2, 1))


def frame_labels(annotation, grid, label_to_index, garbage_index=None):
    """Label each grid frame by the segment containing its center sample.

    Centers outside every segment get `garbage_index`; if none is
    configured, the first such frame is a data error.
    """
    starts = np.array([s for s, _e, _l in annotation.segments], dtype=np.int64)
    ends = np.array([e for _s, e, _l in annotation.segments], dtype=np.int64)
    idx = np.array(
        [label_to_index[l] for _s, _e, l in annotation.segments], dtype=np.int64
    )
    hop = grid.hop_samples
    centers = np.arange(grid.num_frames, dtype=np.int64) * hop + hop // 2
    # rightmost segment with start <= center, then check center < end
    pos = np.searchsorted(starts, centers, side="right") - 1
    covered = pos >= 0
    covered[covered] = centers[covered] < ends[pos[covered]]
    if garbage_index is None and not covered.all():
        t = int(np.argmin(covered))
        raise DataError(
            f"frame {t} (center sample {grid.center(t)}) is not covered by any segment "
            "and no garbage label is configured"
        )
    out = np.full(grid.num_frames, 0 if garbage_index is None else garbage_index, dtype=np.int64)
    out[covered] = idx[pos[covered]]
    return out
