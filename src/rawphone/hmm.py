"""Generative baseline decoder: Viterbi over a minimum-duration topology.

Each of the K phonemes gets a left-to-right chain of D states (default 3)
whose states all emit that phoneme's per-frame log score. Transitions
allowed: state s to s+1 inside a phoneme, a self-loop on the last state
only, and last state of any phoneme to first state of any phoneme. All
transitions score 0 (phonemes equally probable), so every decoded
phoneme occupies at least D frames with no upper bound. A constant added
to every score of a frame adds to every path alike, so in exact
arithmetic the network's raw scores and their log-softmax (the log
posteriors) have the same best path.

`decode_batch` runs the Viterbi over a padded batch of utterances with
each chain state held as one (N, K) slab: the entering and middle states
in a ring of slabs, the last state updated in place. Its back-pointers
are time-major (the entering argmax and the last states' come-or-stay
bits per frame), and its backtrace takes one step per decoded segment.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoLegalPathError
from .scoring import collapse_path


@dataclass(frozen=True)
class DurationGraph:
    num_classes: int
    min_duration: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.min_duration < 1:
            raise ValueError("min_duration must be >= 1")


def build_duration_graph(num_classes, min_duration=3):
    return DurationGraph(num_classes, min_duration)


@dataclass
class HmmDecodeResult:
    phonemes: list  # collapsed class indices
    frame_labels: np.ndarray  # class index per frame
    score: float  # total log score of the best legal path


def decode_scores(log_emissions, graph):
    """Viterbi over the duration graph on per-frame log scores.

    Ties break toward the smaller state index (phoneme-major ordering).
    Raises NoLegalPathError when the sequence is shorter than the
    minimum duration. The batch of one of `decode_batch`.
    """
    e = np.asarray(log_emissions, dtype=np.float64)
    if e.ndim != 2:
        raise ValueError("log_emissions must be a T x K matrix")
    result = decode_batch(e[None], [len(e)], graph)[0]
    if isinstance(result, NoLegalPathError):
        raise result
    return result


def decode_batch(log_emissions, lengths, graph):
    """`decode_scores` for a padded (N, T_max, K) batch; row n holds lengths[n] frames.

    Returns one entry per utterance: its HmmDecodeResult, or the
    NoLegalPathError `decode_scores` would raise for it. Every utterance
    gets the same adds and tie rules as alone: the entering state takes
    the first best completed phoneme, and the last state of a chain
    prefers arriving (`come >= stay`) over its self-loop.

    The batch is read through its time-major view, so a (T_max, N, K)
    array passed as `.transpose(1, 0, 2)` is stepped without a copy. The
    states are (N, K) slabs: the D - 1 entering and middle states of every
    chain sit in a ring whose head moves back one slab per frame, so the
    middle states are never copied, and the last state is updated in place.
    Each frame of the longest utterance takes seven numpy calls (five at
    D = 1) and no allocation. The back-pointers are the entering argmax per
    (frame, utterance) and the come-or-stay bit per (frame, utterance,
    phoneme), as the middle states have one predecessor; the backtrace
    takes one step per decoded segment: from a phoneme's last frame, its
    latest come bit lies D - 1 frames after the phoneme was entered.
    """
    e = np.asarray(log_emissions, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if e.ndim != 3 or lengths.shape != e.shape[:1]:
        raise ValueError("log_emissions must be an N x T x K batch with N lengths")
    n, t_max, k = e.shape
    if k != graph.num_classes:
        raise ValueError(f"emissions have {k} classes, graph has {graph.num_classes}")
    if n and (lengths.min() < 0 or lengths.max() > t_max):
        raise ValueError(f"lengths must lie in [0, {t_max}]")
    d = graph.min_duration
    results = [
        NoLegalPathError(f"sequence of {t} frames admits no path with minimum duration {d}")
        for t in lengths.tolist()
    ]
    live = np.flatnonzero(lengths >= d)
    if len(live) == 0:
        return results
    t_max = int(lengths.max())
    frames = e.transpose(1, 0, 2)  # frames[t]: frame t of every utterance
    # frame -> the live utterances whose last frame it is
    ends_at = {t_len - 1: live[lengths[live] == t_len] for t_len in set(lengths[live].tolist())}

    # alpha[D - 1] holds the last state of every chain and alpha[: D - 1] the
    # ring of the others: at frame t, state s < D - 1 is in slab (s - t) % (D - 1)
    alpha = np.full((d, n, k), -np.inf)
    alpha[0] = frames[0]
    ring, last = list(alpha[: d - 1]), alpha[d - 1]
    final = np.full((n, k), -np.inf)
    enter = np.zeros((t_max, n), dtype=np.min_scalar_type(k - 1))
    # come[t, u, c]: the last state of c at frame t was arrived at, not stayed in;
    # at D = 1 every frame enters the single state of its chain
    come = np.full((t_max, n, k), d == 1)
    row_starts = np.arange(n) * k
    flat = np.empty(n, dtype=np.int64)
    entering = np.empty((n, 1))
    entering_row = entering[:, 0]
    for t in range(t_max):
        if t:
            enter_t, come_t = enter[t], come[t]
            last.argmax(axis=1, out=enter_t)
            np.add(row_starts, enter_t, out=flat)
            last.take(flat, out=entering_row)
            if d > 1:
                prev = ring[-t % (d - 1)]  # state D - 2 at frame t - 1, state 0 at t
                np.greater_equal(prev, last, out=come_t)
                np.putmask(last, come_t, prev)
            else:
                prev = last
            np.copyto(prev, entering)
            alpha += frames[t]
        if t in ends_at:
            final[ends_at[t]] = last[ends_at[t]]

    best_k = final.argmax(axis=1)
    score = final[np.arange(n), best_k].tolist()
    best_k = best_k.tolist()
    entered_from = enter.T.tolist()
    # each (utterance, phoneme)'s come bits, frame by frame, as one bytes object
    bits = come.transpose(1, 2, 0).tobytes()
    for u, t_len in zip(live.tolist(), lengths[live].tolist()):
        best = score[u]
        if not math.isfinite(best):
            results[u] = NoLegalPathError("no finite-score legal path")
            continue
        # segment by segment from the end: a phoneme's last state at frame stop - 1
        # was arrived at on its latest come bit, D - 1 frames after its start
        entered, row0 = entered_from[u], u * k
        phoneme, stop = best_k[u], t_len
        segments, runs = [], []
        while stop:
            row = (row0 + phoneme) * t_max
            start = bits.rfind(1, row, row + stop) - row - (d - 1)
            segments.append(phoneme)
            runs.append(stop - start)
            phoneme, stop = entered[start], start
        segments.reverse()
        runs.reverse()
        frame_labels = np.repeat(np.array(segments, dtype=np.int64), runs)
        results[u] = HmmDecodeResult(collapse_path(segments), frame_labels, best)
    return results


# Largest |row sum - 1| that hmm_decode accepts in a posterior matrix.
ROW_SUM_TOL = 1e-6


def hmm_decode(posteriors, graph):
    """Decode a T x K posterior matrix (rows on the probability simplex).

    The rows are checked to lie on the simplex, then decoded by their log.
    """
    p = np.asarray(posteriors, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("posteriors must be a T x K matrix")
    if p.min() < 0:
        raise ValueError("posteriors must be non-negative")
    sums = p.sum(axis=1)
    if np.abs(sums - 1.0).max() > ROW_SUM_TOL:
        worst = int(np.abs(sums - 1.0).argmax())
        raise ValueError(f"posterior row {worst} sums to {sums[worst]:.8f}, not 1")
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    return decode_scores(log_p, graph)
