"""Generative baseline decoder: Viterbi over a minimum-duration topology.

Each of the K phonemes gets a left-to-right chain of D states (default 3)
whose states all emit that phoneme's per-frame log posterior. Transitions
allowed: state s to s+1 inside a phoneme, a self-loop on the last state
only, and last state of any phoneme to first state of any phoneme. All
transitions score 0 (phonemes equally probable), so every decoded
phoneme occupies at least D frames with no upper bound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoLegalPathError


@dataclass(frozen=True)
class DurationGraph:
    num_classes: int
    min_duration: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if self.min_duration < 1:
            raise ValueError("min_duration must be >= 1")

    @property
    def num_states(self):
        return self.num_classes * self.min_duration


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
    prefers arriving (`come >= stay`) over its self-loop. One Python step
    per frame of the longest utterance; the back-pointers are the
    entering argmax per (utterance, frame) and the come-or-stay choice per
    (utterance, frame, phoneme), as the middle states have one
    predecessor.
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
    if len(live) < n:
        e, lengths = e[live], lengths[live]
    n, t_max = len(live), int(lengths.max())
    rows = np.arange(n)
    ends_at = [np.flatnonzero(lengths == t + 1) for t in range(t_max)]

    # alpha[:, s, :] holds state s of every phoneme chain
    alpha = np.full((n, d, k), -np.inf)
    alpha[:, 0] = e[:, 0]
    final = np.empty((n, k))
    enter = np.zeros((n, t_max), dtype=np.min_scalar_type(k - 1))
    come = np.zeros((n, t_max, k), dtype=bool)
    for t in range(t_max):
        if t:
            last = alpha[:, d - 1]
            new_alpha = np.empty_like(alpha)
            j = last.argmax(axis=1)
            enter[:, t] = j
            new_alpha[:, 0] = last[rows, j][:, None]
            new_alpha[:, 1 : d - 1] = alpha[:, : d - 2]
            if d >= 2:
                use_come = np.greater_equal(alpha[:, d - 2], last, out=come[:, t])
                new_alpha[:, d - 1] = np.where(use_come, alpha[:, d - 2], last)
            new_alpha += e[:, t, None, :]
            alpha = new_alpha
        final[ends_at[t]] = alpha[ends_at[t], d - 1]

    best_k = final.argmax(axis=1)
    score = final[rows, best_k]
    labels = np.zeros((n, t_max), dtype=np.int64)
    state_k = np.zeros(n, dtype=np.int64)
    state_s = np.zeros(n, dtype=np.int64)
    for t in range(t_max - 1, -1, -1):
        starts = ends_at[t]
        state_k[starts] = best_k[starts]
        state_s[starts] = d - 1
        labels[:, t] = state_k
        if t == 0:
            break
        entering = state_s == 0
        stays = (state_s == d - 1) & ~come[rows, t, state_k]
        state_k = np.where(entering, enter[:, t], state_k)
        state_s = np.where(entering | stays, d - 1, state_s - 1)

    for u, t_len, frame_labels, best in zip(live.tolist(), lengths.tolist(), labels, score):
        if not np.isfinite(best):
            results[u] = NoLegalPathError("no finite-score legal path")
            continue
        frame_labels = frame_labels[:t_len].copy()
        phonemes = [int(frame_labels[0])]
        for lbl in frame_labels[1:]:
            if lbl != phonemes[-1]:
                phonemes.append(int(lbl))
        results[u] = HmmDecodeResult(phonemes, frame_labels, float(best))
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
