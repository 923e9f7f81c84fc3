"""Linear-chain CRF over network emission scores.

A path's score is its per-frame emissions (raw pre-softmax scores) plus
A[i, j] for each move from label j to label i, none at t=1 (no start-state
vector); the softmax is over whole paths. Viterbi works in log space and
adds in path_score's order, so its score is the enumeration maximum
exactly; it runs over a padded batch of utterances. The sum-product
quantities come from one scaled forward-backward, `_TransitionBatch`: over all
training utterances at once, time-major, or over one utterance. All float64.
"""

import time
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError


def _check(emissions, transitions, path=None):
    e = np.asarray(emissions, dtype=np.float64)
    a = np.asarray(transitions, dtype=np.float64)
    if e.ndim != 2 or e.shape[0] < 1:
        raise ValueError("emissions must be a T x K matrix with T >= 1")
    k = e.shape[1]
    if a.shape != (k, k):
        raise ValueError(f"transition matrix must be {k} x {k}, got {a.shape}")
    if path is None:
        return e, a
    y = np.asarray(path, dtype=np.int64)
    if y.shape != (e.shape[0],) or y.min() < 0 or y.max() >= k:
        raise ValueError(f"path must be {e.shape[0]} labels in [0, {k}), got {y.shape}")
    return e, a, y


def _batch_of_one(emissions, transitions, path=None):
    """(batch, log-likelihood) of the _TransitionBatch of one utterance, its path all
    zeros where none is given, at A; a non-finite log Z is a DivergenceError."""
    e, a = _check(emissions, transitions)
    y = np.zeros(len(e), dtype=np.int64) if path is None else path
    batch = _TransitionBatch([(e, y)], e.shape[1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll = float(batch.log_likelihoods(a)[0])
    if not np.isfinite(batch.log_z[0]):
        raise DivergenceError("non-finite scores or an underflowing forward-backward normaliser")
    return batch, ll


def _finite(*results):
    if not all(np.isfinite(x).all() for x in results):
        raise DivergenceError("non-finite forward-backward result")
    return results


def path_score(emissions, transitions, path):
    """Score of one label path: emissions plus transition terms from t=2 on."""
    e, a, y = _check(emissions, transitions, path)
    s = e[0, y[0]]
    for t in range(1, len(y)):
        s = s + a[y[t], y[t - 1]]
        s = s + e[t, y[t]]
    return float(s)


def log_partition(emissions, transitions):
    """log of the summed exp(path_score) over all K^T paths, by the forward recursion."""
    return float(_batch_of_one(emissions, transitions)[0].log_z[0])


def crf_log_likelihood(emissions, transitions, path):
    """Log conditional probability of `path` under the path softmax; <= 0."""
    return _batch_of_one(emissions, transitions, path)[1]


def viterbi(emissions, transitions):
    """Highest-scoring label path and its score.

    Ties break toward the smaller label index at the latest differing
    position (first-occurrence argmax in the backtrace). The batch of one
    of `viterbi_batch`.
    """
    e, a = _check(emissions, transitions)
    return viterbi_batch(e[None], [len(e)], a)[0]


def viterbi_batch(emissions, lengths, transitions):
    """`viterbi` for a padded (N, T_max, K) batch; row n holds lengths[n] >= 1 frames.

    Returns one (path, score) per utterance, each equal to `viterbi` on
    that utterance alone: cand = alpha + A takes the same adds and its
    first-occurrence argmax the same ties. The forward pass and the
    backtrace each take one Python step per frame of the longest
    utterance; back-pointers are stored in the smallest integer type
    that holds K labels.
    """
    e = np.asarray(emissions, dtype=np.float64)
    a = np.asarray(transitions, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if e.ndim != 3 or lengths.shape != e.shape[:1]:
        raise ValueError("emissions must be an N x T x K batch with N lengths")
    n, t_max, k = e.shape
    if a.shape != (k, k):
        raise ValueError(f"transition matrix must be {k} x {k}, got {a.shape}")
    if n == 0:
        return []
    if lengths.min() < 1 or lengths.max() > t_max:
        raise ValueError(f"lengths must lie in [1, {t_max}]")
    rows = np.arange(n)
    ends_at = {t_len - 1: np.flatnonzero(lengths == t_len) for t_len in set(lengths.tolist())}
    back = np.zeros((n, t_max, k), dtype=np.min_scalar_type(k - 1))
    final = np.empty((n, k))
    cand = np.empty((n, k, k))  # cand[n, i, j]: arrive at i from j
    row_starts = np.arange(n * k) * k
    alpha = e[:, 0]
    for t in range(t_max):
        if t:
            np.add(alpha[:, None, :], a, out=cand)
            best = cand.argmax(axis=2)
            back[:, t] = best
            alpha = cand.reshape(-1)[row_starts + best.reshape(-1)].reshape(n, k) + e[:, t]
        if t in ends_at:
            final[ends_at[t]] = alpha[ends_at[t]]

    paths = np.zeros((n, t_max), dtype=np.int64)
    label = np.zeros(n, dtype=back.dtype)
    last = final.argmax(axis=1)
    for t in range(t_max - 1, -1, -1):
        if t in ends_at:
            label[ends_at[t]] = last[ends_at[t]]
        paths[:, t] = label
        if t:
            label = back[rows, t, label]
    return [(path[:t_len].copy(), float(final[u, path[t_len - 1]]))
            for u, (path, t_len) in enumerate(zip(paths, lengths.tolist()))]


def forward_backward(emissions, transitions):
    """Exact posteriors under the path softmax: node (T x K) and pairwise, where
    pairwise[t-1][i, j] is the probability of label j at t-1 followed by i at t:
    alpha * beta and q * outer(w_t, alpha_t-1), w_t = p_t * beta_t / c_t."""
    batch, _ll = _batch_of_one(emissions, transitions)
    with np.errstate(invalid="ignore", over="ignore"):
        batch.gradient()
        g = batch.groups[0]
        w = g.p[1:] * g.beta[1:] / g.c[1:, None]
        return _finite(g.alpha * g.beta, batch.q * (w[:, :, None] * g.alpha[:-1, None, :]))


def transition_gradient(emissions, transitions, path):
    """d crf_log_likelihood / d A: observed minus expected transition counts."""
    batch, _ll = _batch_of_one(emissions, transitions, path)
    with np.errstate(invalid="ignore", over="ignore"):
        return _finite(batch.gradient())[0]


# Frames in one group of utterances that a batched dynamic program runs on
# at once, so that a group's working arrays stay near GROUP_FRAMES x K floats
# (decoding.DECODE_GROUP_FRAMES, which counts padded frames).
GROUP_FRAMES = 32768

L2_PENALTY = 1e-3  # the training objective subtracts L2_PENALTY * ||A||^2 / 2
ARMIJO_C = 1e-4  # sufficient-increase constant of the backtracking test
MAX_HALVINGS = 60  # failed tests in one iteration before training stops


class _Group(NamedTuple):
    start: int  # sorted positions start:stop
    stop: int
    running: list  # running[t]: utterances longer than t frames, a prefix of the group
    first: list  # frame t of utterance j is row first[t] + j
    p: np.ndarray  # (frames, K) exp(e - rowmax e), in those rows
    c: np.ndarray  # (frames,) forward normalisers, in the same rows
    owner: np.ndarray  # (frames,) each row's utterance, counted from start
    alpha: np.ndarray  # (frames, K) view of the shared alpha buffer
    beta: np.ndarray  # (frames, K) view of the shared beta buffer


class _TransitionBatch:
    """Training utterances, time-major, for the scaled forward-backward of
    all of them at once.

    Utterances are sorted longest first (stable) and cut into consecutive
    groups of at most `group_frames` frames (an utterance above it alone).
    A group stores frame t of each utterance still running at t in
    consecutive rows, and those utterances are a prefix of the ones running
    at t - 1: each step of a pass works on contiguous rows, and no padding
    is stored or computed. p is computed once, and each utterance's
    emissions are dropped once packed into it: data handed over by an
    iterator that keeps no reference is held once. One alpha and one beta
    buffer, sized for the largest group, hold the passes that ran last.
    """

    def __init__(self, dataset, num_classes, group_frames=GROUP_FRAMES):
        k, zero, utts = num_classes, np.zeros((num_classes, num_classes)), []
        for emissions, path in dataset:
            e, _a, y = _check(emissions, zero, path)
            utts.append((e, y))
        if not utts:
            raise ValueError("empty transition-training dataset")
        order = sorted(range(len(utts)), key=lambda u: -len(utts[u][1]))  # stable
        self.order = np.array(order)  # sorted position -> utterance
        utts = [utts[u] for u in order]
        self.lengths = np.array([len(y) for _e, y in utts])
        self.path_emission = np.array([e[np.arange(len(y)), y].sum() for e, y in utts])
        self.moves = np.concatenate([y[1:] * k + y[:-1] for _e, y in utts])  # into A
        self.move_owner = np.repeat(np.arange(len(utts)), self.lengths - 1)
        self.observed = np.bincount(self.moves, minlength=k * k).reshape(k, k).astype(np.float64)
        self.top = np.empty(len(utts))  # sum of rowmax e, filled with p by _group

        bounds, frames = [], group_frames  # frames = those of the last group
        for u, t_len in enumerate(self.lengths.tolist()):
            if frames + t_len > group_frames:
                bounds.append([u, u])
                frames = 0
            bounds[-1][1] = u + 1
            frames += t_len
        alpha = np.empty((max(int(self.lengths[s:t].sum()) for s, t in bounds), k))
        beta = np.empty_like(alpha)
        self.w = np.empty((max(t - s for s, t in bounds), k))
        self.groups = [self._group(utts, s, t, alpha, beta) for s, t in bounds]
        self.held = None  # the group whose forward pass is in the alpha buffer

    def _group(self, utts, start, stop, alpha_buffer, beta_buffer):
        lengths = self.lengths[start:stop]
        running = (lengths[:, None] > np.arange(lengths[0] + 1)).sum(axis=0).tolist()
        first = [0, *accumulate(running)]
        p = np.empty((first[-1], alpha_buffer.shape[1]))
        owner = np.empty(first[-1], dtype=np.int64)
        for j in range(stop - start):
            e, utts[start + j] = utts[start + j][0], None
            rows = np.array(first[: len(e)]) + j
            top = e.max(axis=1)
            self.top[start + j] = top.sum()
            with np.errstate(invalid="ignore"):  # NaN or infinite rows give NaN
                p[rows] = np.exp(e - top[:, None])
            owner[rows] = j
        return _Group(start, stop, running, first, p, np.empty(first[-1]), owner,
                      alpha_buffer[: first[-1]], beta_buffer[: first[-1]])

    def _forward(self, i):
        _start, _stop, running, first, p, c, _owner, alpha, _beta = self.groups[i]
        n, qt = running[0], self.qt
        np.copyto(alpha[:n], p[:n])
        np.add.reduce(alpha[:n], axis=1, out=c[:n])
        alpha[:n] /= c[:n, None]
        for t in range(1, len(running) - 1):  # alpha_t = p_t * (q @ alpha_t-1) / c_t
            m, r, prev = running[t], first[t], first[t - 1]
            cur, ct = alpha[r:r + m], c[r:r + m]
            np.dot(alpha[prev:prev + m], qt, out=cur)
            cur *= p[r:r + m]
            np.add.reduce(cur, axis=1, out=ct)
            cur /= ct[:, None]
        self.held = i

    def log_likelihoods(self, a):
        """Each utterance's path log-likelihood under A, in sorted order; log Z in `log_z`."""
        a_top = a.max()
        self.q = np.exp(a - a_top)
        self.qt = self.q.T.copy()
        self.log_z = log_z = self.top + (self.lengths - 1) * a_top
        for i, group in enumerate(self.groups):
            self._forward(i)
            log_z[group.start:group.stop] += np.bincount(group.owner, weights=np.log(group.c))
        moves = np.bincount(self.move_owner, weights=a.reshape(-1)[self.moves],
                            minlength=len(self.lengths))
        return self.path_emission + moves - log_z

    def gradient(self):
        """d(summed log-likelihood)/dA at the A of the last `log_likelihoods`:
        observed minus expected transition counts; beta stays in the group's rows."""
        expected = np.zeros_like(self.q)
        for i, (_start, _stop, running, first, p, c, _owner, alpha, beta) in enumerate(self.groups):
            if self.held != i:
                self._forward(i)
            beta.fill(1.0)  # beta = 1 at each utterance's last frame
            for t in range(len(running) - 2, 0, -1):
                m, r, prev = running[t], first[t], first[t - 1]
                w = np.multiply(p[r:r + m], beta[r:r + m], out=self.w[:m])
                w /= c[r:r + m, None]
                expected += np.dot(w.T, alpha[prev:prev + m])
                np.dot(w, self.q, out=beta[prev:prev + m])  # beta_t-1 = ((p_t * beta_t) / c_t) @ q
        return self.observed - self.q * expected


@dataclass
class TransitionTrainResult:
    transitions: np.ndarray
    history: list  # (iteration, objective after it)


def train_transitions(dataset, num_classes, lr=0.1, epochs=10, on_epoch=None):
    """Full-batch ascent on the mean path log-likelihood minus
    L2_PENALTY * ||A||^2 / 2, network frozen.

    `dataset` is an iterable of (emissions, path) pairs with emissions
    precomputed. A starts at zeros, so an untrained CRF decodes exactly
    like frame-independent argmax. The objective is concave in A, and each
    of the `epochs` iterations takes one Armijo backtracking step along its
    gradient: the first trial step is lr * N (lr on the summed
    log-likelihood), each iteration tries twice the step the last one took,
    and a test that fails (too small a rise, a non-finite objective or an
    underflowing normaliser) halves it. Trials run only the forward pass;
    the backward pass runs once per accepted point. Training stops early
    when MAX_HALVINGS tests fail in a row. History rows hold the objective
    after each iteration, so they never decrease; `on_epoch(iteration,
    objective, seconds)` is called after each. Data whose log-likelihood is
    not finite at A = 0 is a DivergenceError naming its first utterance."""
    if not lr >= 0.0:
        raise ValueError(f"lr must be at least 0, got {lr}")
    batch = _TransitionBatch(dataset, num_classes)
    n = len(batch.lengths)

    def objective(a):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lls = batch.log_likelihoods(a)
            return lls, float(lls.sum() / n - 0.5 * L2_PENALTY * np.vdot(a, a))

    a = np.zeros((num_classes, num_classes))
    lls, f = objective(a)
    if not np.isfinite(f):
        u = batch.order[~np.isfinite(lls)].min()
        raise DivergenceError("non-finite scores or an underflowing forward-backward "
                              f"normaliser at utterance {u}")
    step, history = lr * n, []
    for iteration in range(1, epochs + 1):
        start = time.perf_counter()
        with np.errstate(invalid="ignore", over="ignore"):
            g = batch.gradient() / n - L2_PENALTY * a
        rise = ARMIJO_C * np.vdot(g, g)
        for _ in range(MAX_HALVINGS):
            trial = a + step * g
            _lls, f_trial = objective(trial)
            if f_trial >= f + step * rise:  # False for NaN and -inf
                break
            step /= 2.0
        else:
            break
        a, f = trial, f_trial
        history.append((iteration, f))
        if on_epoch is not None:
            on_epoch(iteration, f, time.perf_counter() - start)
        step *= 2.0
    return TransitionTrainResult(a, history)
