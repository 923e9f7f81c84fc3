"""Linear-chain CRF over network emission scores.

A path's score is its per-frame emissions (raw pre-softmax scores) plus
A[i, j] for each move from label j to label i, none at t=1 (no start-state
vector); the softmax is over whole paths. Viterbi works in log space and
adds in path_score's order, so its score is the enumeration maximum
exactly; it runs over a padded batch of utterances. The sum-product
quantities come from one scaled forward-backward. All float64.
"""

import time
from dataclasses import dataclass

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


def _sum_product(e, a, where=""):
    """(alpha, beta, w, q, log Z) by forward-backward on p = exp(e - rowmax e)
    and q = exp(A - max A), alpha_t scaled to sum 1 by c_t; a zero or NaN c_t or
    non-finite w (non-finite or underflowing scores) is a DivergenceError. Node
    marginals: alpha * beta; pairwise at t: q * outer(w[t-1], alpha[t-1])."""
    top, a_top = e.max(axis=1), a.max()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p = np.exp(e - top[:, None])
        q = np.exp(a - a_top)
        alpha, c = p.copy(), np.empty(len(p))
        for t, row in enumerate(alpha):
            row *= q @ alpha[t - 1] if t else 1.0
            c[t] = s = np.add.reduce(row)
            row /= s
        pc, beta, qt = p / c[:, None], np.ones_like(p), q.T.copy()
        for t in range(len(p) - 1, 0, -1):  # beta_t = ((p_t+1 * beta_t+1) @ q) / c_t+1
            beta[t - 1] = qt @ (pc[t] * beta[t])
        w = pc[1:] * beta[1:]
    if not (c.min() > 0.0 and np.isfinite(w).all()):
        raise DivergenceError(f"zero or non-finite forward-backward normaliser{where}")
    return alpha, beta, w, q, float(np.log(c).sum() + top.sum() + (len(p) - 1) * a_top)


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
    return _sum_product(*_check(emissions, transitions))[-1]


def crf_log_likelihood(emissions, transitions, path):
    """Log conditional probability of `path` under the path softmax; <= 0."""
    return path_score(emissions, transitions, path) - log_partition(emissions, transitions)


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
    ends_at = [np.flatnonzero(lengths == t + 1) for t in range(t_max)]
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
        final[ends_at[t]] = alpha[ends_at[t]]

    paths = np.zeros((n, t_max), dtype=np.int64)
    label = np.zeros(n, dtype=back.dtype)
    last = final.argmax(axis=1)
    for t in range(t_max - 1, -1, -1):
        label[ends_at[t]] = last[ends_at[t]]
        paths[:, t] = label
        if t:
            label = back[rows, t, label]
    return [(path[:t_len].copy(), float(final[u, path[t_len - 1]]))
            for u, (path, t_len) in enumerate(zip(paths, lengths.tolist()))]


def forward_backward(emissions, transitions):
    """Exact posteriors under the path softmax: node (T x K) and pairwise, where
    pairwise[t-1][i, j] is the probability of label j at t-1 followed by i at t."""
    alpha, beta, w, q, _log_z = _sum_product(*_check(emissions, transitions))
    return alpha * beta, q * (w[:, :, None] * alpha[:-1, None, :])


def transition_counts(path, num_classes):
    """counts[i, j] = number of j -> i moves in the path."""
    y = np.asarray(path, dtype=np.int64)
    flat = np.bincount(y[1:] * num_classes + y[:-1], minlength=num_classes * num_classes)
    return flat.reshape(num_classes, num_classes).astype(np.float64)


def transition_gradient(emissions, transitions, path):
    """d crf_log_likelihood / d A: observed minus expected transition counts."""
    e, a, y = _check(emissions, transitions, path)
    alpha, _beta, w, q, _log_z = _sum_product(e, a)
    return transition_counts(y, e.shape[1]) - q * (w.T @ alpha[:-1])


@dataclass
class TransitionTrainResult:
    transitions: np.ndarray
    history: list  # (epoch, mean log-likelihood)


def train_transitions(dataset, num_classes, lr=0.1, epochs=10, seed=0, shuffle=True,
                      on_epoch=None):
    """Gradient ascent on the path log-likelihood, network frozen.

    `dataset` is a sequence of (emissions, path) pairs with emissions
    precomputed. A starts at zeros, so an untrained CRF decodes exactly
    like frame-independent argmax. Deterministic given the seed. History rows
    take each utterance's log-likelihood under the A its gradient came from,
    before the update, as train_network's history does; `on_epoch(epoch,
    log_likelihood, seconds)` is called after each epoch."""
    if len(dataset) == 0:
        raise ValueError("empty transition-training dataset")
    a = np.zeros((num_classes, num_classes))
    rng = np.random.Generator(np.random.PCG64(seed))
    history = []
    for epoch in range(1, epochs + 1):
        start = time.perf_counter()
        order = rng.permutation(len(dataset)) if shuffle else np.arange(len(dataset))
        ll_sum = 0.0
        for u in order:
            e, _, y = _check(dataset[u][0], a, dataset[u][1])
            alpha, _beta, w, q, log_z = _sum_product(e, a, f" at utterance {u}")
            observed = transition_counts(y, num_classes)
            grad = observed - q * (w.T @ alpha[:-1])
            ll_sum += e[np.arange(len(y)), y].sum() + (observed * a).sum() - log_z
            a += lr * grad
        history.append((epoch, ll_sum / len(dataset)))
        if on_epoch is not None:
            on_epoch(epoch, history[-1][1], time.perf_counter() - start)
    return TransitionTrainResult(a, history)
