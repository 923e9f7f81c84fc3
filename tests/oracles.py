"""Independent reference implementations used to pin expected test values.

Everything here is deliberately brute force (enumeration, finite
differences, naive DFT), or the plainer code a faster library path
replaced: the per-call SGD step the step plan must reproduce bit for
bit, the log-space CRF sum-product the scaled forward-backward must
match within rounding, and the per-utterance Viterbi, edit-distance and
frame-labelling loops the batched and vectorized programs must match
exactly. None
of it shares code with the library paths it checks.
"""

import itertools
from functools import lru_cache

import numpy as np

from rawphone.errors import DataError, DivergenceError
from rawphone.training import frame_loss


# --- network shapes ---------------------------------------------------------


def conv_frames_bruteforce(t, kernel_width, shift):
    """Count valid window placements by enumerating start positions."""
    return len([s for s in range(0, t, shift) if s + kernel_width <= t])


def pool_frames_bruteforce(t, pool_width):
    return len([s for s in range(0, t, pool_width) if s + pool_width <= t])


def simulate_stage_frames(input_frames, stages):
    """Per-stage (conv frames, pool frames) via position enumeration."""
    t = input_frames
    out = []
    for kernel_width, shift, pool_width in stages:
        t_conv = conv_frames_bruteforce(t, kernel_width, shift)
        t_pool = pool_frames_bruteforce(t_conv, pool_width)
        out.append((t_conv, t_pool))
        t = t_pool
    return out


# --- frame labels ------------------------------------------------------------


def reference_frame_labels(annotation, grid, label_to_index, garbage_index=None):
    """The per-frame searchsorted loop the vectorized frame_labels replaced."""
    starts = np.array([s for s, _e, _l in annotation.segments], dtype=np.int64)
    ends = np.array([e for _s, e, _l in annotation.segments], dtype=np.int64)
    idx = np.array([label_to_index[l] for _s, _e, l in annotation.segments], dtype=np.int64)
    out = np.empty(grid.num_frames, dtype=np.int64)
    for t in range(grid.num_frames):
        c = grid.center(t)
        pos = int(np.searchsorted(starts, c, side="right")) - 1
        if pos >= 0 and c < ends[pos]:
            out[t] = idx[pos]
        elif garbage_index is not None:
            out[t] = garbage_index
        else:
            raise DataError(
                f"frame {t} (center sample {c}) is not covered by any segment "
                "and no garbage label is configured"
            )
    return out


# --- per-example SGD step ---------------------------------------------------
#
# The per-call step the step plan replaced, kept verbatim: windows
# gathered by sliding_window_view + transpose, pool winners by argmax,
# the backward scatter by put_along_axis into zeroed blocks, and one
# finiteness check and update per tensor.


def _gather_windows(x, kernel_width, shift):
    """Stack the kW-frame windows at each shift: (N, T, d) -> (N, T', kW*d), frame-major."""
    view = np.lib.stride_tricks.sliding_window_view(x, kernel_width, axis=1)
    view = view[:, ::shift]  # (N, T', d, kW)
    n, t_out = view.shape[:2]
    return np.ascontiguousarray(view.transpose(0, 1, 3, 2)).reshape(n, t_out, -1)


def _pool_blocks(x, pool_width):
    """View (..., T, d) as (..., T // pool_width, pool_width, d), dropping trailing frames."""
    t, d = x.shape[-2:]
    if t < pool_width:
        raise ValueError(f"{t} frames < pool width {pool_width}")
    t_out = t // pool_width
    return x[..., : t_out * pool_width, :].reshape(*x.shape[:-2], t_out, pool_width, d)


def maxpool_forward(x, pool_width):
    blocks = _pool_blocks(np.asarray(x), pool_width)
    arg = blocks.argmax(axis=-2)
    pooled = np.take_along_axis(blocks, arg[..., None, :], axis=-2)[..., 0, :]
    return pooled, arg


class ForwardCache:
    def __init__(self, params):
        self.params = params
        self.params_version = params.version
        self.stage_windows = []
        self.stage_conv_frames = []
        self.stage_pool_arg = []
        self.stage_tanh_out = []


def stage_forward(x, layer, pool_width, cache):
    x = np.asarray(x)
    n, t, d = x.shape
    windows = _gather_windows(x, layer.kernel_width, layer.shift)
    conv = windows.reshape(-1, windows.shape[2]) @ layer.weight.T + layer.bias
    conv = conv.reshape(n, -1, layer.out_dim)
    pooled, arg = maxpool_forward(conv, pool_width)
    out = np.tanh(pooled)
    cache.stage_windows.append(windows[0])
    cache.stage_conv_frames.append(conv.shape[1])
    cache.stage_pool_arg.append(arg[0])
    cache.stage_tanh_out.append(out[0])
    return out


def forward_pass(window, params):
    config = params.config
    x = np.asarray(window)
    x = x.astype(params.hidden_weight.dtype, copy=False)

    cache = ForwardCache(params)
    cache.x = x
    act = x[None]
    for layer, stage in zip(params.conv, config.stages):
        act = stage_forward(act, layer, stage.pool_width, cache)

    flat = act.reshape(-1)
    hidden = np.tanh(params.hidden_weight @ flat + params.hidden_bias)
    scores = params.output_weight @ hidden + params.output_bias
    cache.flat = flat
    cache.hidden_out = hidden
    return scores, cache


def backward_pass(cache, params, dscores, compute_input_grad=True):
    config = params.config
    ds = np.asarray(dscores, dtype=params.hidden_weight.dtype)

    grads = {}
    grads["output.weight"] = np.outer(ds, cache.hidden_out)
    grads["output.bias"] = ds.copy()
    dh = params.output_weight.T @ ds
    dpre = dh * (1.0 - cache.hidden_out * cache.hidden_out)
    grads["hidden.weight"] = np.outer(dpre, cache.flat)
    grads["hidden.bias"] = dpre
    dflat = params.hidden_weight.T @ dpre

    if not params.conv:
        d_input = dflat.reshape(config.input_frames, config.input_dim)
        return grads, (d_input if compute_input_grad else None)

    dact = dflat.reshape(cache.stage_tanh_out[-1].shape)
    for i in range(len(params.conv) - 1, -1, -1):
        layer = params.conv[i]
        stage = config.stages[i]
        tanh_out = cache.stage_tanh_out[i]
        dpool = dact * (1.0 - tanh_out * tanh_out)

        t_conv = cache.stage_conv_frames[i]
        dconv = np.zeros((t_conv, layer.out_dim), dtype=dpool.dtype)
        t_out = dpool.shape[0]
        blocks = np.zeros((t_out, stage.pool_width, layer.out_dim), dtype=dpool.dtype)
        np.put_along_axis(blocks, cache.stage_pool_arg[i][:, None, :], dpool[:, None, :], axis=1)
        dconv[: t_out * stage.pool_width] = blocks.reshape(-1, layer.out_dim)

        windows = cache.stage_windows[i]
        grads[f"stage{i}.weight"] = dconv.T @ windows
        grads[f"stage{i}.bias"] = dconv.sum(axis=0)

        if i == 0 and not compute_input_grad:
            return grads, None
        dwin = (dconv @ layer.weight).reshape(t_conv, layer.kernel_width, layer.in_dim)
        t_in = cache.x.shape[0] if i == 0 else cache.stage_tanh_out[i - 1].shape[0]
        dact = np.zeros((t_in, layer.in_dim), dtype=dwin.dtype)
        for o in range(layer.kernel_width):
            stop = (t_conv - 1) * layer.shift + o + 1
            dact[o:stop:layer.shift] += dwin[:, o, :]

    return grads, dact


def sgd_step(params, grads, lr):
    for name, tensor in params.named_tensors():
        g = grads[name]
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient for {name}")
        tensor += lr * g
    params.version += 1
    return params


def reference_step(window, target, params, lr):
    """One training step (forward, loss, backward, update) as the per-call code ran it.

    Updates `params` in place; returns the step's frame log-likelihood.
    """
    scores, cache = forward_pass(window, params)
    ll, dscores = frame_loss(scores, target)
    grads, _ = backward_pass(cache, params, dscores, compute_input_grad=False)
    sgd_step(params, grads, lr)
    return ll


# --- finite differences -----------------------------------------------------


def numeric_gradient_inplace(tensor, loss_fn, eps):
    """Central finite differences, perturbing `tensor` entries in place."""
    grad = np.zeros_like(tensor)
    flat = tensor.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss_fn()
        flat[i] = orig - eps
        minus = loss_fn()
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * eps)
    return grad


def max_rel_error(analytic, numeric, floor):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


# --- CRF enumeration --------------------------------------------------------


def crf_path_score_seq(emissions, transitions, path):
    """Sequential left-to-right accumulation, matching decoder arithmetic."""
    s = emissions[0][path[0]]
    for t in range(1, len(path)):
        s = s + transitions[path[t], path[t - 1]]
        s = s + emissions[t][path[t]]
    return s


def crf_all_path_scores(emissions, transitions):
    t_len, k = np.asarray(emissions).shape
    paths = list(itertools.product(range(k), repeat=t_len))
    scores = np.array(
        [crf_path_score_seq(emissions, transitions, p) for p in paths]
    )
    return paths, scores


def crf_enum_partition(emissions, transitions):
    _paths, scores = crf_all_path_scores(emissions, transitions)
    m = scores.max()
    return m + np.log(np.sum(np.exp(scores - m)))


def crf_enum_viterbi(emissions, transitions):
    """Argmax path; ties prefer the smaller label at the latest differing spot."""
    paths, scores = crf_all_path_scores(emissions, transitions)
    best = None
    best_score = -np.inf
    for p, s in zip(paths, scores):
        if s > best_score or (s == best_score and tuple(reversed(p)) < tuple(reversed(best))):
            best, best_score = p, s
    return np.array(best), best_score


def reference_viterbi(emissions, transitions):
    """The per-utterance CRF Viterbi `crf.viterbi_batch` replaced: one (K, K)
    candidate matrix and one backtrace step per frame."""
    e = np.asarray(emissions, dtype=np.float64)
    a = np.asarray(transitions, dtype=np.float64)
    t_len, k = e.shape
    back = np.zeros((t_len, k), dtype=np.int64)
    alpha = e[0].copy()
    for t in range(1, t_len):
        cand = alpha[None, :] + a  # cand[i, j]: arrive at i from j
        back[t] = np.argmax(cand, axis=1)
        alpha = cand[np.arange(k), back[t]] + e[t]
    path = np.zeros(t_len, dtype=np.int64)
    path[-1] = int(np.argmax(alpha))
    for t in range(t_len - 1, 0, -1):
        path[t - 1] = back[t, path[t]]
    return path, float(alpha[path[-1]])


def crf_enum_marginals(emissions, transitions):
    e = np.asarray(emissions)
    t_len, k = e.shape
    paths, scores = crf_all_path_scores(e, transitions)
    m = scores.max()
    weights = np.exp(scores - m)
    weights /= weights.sum()
    node = np.zeros((t_len, k))
    pairwise = np.zeros((t_len - 1, k, k))
    for p, w in zip(paths, weights):
        for t in range(t_len):
            node[t, p[t]] += w
        for t in range(1, t_len):
            pairwise[t - 1, p[t], p[t - 1]] += w
    return node, pairwise


# --- log-space CRF sum-product ---------------------------------------------
#
# The log-space recursions the scaled forward-backward replaced, kept
# verbatim (renamed): logadd over a K x K matrix per frame, the full
# (T-1) x K x K pairwise tensor summed over t, and training whose history
# re-runs the forward DP after each update.


def logadd(values, axis=None):
    """log(sum(exp(values))), computed via max subtraction so it never overflows."""
    z = np.asarray(values, dtype=np.float64)
    if z.size == 0:
        raise ValueError("logadd of an empty vector")
    keep = axis is not None
    m = z.max(axis=axis, keepdims=keep)
    out = m + np.log(np.exp(z - m).sum(axis=axis, keepdims=keep))
    if axis is None:
        return float(out)
    return np.squeeze(out, axis=axis)


def reference_log_partition(emissions, transitions):
    e = np.asarray(emissions, dtype=np.float64)
    a = np.asarray(transitions, dtype=np.float64)
    alpha = e[0].copy()
    for t in range(1, e.shape[0]):
        alpha = e[t] + logadd(alpha[None, :] + a, axis=1)
    return logadd(alpha)


def reference_forward_backward(emissions, transitions):
    e = np.asarray(emissions, dtype=np.float64)
    a = np.asarray(transitions, dtype=np.float64)
    t_len, k = e.shape
    log_alpha = np.zeros((t_len, k))
    log_alpha[0] = e[0]
    for t in range(1, t_len):
        log_alpha[t] = e[t] + logadd(log_alpha[t - 1][None, :] + a, axis=1)
    log_beta = np.zeros((t_len, k))
    for t in range(t_len - 2, -1, -1):
        log_beta[t] = logadd(log_beta[t + 1][:, None] + a + e[t + 1][:, None], axis=0)
    log_z = logadd(log_alpha[-1])

    node = np.exp(log_alpha + log_beta - log_z)
    pairwise = np.empty((t_len - 1, k, k))
    for t in range(1, t_len):
        pairwise[t - 1] = np.exp(
            log_alpha[t - 1][None, :] + a + (e[t] + log_beta[t])[:, None] - log_z
        )
    return node, pairwise


def reference_transition_counts(path, num_classes):
    y = np.asarray(path, dtype=np.int64)
    counts = np.zeros((num_classes, num_classes))
    np.add.at(counts, (y[1:], y[:-1]), 1.0)
    return counts


def reference_transition_gradient(emissions, transitions, path):
    e = np.asarray(emissions, dtype=np.float64)
    _node, pairwise = reference_forward_backward(e, transitions)
    return reference_transition_counts(path, e.shape[1]) - pairwise.sum(axis=0)


def reference_crf_log_likelihood(emissions, transitions, path):
    return crf_path_score_seq(emissions, transitions, path) - reference_log_partition(
        emissions, transitions
    )


def reference_train_transitions(dataset, num_classes, lr=0.1, epochs=10, l2=1e-3, c=1e-4,
                                max_halvings=60):
    """(A, history) by full-batch Armijo ascent on the mean log-likelihood
    minus l2 * ||A||^2 / 2, each utterance in log space on its own. The first
    trial step is lr * N; an accepted step is doubled for the next iteration's
    first trial, a failed test halves it. History rows hold the objective
    after each iteration."""
    def objective(a):
        lls = [reference_crf_log_likelihood(e, a, y) for e, y in dataset]
        return np.mean(lls) - 0.5 * l2 * (a * a).sum()

    def gradient(a):
        total = sum(reference_transition_gradient(e, a, y) for e, y in dataset)
        return total / len(dataset) - l2 * a

    a = np.zeros((num_classes, num_classes))
    f, step, history = objective(a), lr * len(dataset), []
    for iteration in range(1, epochs + 1):
        g = gradient(a)
        for _ in range(max_halvings):
            trial = a + step * g
            f_trial = objective(trial)
            if np.isfinite(f_trial) and f_trial >= f + c * step * (g * g).sum():
                break
            step /= 2
        else:
            break
        a, f = trial, f_trial
        history.append((iteration, f))
        step *= 2
    return a, history


# --- minimum-duration decoding ----------------------------------------------


def min_duration_sequences(t_len, k, d):
    """All frame-label sequences whose maximal runs are all >= d frames."""
    results = []

    def extend(prefix_len, prev, runs):
        if prefix_len == t_len:
            results.append(
                [label for label, r in runs for _ in range(r)]
            )
            return
        for label in range(k):
            if label == prev:
                continue
            for run in range(d, t_len - prefix_len + 1):
                extend(prefix_len + run, label, runs + [(label, run)])

    extend(0, None, [])
    return results


def hmm_enum_best_score(log_emissions, k, d):
    e = np.asarray(log_emissions)
    best = -np.inf
    for seq in min_duration_sequences(e.shape[0], k, d):
        s = e[0, seq[0]]
        for t in range(1, len(seq)):
            s = s + e[t, seq[t]]
        best = max(best, s)
    return best


def reference_decode_scores(log_emissions, k, d):
    """The per-utterance duration-HMM Viterbi `hmm.decode_batch` replaced, with
    a full (T, K, D) back-pointer tensor. Returns (frame labels, score), or
    None where `hmm.decode_scores` raises NoLegalPathError."""
    e = np.asarray(log_emissions, dtype=np.float64)
    t_len = e.shape[0]
    if t_len < d:
        return None
    state_idx = np.arange(k) * d
    alpha = np.full((k, d), -np.inf)
    alpha[:, 0] = e[0]
    back = np.zeros((t_len, k, d), dtype=np.int64)
    for t in range(1, t_len):
        new_alpha = np.full((k, d), -np.inf)
        new_back = np.zeros((k, d), dtype=np.int64)
        last = alpha[:, d - 1]
        j = int(np.argmax(last))
        new_alpha[:, 0] = last[j]
        new_back[:, 0] = j * d + (d - 1)
        if d >= 2:
            for s in range(1, d - 1):
                new_alpha[:, s] = alpha[:, s - 1]
                new_back[:, s] = state_idx + (s - 1)
            stay = alpha[:, d - 1]
            come = alpha[:, d - 2]
            use_come = come >= stay
            new_alpha[:, d - 1] = np.where(use_come, come, stay)
            new_back[:, d - 1] = np.where(use_come, state_idx + (d - 2), state_idx + (d - 1))
        new_alpha += e[t][:, None]
        alpha = new_alpha
        back[t] = new_back
    final = alpha[:, d - 1]
    best_k = int(np.argmax(final))
    if not np.isfinite(final[best_k]):
        return None
    states = np.zeros(t_len, dtype=np.int64)
    states[-1] = best_k * d + (d - 1)
    for t in range(t_len - 1, 0, -1):
        states[t - 1] = back[t, states[t] // d, states[t] % d]
    return states // d, float(final[best_k])


# --- edit distance ----------------------------------------------------------


def reference_levenshtein(ref, hyp):
    """The cell-by-cell DP and backtrace the row-vectorized `levenshtein` replaced."""
    ref = list(ref)
    hyp = list(hyp)
    n, m = len(ref), len(hyp)
    d = np.zeros((n + 1, m + 1), dtype=np.int64)
    d[:, 0] = np.arange(n + 1)
    d[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            d[i, j] = min(
                d[i - 1, j - 1] + (0 if same else 1),
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
            )
    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and d[i, j] == d[i - 1, j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + 1:
            subs += 1
            i, j = i - 1, j - 1
        elif i > 0 and d[i, j] == d[i - 1, j] + 1:
            dels += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return int(d[n, m]), (subs, dels, ins)


def levenshtein_two_rows(ref, hyp):
    """Independent DP formulation (rolling rows)."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, 1):
            cur[j] = min(prev[j - 1] + (r != h), prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[-1]


def levenshtein_recursive(ref, hyp):
    ref = tuple(ref)
    hyp = tuple(hyp)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            go(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            go(i - 1, j) + 1,
            go(i, j - 1) + 1,
        )

    return go(len(ref), len(hyp))


# --- spectra ------------------------------------------------------------------


def naive_dft_magnitude(x, n_fft):
    """O(n^2) DFT magnitude for bins 0..n_fft//2 of a zero-padded signal."""
    padded = np.zeros(n_fft)
    padded[: len(x)] = x
    mags = []
    for k in range(n_fft // 2 + 1):
        acc = 0.0 + 0.0j
        for n in range(n_fft):
            acc += padded[n] * np.exp(-2j * np.pi * k * n / n_fft)
        mags.append(abs(acc))
    return np.array(mags)


# --- linear separability ------------------------------------------------------


def perceptron_separates(points, labels, max_epochs=200):
    """Pocket-free perceptron; True when it finds a separating hyperplane."""
    x = np.asarray(points, dtype=np.float64)
    y = np.where(np.asarray(labels) > 0, 1.0, -1.0)
    w = np.zeros(x.shape[1])
    b = 0.0
    for _ in range(max_epochs):
        mistakes = 0
        for i in range(len(x)):
            if y[i] * (x[i] @ w + b) <= 0:
                w += y[i] * x[i]
                b += y[i]
                mistakes += 1
        if mistakes == 0:
            return True
    return False
