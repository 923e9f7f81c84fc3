"""Per-frame stochastic gradient ascent, early stopping, grid search, gradient checks.

The training unit is one (window, label) pair; each visit takes one
ascent step on the frame log-likelihood. Runs are deterministic given
the seed: frame order, init, and update order are all pinned.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .decoding import seconds_per_frame
from .errors import DivergenceError
from .net import (
    NetworkConfig,
    StageConfig,
    backward_pass,
    forward_pass,
    init_params,
    param_count,
    score_frames,
    softmax_terms,
    step_plan,
)
from .workers import ordered_map


def frame_loss(scores, target, out=None):
    """Log-probability of `target` under the per-frame score softmax, and its gradient.

    Returns (log_likelihood, dscores). The log-likelihood is <= 0, a
    float computed in float64, and not finite when the scores are not.
    dscores = one_hot(target) - softmax(scores), in the scores' dtype;
    both come from one exponentiation of the shifted scores. With `out`,
    dscores is written there: train_network passes its step plan's
    `doutput_bias`, which backward_pass then need not fill.
    """
    f = np.asarray(scores)
    if not 0 <= target < f.shape[0]:
        raise ValueError(f"target {target} out of range for {f.shape[0]} classes")
    shifted, e, total = softmax_terms(f)
    total = float(total[0])  # exact; a Python float divides e in e's dtype
    dscores = np.divide(e, -total, out=e if out is None else out)  # -(e / total), bit for bit
    dscores[target] += 1.0
    return float(shifted[target]) - math.log(total), dscores


def sgd_step(params, grads, lr):
    """One in-place ascent step: every tensor moves by +lr * gradient.

    `grads` is the Gradients of backward_pass. Gradients and parameters
    are each one flat buffer in serialization order, so finiteness is
    checked, and the step scaled and added, once for all tensors. A
    non-finite gradient raises, naming its tensor, before any update.
    A finite sum of squares means every entry is finite; only a sum that
    is not (a non-finite entry, or squares that overflow) is checked
    tensor by tensor. np.vdot, unlike np.dot, does not warn when the
    squares overflow.
    """
    flat = grads.flat
    if not math.isfinite(np.vdot(flat, flat)):
        name = next((n for n in grads if not np.isfinite(grads[n]).all()), None)
        if name is not None:
            raise DivergenceError(f"non-finite gradient for {name}")
    step = np.multiply(flat, lr, out=grads.plan.step)
    np.add(params.flat, step, out=params.flat)
    params.version += 1
    return params


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        # lr 0 is legal: frozen-parameter runs are a documented baseline
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


def dataset_scores(params, dataset, reduce):
    """reduce(scores, labels) over each framed utterance of a FrameDataset, in order.

    Each is scored as decoding scores it (net.score_frames), from the
    dataset's window statistics, in worker processes where the fork gate
    finds that the split pays (each priced as an argmax decode).
    """
    per_frame = seconds_per_frame(params.config, dataset.hop, 0)
    return ordered_map(lambda share: (reduce(score_frames(f, params), l) for f, l in share),
                       dataset.by_utterance(), lambda pair: pair[0].num_frames * per_frame)


def frame_accuracy_of(params, dataset):
    """Percent of dataset frames whose argmax score matches the label."""
    hits = dataset_scores(params, dataset, lambda f, y: np.count_nonzero(f.argmax(axis=1) == y))
    return 100.0 * sum(hits) / len(dataset)


def train_network(train_set, cv_set, net_config, train_config, on_epoch=None):
    """Gradient-ascent training with patience-based early stopping.

    Visits training frames in a seeded-shuffled order, one sgd_step per
    frame, each window read from the dataset straight into the step
    plan's input buffer; evaluates cross-validation frame accuracy after
    each epoch, and returns the parameters of the best epoch plus the history as a
    list of (epoch, mean train log-likelihood, cv accuracy) rows. The
    whole run is a deterministic function of (data, config, seed).
    `on_epoch(epoch, log_likelihood, cv_accuracy, seconds)`, if given,
    is called after each epoch with its history row and wall seconds.
    """
    if len(train_set) == 0 or len(cv_set) == 0:
        raise ValueError("train and cv sets must be non-empty")
    expected = (net_config.input_frames, net_config.input_dim)
    for data in (train_set, cv_set):
        if data.window_shape != expected:
            raise ValueError(f"window shape {data.window_shape} != expected {expected}")
    k = net_config.num_classes
    if train_set.labels.max() >= k or cv_set.labels.max() >= k:
        raise ValueError("label index out of range for num_classes")
    params = init_params(net_config, train_config.seed)
    rng = np.random.Generator(np.random.PCG64(train_config.seed))

    best = params.copy()
    best_acc = -1.0
    stale_epochs = 0
    history = []
    n = len(train_set)
    labels = train_set.labels.tolist()
    plan = step_plan(params)
    x, dscores = plan.x, plan.doutput_bias
    for epoch in range(1, train_config.max_epochs + 1):
        start = time.perf_counter()
        order = rng.permutation(n) if train_config.shuffle else np.arange(n)
        ll_sum = 0.0
        for step, i in enumerate(order.tolist()):
            train_set.read_window(i, x)
            scores, cache = forward_pass(x, params)
            ll, _ = frame_loss(scores, labels[i], dscores)
            if not math.isfinite(ll):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, frame {step}")
            ll_sum += ll
            try:
                # held by no name, the gradients die after the step: the next
                # backward_pass overwrites their buffer without copying it away
                sgd_step(params, backward_pass(cache, params, dscores), train_config.learning_rate)
            except DivergenceError as e:
                raise DivergenceError(f"epoch {epoch}, frame {step}: {e}") from e

        cv_acc = frame_accuracy_of(params, cv_set)
        history.append((epoch, ll_sum / n, cv_acc))
        if on_epoch is not None:
            on_epoch(*history[-1], time.perf_counter() - start)
        if cv_acc > best_acc:
            best_acc = cv_acc
            best = params.copy()
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= train_config.patience:
                break
    return best, history


@dataclass
class GridSpec:
    """Candidate lists for the hyperparameter sweep.

    Windows are in input frames (samples of raw input). Defaults span the
    standard search ranges: window 100-700 ms at 16 kHz, kernel width
    1-9, 10-90 filters, 100-1500 hidden units. Stage one convolves
    non-overlapping (shift = kernel width) on raw input; later stages
    use shift 1.
    """

    window_frames: tuple = (1600, 4800, 8000, 11200)
    kernel_width: tuple = (1, 5, 9)
    num_filters: tuple = (10, 50, 90)
    hidden_units: tuple = (100, 800, 1500)
    pool_width: tuple = (3,)
    num_stages: int = 3

    def __post_init__(self):
        for name in ("window_frames", "kernel_width", "num_filters", "hidden_units", "pool_width"):
            if not getattr(self, name):
                raise ValueError(f"{name} candidates must be non-empty")
        if self.num_stages < 0:
            raise ValueError("num_stages must be >= 0")

    def configs(self, input_dim, num_classes):
        """Materialize the Cartesian product as NetworkConfig values, each distinct one once.

        Without stages, kernel, filter and pool candidates give the same
        network; it keeps the position of its first occurrence.
        """
        out = {}  # insertion-ordered set
        for frames, kw, filters, hidden, pool in itertools.product(
            self.window_frames, self.kernel_width, self.num_filters,
            self.hidden_units, self.pool_width,
        ):
            stages = []
            for s in range(self.num_stages):
                shift = kw if s == 0 else 1
                stages.append(StageConfig(kw, shift, filters, pool))
            try:
                cfg = NetworkConfig(frames, input_dim, tuple(stages), hidden, num_classes)
            except ValueError:
                continue  # infeasible shape combination
            out.setdefault(cfg)
        return list(out)


def derive_seed(master_seed, ordinal):
    """Stable per-configuration seed so sweep results ignore scheduling."""
    ss = np.random.SeedSequence([int(master_seed), int(ordinal)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class GridResult:
    ordinal: int
    config: NetworkConfig
    seed: int
    cv_accuracy: float = float("nan")
    error: str = ""

    @property
    def failed(self):
        return bool(self.error)


def grid_search(dataset_for_config, configs, train_config, max_configs=None):
    """Train every candidate config and rank by cv frame accuracy.

    `dataset_for_config(config)` must return (train_set, cv_set) framed
    for that config's window size. Ties break toward fewer parameters,
    then lower config ordinal. Per-config failures become failure
    records instead of aborting the sweep. `max_configs` subsamples the
    grid by seeded random choice. The candidates train in worker
    processes (workers.ordered_map), each from its ordinal's seed, so the
    results do not depend on how many workers run.
    """
    if not configs:
        raise ValueError("empty grid")
    candidates = list(enumerate(configs))
    if max_configs is not None and max_configs < len(candidates):
        rng = np.random.Generator(np.random.PCG64(train_config.seed))
        keep = sorted(rng.choice(len(candidates), size=max_configs, replace=False))
        candidates = [candidates[i] for i in keep]

    def outcome(candidate):
        """(best cv accuracy, "") of one candidate, or (nan, its error)."""
        ordinal, cfg = candidate
        try:
            train_set, cv_set = dataset_for_config(cfg)
            run_cfg = replace(train_config, seed=derive_seed(train_config.seed, ordinal))
            history = train_network(train_set, cv_set, cfg, run_cfg)[1]
            return max(h[2] for h in history), ""
        except Exception as e:  # recorded, sweep continues
            return float("nan"), f"{type(e).__name__}: {e}"

    outcomes = ordered_map(lambda share: map(outcome, share), candidates)
    results = [GridResult(ordinal, cfg, derive_seed(train_config.seed, ordinal), acc, error)
               for (ordinal, cfg), (acc, error) in zip(candidates, outcomes)]

    def rank_key(r):
        acc = -1.0 if r.failed else r.cv_accuracy
        return (-acc, param_count(r.config), r.ordinal)

    results.sort(key=rank_key)
    return results


def random_check_config(rng):
    """A random small raw-input NetworkConfig for a gradient check, drawn from `rng`.

    Every draw is feasible: kw <= t leaves t_conv >= 1 frames, and pool <= t_conv leaves t >= 1.
    """
    window = t = int(rng.integers(8, 65))
    stages = []
    for _ in range(int(rng.integers(1, 4))):
        kw = int(rng.integers(1, min(t, 6) + 1))
        dw = int(rng.integers(1, 4))
        t_conv = (t - kw) // dw + 1
        pool = int(rng.integers(1, min(t_conv, 3) + 1))
        t = t_conv // pool
        stages.append(StageConfig(kw, dw, int(rng.integers(2, 9)), pool))
    hidden = int(rng.integers(3, 13))
    return NetworkConfig(window, 1, tuple(stages), hidden, int(rng.integers(2, 7)))


def numeric_gradient(tensor, loss_fn, eps):
    """Central differences of `loss_fn()` in each entry of `tensor`, perturbed in place."""
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


def gradient_errors(params, window, target, eps):
    """{tensor name: max relative error} of the frame loss's analytic gradient
    against central differences; an entry's error is relative to the larger
    of its two magnitudes, floored at 1e-6."""
    scores, cache = forward_pass(window, params)
    analytic = backward_pass(cache, params, frame_loss(scores, target)[1])
    errors = {}
    for name, tensor in params.named_tensors():
        numeric = numeric_gradient(
            tensor, lambda: frame_loss(forward_pass(window, params)[0], target)[0], eps
        )
        a = analytic[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-6)
        errors[name] = float(np.max(np.abs(a - numeric) / denom))
    return errors
