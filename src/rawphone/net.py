"""Convolutional network over frame sequences, with hand-derived gradients.

The architecture is a fixed family: S filter stages (convolution over
kW-frame windows with shift dW, non-overlapping temporal max-pooling,
tanh), a frame-major flatten, one tanh hidden layer, and a linear output
producing one score per class. Training runs in float32; gradient checks
cast everything to float64 first.
"""

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .framing import grid_windows, row_stats


@dataclass(frozen=True)
class StageConfig:
    """One filter stage: conv kernel/shift/output dim plus pooling width."""

    kernel_width: int
    shift: int
    out_dim: int
    pool_width: int = 1

    def __post_init__(self):
        if self.kernel_width < 1 or self.shift < 1:
            raise ValueError("kernel_width and shift must be >= 1")
        if self.out_dim < 1:
            raise ValueError("out_dim must be >= 1")
        if self.pool_width < 1:
            raise ValueError("pool_width must be >= 1")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture hyperparameters; all tensor shapes derive from these."""

    input_frames: int  # frames per input window (samples when input_dim == 1)
    input_dim: int
    stages: tuple
    hidden_units: int
    num_classes: int

    def __post_init__(self):
        if self.input_frames < 1 or self.input_dim < 1:
            raise ValueError("input_frames and input_dim must be >= 1")
        if self.hidden_units < 1:
            raise ValueError("hidden_units must be >= 1")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        self.frame_counts()  # raises if any stage underflows

    def frame_counts(self):
        """Per-stage (frames after conv, frames after pool) for this config."""
        counts = []
        t = self.input_frames
        for s, stage in enumerate(self.stages):
            if t < stage.kernel_width:
                raise ValueError(
                    f"stage {s}: {t} input frames < kernel width {stage.kernel_width}"
                )
            t_conv = (t - stage.kernel_width) // stage.shift + 1
            if t_conv < stage.pool_width:
                raise ValueError(
                    f"stage {s}: {t_conv} conv frames < pool width {stage.pool_width}"
                )
            t = t_conv // stage.pool_width
            counts.append((t_conv, t))
        return counts

    def flattened_size(self):
        counts = self.frame_counts()
        if not self.stages:
            return self.input_frames * self.input_dim
        return counts[-1][1] * self.stages[-1].out_dim

    def to_dict(self):
        return {
            "input_frames": self.input_frames,
            "input_dim": self.input_dim,
            "stages": [
                {
                    "kernel_width": s.kernel_width,
                    "shift": s.shift,
                    "out_dim": s.out_dim,
                    "pool_width": s.pool_width,
                }
                for s in self.stages
            ],
            "hidden_units": self.hidden_units,
            "num_classes": self.num_classes,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            input_frames=d["input_frames"],
            input_dim=d["input_dim"],
            stages=tuple(StageConfig(**s) for s in d["stages"]),
            hidden_units=d["hidden_units"],
            num_classes=d["num_classes"],
        )


def tensor_shapes(config):
    """(name, shape) of every learned tensor, in the fixed serialization order."""
    shapes = []
    d_in = config.input_dim
    for i, stage in enumerate(config.stages):
        shapes.append((f"stage{i}.weight", (stage.out_dim, stage.kernel_width * d_in)))
        shapes.append((f"stage{i}.bias", (stage.out_dim,)))
        d_in = stage.out_dim
    return shapes + [
        ("hidden.weight", (config.hidden_units, config.flattened_size())),
        ("hidden.bias", (config.hidden_units,)),
        ("output.weight", (config.num_classes, config.hidden_units)),
        ("output.bias", (config.num_classes,)),
    ]


def param_count(config):
    """Exact number of scalar parameters (weights and biases) in a config."""
    return sum(int(np.prod(shape)) for _name, shape in tensor_shapes(config))


@dataclass
class ConvLayerParams:
    """Weights of one convolutional layer: weight is (d_out, kW * d_in)."""

    weight: np.ndarray
    bias: np.ndarray
    kernel_width: int
    shift: int

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1] // self.kernel_width


class NetworkParams:
    """All learned tensors of a network, tied to their NetworkConfig.

    `version` counts in-place updates so cached activations can detect
    that they no longer match the parameters that produced them. `plan`
    is the StepPlan of training steps, built by the first forward_pass.
    """

    def __init__(self, config, conv, hidden_weight, hidden_bias, output_weight, output_bias):
        self.config = config
        self.conv = conv
        self.hidden_weight = hidden_weight
        self.hidden_bias = hidden_bias
        self.output_weight = output_weight
        self.output_bias = output_bias
        self.version = 0
        self.plan = None

    def named_tensors(self):
        """(name, array) pairs in the fixed serialization order."""
        out = []
        for i, layer in enumerate(self.conv):
            out.append((f"stage{i}.weight", layer.weight))
            out.append((f"stage{i}.bias", layer.bias))
        out.append(("hidden.weight", self.hidden_weight))
        out.append(("hidden.bias", self.hidden_bias))
        out.append(("output.weight", self.output_weight))
        out.append(("output.bias", self.output_bias))
        return out

    def copy(self):
        return self.astype(self.hidden_weight.dtype)

    def astype(self, dtype):
        """A copy of every tensor, cast to `dtype`; the step plan is not shared."""
        return NetworkParams(
            self.config,
            [
                ConvLayerParams(
                    l.weight.astype(dtype), l.bias.astype(dtype), l.kernel_width, l.shift
                )
                for l in self.conv
            ],
            self.hidden_weight.astype(dtype),
            self.hidden_bias.astype(dtype),
            self.output_weight.astype(dtype),
            self.output_bias.astype(dtype),
        )


def init_params(config, seed, dtype=np.float32):
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer.

    Draw order is fixed (stage weights then bias, in stage order, then
    hidden, then output), so a seed pins every tensor bit-for-bit.
    PRNG: numpy PCG64.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    conv = []
    d_in = config.input_dim
    for stage in config.stages:
        fan_in = stage.kernel_width * d_in
        conv.append(
            ConvLayerParams(
                weight=draw(fan_in, (stage.out_dim, fan_in)),
                bias=draw(fan_in, (stage.out_dim,)),
                kernel_width=stage.kernel_width,
                shift=stage.shift,
            )
        )
        d_in = stage.out_dim
    flat = config.flattened_size()
    return NetworkParams(
        config,
        conv,
        hidden_weight=draw(flat, (config.hidden_units, flat)),
        hidden_bias=draw(flat, (config.hidden_units,)),
        output_weight=draw(config.hidden_units, (config.num_classes, config.hidden_units)),
        output_bias=draw(config.hidden_units, (config.num_classes,)),
    )


# Windows per batched inference call. Larger batches amortize more
# per-call overhead (64 ran about 20% faster than 16 on one Xeon core,
# OpenBLAS pinned to one thread) but grow the working set in proportion:
# at 16, a batch's gathered stage-0 inputs for the default raw
# architecture (145 positions x 160 taps, float32) take about 1.5 MB.
BATCH_FRAMES = 16


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
    """Non-overlapping temporal max over pool_width frames, per dimension.

    x is (..., T, d). Returns (pooled, argmax) where argmax holds
    within-window winner offsets for the backward pass. Trailing frames
    beyond the last full window are dropped.
    """
    blocks = _pool_blocks(np.asarray(x), pool_width)
    arg = blocks.argmax(axis=-2)
    pooled = np.take_along_axis(blocks, arg[..., None, :], axis=-2)[..., 0, :]
    return pooled, arg


def stage_forward(x, layer, pool_width):
    """One filter stage over a batch: convolution, max-pooling, tanh.

    x is (N, T, d_in); returns (N, T'', d_out). The same linear map is
    applied to each kW-frame window, stepping by dW over fully valid
    positions only; the T' conv frames are max-pooled in non-overlapping
    blocks of pool_width, then squashed. This is the inference path;
    training steps run on a StepPlan.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError("input must be an N x T x d batch of frame matrices")
    n, t, d = x.shape
    if t < layer.kernel_width:
        raise ValueError(f"{t} frames < kernel width {layer.kernel_width}")
    if d != layer.in_dim:
        raise ValueError(f"frame dim {d} != layer d_in {layer.in_dim}")
    windows = _gather_windows(x, layer.kernel_width, layer.shift)
    conv = windows.reshape(-1, windows.shape[2]) @ layer.weight.T + layer.bias
    conv = conv.reshape(n, -1, layer.out_dim)
    return np.tanh(_pool_blocks(conv, pool_width).max(axis=-2))


def _head_forward(act, params, first_stage=0):
    """Scores (N, K) from stage `first_stage` onward, for a batch of stage inputs."""
    for layer, stage in zip(params.conv[first_stage:], params.config.stages[first_stage:]):
        act = stage_forward(act, layer, stage.pool_width)
    flat = act.reshape(act.shape[0], -1)
    hidden = np.tanh(flat @ params.hidden_weight.T + params.hidden_bias)
    return hidden @ params.output_weight.T + params.output_bias


def score_windows(windows, params):
    """Class scores of a stack of input windows (N, T, d), as a float64 N x K matrix.

    Runs the batched stages BATCH_FRAMES windows at a time. Each row
    matches forward_pass on that window up to float rounding.
    """
    config = params.config
    x = np.asarray(windows)
    if x.shape[1:] != (config.input_frames, config.input_dim):
        raise ValueError(
            f"window shape {x.shape[1:]} != expected "
            f"({config.input_frames}, {config.input_dim})"
        )
    dtype = params.hidden_weight.dtype
    scores = np.empty((x.shape[0], config.num_classes), dtype=np.float64)
    for a in range(0, x.shape[0], BATCH_FRAMES):
        scores[a : a + BATCH_FRAMES] = _head_forward(
            x[a : a + BATCH_FRAMES].astype(dtype, copy=False), params
        )
    return scores


def shares_first_stage(config, hop_samples):
    """Whether score_waveform applies: raw input whose frame hop is a multiple of stage 0's shift."""
    return config.input_dim == 1 and bool(config.stages) and hop_samples % config.stages[0].shift == 0


def score_waveform(waveform, grid, params):
    """Class scores of every grid window of a waveform, sharing stage 0 across frames.

    Equals score_windows on the normalized windows up to float rounding,
    for configs where shares_first_stage holds. Neighbouring windows
    overlap, and with hop % shift == 0 their stage-0 positions lie on one
    grid of the padded signal, so the raw convolution W.x runs once per
    position. Normalization is affine per window, hence
    conv(normalized window) = (W.x - mean * sum(W)) / std + b; as
    std > 0, max-pooling commutes with this map and is taken over the
    raw conv. A constant window (std == 0) normalizes to zeros, so its
    stage-0 output is the bias. The stage-0 conv is float64. Windows are
    processed BATCH_FRAMES at a time, which bounds the extra working set
    whatever the utterance length; a chunk reuses the positions it shares
    with the one before, which only overlapping windows have.
    """
    config = params.config
    layer, stage = params.conv[0], config.stages[0]
    kw, shift, pw = layer.kernel_width, layer.shift, stage.pool_width
    step = grid.hop_samples // shift  # stage-0 positions between frames
    t_pool = config.frame_counts()[0][1]
    span = t_pool * pw  # stage-0 positions pooled per frame
    weight = layer.weight.astype(np.float64)
    wsum = weight.sum(axis=1)
    bias = layer.bias.astype(np.float64)
    signal, rows = grid_windows(waveform, grid)  # position m starts at signal[m * shift]
    n = grid.num_frames
    scores = np.empty((n, config.num_classes), dtype=np.float64)
    buf = np.empty((min(n, BATCH_FRAMES), grid.window_samples), dtype=np.float64)
    conv = np.empty((0, layer.out_dim))  # raw conv at positions lo, lo + 1, ...
    lo = 0
    for a in range(0, n, BATCH_FRAMES):
        b = min(a + BATCH_FRAMES, n)
        # the chunk pools positions a * step .. hi - 1; those of the last
        # chunk that it shares are kept, the rest computed from `start`
        start, hi = max(lo + len(conv), a * step), (b - 1) * step + span
        taps = _gather_windows(signal[start * shift : (hi - 1) * shift + kw, None][None], kw, shift)
        conv = np.concatenate([conv[a * step - lo :], taps[0] @ weight.T])
        lo = a * step
        smax = conv[: len(conv) - pw + 1].copy()  # max over positions m .. m + pw - 1
        for q in range(1, pw):
            np.maximum(smax, conv[q : q + len(smax)], out=smax)
        pooled = smax[np.arange(b - a)[:, None] * step + np.arange(t_pool) * pw]
        mean, std = row_stats(rows[a:b], buf[: b - a])
        pooled -= mean[:, :, None] * wsum
        pooled /= np.where(std, std, 1.0)[:, :, None]  # std == 0 rows are reset below
        pooled += bias
        pooled[std[:, 0] == 0.0] = bias
        act = np.tanh(pooled.astype(params.hidden_weight.dtype))
        scores[a:b] = _head_forward(act, params, first_stage=1)
    return scores


def softmax_terms(scores):
    """(f - max, exp(f - max), row sum of the exponentials) over the last axis.

    The one place scores are shifted and exponentiated: softmax,
    log_softmax and the training loss are all built from these terms.
    """
    f = np.asarray(scores)
    shifted = f - f.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def softmax(scores):
    """Stable softmax over the last axis: exp(f - max) normalized per row."""
    _, e, total = softmax_terms(scores)
    return e / total


def log_softmax(scores):
    """Stable log-softmax over the last axis: (f - max) - log(sum exp(f - max)) per row.

    Finite wherever the scores are, even where softmax underflows to 0.
    """
    shifted, _, total = softmax_terms(scores)
    return shifted - np.log(total)


class _StagePlan:
    """Buffers and fixed views of one filter stage for a single window.

    `src` is the stage input buffer (T, d_in). Its kW-frame windows at
    each shift are one strided view, copied into `windows` per step.
    Pool block q of the conv frames is the view conv[q::pool_width];
    `winner_index[q]` holds the flat position in `conv` of every entry
    of block q, so the forward pass records pool winners as flat
    indices that the backward pass scatters to directly.
    """

    def __init__(self, src, stage, dtype):
        t_in, d_in = src.shape
        kw, shift, pw, d_out = stage.kernel_width, stage.shift, stage.pool_width, stage.out_dim
        t_conv = (t_in - kw) // shift + 1
        t_out = t_conv // pw
        item = src.itemsize
        self.src_windows = np.lib.stride_tricks.as_strided(
            src, (t_conv, kw * d_in), (shift * d_in * item, item), writeable=False
        )
        self.windows = np.empty((t_conv, kw * d_in), dtype)
        self.conv = np.empty((t_conv, d_out), dtype)
        self.blocks = [self.conv[q : t_out * pw : pw] for q in range(pw)]
        first = np.arange(t_out)[:, None] * (pw * d_out) + np.arange(d_out)
        self.winner_index = [first + q * d_out for q in range(pw)]
        self.winner = np.empty((t_out, d_out), np.intp)
        self.mask = np.empty((t_out, d_out), bool)
        self.out = np.empty((t_out, d_out), dtype)  # pooled, then tanh in place
        # backward
        self.dpool = np.empty((t_out, d_out), dtype)
        self.dconv = np.empty((t_conv, d_out), dtype)
        self.dconv_flat = self.dconv.reshape(-1)
        self.dwin = np.empty((t_conv, kw * d_in), dtype)
        self.din = np.empty((t_in, d_in), dtype)
        dwin = self.dwin.reshape(t_conv, kw, d_in)
        self.din_terms = [
            (self.din[o : (t_conv - 1) * shift + o + 1 : shift], dwin[:, o, :]) for o in range(kw)
        ]

    def forward(self, layer):
        np.copyto(self.windows, self.src_windows)
        np.matmul(self.windows, layer.weight.T, out=self.conv)
        np.add(self.conv, layer.bias, out=self.conv)
        out, mask, winner = self.out, self.mask, self.winner
        np.copyto(out, self.blocks[0])
        np.copyto(winner, self.winner_index[0])
        # first maximum wins, as argmax would pick it
        for block, index in zip(self.blocks[1:], self.winner_index[1:]):
            np.greater(block, out, out=mask)
            np.maximum(out, block, out=out)
            np.putmask(winner, mask, index)
        np.tanh(out, out=out)

    def backward(self, layer, dact, dweight, dbias, input_grad):
        """Stage gradients into dweight/dbias; returns d loss / d stage input if input_grad."""
        dpool = self.dpool
        np.multiply(self.out, self.out, out=dpool)
        np.subtract(1.0, dpool, out=dpool)
        np.multiply(dact, dpool, out=dpool)
        self.dconv.fill(0.0)
        self.dconv_flat[self.winner] = dpool
        np.matmul(self.dconv.T, self.windows, out=dweight)
        np.add.reduce(self.dconv, axis=0, out=dbias)
        if not input_grad:
            return None
        np.matmul(self.dconv, layer.weight, out=self.dwin)
        self.din.fill(0.0)
        for din, dwin in self.din_terms:
            np.add(din, dwin, out=din)
        return self.din


class StepPlan:
    """Preallocated buffers for per-example SGD steps of one (NetworkConfig, dtype).

    forward_pass copies the window into `x` and runs every stage into
    the plan's own buffers, so a step allocates only its scores and its
    gradients. Gradients live in one flat array in serialization order
    (`slots` gives each tensor's slice). Every matmul and reduction has
    the operands, shapes and order of the plain array formulation, so
    steps are bit-for-bit those of conv/argmax-pool/put-along-axis code.
    `generation` counts forward passes; a cache from an earlier one is
    stale, because its activations have been overwritten.
    """

    def __init__(self, config, dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.generation = 0
        self.x = np.empty((config.input_frames, config.input_dim), self.dtype)
        self.stages = []
        src = self.x
        for stage in config.stages:
            self.stages.append(_StagePlan(src, stage, self.dtype))
            src = self.stages[-1].out
        self.flat = src.reshape(-1)
        self.hidden = np.empty(config.hidden_units, self.dtype)
        self.dh = np.empty(config.hidden_units, self.dtype)
        self.dflat = np.empty(self.flat.size, self.dtype)
        self.dlast = self.dflat.reshape(src.shape)
        self.slots = {}  # name -> (start, end, shape) in a flat gradient buffer
        offset = 0
        for name, shape in tensor_shapes(config):
            end = offset + int(np.prod(shape))
            self.slots[name] = (offset, end, shape)
            offset = end
        self.grad = np.empty(offset, self.dtype)  # written by backward_pass
        self.grad_views = self.views(self.grad)
        self.step = np.empty(offset, self.dtype)  # lr * gradient, in sgd_step
        self.step_views = list(self.views(self.step).values())

    def views(self, flat):
        """Name -> view of the slot of each tensor in a flat buffer."""
        return {name: flat[a:b].reshape(shape) for name, (a, b, shape) in self.slots.items()}


class Gradients(Mapping):
    """Tensor name -> gradient array, all views of one flat buffer `flat`.

    Laid out as the plan's slots, i.e. in serialization order. Assigning
    to a name copies into its slot.
    """

    __slots__ = ("plan", "flat")

    def __init__(self, plan, flat):
        self.plan = plan
        self.flat = flat

    def __getitem__(self, name):
        a, b, shape = self.plan.slots[name]
        return self.flat[a:b].reshape(shape)

    def __setitem__(self, name, value):
        self[name][...] = value

    def __iter__(self):
        return iter(self.plan.slots)

    def __len__(self):
        return len(self.plan.slots)


def step_plan(params):
    """The StepPlan of `params`, built on first use or when its dtype changed."""
    dtype = params.hidden_weight.dtype
    if params.plan is None or params.plan.dtype != dtype:
        params.plan = StepPlan(params.config, dtype)
    return params.plan


class ForwardCache:
    """Handle on the activations forward_pass left in its plan, for backward_pass."""

    __slots__ = ("params", "params_version", "plan", "generation")

    def __init__(self, params, plan):
        self.params = params
        self.params_version = params.version
        self.plan = plan
        self.generation = plan.generation

    @property
    def hidden_out(self):
        return self.plan.hidden


def forward_pass(window, params):
    """Run the full network on one input window.

    Returns (scores, cache); scores is a length-K vector of pre-softmax
    class scores. The computation dtype follows the parameter dtype.
    Activations stay in the step plan of `params` until its next
    forward_pass.
    """
    config = params.config
    x = np.asarray(window)
    if x.shape != (config.input_frames, config.input_dim):
        raise ValueError(
            f"window shape {x.shape} != expected "
            f"({config.input_frames}, {config.input_dim})"
        )
    plan = step_plan(params)
    plan.generation += 1
    np.copyto(plan.x, x, casting="unsafe")
    for stage, layer in zip(plan.stages, params.conv):
        stage.forward(layer)
    hidden = plan.hidden
    np.matmul(params.hidden_weight, plan.flat, out=hidden)
    np.add(hidden, params.hidden_bias, out=hidden)
    np.tanh(hidden, out=hidden)
    scores = params.output_weight @ hidden + params.output_bias
    return scores, ForwardCache(params, plan)


def backward_pass(cache, params, dscores, compute_input_grad=True):
    """Exact gradients of a scalar loss given d loss / d scores.

    Returns (grads, d_input) where grads maps tensor names (as in
    NetworkParams.named_tensors) to arrays of matching shape, all views
    of one flat buffer `grads.flat`. Max-pooling routes gradient only to
    the recorded winner positions. Raises if the cache does not belong
    to `params` at its current version, or if a later forward_pass on
    `params` has overwritten the activations it refers to.
    """
    plan = cache.plan
    if (
        cache.params is not params
        or cache.params_version != params.version
        or cache.generation != plan.generation
    ):
        raise ValueError("stale or mismatched forward cache for these parameters")
    config = params.config
    ds = np.asarray(dscores, dtype=plan.dtype)
    if ds.shape != (config.num_classes,):
        raise ValueError(f"dscores must have shape ({config.num_classes},)")

    grads = plan.grad_views
    hidden, dh = plan.hidden, plan.dh
    np.multiply(ds[:, None], hidden[None, :], out=grads["output.weight"])
    np.copyto(grads["output.bias"], ds)
    np.matmul(params.output_weight.T, ds, out=dh)
    dpre = grads["hidden.bias"]
    np.multiply(hidden, hidden, out=dpre)
    np.subtract(1.0, dpre, out=dpre)
    np.multiply(dh, dpre, out=dpre)
    np.multiply(dpre[:, None], plan.flat[None, :], out=grads["hidden.weight"])
    np.matmul(params.hidden_weight.T, dpre, out=plan.dflat)

    dact = plan.dlast
    for i in range(len(plan.stages) - 1, -1, -1):
        dact = plan.stages[i].backward(
            params.conv[i], dact, grads[f"stage{i}.weight"], grads[f"stage{i}.bias"],
            input_grad=i > 0 or compute_input_grad,
        )
    grads = Gradients(plan, plan.grad.copy())
    if not compute_input_grad:
        return grads, None
    return grads, dact.reshape(config.input_frames, config.input_dim).copy()
