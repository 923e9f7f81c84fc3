"""Convolutional network over frame sequences, with hand-derived gradients.

The architecture is a fixed family: S filter stages (convolution over
kW-frame windows with shift dW, non-overlapping temporal max-pooling,
tanh), a frame-major flatten, one tanh hidden layer, and a linear output
producing one score per class. Training runs in float32; gradient checks
cast everything to float64 first.

Training steps run one window at a time on a StepPlan. Inference scores
every frame of a framed signal (a padded waveform with its window
statistics, or a padded feature matrix) in batches sized by BATCH_BYTES,
with stage 0 computed once per position of one grid and shared by the
overlapping windows (score_frames). A network without stages runs its
hidden layer there, as a stage 0 of one position per frame.
"""

import math
import weakref
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np


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
    return sum(math.prod(shape) for _name, shape in tensor_shapes(config))


def tensor_slots(config):
    """Name -> (start, end, shape) of every learned tensor in a flat buffer, in serialization order."""
    slots, offset = {}, 0
    for name, shape in tensor_shapes(config):
        end = offset + math.prod(shape)
        slots[name] = (offset, end, shape)
        offset = end
    return slots


def tensor_views(config, flat):
    """Name -> view of each tensor's slot in `flat`, in serialization order."""
    return {name: flat[a:b].reshape(shape) for name, (a, b, shape) in tensor_slots(config).items()}


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

    `flat` holds every tensor in serialization order, and each tensor is
    a view of its slot, so copies, casts, model files and SGD updates
    each take one operation on it. `version` counts in-place updates so
    cached activations can detect that they no longer match the
    parameters that produced them. `plan` is the StepPlan of training
    steps, built by the first forward_pass.
    """

    def __init__(self, config, flat):
        if flat.shape != (param_count(config),):
            raise ValueError(f"flat parameters of shape {flat.shape} != ({param_count(config)},)")
        self.config = config
        self.flat = flat
        self._tensors = tensor_views(config, flat)
        self.conv = [
            ConvLayerParams(self._tensors[f"stage{i}.weight"], self._tensors[f"stage{i}.bias"],
                            stage.kernel_width, stage.shift)
            for i, stage in enumerate(config.stages)
        ]
        self.hidden_weight = self._tensors["hidden.weight"]
        self.hidden_bias = self._tensors["hidden.bias"]
        self.output_weight = self._tensors["output.weight"]
        self.output_bias = self._tensors["output.bias"]
        self.version = 0
        self.plan = None

    def named_tensors(self):
        """(name, array) pairs in the fixed serialization order; each array is a view of `flat`."""
        return list(self._tensors.items())

    def copy(self):
        return self.astype(self.flat.dtype)

    def astype(self, dtype):
        """A copy of every tensor, cast to `dtype`; the step plan is not shared."""
        return NetworkParams(self.config, self.flat.astype(dtype))


def init_params(config, seed, dtype=np.float32):
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer.

    Draw order is the serialization order (stage weights then bias, in
    stage order, then hidden, then output), so a seed pins every tensor
    bit-for-bit. A layer's fan-in is its weight's row length. PRNG: numpy
    PCG64.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params = NetworkParams(config, np.empty(param_count(config), dtype))
    for name, tensor in params.named_tensors():
        if name.endswith(".weight"):  # each bias follows its weight and shares its bound
            bound = 1.0 / np.sqrt(tensor.shape[1])
        tensor[...] = rng.uniform(-bound, bound, size=tensor.shape)
    return params


# Bytes of gathered stage input per inference batch. Larger batches
# amortize more per-call overhead but grow the working set in proportion.
# This is the gathered stage-0 input of 16 windows of the default raw
# architecture (145 positions x 160 taps, float32), about 1.5 MB.
BATCH_BYTES = 16 * 145 * 160 * 4


def batch_frames(config, dtype):
    """Frames per inference batch: as many as fit BATCH_BYTES, by a frame's widest input.

    A frame's width is the largest of its window and its gathered stage
    inputs, t_conv * kW * d_in elements per stage, all of `dtype`.
    """
    widths, d_in = [config.input_frames * config.input_dim], config.input_dim
    for (t_conv, _t_pool), stage in zip(config.frame_counts(), config.stages):
        widths.append(t_conv * stage.kernel_width * d_in)
        d_in = stage.out_dim
    return max(1, BATCH_BYTES // (max(widths) * np.dtype(dtype).itemsize))


def frame_multiply_adds(config, hop):
    """Multiply-adds score_frames spends per frame of a signal framed every `hop` rows.

    Stage 0 runs once per position of its shared grid, hop / gcd(hop,
    shift) positions per frame; every later layer runs once per frame. A
    network without stages runs its hidden layer as stage 0.
    """
    if not config.stages:
        return config.hidden_units * (config.input_frames * config.input_dim + config.num_classes)
    first = config.stages[0]
    positions = hop // math.gcd(hop, first.shift)
    total = positions * first.kernel_width * config.input_dim * first.out_dim
    d_in = first.out_dim
    for (t_conv, _t_pool), stage in zip(config.frame_counts()[1:], config.stages[1:]):
        total += t_conv * stage.kernel_width * d_in * stage.out_dim
        d_in = stage.out_dim
    return total + config.hidden_units * (config.flattened_size() + config.num_classes)


def _window_view(x, kernel_width, shift):
    """Read-only view of the kW-frame windows at each shift: (N, T, d) -> (N, T', kW*d).

    Window j of item n is x[n, j * shift : j * shift + kW], flattened
    frame-major; x must be C-contiguous.
    """
    n, t, d = x.shape
    item = x.itemsize
    t_out = (t - kernel_width) // shift + 1
    return np.lib.stride_tricks.as_strided(
        x, (n, t_out, kernel_width * d), (x.strides[0], shift * d * item, item), writeable=False
    )


def _gather_windows(x, kernel_width, shift):
    """A contiguous copy of _window_view: (N, T, d) -> (N, T', kW*d), frame-major."""
    return _window_view(np.ascontiguousarray(x), kernel_width, shift).copy()


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


def _head_forward(act, params):
    """Scores (N, K) of a batch of stage-0 outputs: later stages, hidden and output layers.

    Without stages, stage 0 is the hidden layer and only the output layer is left.
    """
    config = params.config
    if config.stages:
        for layer, stage in zip(params.conv[1:], config.stages[1:]):
            act = stage_forward(act, layer, stage.pool_width)
        act = np.tanh(act.reshape(len(act), -1) @ params.hidden_weight.T + params.hidden_bias)
    return act.reshape(len(act), -1) @ params.output_weight.T + params.output_bias


def _pool_positions(conv, pool_width, stride, starts, t_pool):
    """Max-pooled stage-0 outputs (len(starts), t_pool, d) of frames over shared positions.

    conv holds the stage-0 outputs of consecutive grid positions (M, d);
    a frame starting at position s has its conv frames at s, s + stride,
    ..., and pools conv frames j * pool_width .. (j + 1) * pool_width - 1
    into its j-th output.
    """
    smax = conv[: len(conv) - (pool_width - 1) * stride]  # max over m, m + stride, ...
    for q in range(1, pool_width):
        smax = np.maximum(smax, conv[q * stride : q * stride + len(smax)])
    return smax[starts[:, None] + np.arange(t_pool) * (pool_width * stride)]


def score_frames(framed, params):
    """Class scores of every frame of a framed signal, sharing stage 0 across frames.

    Frame t's window of `framed` (a framing.FramedSignal) is rows t * hop
    .. t * hop + input_frames - 1 of its L x input_dim signal. Given
    window statistics (raw input), each window is normalized by its
    frame's `mean` and `std` first. Equals forward_pass on each
    (normalized) window up to float rounding. A network without stages
    runs its hidden layer as stage 0: kernel input_frames, shift hop,
    pool width 1.

    Frame t's conv frame j starts at row t * hop + j * shift, so the
    stage-0 positions of all frames lie on one grid of stride g =
    gcd(hop, shift). The convolution runs once per grid position, and
    each frame max-pools its own positions, every shift / g-th one from
    its first. Frames go batch_frames at a time, which bounds the working
    set whatever the signal length; a batch reuses the positions it
    shares with the one before.

    Without statistics, stage 0 runs in the params dtype, the bias added
    per position before pooling: rounding is monotone, so max(x + b) ==
    max(x) + b exactly. With them, the raw convolution W.x runs in
    float64; normalization is affine, so conv(normalized window) =
    (W.x - mean * sum(W)) / std + b, and for std > 0 max-pooling commutes
    with this map and pools the raw conv. A constant window (std == 0)
    normalizes to zeros, so its stage-0 output is the bias.
    """
    config = params.config
    x, hop, num_frames, std = np.asarray(framed.signal), framed.hop, framed.num_frames, framed.std
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"signal must be a T x {config.input_dim} matrix, got {x.shape}")
    if config.stages:
        layer, pw = params.conv[0], config.stages[0].pool_width
        t_pool = config.frame_counts()[0][1]
    else:  # the hidden layer, one position per frame
        layer = ConvLayerParams(params.hidden_weight, params.hidden_bias, config.input_frames, hop)
        pw = t_pool = 1
    kw = layer.kernel_width
    g = math.gcd(hop, layer.shift)
    step, stride = hop // g, layer.shift // g  # grid positions per hop and per conv frame
    reach = (t_pool * pw - 1) * stride + 1  # grid positions from a frame's first to last
    dtype = params.hidden_weight.dtype
    conv_dtype = dtype if std is None else np.float64
    x = x.astype(conv_dtype, copy=False)
    weight = layer.weight.astype(conv_dtype, copy=False)
    batch = batch_frames(config, dtype)
    if std is not None:
        wsum = weight.sum(axis=1)
        bias = layer.bias.astype(np.float64)
    scores = np.empty((num_frames, config.num_classes), dtype=np.float64)
    conv = np.empty((0, layer.out_dim), conv_dtype)  # stage 0 at positions lo, lo + 1, ...
    lo = 0
    for a in range(0, num_frames, batch):
        b = min(a + batch, num_frames)
        # the batch pools positions a * step .. hi - 1; those of the last
        # batch that it shares are kept, the rest computed from `start`
        start, hi = max(lo + len(conv), a * step), (b - 1) * step + reach
        fresh = _gather_windows(x[None, start * g : (hi - 1) * g + kw], kw, g)[0] @ weight.T
        if std is None:
            fresh += layer.bias
        kept = conv[a * step - lo :]
        conv = np.concatenate([kept, fresh]) if len(kept) else fresh
        lo = a * step
        pooled = _pool_positions(conv, pw, stride, np.arange(b - a) * step, t_pool)
        if std is not None:
            pooled -= framed.mean[a:b, None, None] * wsum
            pooled /= np.where(std[a:b], std[a:b], 1.0)[:, None, None]  # std == 0: reset below
            pooled += bias
            pooled[std[a:b] == 0.0] = bias
        act = np.tanh(pooled.astype(dtype, copy=False))
        scores[a:b] = _head_forward(act, params)
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


def log_softmax(scores, out=None):
    """Stable log-softmax over the last axis: (f - max) - log(sum exp(f - max)) per row.

    Finite wherever the scores are, even where softmax underflows to 0.
    Written into `out` when given.
    """
    shifted, _, total = softmax_terms(scores)
    return np.subtract(shifted, np.log(total), out=out)


class _StagePlan:
    """Buffers and fixed views of one filter stage for a single window.

    `src` is the stage input buffer (T, d_in). Its kW-frame windows at
    each shift are one strided view, copied into `windows` per step.
    `dweight` and `dbias` are the stage's views of the plan's gradient
    buffer.

    At pool width 1 the conv buffer is the output buffer and its
    gradient is `dpool`. Otherwise pool block q of the conv frames is the
    view conv[q::pool_width]; `winner_index[q]` holds the flat position
    in `conv` of every entry of block q, so the forward pass records pool
    winners as flat indices that the backward pass scatters to directly.

    The input gradient sums, for each input frame, the rows of `dwin`
    (d loss / d windows) that cover it. Taps o = q * shift + p of conv
    frame j reach input frame (j + q) * shift + p, so with the kernel
    axis padded to a multiple of the shift, and zero rows around `dwin`,
    block m of `shift` input frames is the sum over q of padded row
    m - q, tap block q: one reduction over a strided view, in tap order.
    """

    def __init__(self, src, stage, dtype, dweight, dbias):
        t_in, d_in = src.shape
        kw, shift, pw, d_out = stage.kernel_width, stage.shift, stage.pool_width, stage.out_dim
        t_conv = (t_in - kw) // shift + 1
        t_out = t_conv // pw
        self.pool_width = pw
        self.src_windows = _window_view(src[None], kw, shift)[0]
        self.windows = np.empty((t_conv, kw * d_in), dtype)
        self.out = np.empty((t_out, d_out), dtype)  # pooled, then tanh in place
        # backward
        self.dweight, self.dbias = dweight, dbias
        self.dpool = np.empty((t_out, d_out), dtype)
        if pw == 1:
            self.conv, self.dconv = self.out, self.dpool
        else:
            self.conv = np.empty((t_conv, d_out), dtype)
            self.blocks = [self.conv[q : t_out * pw : pw] for q in range(pw)]
            first = np.arange(t_out)[:, None] * (pw * d_out) + np.arange(d_out)
            self.winner_index = [first + q * d_out for q in range(pw)]
            self.winner = np.empty((t_out, d_out), np.intp)
            self.mask = np.empty((t_out, d_out), bool)
            self.dconv = np.empty((t_conv, d_out), dtype)
            self.dconv_flat = self.dconv.reshape(-1)
        # The zero rows of dconv add nothing to the bias gradient, except
        # to one channel: numpy sums a lone column pairwise, so the zeros
        # would regroup its terms.
        self.dbias_terms = self.dconv if d_out == 1 else self.dpool
        taps = -(-kw // shift)
        blocks = -(-t_in // shift)
        width = shift * d_in
        pad = np.zeros((blocks + taps - 1, taps * width), dtype)
        self.dwin = pad[taps - 1 : taps - 1 + t_conv, : kw * d_in]
        # np.dot is matmul's BLAS call with less dispatch, but writes only C-contiguous outputs
        self.dwin_product = np.dot if self.dwin.flags.c_contiguous else np.matmul
        # A reduced axis that is numpy's innermost is summed pairwise, out
        # of tap order; a repeated lane keeps it outer when width is 1.
        lanes = 2 if width == 1 else 1
        row, item = pad.strides[0], pad.itemsize
        self.dwin_taps = np.lib.stride_tricks.as_strided(
            pad[taps - 1 :], (blocks, taps, width, lanes), (row, width * item - row, item, 0),
            writeable=False,
        )
        self.din_lanes = np.empty((blocks, width, lanes), dtype)
        self.din = self.din_lanes[:, :, 0].reshape(blocks * shift, d_in)[:t_in]

    def forward(self, layer):
        np.copyto(self.windows, self.src_windows)
        np.dot(self.windows, layer.weight.T, out=self.conv)
        np.add(self.conv, layer.bias, out=self.conv)
        out = self.out
        if self.pool_width > 1:
            mask, winner = self.mask, self.winner
            np.copyto(out, self.blocks[0])
            np.copyto(winner, self.winner_index[0])
            # first maximum wins, as argmax would pick it
            for block, index in zip(self.blocks[1:], self.winner_index[1:]):
                np.greater(block, out, out=mask)
                np.maximum(out, block, out=out)
                np.putmask(winner, mask, index)
        np.tanh(out, out=out)

    def backward(self, layer, dact, input_grad):
        """Stage gradients into dweight/dbias; returns d loss / d stage input if input_grad."""
        dpool = self.dpool
        np.multiply(self.out, self.out, out=dpool)
        np.subtract(1.0, dpool, out=dpool)
        np.multiply(dact, dpool, out=dpool)
        if self.pool_width > 1:
            self.dconv.fill(0.0)
            self.dconv_flat[self.winner] = dpool
        np.dot(self.dconv.T, self.windows, out=self.dweight)
        np.add.reduce(self.dbias_terms, axis=0, out=self.dbias)
        if not input_grad:
            return None
        self.dwin_product(self.dconv, layer.weight, out=self.dwin)
        np.add.reduce(self.dwin_taps, axis=1, out=self.din_lanes)
        return self.din


class StepPlan:
    """Preallocated buffers for per-example SGD steps of one (NetworkConfig, dtype).

    forward_pass copies the window into `x` and runs every stage into
    the plan's own buffers, so a step allocates only its scores.
    Gradients live in one flat array `grad` in serialization order
    (`slots` gives each tensor's slice), which backward_pass lends to the
    Gradients it returns; `lent` is a weak reference to the last one, so
    the next backward_pass copies it away only if a caller still holds
    it. `step` is sgd_step's buffer of the same layout. Every matmul and
    reduction has the operands, shapes and order of the plain array
    formulation (np.dot runs matmul's BLAS call), so steps
    are bit-for-bit those of conv/argmax-pool/put-along-axis code.
    `generation` counts forward passes; a cache from an earlier one is
    stale, because its activations have been overwritten.
    """

    def __init__(self, config, dtype):
        self.config = config
        self.dtype = np.dtype(dtype)
        self.generation = 0
        self.slots = tensor_slots(config)
        size = param_count(config)
        self.grad = np.empty(size, self.dtype)  # written by backward_pass
        self.lent = None
        self.step = np.empty(size, self.dtype)  # lr * gradient, in sgd_step
        grads = tensor_views(config, self.grad)
        self.x = np.empty((config.input_frames, config.input_dim), self.dtype)
        self.stages = []
        src = self.x
        for i, stage in enumerate(config.stages):
            self.stages.append(_StagePlan(
                src, stage, self.dtype, grads[f"stage{i}.weight"], grads[f"stage{i}.bias"]
            ))
            src = self.stages[-1].out
        self.flat = src.reshape(-1)
        self.flat_row = self.flat[None, :]
        self.hidden = np.empty(config.hidden_units, self.dtype)
        self.hidden_row = self.hidden[None, :]
        self.dh = np.empty(config.hidden_units, self.dtype)
        self.dflat = np.empty(self.flat.size, self.dtype)
        self.dlast = self.dflat.reshape(src.shape)
        self.dhidden_weight, self.dhidden_bias = grads["hidden.weight"], grads["hidden.bias"]
        self.dhidden_col = self.dhidden_bias[:, None]
        self.doutput_weight, self.doutput_bias = grads["output.weight"], grads["output.bias"]
        self.doutput_col = self.doutput_bias[:, None]


class Gradients(Mapping):
    """Tensor name -> gradient array, all views of one flat buffer `flat`.

    Laid out as the plan's slots, i.e. in serialization order.
    """

    __slots__ = ("plan", "flat", "__weakref__")

    def __init__(self, plan, flat):
        self.plan = plan
        self.flat = flat

    def __getitem__(self, name):
        a, b, shape = self.plan.slots[name]
        return self.flat[a:b].reshape(shape)

    def __iter__(self):
        return iter(self.plan.slots)

    def __len__(self):
        return len(self.plan.slots)


def step_plan(params):
    """The StepPlan of `params`, built on first use or when its dtype changed."""
    dtype = params.flat.dtype
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


def forward_pass(window, params):
    """Run the full network on one input window.

    Returns (scores, cache); scores is a length-K vector of pre-softmax
    class scores. The computation dtype follows the parameter dtype.
    Activations stay in the step plan of `params` until its next
    forward_pass. The window may be the plan's own input buffer,
    `step_plan(params).x`, filled in place.
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
    if x is not plan.x:
        np.copyto(plan.x, x, casting="unsafe")
    for stage, layer in zip(plan.stages, params.conv):
        stage.forward(layer)
    hidden = plan.hidden
    np.dot(params.hidden_weight, plan.flat, out=hidden)
    np.add(hidden, params.hidden_bias, out=hidden)
    np.tanh(hidden, out=hidden)
    scores = params.output_weight @ hidden + params.output_bias
    return scores, ForwardCache(params, plan)


def backward_pass(cache, params, dscores, compute_input_grad=True):
    """Exact gradients of a scalar loss given d loss / d scores.

    Returns (grads, d_input) where grads maps tensor names (as in
    NetworkParams.named_tensors) to arrays of matching shape, all views
    of one flat buffer `grads.flat`: the step plan's gradient buffer,
    which the next backward_pass on the plan copies away first if grads
    is still referenced then, so it keeps its values. dscores may be the
    plan's `doutput_bias`, filled in place (frame_loss's `out`).
    Max-pooling routes gradient only to the recorded winner positions.
    Raises if the cache does not belong to `params` at its current
    version, or if a later forward_pass on `params` has overwritten the
    activations it refers to.
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

    if plan.lent is not None and (lent := plan.lent()) is not None:
        lent.flat = plan.grad.copy()  # still held by a caller, which keeps its values
    if ds is not plan.doutput_bias:
        np.copyto(plan.doutput_bias, ds)
    np.multiply(plan.doutput_col, plan.hidden_row, out=plan.doutput_weight)
    np.dot(params.output_weight.T, plan.doutput_bias, out=plan.dh)
    dpre = plan.dhidden_bias
    np.multiply(plan.hidden, plan.hidden, out=dpre)
    np.subtract(1.0, dpre, out=dpre)
    np.multiply(plan.dh, dpre, out=dpre)
    np.multiply(plan.dhidden_col, plan.flat_row, out=plan.dhidden_weight)
    np.dot(params.hidden_weight.T, dpre, out=plan.dflat)

    dact = plan.dlast
    for i in range(len(plan.stages) - 1, -1, -1):
        dact = plan.stages[i].backward(params.conv[i], dact, input_grad=i > 0 or compute_input_grad)
    grads = Gradients(plan, plan.grad)
    plan.lent = weakref.ref(grads)
    if not compute_input_grad:
        return grads, None
    return grads, dact.reshape(config.input_frames, config.input_dim).copy()
