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
overlapping windows (score_frames), in place in the buffers of a
_ScorePlan. A network without stages runs its hidden layer there, as a
stage 0 of one position per frame. Past that stage 0, both plans run
the same filter stages and head, a training step as a batch of one.
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
    steps, built by the first forward_pass, and `score_plan` the
    _ScorePlan of the last score_frames.
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
        self.score_plan = None

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


def maxpool_forward(x, pool_width):
    """Non-overlapping temporal max over pool_width frames, per dimension.

    x is (..., T, d). Returns (pooled, argmax) where argmax holds
    within-window winner offsets for the backward pass. Trailing frames
    beyond the last full window are dropped.
    """
    x = np.asarray(x)
    t, d = x.shape[-2:]
    if t < pool_width:
        raise ValueError(f"{t} frames < pool width {pool_width}")
    t_out = t // pool_width
    blocks = x[..., : t_out * pool_width, :].reshape(*x.shape[:-2], t_out, pool_width, d)
    arg = blocks.argmax(axis=-2)
    pooled = np.take_along_axis(blocks, arg[..., None, :], axis=-2)[..., 0, :]
    return pooled, arg


class _Stage:
    """Buffers and fixed views of one filter stage for batches of up to N items.

    An item is read from the buffer `src` (N, T, d_in): its kW-frame
    windows at each shift are one strided view. forward(n) copies the
    windows of the first n items into `windows`, convolves them into
    `conv`, adds the bias and writes tanh of each pool block's maximum
    into `out` (N, T'', d_out), in place. At pool width 1 `conv` and
    `pmax` view `out`; otherwise `blocks` views the q-th conv frame of every pool
    block, for each q, and a running maximum over them goes into `pmax`,
    kept before tanh. A maximum is exact, whatever order it is taken in,
    and rounding is monotone, so max(x + b) == max(x) + b exactly: adding
    the bias before pooling or after gives the same bits. Every conv
    frame is computed, those past the last full pool block too: OpenBLAS
    rounds a row of a product by the product's row count when that is
    small, so the product keeps its n * t_conv rows. The views of a full
    batch are taken once, in `batch`; only a smaller one slices them.
    """

    def __init__(self, src, layer, pool_width, out=None):
        n, t_in, d_in = src.shape
        kw, d_out, dtype = layer.kernel_width, layer.out_dim, src.dtype
        self.t_conv = (t_in - kw) // layer.shift + 1
        self.t_out = self.t_conv // pool_width
        self.layer, self.pool_width = layer, pool_width
        self.src_windows = _window_view(src, kw, layer.shift)
        self.windows = np.empty((n, self.t_conv, kw * d_in), dtype)
        self.rows = self.windows.reshape(n * self.t_conv, kw * d_in)
        self.out = np.empty((n, self.t_out, d_out), dtype) if out is None else out
        if pool_width == 1:
            self.conv, self.pmax = self.out.reshape(len(self.rows), d_out), self.out
        else:
            self.conv = np.empty((len(self.rows), d_out), dtype)
            self.pmax = np.empty(self.out.shape, dtype)
        conv = self.conv.reshape(n, self.t_conv, d_out)
        used = self.t_out * pool_width
        self.blocks = [conv[:, q:used:pool_width] for q in range(pool_width)]
        self.batch = self.views(n)

    def views(self, n):
        """(windows, their source, product rows, conv, blocks, pmax, out) of the first n items."""
        rows = n * self.t_conv
        return (self.windows[:n], self.src_windows[:n], self.rows[:rows], self.conv[:rows],
                [block[:n] for block in self.blocks], self.pmax[:n], self.out[:n])

    def forward(self, n):
        windows, src, rows, conv, blocks, pmax, out = (
            self.batch if n == len(self.windows) else self.views(n))
        np.copyto(windows, src)
        np.dot(rows, self.layer.weight.T, out=conv)
        np.add(conv, self.layer.bias, out=conv)
        if len(blocks) > 1:
            # one call per block: np.maximum.reduce over a block axis
            # takes twice as long on these views
            np.maximum(blocks[0], blocks[1], out=pmax)
            for block in blocks[2:]:
                np.maximum(pmax, block, out=pmax)
        np.tanh(pmax, out=out)


class _Head:
    """The layers a plan runs after its input: the filter `stages`, each
    reading the output of the one before, then the hidden and output
    layers on `flat` (N, F) into `hidden` and `scores`, in place.
    `hidden` is None where a network without stages ran its hidden layer
    before the head (score_frames)."""

    def head(self, n, params):
        """Scores (n, K) of the first n items of the plan's input: a view of `scores`."""
        for stage in self.stages:
            stage.forward(n)
        act = self.flat[:n]
        if self.hidden is not None:
            hidden = self.hidden[:n]
            np.dot(act, params.hidden_weight.T, out=hidden)
            np.add(hidden, params.hidden_bias, out=hidden)
            act = np.tanh(hidden, out=hidden)
        scores = self.scores[:n]
        np.dot(act, params.output_weight.T, out=scores)
        np.add(scores, params.output_bias, out=scores)
        return scores


class _ScorePlan(_Head):
    """score_frames' buffers for one network, hop and input kind, sized for
    batches of `batch` frames. score_frames keeps the last one on the
    params and reuses it while the hop and input kind stay the same, so a
    params object scores one signal at a time, as its StepPlan takes one
    step at a time.

    `layer` is stage 0 (the hidden layer of a network without stages),
    on a grid of positions `g` rows apart (score_frames). `gathered`
    holds the windows and `conv` the outputs of consecutive positions,
    `smax` their running maximum over each pool block, and `pooled` views
    each frame's pooled outputs in it. `act` is stage 0's output, which
    the head reads; `offset` and `normed` hold the normalization of raw
    input.
    """

    def __init__(self, params, hop, normalized, batch):
        config = params.config
        if config.stages:
            layer, pw = params.conv[0], config.stages[0].pool_width
            t_pool = config.frame_counts()[0][1]
        else:  # the hidden layer, one position per frame
            layer = ConvLayerParams(params.hidden_weight, params.hidden_bias,
                                    config.input_frames, hop)
            pw = t_pool = 1
        self.key = (hop, normalized, batch)
        self.layer, self.pool_width, self.g = layer, pw, math.gcd(hop, layer.shift)
        # grid positions per hop and per conv frame, and from a frame's first to its last
        self.step, self.stride = hop // self.g, layer.shift // self.g
        self.reach = (t_pool * pw - 1) * self.stride + 1
        dtype = params.hidden_weight.dtype
        conv_dtype = np.float64 if normalized else dtype
        d = layer.out_dim
        self.gathered = np.empty(((batch - 1) * self.step + self.reach,
                                  layer.kernel_width * config.input_dim), conv_dtype)
        self.conv = np.empty((len(self.gathered), d), conv_dtype)
        self.smax = self.conv
        if pw > 1:
            self.smax = np.empty((len(self.conv) - (pw - 1) * self.stride, d), conv_dtype)
        row = self.smax.strides[0]
        self.pooled = np.lib.stride_tricks.as_strided(
            self.smax, (batch, t_pool, d), (self.step * row, pw * self.stride * row,
                                            self.smax.itemsize), writeable=False)
        self.act = src = np.empty((batch, t_pool, d), dtype)
        if normalized:
            self.offset = np.empty((batch, 1, d))
            self.normed = self.act if dtype == np.float64 else np.empty(self.act.shape)
        self.stages = []
        for conv_layer, stage in zip(params.conv[1:], config.stages[1:]):
            self.stages.append(_Stage(src, conv_layer, stage.pool_width))
            src = self.stages[-1].out
        self.flat = src.reshape(batch, -1)
        self.hidden = np.empty((batch, config.hidden_units), dtype) if config.stages else None
        self.scores = np.empty((batch, config.num_classes), dtype)


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
    its first: a running maximum over the positions m, m + shift / g, ...
    of one pool block holds frame t's pooled output j at position
    t * hop / g + j * pool_width * shift / g, read through one strided
    view. Frames go batch_frames at a time, which bounds the working set
    whatever the signal length; a batch reuses the positions it shares
    with the one before. Each layer runs in place, in the buffers of the
    params' _ScorePlan for this hop and input kind.

    Without statistics, stage 0 runs in the params dtype, the bias added
    per position before pooling: rounding is monotone, so max(x + b) ==
    max(x) + b exactly. With them, the raw convolution W.x runs in
    float64, on the signal's rows widened as each batch gathers them;
    normalization is affine, so conv(normalized window) = (W.x - mean *
    sum(W)) / std + b, and for std > 0 max-pooling commutes with this map
    and pools the raw conv. A constant window (std == 0) normalizes to
    zeros, so its stage-0 output is the bias.
    """
    config = params.config
    x, hop, num_frames, std = np.asarray(framed.signal), framed.hop, framed.num_frames, framed.std
    if x.ndim != 2 or x.shape[1] != config.input_dim:
        raise ValueError(f"signal must be a T x {config.input_dim} matrix, got {x.shape}")
    scores = np.empty((num_frames, config.num_classes), dtype=np.float64)
    if not num_frames:
        return scores
    batch = batch_frames(config, params.hidden_weight.dtype)
    plan = params.score_plan
    if plan is None or plan.key != (hop, std is not None, batch):
        plan = params.score_plan = _ScorePlan(params, hop, std is not None, batch)
    layer, pw, step, stride, reach = plan.layer, plan.pool_width, plan.step, plan.stride, plan.reach
    conv, smax, act = plan.conv, plan.smax, plan.act
    weight = layer.weight.astype(conv.dtype, copy=False)
    windows = _window_view(np.ascontiguousarray(x)[None], layer.kernel_width, plan.g)[0]
    if std is not None:
        wsum = weight.sum(axis=1)
        bias = layer.bias.astype(np.float64)
        scale = np.where(std, std, 1.0)  # std == 0: reset below
        reset = std == 0.0
    lo = held = 0  # conv holds the positions lo .. lo + held - 1
    for a in range(0, num_frames, batch):
        b = min(a + batch, num_frames)
        n = b - a
        # the batch pools positions first .. hi - 1; those of the last
        # batch that it shares are kept, the rest computed after them
        first, hi = a * step, (b - 1) * step + reach
        keep = max(0, lo + held - first)
        conv[:keep] = conv[first - lo : first - lo + keep]
        fresh = plan.gathered[: hi - first - keep]
        np.copyto(fresh, windows[first + keep : hi])  # exact widening
        np.matmul(fresh, weight.T, out=conv[keep : hi - first])
        if std is None:
            conv[keep : hi - first] += layer.bias
        lo, held = first, hi - first
        if pw > 1:
            m = held - (pw - 1) * stride
            np.maximum(conv[:m], conv[stride : stride + m], out=smax[:m])
            for q in range(2, pw):
                np.maximum(smax[:m], conv[q * stride : q * stride + m], out=smax[:m])
        out = act[:n]
        if std is None:
            np.copyto(out, plan.pooled[:n])
        else:
            norm, offset = plan.normed[:n], plan.offset[:n]
            np.multiply(framed.mean[a:b, None, None], wsum, out=offset)
            np.subtract(plan.pooled[:n], offset, out=norm)
            np.divide(norm, scale[a:b, None, None], out=norm)
            np.add(norm, bias, out=out, casting="same_kind")  # rounded to dtype as it is stored
            if reset[a:b].any():
                out[reset[a:b]] = bias
        np.tanh(out, out=out)
        scores[a:b] = plan.head(n, params)
    return scores


def softmax_terms(scores):
    """(f - max, exp(f - max), row sum of the exponentials) over the last axis.

    The one place scores are shifted and exponentiated: softmax and the
    training loss are both built from these terms.
    """
    f = np.asarray(scores)
    shifted = f - f.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def softmax(scores):
    """Stable softmax over the last axis: exp(f - max) normalized per row."""
    _, e, total = softmax_terms(scores)
    return e / total


class _TrainStage(_Stage):
    """A filter stage of training steps, a batch of one window, with its
    backward buffers.

    `out`, given, and `dtanh` are the stage's views of the plan's tanh
    outputs and their derivatives; `dweight` and `dbias` are its views of
    the plan's gradient buffer. At pool width 1 the gradient of `conv` is
    `dpool`. Otherwise backward marks in `tie` every entry of a block
    equal to its maximum in `pmax`. Where each maximum is taken once,
    that mask is the winner; where some maximum ties, only the first
    equal entry keeps its mark (first maximum wins, as argmax picks it).
    The gradient is routed by one integer product of the bits of `dpool`
    and the mask, into the same view of `dconv`: the winner gets dpool's
    bits, -0.0 included, and every other entry +0.0, as a scatter into
    zeros writes them (a float product would write -0.0 where dpool < 0).
    Rows past the last full block are zeroed once, here, and never
    written.

    Only a stage after the first (`input_grad`) passes back its input
    gradient; the others build none of its buffers, and `din` is None.
    It sums, for each input frame, the rows of `dwin` (d loss / d
    windows) that cover it. Taps o = q * shift + p of conv frame j reach
    input frame (j + q) * shift + p, so with the kernel axis padded to a
    multiple of the shift, and zero rows around `dwin`, block m of
    `shift` input frames is the sum over q of padded row m - q, tap block
    q: one reduction over a strided view, in tap order.
    """

    def __init__(self, src, layer, pool_width, out, dtanh, dweight, dbias, input_grad):
        super().__init__(src, layer, pool_width, out)
        _n, t_in, d_in = src.shape
        kw, shift, d_out, dtype = layer.kernel_width, layer.shift, layer.out_dim, src.dtype
        t_conv, t_out = self.t_conv, self.t_out
        self.dtanh, self.dweight, self.dbias = dtanh, dweight, dbias
        self.dpool = np.empty((t_out, d_out), dtype)
        if pool_width == 1:
            self.dconv = self.dpool
        else:
            bits = np.dtype(f"i{dtype.itemsize}")
            self.window_blocks = self.conv[: t_out * pool_width].reshape(t_out, pool_width, d_out)
            self.pmax_row = self.pmax[0, :, None, :]
            self.tie = np.empty((t_out, pool_width, d_out), bool)
            self.seen = np.empty((t_out, d_out), bool)
            self.dpool_bits = self.dpool.view(bits)[:, None, :]
            self.dconv = np.zeros((t_conv, d_out), dtype)
            self.dconv_bits = self.dconv[: t_out * pool_width].view(bits).reshape(
                t_out, pool_width, d_out)
        # The zero rows of dconv add nothing to the bias gradient, except
        # to one channel: numpy sums a lone column pairwise, so the zeros
        # would regroup its terms.
        self.dbias_terms = self.dconv if d_out == 1 else self.dpool
        if not input_grad:
            self.din = None
            return
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

    def backward(self, dact):
        """Stage gradients into dweight/dbias; returns d loss / d stage input, or None."""
        dpool = self.dpool
        np.multiply(dact, self.dtanh, out=dpool)
        if self.pool_width > 1:
            tie = self.tie
            np.equal(self.window_blocks, self.pmax_row, out=tie)
            if np.count_nonzero(tie) != self.pmax.size:
                # keep each maximum's first equal entry only
                seen = self.seen
                np.copyto(seen, tie[:, 0])
                for q in range(1, self.pool_width):
                    np.greater(tie[:, q], seen, out=tie[:, q])
                    np.logical_or(seen, tie[:, q], out=seen)
            np.multiply(self.dpool_bits, tie, out=self.dconv_bits)
        np.dot(self.dconv.T, self.rows, out=self.dweight)
        np.add.reduce(self.dbias_terms, axis=0, out=self.dbias)
        if self.din is None:
            return None
        self.dwin_product(self.dconv, self.layer.weight, out=self.dwin)
        np.add.reduce(self.dwin_taps, axis=1, out=self.din_lanes)
        return self.din


class StepPlan(_Head):
    """Preallocated buffers for per-example SGD steps of one NetworkParams.

    forward_pass copies the window into `x` and runs the head on it as a
    batch of one, every stage and layer into the plan's own buffers, so
    a step allocates only the copy of its scores it returns. Gradients
    live in one flat array `grad` in serialization order (`slots` gives
    each tensor's slice), which backward_pass lends to the Gradients it
    returns; `lent` is a weak reference to the last one, so the next
    backward_pass copies it away only if a caller still holds it. `step`
    is sgd_step's buffer of the same layout. `act` holds every tanh
    output (each stage's `out`, then `hidden`), so backward_pass computes
    all their derivatives 1 - act**2 into `dtanh` in two calls. Every
    matmul and reduction has the operands, shapes and order of the plain
    array formulation (np.dot runs matmul's BLAS call), and pooling
    routes each gradient to the first maximum of its block, so steps are
    bit-for-bit those of conv/argmax-pool/put-along-axis code.
    `generation` counts forward passes; a cache from an earlier one is
    stale, because its activations have been overwritten.
    """

    def __init__(self, params):
        config = params.config
        self.dtype = params.flat.dtype
        self.generation = 0
        self.slots = tensor_slots(config)
        size = param_count(config)
        self.grad = np.empty(size, self.dtype)  # written by backward_pass
        self.lent = None
        self.step = np.empty(size, self.dtype)  # lr * gradient, in sgd_step
        grads = tensor_views(config, self.grad)
        self.x = np.empty((config.input_frames, config.input_dim), self.dtype)
        shapes = [(t_pool, stage.out_dim)
                  for (_t_conv, t_pool), stage in zip(config.frame_counts(), config.stages)]
        sizes = [t * d for t, d in shapes] + [config.hidden_units]
        cuts = np.cumsum(sizes)[:-1]
        self.act = np.empty(sum(sizes), self.dtype)  # every tanh output: stages', hidden's
        self.dtanh = np.empty(sum(sizes), self.dtype)  # 1 - act**2, in backward_pass
        *outs, hidden = np.split(self.act, cuts)
        *douts, self.dtanh_hidden = np.split(self.dtanh, cuts)
        self.stages = []
        src = self.x[None]
        for i, (layer, stage, shape) in enumerate(zip(params.conv, config.stages, shapes)):
            self.stages.append(_TrainStage(
                src, layer, stage.pool_width, outs[i].reshape(1, *shape), douts[i].reshape(shape),
                grads[f"stage{i}.weight"], grads[f"stage{i}.bias"], input_grad=i > 0,
            ))
            src = self.stages[-1].out
        self.flat = src.reshape(1, -1)
        self.hidden = hidden[None]
        self.scores = np.empty((1, config.num_classes), self.dtype)
        self.dh = np.empty(config.hidden_units, self.dtype)
        self.dflat = np.empty(self.flat.size, self.dtype)
        self.dlast = self.dflat.reshape(src.shape[1:])
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
    """The StepPlan of `params`, built on first use: it holds views of their tensors."""
    if params.plan is None:
        params.plan = StepPlan(params)
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

    Returns (scores, cache); scores is a fresh length-K vector of
    pre-softmax class scores. The computation dtype follows the parameter
    dtype. The step plan of `params` runs the window as a batch of one,
    and its activations stay there until its next forward_pass. The
    window may be the plan's own input buffer, `step_plan(params).x`,
    filled in place.
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
    return plan.head(1, params)[0].copy(), ForwardCache(params, plan)


def backward_pass(cache, params, dscores):
    """Exact gradients of a scalar loss given d loss / d scores.

    Returns the Gradients: tensor names (as in NetworkParams.named_tensors)
    mapped to arrays of matching shape, all views of one flat buffer
    `grads.flat`, the step plan's gradient buffer, which the next
    backward_pass on the plan copies away first if they are still held.
    dscores may be the plan's `doutput_bias`, filled in place
    (frame_loss's `out`). Max-pooling routes gradient only to the first
    maximum of each pool block. Every stage but the first passes back its
    input gradient; the window's is not computed.
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
    np.multiply(plan.doutput_col, plan.hidden, out=plan.doutput_weight)
    np.dot(params.output_weight.T, plan.doutput_bias, out=plan.dh)
    np.multiply(plan.act, plan.act, out=plan.dtanh)
    np.subtract(1.0, plan.dtanh, out=plan.dtanh)
    dpre = plan.dhidden_bias
    np.multiply(plan.dh, plan.dtanh_hidden, out=dpre)
    np.multiply(plan.dhidden_col, plan.flat, out=plan.dhidden_weight)
    np.dot(params.hidden_weight.T, dpre, out=plan.dflat)

    dact = plan.dlast
    for stage in reversed(plan.stages):
        dact = stage.backward(dact)
    grads = Gradients(plan, plan.grad)
    plan.lent = weakref.ref(grads)
    return grads
