"""Convolutional network over frame sequences, with hand-derived gradients.

The architecture is a fixed family: S filter stages (convolution over
kW-frame windows with shift dW, non-overlapping temporal max-pooling,
tanh), a frame-major flatten, one tanh hidden layer, and a linear output
producing one score per class. Training runs in float32; gradient checks
cast everything to float64 first.
"""

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


def param_count(config):
    """Exact number of scalar parameters (weights and biases) in a config."""
    total = 0
    d_in = config.input_dim
    for stage in config.stages:
        total += stage.out_dim * (stage.kernel_width * d_in) + stage.out_dim
        d_in = stage.out_dim
    flat = config.flattened_size()
    total += config.hidden_units * flat + config.hidden_units
    total += config.num_classes * config.hidden_units + config.num_classes
    return total


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
    that they no longer match the parameters that produced them.
    """

    def __init__(self, config, conv, hidden_weight, hidden_bias, output_weight, output_bias):
        self.config = config
        self.conv = conv
        self.hidden_weight = hidden_weight
        self.hidden_bias = hidden_bias
        self.output_weight = output_weight
        self.output_bias = output_bias
        self.version = 0

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
        return NetworkParams(
            self.config,
            [
                ConvLayerParams(l.weight.copy(), l.bias.copy(), l.kernel_width, l.shift)
                for l in self.conv
            ],
            self.hidden_weight.copy(),
            self.hidden_bias.copy(),
            self.output_weight.copy(),
            self.output_bias.copy(),
        )

    def astype(self, dtype):
        p = NetworkParams(
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
        return p


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


def stage_forward(x, layer, pool_width, cache=None):
    """One filter stage over a batch: convolution, max-pooling, tanh.

    x is (N, T, d_in); returns (N, T'', d_out). The same linear map is
    applied to each kW-frame window, stepping by dW over fully valid
    positions only; the T' conv frames are max-pooled in non-overlapping
    blocks of pool_width, then squashed. Given the ForwardCache of a
    single window (N = 1, the training path), the stage records what
    backward_pass needs: its conv windows, conv frame count, pool winner
    offsets (via maxpool_forward) and output. Without one, inference
    takes the block maxima only.
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
    if cache is None:
        return np.tanh(_pool_blocks(conv, pool_width).max(axis=-2))
    pooled, arg = maxpool_forward(conv, pool_width)
    out = np.tanh(pooled)
    cache.stage_windows.append(windows[0])
    cache.stage_conv_frames.append(conv.shape[1])
    cache.stage_pool_arg.append(arg[0])
    cache.stage_tanh_out.append(out[0])
    return out


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


def softmax(scores):
    """Stable softmax over the last axis: exp(f - max) normalized per row."""
    f = np.asarray(scores)
    shifted = f - f.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class ForwardCache:
    """Activations retained by forward_pass for the matching backward_pass."""

    __slots__ = (
        "params",
        "params_version",
        "x",
        "stage_windows",
        "stage_conv_frames",
        "stage_pool_arg",
        "stage_tanh_out",
        "flat",
        "hidden_out",
    )

    def __init__(self, params):
        self.params = params
        self.params_version = params.version
        self.stage_windows = []
        self.stage_conv_frames = []
        self.stage_pool_arg = []
        self.stage_tanh_out = []


def forward_pass(window, params):
    """Run the full network on one input window.

    Returns (scores, cache); scores is a length-K vector of pre-softmax
    class scores. The computation dtype follows the parameter dtype.
    """
    config = params.config
    x = np.asarray(window)
    if x.shape != (config.input_frames, config.input_dim):
        raise ValueError(
            f"window shape {x.shape} != expected "
            f"({config.input_frames}, {config.input_dim})"
        )
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
    """Exact gradients of a scalar loss given d loss / d scores.

    Returns (grads, d_input) where grads maps tensor names (as in
    NetworkParams.named_tensors) to arrays of matching shape. Max-pooling
    routes gradient only to the recorded argmax positions. Raises if the
    cache does not belong to `params` at its current version.
    """
    if cache.params is not params or cache.params_version != params.version:
        raise ValueError("stale or mismatched forward cache for these parameters")
    config = params.config
    ds = np.asarray(dscores, dtype=params.hidden_weight.dtype)
    if ds.shape != (config.num_classes,):
        raise ValueError(f"dscores must have shape ({config.num_classes},)")

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
