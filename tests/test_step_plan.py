"""The step plan against the per-call SGD step it replaced: bit for bit."""

import tracemalloc

import numpy as np
import pytest

from rawphone.net import (
    NetworkConfig,
    NetworkParams,
    StageConfig,
    backward_pass,
    forward_pass,
    init_params,
    param_count,
    step_plan,
    tensor_shapes,
    tensor_slots,
)
from rawphone.errors import DivergenceError
from rawphone.training import frame_loss, sgd_step

import oracles
from gradcheck_util import random_small_config

TRAIN_RAW = NetworkConfig(
    1600, 1, (StageConfig(160, 10, 30, 3), StageConfig(5, 1, 30, 3), StageConfig(9, 1, 30, 3)),
    100, 5,
)
FEAT39 = NetworkConfig(9, 39, (StageConfig(3, 1, 30, 1),), 100, 39)
SMALL_POOLED = NetworkConfig(40, 1, (StageConfig(2, 1, 3, 2), StageConfig(3, 1, 4, 3)), 6, 4)
NO_STAGE = NetworkConfig(12, 2, (), 7, 4)


def plan_step(window, target, params, lr):
    """One step as train_network takes it: dscores written into the plan, and
    the gradients passed straight to sgd_step."""
    scores, cache = forward_pass(window, params)
    dscores = step_plan(params).doutput_bias
    ll, _ = frame_loss(scores, target, dscores)
    sgd_step(params, backward_pass(cache, params, dscores), lr)
    return ll


def assert_same_bytes(a, b):
    for (name, x), (_, y) in zip(a.named_tensors(), b.named_tensors()):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def run_both(config, steps, lr, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    params = init_params(config, seed, dtype=dtype)
    reference = params.copy()
    for _ in range(steps):
        window = rng.normal(size=(config.input_frames, config.input_dim)).astype(dtype)
        target = int(rng.integers(config.num_classes))
        assert plan_step(window, target, params, lr) == oracles.reference_step(
            window, target, reference, lr
        )
        assert_same_bytes(params, reference)


@pytest.mark.parametrize(
    "config,steps,lr",
    [(TRAIN_RAW, 40, 1e-2), (FEAT39, 60, 1e-2), (NO_STAGE, 60, 5e-2)],
    ids=["train_raw", "feat39", "no_stage"],
)
def test_steps_bit_identical_to_per_call_step(config, steps, lr):
    run_both(config, steps, lr)


@pytest.mark.parametrize("draw", range(10))
def test_random_small_configs_bit_identical(draw):
    rng = np.random.default_rng(100 + draw)
    config = random_small_config(rng, input_dim=int(rng.integers(1, 3)))
    run_both(config, 30, 0.1, seed=draw)


@pytest.mark.parametrize("config", [TRAIN_RAW, FEAT39], ids=["train_raw", "feat39"])
def test_float64_steps_bit_identical(config):
    run_both(config, 20, 1e-2, dtype=np.float64)


def assert_input_gradient_bit_identical(config, rng, seed, dtype=np.float64):
    """Scores and gradients equal the oracle's bytes: every stage after the
    first reaches the gradients of the stage before through its input gradient."""
    params = init_params(config, seed, dtype=dtype)
    window = rng.normal(size=(config.input_frames, config.input_dim)).astype(dtype)
    scores, cache = forward_pass(window, params)
    grads = backward_pass(cache, params, frame_loss(scores, 0)[1])
    ref_scores, ref_cache = oracles.forward_pass(window, params)
    ref_grads, _ = oracles.backward_pass(ref_cache, params, frame_loss(scores, 0)[1])
    assert scores.tobytes() == ref_scores.tobytes()
    for name in ref_grads:
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name


@pytest.mark.parametrize("draw", range(5))
def test_input_gradient_bit_identical(draw):
    rng = np.random.default_rng(200 + draw)
    config = random_small_config(rng, input_dim=int(rng.integers(1, 3)))
    assert_input_gradient_bit_identical(config, rng, draw)


# One stage per path of the step plan, each on the raw input (d_in = 1), and
# after a stage that feeds it d_in = 3 channels or one. Only a stage after
# another computes its input gradient, so the one-channel first stage is
# what takes a shift-1 stage's input gradient through its two-lane sum.
FIRST_STAGES = {
    "raw_input": None,
    "after_stage": StageConfig(2, 1, 3, 1),
    "after_one_channel": StageConfig(2, 1, 1, 1),
}
STAGE_PATHS = {
    "pool1_kernel1": StageConfig(1, 1, 4, 1),
    "shift1_kernel5": StageConfig(5, 1, 4, 2),
    "shift2_kernel5": StageConfig(5, 2, 4, 1),
    "shift3_kernel3": StageConfig(3, 3, 4, 2),  # shift >= kernel: taps never overlap
    "shift4_kernel2": StageConfig(2, 4, 4, 1),  # and input frames between windows
    # a lone channel: numpy sums one column pairwise, so the bias gradient
    # must come from the conv gradient, zeros included
    "one_channel_pool3": StageConfig(3, 1, 1, 3),
    # one tap per reduced row (shift 1, d_in 1): the input gradient needs a
    # second lane to be summed in tap order once there are 8 or more taps
    "shift1_kernel9": StageConfig(9, 1, 4, 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("first", list(FIRST_STAGES))
@pytest.mark.parametrize("path", sorted(STAGE_PATHS))
def test_each_stage_path_bit_identical(path, first, dtype):
    stage = STAGE_PATHS[path]
    stages = (stage,) if FIRST_STAGES[first] is None else (FIRST_STAGES[first], stage)
    config = NetworkConfig(40, 1, stages, 6, 4)
    assert_input_gradient_bit_identical(config, np.random.default_rng(7), 7, dtype)
    run_both(config, 12, 0.1, seed=7, dtype=dtype)


# Windows whose conv frames tie at a pool block's maximum, so that only
# the first equal entry may take the gradient: silence (every frame of a
# stage equal), values quantized to integers (repeated windows), and
# constant runs longer than a kernel and a pool block. The tests' kernels
# have two equal taps, so windows [x, y] and [y, x] tie too: their
# gradients differ, and only the first maximum gives the oracle's bytes.
TIE_WINDOWS = {
    "silent": lambda rng, t: np.zeros((t, 1)),
    "integers": lambda rng, t: rng.integers(-1, 2, size=(t, 1)).astype(float),
    "constant_runs": lambda rng, t: np.repeat(rng.normal(size=(-(-t // 9), 1)), 9, axis=0)[:t],
}


def pool_ties(window, params):
    """How many pool maxima of the oracle's forward pass are taken more than once."""
    _, cache = oracles.forward_pass(window, params)
    ties = 0
    for i, (layer, stage) in enumerate(zip(params.conv, params.config.stages)):
        conv = cache.stage_windows[i] @ layer.weight.T + layer.bias
        blocks = oracles._pool_blocks(conv, stage.pool_width)
        ties += int(((blocks == blocks.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    return ties


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("windows", list(TIE_WINDOWS))
@pytest.mark.parametrize("pool_width", [2, 3, 4])
def test_pool_ties_give_the_first_maximum_bit_for_bit(pool_width, windows, dtype):
    stages = (StageConfig(2, 1, 3, pool_width), StageConfig(2, 1, 4, pool_width))
    config = NetworkConfig(40, 1, stages, 6, 4)
    rng = np.random.default_rng(pool_width)
    params = init_params(config, pool_width, dtype=dtype)
    reference = params.copy()
    ties = 0
    for _ in range(12):
        for p in (params, reference):
            for layer in p.conv:
                taps = np.split(layer.weight, 2, axis=1)
                taps[1][...] = taps[0]
        window = TIE_WINDOWS[windows](rng, 40).astype(dtype)
        target = int(rng.integers(config.num_classes))
        ties += pool_ties(window, reference)
        assert plan_step(window, target, params, 0.1) == oracles.reference_step(
            window, target, reference, 0.1
        )
        assert_same_bytes(params, reference)
    assert ties > 0


@pytest.mark.parametrize("config", [TRAIN_RAW, SMALL_POOLED], ids=["train_raw", "small"])
def test_nan_window_raises_before_any_update(config):
    params = init_params(config, 0)
    before = params.flat.copy()
    window = np.random.default_rng(6).normal(size=(config.input_frames, 1)).astype(np.float32)
    window[config.input_frames // 3] = np.nan
    with pytest.raises(DivergenceError, match="non-finite gradient"):
        plan_step(window, 0, params, 1e-2)
    assert params.flat.tobytes() == before.tobytes()


def test_first_stage_builds_no_input_gradient_buffers():
    params = init_params(TRAIN_RAW, 0)
    first, *later = step_plan(params).stages
    assert first.din is None and all(stage.din is not None for stage in later)
    for name in ("dwin", "dwin_taps", "din_lanes"):
        assert not hasattr(first, name) and all(hasattr(stage, name) for stage in later), name
    run_both(TRAIN_RAW, 5, 1e-2)


def test_gradients_share_one_flat_buffer_in_serialization_order():
    params = init_params(FEAT39, 0)
    scores, cache = forward_pass(np.ones((9, 39)), params)
    grads = backward_pass(cache, params, frame_loss(scores, 2)[1])
    packed = np.concatenate([grads[name].ravel() for name, _ in params.named_tensors()])
    assert packed.tobytes() == grads.flat.tobytes()


def test_gradients_stay_valid_after_later_backward_pass():
    params = init_params(NO_STAGE, 0)
    rng = np.random.default_rng(1)
    s1, c1 = forward_pass(rng.normal(size=(12, 2)), params)
    g1 = backward_pass(c1, params, frame_loss(s1, 0)[1])
    kept = g1.flat.copy()
    s2, c2 = forward_pass(rng.normal(size=(12, 2)), params)
    backward_pass(c2, params, frame_loss(s2, 1)[1])
    assert g1.flat.tobytes() == kept.tobytes()


@pytest.mark.parametrize("config", [SMALL_POOLED, NO_STAGE], ids=["small_pooled", "no_stage"])
def test_scores_stay_valid_after_later_forward_and_backward_pass(config):
    params = init_params(config, 0)
    rng = np.random.default_rng(2)
    shape = (config.input_frames, config.input_dim)
    held, _ = forward_pass(rng.normal(size=shape), params)
    kept = held.copy()
    scores, cache = forward_pass(rng.normal(size=shape), params)
    assert scores.tobytes() != kept.tobytes()
    backward_pass(cache, params, frame_loss(scores, 1)[1])
    assert held.tobytes() == kept.tobytes()


class TestLentGradients:
    """backward_pass lends the plan's gradient buffer, copied away only if still held."""

    def backward(self, params, rng):
        """(gradients of a fresh window, peak bytes their backward_pass allocated)."""
        scores, cache = forward_pass(rng.normal(size=(1600, 1)), params)
        dscores = frame_loss(scores, 0)[1]
        tracemalloc.start()
        try:
            grads = backward_pass(cache, params, dscores)
            return grads, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_held_gradients_are_copied_away_before_the_buffer_is_overwritten(self):
        params, rng = init_params(TRAIN_RAW, 0), np.random.default_rng(4)
        plan = step_plan(params)
        held, _ = self.backward(params, rng)
        assert held.flat is plan.grad
        kept = held.flat.copy()
        later, allocated = self.backward(params, rng)
        assert held.flat.tobytes() == kept.tobytes()
        assert not np.shares_memory(held.flat, plan.grad)
        assert later.flat is plan.grad
        assert allocated >= plan.grad.nbytes

    def test_released_gradients_are_not_copied(self):
        params, rng = init_params(TRAIN_RAW, 0), np.random.default_rng(5)
        plan = step_plan(params)
        self.backward(params, rng)
        grads, allocated = self.backward(params, rng)
        assert grads.flat is plan.grad
        assert allocated < plan.grad.nbytes  # its own temporaries only


class TestStaleCache:
    def test_cache_overwritten_by_later_forward_rejected(self):
        params = init_params(TRAIN_RAW, 0)
        rng = np.random.default_rng(2)
        s1, c1 = forward_pass(rng.normal(size=(1600, 1)), params)
        s2, c2 = forward_pass(rng.normal(size=(1600, 1)), params)
        with pytest.raises(ValueError, match="stale"):
            backward_pass(c1, params, frame_loss(s1, 0)[1])
        backward_pass(c2, params, frame_loss(s2, 0)[1])

    @pytest.mark.parametrize("other", ["copy", "float64"])
    def test_other_params_keep_their_own_plan(self, other):
        a = init_params(FEAT39, 0)
        b = a.copy() if other == "copy" else a.astype(np.float64)
        sa, ca = forward_pass(np.ones((9, 39)), a)
        forward_pass(np.zeros((9, 39)), b)
        g1 = backward_pass(ca, a, frame_loss(sa, 0)[1])
        sa, ca = forward_pass(np.ones((9, 39)), a)
        g2 = backward_pass(ca, a, frame_loss(sa, 0)[1])
        assert g1.flat.tobytes() == g2.flat.tobytes()

    def test_backward_twice_on_one_cache_is_repeatable(self):
        params = init_params(TRAIN_RAW, 3)
        scores, cache = forward_pass(np.random.default_rng(3).normal(size=(1600, 1)), params)
        g1 = backward_pass(cache, params, frame_loss(scores, 1)[1])
        g2 = backward_pass(cache, params, frame_loss(scores, 1)[1])
        assert g1.flat.tobytes() == g2.flat.tobytes()


class TestFlatParameters:
    def test_flat_holds_every_tensor_in_serialization_order(self):
        params = init_params(TRAIN_RAW, 0)
        named = params.named_tensors()
        assert [(n, t.shape) for n, t in named] == tensor_shapes(TRAIN_RAW)
        packed = np.concatenate([t.ravel() for _n, t in named])
        assert packed.tobytes() == params.flat.tobytes()
        for name, tensor in named:
            assert tensor.flags.writeable and np.shares_memory(tensor, params.flat), name

    def test_writes_through_tensor_views_reach_flat(self):
        params = init_params(FEAT39, 0)
        params.conv[0].bias[1] = 5.0
        params.output_weight[...] = 0.0
        a, _b, _shape = tensor_slots(FEAT39)["stage0.bias"]
        assert params.flat[a + 1] == 5.0
        a, b, _shape = tensor_slots(FEAT39)["output.weight"]
        assert not params.flat[a:b].any()

    @pytest.mark.parametrize("dtype", [None, np.float32, np.float64])
    def test_copy_and_astype_own_fresh_buffers(self, dtype):
        params = init_params(FEAT39, 0)
        other = params.copy() if dtype is None else params.astype(dtype)
        assert other.flat.dtype == (dtype or np.float32)
        assert np.array_equal(other.flat, params.flat)
        assert not np.shares_memory(other.flat, params.flat)
        for (_n, t), (_m, u) in zip(other.named_tensors(), params.named_tensors()):
            assert np.shares_memory(t, other.flat) and not np.shares_memory(t, u)
        before = params.flat.copy()
        other.flat += 1.0
        assert params.flat.tobytes() == before.tobytes()

    def test_flat_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="flat parameters"):
            NetworkParams(FEAT39, np.zeros(param_count(FEAT39) - 1, np.float32))
