"""The step plan against the per-call SGD step it replaced: bit for bit."""

import numpy as np
import pytest

from rawphone.net import NetworkConfig, StageConfig, backward_pass, forward_pass, init_params
from rawphone.training import frame_log_likelihood, loglik_score_gradient, sgd_step

import oracles
from gradcheck_util import random_small_config

TRAIN_RAW = NetworkConfig(
    1600, 1, (StageConfig(160, 10, 30, 3), StageConfig(5, 1, 30, 3), StageConfig(9, 1, 30, 3)),
    100, 5,
)
FEAT39 = NetworkConfig(9, 39, (StageConfig(3, 1, 30, 1),), 100, 39)
NO_STAGE = NetworkConfig(12, 2, (), 7, 4)


def plan_step(window, target, params, lr):
    scores, cache = forward_pass(window, params)
    ll = frame_log_likelihood(scores, target)
    grads, _ = backward_pass(
        cache, params, loglik_score_gradient(scores, target), compute_input_grad=False
    )
    sgd_step(params, grads, lr)
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


@pytest.mark.parametrize("draw", range(5))
def test_input_gradient_bit_identical(draw):
    rng = np.random.default_rng(200 + draw)
    config = random_small_config(rng, input_dim=int(rng.integers(1, 3)))
    params = init_params(config, draw, dtype=np.float64)
    window = rng.normal(size=(config.input_frames, config.input_dim))
    scores, cache = forward_pass(window, params)
    grads, dx = backward_pass(cache, params, loglik_score_gradient(scores, 0))
    ref_scores, ref_cache = oracles.forward_pass(window, params)
    ref_grads, ref_dx = oracles.backward_pass(ref_cache, params, loglik_score_gradient(scores, 0))
    assert scores.tobytes() == ref_scores.tobytes()
    assert dx.tobytes() == ref_dx.tobytes()
    for name in ref_grads:
        assert grads[name].tobytes() == ref_grads[name].tobytes(), name


def test_gradients_share_one_flat_buffer_in_serialization_order():
    params = init_params(FEAT39, 0)
    scores, cache = forward_pass(np.ones((9, 39)), params)
    grads, _ = backward_pass(cache, params, loglik_score_gradient(scores, 2))
    packed = np.concatenate([grads[name].ravel() for name, _ in params.named_tensors()])
    assert packed.tobytes() == grads.flat.tobytes()


def test_gradients_stay_valid_after_later_backward_pass():
    params = init_params(NO_STAGE, 0)
    rng = np.random.default_rng(1)
    s1, c1 = forward_pass(rng.normal(size=(12, 2)), params)
    g1, _ = backward_pass(c1, params, loglik_score_gradient(s1, 0))
    kept = g1.flat.copy()
    s2, c2 = forward_pass(rng.normal(size=(12, 2)), params)
    backward_pass(c2, params, loglik_score_gradient(s2, 1))
    assert g1.flat.tobytes() == kept.tobytes()


class TestStaleCache:
    def test_cache_overwritten_by_later_forward_rejected(self):
        params = init_params(TRAIN_RAW, 0)
        rng = np.random.default_rng(2)
        s1, c1 = forward_pass(rng.normal(size=(1600, 1)), params)
        s2, c2 = forward_pass(rng.normal(size=(1600, 1)), params)
        with pytest.raises(ValueError, match="stale"):
            backward_pass(c1, params, loglik_score_gradient(s1, 0))
        backward_pass(c2, params, loglik_score_gradient(s2, 0))

    @pytest.mark.parametrize("other", ["copy", "float64"])
    def test_other_params_keep_their_own_plan(self, other):
        a = init_params(FEAT39, 0)
        b = a.copy() if other == "copy" else a.astype(np.float64)
        sa, ca = forward_pass(np.ones((9, 39)), a)
        forward_pass(np.zeros((9, 39)), b)
        g1, _ = backward_pass(ca, a, loglik_score_gradient(sa, 0))
        sa, ca = forward_pass(np.ones((9, 39)), a)
        g2, _ = backward_pass(ca, a, loglik_score_gradient(sa, 0))
        assert g1.flat.tobytes() == g2.flat.tobytes()

    def test_backward_twice_on_one_cache_is_repeatable(self):
        params = init_params(TRAIN_RAW, 3)
        scores, cache = forward_pass(np.random.default_rng(3).normal(size=(1600, 1)), params)
        g1, _ = backward_pass(cache, params, loglik_score_gradient(scores, 1))
        g2, _ = backward_pass(cache, params, loglik_score_gradient(scores, 1))
        assert g1.flat.tobytes() == g2.flat.tobytes()
