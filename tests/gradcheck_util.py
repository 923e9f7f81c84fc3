"""Shared helpers for gradient checking of the network."""

import numpy as np

from rawphone.net import NetworkConfig, StageConfig, backward_pass, forward_pass, init_params
from rawphone.training import frame_loss

from oracles import max_rel_error, numeric_gradient_inplace


def random_small_config(rng, max_stages=3, max_out_dim=8, max_window=64, input_dim=1):
    """Feasible small architecture drawn uniformly-ish at random."""
    while True:
        window = int(rng.integers(4, max_window + 1))
        num_stages = int(rng.integers(1, max_stages + 1))
        stages = []
        t = window
        ok = True
        for _ in range(num_stages):
            kw = int(rng.integers(1, min(t, 6) + 1))
            dw = int(rng.integers(1, 4))
            t_conv = (t - kw) // dw + 1
            if t_conv < 1:
                ok = False
                break
            pool = int(rng.integers(1, min(t_conv, 3) + 1))
            t = t_conv // pool
            if t < 1:
                ok = False
                break
            stages.append(StageConfig(kw, dw, int(rng.integers(1, max_out_dim + 1)), pool))
        if not ok:
            continue
        return NetworkConfig(
            input_frames=window,
            input_dim=input_dim,
            stages=tuple(stages),
            hidden_units=int(rng.integers(2, 13)),
            num_classes=int(rng.integers(2, 9)),
        )


def check_config_gradients(config, seed, eps=1e-4, floor=1e-6):
    """Analytic vs central-difference gradients, float64 throughout.

    Returns {tensor name: max relative error}.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params = init_params(config, seed, dtype=np.float64)
    window = rng.normal(size=(config.input_frames, config.input_dim))
    target = int(rng.integers(config.num_classes))

    scores, cache = forward_pass(window, params)
    analytic = backward_pass(cache, params, frame_loss(scores, target)[1])

    def loss():
        s, _ = forward_pass(window, params)
        return frame_loss(s, target)[0]

    errors = {}
    for name, tensor in params.named_tensors():
        numeric = numeric_gradient_inplace(tensor, loss, eps)
        errors[name] = max_rel_error(analytic[name], numeric, floor)
    return errors
