#!/usr/bin/env python3
"""The conv/pool/tanh network: shapes, parameter counts, exact gradients.

Walks the reference raw-waveform architecture (270 ms window, three
filter stages, 90 filters, 500 hidden units) through its shape algebra,
then verifies the hand-derived backward pass against central finite
differences on a small random network with `training.gradient_errors`,
the comparison `rawphone check-grad` runs.
"""

import numpy as np

from rawphone.net import NetworkConfig, StageConfig, init_params, param_count
from rawphone.training import gradient_errors

print("== reference raw-input architecture ==")
config = NetworkConfig(
    input_frames=4320,  # 270 ms at 16 kHz
    input_dim=1,
    stages=(
        StageConfig(kernel_width=10, shift=10, out_dim=90, pool_width=3),
        StageConfig(kernel_width=5, shift=1, out_dim=90, pool_width=3),
        StageConfig(kernel_width=9, shift=1, out_dim=90, pool_width=3),
    ),
    hidden_units=500,
    num_classes=40,
)
t = config.input_frames
print(f"input: {t} samples")
for i, (after_conv, after_pool) in enumerate(config.frame_counts()):
    s = config.stages[i]
    print(f"stage {i}: conv(kW={s.kernel_width}, dW={s.shift}) -> {after_conv} frames, "
          f"pool({s.pool_width}) -> {after_pool} frames x {s.out_dim} dims")
print(f"flattened classifier input: {config.flattened_size()}")
print(f"total parameters: {param_count(config):,}")

print()
print("== gradient check on a small random network ==")
small = NetworkConfig(
    input_frames=32, input_dim=1,
    stages=(StageConfig(5, 2, 4, 2), StageConfig(3, 1, 4, 2)),
    hidden_units=8, num_classes=4,
)
params = init_params(small, seed=0, dtype=np.float64)
rng = np.random.default_rng(0)
window = rng.normal(size=(32, 1))
target = 2

errors = gradient_errors(params, window, target, 1e-4)
for name, tensor in params.named_tensors():
    print(f"{name:<16} {tensor.size:>5} params   max rel err {errors[name]:.2e}")
