#!/usr/bin/env python3
"""End to end on synthetic tones: generate, train, decode, score.

Builds a small tone-phoneme corpus with a biased bigram (class k is
followed by class (k+1) mod K ten times more often than by others),
trains the conv net on raw 50 ms windows, then compares the three
decoders. Runs in about a minute on one core.
"""

import time

import numpy as np

from rawphone.corpus import (
    SynthSpec,
    build_frame_dataset,
    collect_alphabet,
    cycle_bias,
    synth_corpus,
)
from rawphone.crf import train_transitions
from rawphone.decoding import decode_utterances, decoder
from rawphone.net import NetworkConfig, StageConfig, param_count, score_frames
from rawphone.scoring import collapse_path, corpus_report
from rawphone.training import TrainConfig, train_network

HOP = 160  # 10 ms at 16 kHz

spec = SynthSpec(noise_sigma=0.5, bigram_bias=cycle_bias(5, 10.0),
                 segments_range=(6, 10), duration_ms=(60.0, 140.0), seed=0)
train_utts, cv_utts, test_utts = synth_corpus(spec, 120, 25, 30)
alphabet = collect_alphabet(train_utts)
print(f"corpus: {len(train_utts)} train / {len(cv_utts)} cv / {len(test_utts)} test, "
      f"classes {alphabet}, tone noise sigma {spec.noise_sigma}")

config = NetworkConfig(
    input_frames=800, input_dim=1,
    stages=(StageConfig(80, 10, 16, 3), StageConfig(5, 1, 16, 3), StageConfig(3, 1, 16, 2)),
    hidden_units=64, num_classes=len(alphabet),
)
print(f"network: 50 ms window, stages -> {config.frame_counts()}, "
      f"{param_count(config):,} parameters")

train_set = build_frame_dataset(train_utts, config.input_frames, HOP, alphabet)
cv_set = build_frame_dataset(cv_utts, config.input_frames, HOP, alphabet)
t0 = time.time()
best, history = train_network(
    train_set, cv_set, config,
    TrainConfig(learning_rate=3e-4, max_epochs=5, patience=5, seed=0),
)
print(f"trained {len(history)} epochs in {time.time() - t0:.0f}s; "
      f"cv frame accuracy per epoch: {[round(h[2], 1) for h in history]}")


# CRF transitions trained on the frozen network's training emissions, scored
# from the utterances as the training set framed them
crf_data = [(score_frames(framed, best), labels) for framed, labels in train_set.by_utterance()]
transitions = train_transitions(crf_data, len(alphabet), lr=0.05, epochs=10).transitions
print("learned transition matrix (rounded):")
print(np.round(transitions, 2))

print()
print("test phoneme accuracy (corpus-pooled):")
for name in ("argmax", "hmm", "crf"):
    decode = decoder(name, alphabet, transitions, min_duration=3)
    hyps = decode_utterances(test_utts, best, HOP, decode)
    _rows, accuracy = corpus_report(
        (u.id, collapse_path(u.annotation.labels()), hyp) for u, hyp in zip(test_utts, hyps)
    )
    print(f"  {name:<6} {accuracy:6.2f}%")
