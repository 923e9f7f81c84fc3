#!/usr/bin/env python3
"""Linear-chain CRF over emission scores, checked against enumeration.

On a tiny instance every one of the K^T label paths can be listed, so
the forward recursion (log partition), Viterbi, and forward-backward
marginals are all compared against the brute-force answer. Then the
transition matrix is trained on toy sequences with a strong bigram
pattern and decodes accordingly.
"""

import itertools

import numpy as np

from rawphone.crf import (
    crf_log_likelihood,
    forward_backward,
    log_partition,
    path_score,
    train_transitions,
    viterbi,
)

emissions = np.array([[1.0, 0.0], [0.0, 1.0]])
transitions = np.array([[0.5, -0.5], [-0.5, 0.5]])

print("== all paths of a 2-frame, 2-class instance ==")
for y in itertools.product(range(2), repeat=2):
    print(f"path {list(y)}: score {path_score(emissions, transitions, list(y)):+.3f}")
scores = [path_score(emissions, transitions, list(y))
          for y in itertools.product(range(2), repeat=2)]
brute = np.logaddexp.reduce(scores)
print(f"log partition: recursion {log_partition(emissions, transitions):.6f} "
      f"vs enumeration {brute:.6f}")
print(f"log p(y=[0,1]) = {crf_log_likelihood(emissions, transitions, [0, 1]):.6f}")

best, best_score = viterbi(emissions, transitions)
print(f"viterbi: path {best.tolist()} score {best_score:.3f}")

node, pairwise = forward_backward(emissions, transitions)
print("node marginals (rows sum to 1):")
print(np.round(node, 4))

print()
print("== training transitions on a biased toy corpus ==")
# labels always cycle 0 -> 1 -> 0 -> ...; emissions carry almost no signal
rng = np.random.default_rng(0)
dataset = []
for _ in range(40):
    path = np.arange(12) % 2
    dataset.append((rng.normal(scale=0.1, size=(12, 2)), path))
result = train_transitions(dataset, num_classes=2, lr=0.2, epochs=10)
print("learned transition scores A[to, from]:")
print(np.round(result.transitions, 3))
print("objective (mean log-likelihood - L2 term) per iteration:",
      " ".join(f"{f:.2f}" for _i, f in result.history))

noisy = rng.normal(scale=0.1, size=(10, 2))
flat_path, _ = viterbi(noisy, np.zeros((2, 2)))
bigram_path, _ = viterbi(noisy, result.transitions)
print("uninformative emissions, untrained A:", flat_path.tolist())
print("same emissions, trained A:           ", bigram_path.tolist(),
      "(alternation learned from the data)")
