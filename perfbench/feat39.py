"""Seeded 39-class, 39-dimensional feature corpus for the `feat39` workload.

Shaped like the MFCC baseline (13 cepstra plus deltas and double deltas
per frame, one label per phoneme class): each class has a fixed mean
vector and each frame is that mean plus Gaussian noise. An utterance is
30-40 segments of 3-15 frames with no class repeated back to back, so
references are 30-40 phonemes long.

Files follow rawphone's documented formats: headerless little-endian
float32 frame-major T x 39 matrices (`feat/<id>.bin`), frame-unit label
files (`labels/<id>.txt`, `start end label` per line) and one JSON-lines
manifest per split (`<split>.jsonl`).

Every utterance draws from SeedSequence([seed, split_index,
utterance_index]); the class means draw from SeedSequence([seed, 3]).
The first training utterance visits every class once in a seeded order,
so the alphabet collected from the training split always has all 39.
"""

import json
from pathlib import Path

import numpy as np

NUM_CLASSES = 39
FEATURE_DIM = 39
SEGMENTS = (30, 40)
SEGMENT_FRAMES = (3, 15)
MEAN_SCALE = 1.0
NOISE_SIGMA = 1.0
SPLITS = ("train", "cv", "test")


def class_label(k):
    return f"p{k:02d}"


def _class_means(seed):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, len(SPLITS)])))
    return rng.normal(0.0, MEAN_SCALE, size=(NUM_CLASSES, FEATURE_DIM))


def _class_sequence(rng, cover_all):
    if cover_all:
        return [int(k) for k in rng.permutation(NUM_CLASSES)]
    n = int(rng.integers(SEGMENTS[0], SEGMENTS[1] + 1))
    classes = [int(rng.integers(NUM_CLASSES))]
    while len(classes) < n:
        # draw from the K-1 classes other than the previous one
        k = int(rng.integers(NUM_CLASSES - 1))
        classes.append(k + (k >= classes[-1]))
    return classes


def _utterance(means, rng, cover_all):
    blocks, segments, cursor = [], [], 0
    for k in _class_sequence(rng, cover_all):
        n = int(rng.integers(SEGMENT_FRAMES[0], SEGMENT_FRAMES[1] + 1))
        blocks.append(means[k] + rng.normal(0.0, NOISE_SIGMA, size=(n, FEATURE_DIM)))
        segments.append((cursor, cursor + n, class_label(k)))
        cursor += n
    return np.concatenate(blocks).astype("<f4"), segments


def write_feature_corpus(out_dir, counts, seed):
    """Write the splits named in `counts` ({split: n}) under out_dir.

    Returns {split: manifest path}.
    """
    out = Path(out_dir)
    (out / "feat").mkdir(parents=True, exist_ok=True)
    (out / "labels").mkdir(parents=True, exist_ok=True)
    means = _class_means(seed)
    manifests = {}
    for split_idx, split in enumerate(SPLITS):
        rows = []
        for i in range(counts[split]):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, split_idx, i])))
            feats, segments = _utterance(means, rng, cover_all=(split == "train" and i == 0))
            utt_id = f"{split}-{i:04d}"
            feats.tofile(out / "feat" / f"{utt_id}.bin")
            (out / "labels" / f"{utt_id}.txt").write_text(
                "".join(f"{s} {e} {label}\n" for s, e, label in segments)
            )
            rows.append({"id": utt_id, "feat": f"feat/{utt_id}.bin", "labels": f"labels/{utt_id}.txt"})
        manifests[split] = out / f"{split}.jsonl"
        manifests[split].write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in rows))
    return manifests
