"""Per-utterance network scores, and their decoding into phoneme label strings.

`decoder` builds the argmax, CRF or minimum-duration HMM decoder of a
model; `decode_utterances` scores a stream of utterances and decodes them
in bounded groups.
"""

import numpy as np

from .corpus import utterance_grid, utterance_windows
from .crf import GROUP_FRAMES, viterbi_batch
from .errors import DataError, NoLegalPathError
from .framing import grid_windows, pad_features
from .hmm import build_duration_graph, decode_batch
from .net import log_softmax, score_frames, score_windows
from .scoring import collapse_path


def compute_emissions(utt, params, hop_samples):
    """Per-frame network scores for one utterance, as a float64 T x K matrix.

    Stage 0 is shared across overlapping windows (score_frames); a network
    without stages scores each framed window.
    """
    config = params.config
    if not config.stages:
        return score_windows(utterance_windows(utt, config.input_frames, hop_samples), params)
    if utt.waveform is None:
        signal = pad_features(utt.features, config.input_frames, params.hidden_weight.dtype)
        return score_frames(signal, 1, len(utt.features), params)
    grid = utterance_grid(utt, config.input_frames, hop_samples)
    signal, rows = grid_windows(utt.waveform, grid)
    return score_frames(signal[:, None], hop_samples, grid.num_frames, params, rows)


# Decoding runs on consecutive groups of utterances padded to the longest
# one, so a group's memory is about N x T_max x K floats. A group stays
# within this many padded frames, each utterance counted at least K frames
# long because the CRF's candidate scores take N x K x K per step; an
# utterance above it is decoded alone.
DECODE_GROUP_FRAMES = GROUP_FRAMES


def padded(matrices):
    """(N, T_max, K) zero-padded batch of T x K matrices, and their lengths."""
    lengths = [len(m) for m in matrices]
    batch = np.zeros((len(matrices), max(lengths), matrices[0].shape[1]))
    for row, m in zip(batch, matrices):
        row[: len(m)] = m
    return batch, lengths


def decoder(name, alphabet, transitions, min_duration):
    """The function from a group of T x K emission matrices to each one's
    phoneme labels, or the NoLegalPathError it decodes to."""
    if name == "hmm":
        graph = build_duration_graph(len(alphabet), min_duration)

    def decode(group):
        if name == "hmm":
            # log_softmax per utterance, then pad: on the padded batch, its large
            # temporaries and the padding rows cost about 2.5x as much at K = 39
            results = decode_batch(*padded([log_softmax(e) for e in group]), graph)
            return [r if isinstance(r, NoLegalPathError) else [alphabet[i] for i in r.phonemes]
                    for r in results]
        if name == "crf":
            paths = [path for path, _score in viterbi_batch(*padded(group), transitions)]
        else:
            paths = [e.argmax(axis=1) for e in group]
        return [collapse_path([alphabet[i] for i in path]) for path in paths]

    return decode


def decode_utterances(utts, params, hop, decode):
    """Yield each utterance's phoneme labels in order, or the DataError or
    NoLegalPathError it fails with; an item that is already a DataError
    passes through.

    Emissions are scored one utterance at a time and decoded in consecutive
    groups of at most DECODE_GROUP_FRAMES padded frames.
    """
    outcomes, group = [], []  # outcomes: None where the group holds the emissions
    width = 0  # the group's longest utterance, counted at least K frames

    def flush():
        decoded = iter(decode(group) if group else ())
        done = [next(decoded) if o is None else o for o in outcomes]
        outcomes.clear()
        group.clear()
        return done

    for utt in utts:
        if isinstance(utt, DataError):
            outcomes.append(utt)
            continue
        if utterance_grid(utt, params.config.input_frames, hop).num_frames == 0:
            length = len(utt.waveform) if utt.waveform is not None else utt.features.shape[0]
            outcomes.append(DataError(
                f"utterance of {length} samples is shorter than one hop ({hop} samples)"
            ))
            continue
        emissions = compute_emissions(utt, params, hop)
        if group and (len(group) + 1) * max(width, *emissions.shape) > DECODE_GROUP_FRAMES:
            yield from flush()
            width = 0
        width = max(width, *emissions.shape)
        outcomes.append(None)
        group.append(emissions)
    yield from flush()
