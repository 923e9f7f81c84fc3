"""Per-utterance network scores, and their decoding into phoneme label strings.

`decoder` builds the argmax, CRF or minimum-duration HMM decoder of a
model; `decode_utterances` scores a stream of utterances and decodes them
in bounded groups.
"""

import numpy as np

from .corpus import frame_utterance
from .crf import GROUP_FRAMES, viterbi_batch
from .errors import DataError, NoLegalPathError
from .hmm import build_duration_graph, decode_batch
from .net import frame_multiply_adds, log_softmax, score_frames
from .scoring import collapse_path


def compute_emissions(utt, params, hop_samples):
    """Per-frame network scores for one utterance, as a float64 T x K matrix:
    the utterance framed (corpus.frame_utterance), then scored (net.score_frames)."""
    framed = frame_utterance(utt, params.config.input_frames, hop_samples,
                             params.hidden_weight.dtype)
    return score_frames(framed, params)


# Decoding runs on consecutive groups of utterances padded to the longest
# one, so a group's memory is about N x T_max x K floats. A group stays
# within this many padded frames, each utterance counted at least K frames
# long because the CRF's candidate scores take N x K x K per step; an
# utterance above it is decoded alone.
DECODE_GROUP_FRAMES = GROUP_FRAMES


def decoder(name, alphabet, transitions, min_duration):
    """The function from a group of T x K emission matrices to each one's
    phoneme labels, or the NoLegalPathError it decodes to."""
    if name == "hmm":
        graph = build_duration_graph(len(alphabet), min_duration)

    def decode(group):
        if name == "argmax":
            return [collapse_path([alphabet[i] for i in e.argmax(axis=1)]) for e in group]
        # each utterance's emissions (the HMM's: their log_softmax) land in one
        # zero-padded time-major batch, which either Viterbi steps through frame by frame
        lengths = [len(e) for e in group]
        frames = np.zeros((max(lengths), len(group), group[0].shape[1]))
        for u, e in enumerate(group):
            if name == "hmm":
                log_softmax(e, out=frames[: len(e), u])
            else:
                frames[: len(e), u] = e
        batch = frames.transpose(1, 0, 2)
        if name == "hmm":
            return [r if isinstance(r, NoLegalPathError) else [alphabet[i] for i in r.phonemes]
                    for r in decode_batch(batch, lengths, graph)]
        return [collapse_path([alphabet[i] for i in path])
                for path, _score in viterbi_batch(batch, lengths, transitions)]

    return decode


# The inline seconds of a decode, which workers.ordered_map weighs against
# the price of a fork: per frame, MULTIPLY_ADD_S per multiply-add of the
# network plus DECODER_UNIT_S per unit of the decoder's work. Measured on
# a 2 vCPU VM (Python 3.11, OPENBLAS_NUM_THREADS=1), loading, scoring and
# argmax-decoding the benchmark's test splits inline, interleaved in one
# process: 7,654 frames of a 39-class feature network (11,290
# multiply-adds a frame) in 14.5 ms, and 878 and 3,742 frames of the
# acceptance raw network (329,900) in 54.6 and 234 ms: 0.2 ns a
# multiply-add fits all three within 20%.
# A decoder unit costs about 4 ns inline in the CRF and 7-13 ns in the HMM
# (its log-softmax included), but a fork takes off less than that: both
# batched Viterbis step once per frame of a group's longest utterance,
# which a share keeps. The unit price is set where the gate decides the
# K = 39 decodes of the `feat39` benchmark as interleaved A/B runs of its
# 24-utterance test split did: inline for argmax (1.16x faster than
# forked, 19 of 21 pairs) and HMM (1.18x, 55 of 75), forked for the CRF
# (1.37x, 11 of 11). Any price from 0.3 to 2.5 ns gives those three
# decisions.
MULTIPLY_ADD_S = 0.2e-9
DECODER_UNIT_S = 1e-9


def decoder_units(name, num_classes, min_duration):
    """The work per frame of a decoder beyond scoring: 0 for argmax, K^2 for
    the CRF's candidate scores, K * min_duration for the HMM's chain states."""
    return {"argmax": 0, "crf": num_classes**2, "hmm": num_classes * min_duration}[name]


def seconds_per_frame(config, hop, units):
    """The estimated inline seconds of scoring and decoding one frame (an
    utterance costs its frames times this), for a network of `config`
    framed every `hop` samples and a decoder doing `units` of work per
    frame (decoder_units)."""
    return MULTIPLY_ADD_S * frame_multiply_adds(config, hop) + DECODER_UNIT_S * units


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
        emissions = compute_emissions(utt, params, hop)
        if not len(emissions):
            outcomes.append(DataError(
                f"utterance of {utt.length} samples is shorter than one hop ({hop} samples)"
            ))
            continue
        if group and (len(group) + 1) * max(width, *emissions.shape) > DECODE_GROUP_FRAMES:
            yield from flush()
            width = 0
        width = max(width, *emissions.shape)
        outcomes.append(None)
        group.append(emissions)
    yield from flush()
