"""Phoneme sequence recognition from raw waveforms.

A from-scratch temporal convolutional network estimates per-frame class
conditional probabilities directly from normalized waveform windows (or
precomputed feature matrices); a linear-chain CRF and a minimum-duration
HMM Viterbi decoder turn the per-frame scores into phoneme sequences.
Includes a seeded synthetic tone corpus, a per-frame SGD trainer with
early stopping and grid search, and edit-distance evaluation.
"""

import os

# One BLAS thread per process unless the operator sets a count, before numpy
# loads: the products are small, and each forked worker would start one per core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from .corpus import FrameDataset
from .crf import (
    crf_log_likelihood,
    forward_backward,
    log_partition,
    path_score,
    train_transitions,
    transition_gradient,
    viterbi,
    viterbi_batch,
)
from .decoding import compute_emissions, decode_utterances, decoder
from .errors import DataError, DivergenceError, NoLegalPathError, RawphoneError
from .framing import (
    FrameGrid,
    SegmentAnnotation,
    Waveform,
    extract_feature_windows,
    extract_windows,
    frame_labels,
    normalize_window,
)
from .hmm import (
    DurationGraph,
    build_duration_graph,
    decode_batch,
    decode_scores,
    hmm_decode,
)
from .model_io import load_model, save_model
from .net import (
    ConvLayerParams,
    NetworkConfig,
    NetworkParams,
    StageConfig,
    backward_pass,
    forward_pass,
    init_params,
    maxpool_forward,
    param_count,
    softmax,
)
from .scoring import (
    collapse_path,
    corpus_report,
    levenshtein,
    map_labels,
)
from .training import (
    GridSpec,
    TrainConfig,
    frame_loss,
    grid_search,
    sgd_step,
    train_network,
)

__version__ = "0.1.0"
