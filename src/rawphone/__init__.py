"""Phoneme sequence recognition from raw waveforms.

A from-scratch temporal convolutional network estimates per-frame class
conditional probabilities directly from normalized waveform windows (or
precomputed feature matrices); a linear-chain CRF and a minimum-duration
HMM Viterbi decoder turn the per-frame scores into phoneme sequences.
Includes a seeded synthetic tone corpus, a per-frame SGD trainer with
early stopping and grid search, and edit-distance evaluation.
"""

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
    log_softmax,
    maxpool_forward,
    param_count,
    softmax,
    stage_forward,
)
from .scoring import (
    collapse_path,
    levenshtein,
    map_labels,
)
from .training import (
    FrameDataset,
    GridSpec,
    TrainConfig,
    frame_loss,
    grid_search,
    sgd_step,
    train_network,
)

__version__ = "0.1.0"
