"""Batched and shared-stage-0 inference against a per-frame forward_pass loop."""

import numpy as np
import pytest

from rawphone import net
from rawphone.corpus import FrameDataset, LabeledUtterance
from rawphone.decoding import compute_emissions, decode_utterances, decoder
from rawphone.errors import DataError
from rawphone.framing import (
    FrameGrid,
    FramedSignal,
    SegmentAnnotation,
    Waveform,
    extract_windows,
)
from rawphone.net import (
    NetworkConfig,
    StageConfig,
    batch_frames,
    forward_pass,
    init_params,
    score_frames,
)
from rawphone.training import frame_accuracy_of

from oracles import utterance_windows

HOP = 160
TOL = 1e-5


def raw_utterance(length, seed, silent=(2000, 5200)):
    """Noisy tone with an exactly silent stretch long enough for constant windows."""
    rng = np.random.default_rng(seed)
    n = np.arange(length)
    x = 0.5 * np.sin(2 * np.pi * 440 * n / 16000) + 0.1 * rng.normal(size=length)
    x[silent[0] : silent[1]] = 0.0
    return LabeledUtterance("u", SegmentAnnotation(((0, length, "a"),)),
                            waveform=Waveform(x, 16000))


def raw_config(stages, window=1600, filters=12):
    return NetworkConfig(window, 1, tuple(StageConfig(k, s, filters, p) for k, s, p in stages),
                         hidden_units=20, num_classes=5)


def feature_utterance(length, dim, seed):
    feats = np.random.default_rng(seed).normal(size=(length, dim))
    return LabeledUtterance("f", SegmentAnnotation(((0, length, "a"),)), features=feats)


def feature_config(context, stages, dim=4):
    return NetworkConfig(context, dim, tuple(StageConfig(k, s, 6, p) for k, s, p in stages),
                         hidden_units=10, num_classes=5)


def per_frame_scores(utt, params, hop):
    windows = utterance_windows(utt, params.config.input_frames, hop)
    scores = np.empty((windows.shape[0], params.config.num_classes))
    for t in range(windows.shape[0]):
        scores[t] = forward_pass(windows[t], params)[0]
    return scores


def assert_matches_loop(utt, params, hop):
    expected = per_frame_scores(utt, params, hop)
    got = compute_emissions(utt, params, hop)
    assert got.shape == expected.shape and got.dtype == np.float64
    assert np.abs(got - expected).max() <= TOL
    np.testing.assert_array_equal(got.argmax(axis=1), expected.argmax(axis=1))


DEFAULT = ((160, 10, 3), (5, 1, 3), (9, 1, 3))


class TestComputeEmissions:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_stage0_default_stages(self, dtype):
        cfg = raw_config(DEFAULT)
        assert_matches_loop(raw_utterance(12000, 0), init_params(cfg, 1, dtype=dtype), HOP)

    def test_silent_windows_are_covered(self):
        utt = raw_utterance(12000, 0)
        rows = extract_windows(utt.waveform, FrameGrid.for_length(12000, HOP, 1600))
        assert (~rows.any(axis=1)).sum() >= 5  # constant windows: std == 0
        assert_matches_loop(utt, init_params(raw_config(DEFAULT), 2), HOP)

    def test_constant_float64_waveform_gives_bias(self):
        cfg = raw_config(DEFAULT)
        params = init_params(cfg, 3, dtype=np.float64)
        assert np.full(1600, 0.3).mean() != 0.3  # the mean is off by an ulp
        utt = LabeledUtterance("c", SegmentAnnotation(((0, 8000, "a"),)),
                               waveform=Waveform(np.full(8000, 0.3), 16000))
        rows = extract_windows(utt.waveform, FrameGrid.for_length(8000, HOP, 1600))
        constant = ~rows.any(axis=1)
        assert constant.sum() >= 30
        got = compute_emissions(utt, params, HOP)
        expected = np.array([forward_pass(row[:, None], params)[0] for row in rows])
        assert np.abs(got - expected).max() <= TOL
        # every constant window scores like an all-zero window
        zero = forward_pass(np.zeros((1600, 1)), params)[0]
        assert np.abs(got[constant] - zero).max() <= TOL

    def test_offset_position_grid(self):
        # (hop // 2) % shift == 16: stage-0 positions sit off the sample-0 grid
        cfg = raw_config(((160, 32, 3), (5, 1, 3)))
        assert (HOP // 2) % 32 != 0
        assert_matches_loop(raw_utterance(9000, 3), init_params(cfg, 3), HOP)

    @pytest.mark.parametrize("pool", [1, 3])
    def test_pool_widths(self, pool):
        cfg = raw_config(((80, 10, pool), (5, 1, pool), (3, 1, 2)), window=800)
        assert_matches_loop(raw_utterance(7000, 5), init_params(cfg, 5, dtype=np.float64), HOP)

    def test_more_frames_than_one_batch_and_odd_window(self):
        cfg = raw_config(((16, 8, 2), (3, 1, 2)), window=401)
        assert_matches_loop(raw_utterance(20000, 6, silent=(0, 3000)), init_params(cfg, 6), 40)

    @pytest.mark.parametrize("hop", [400, 480])
    def test_windows_without_overlap_over_several_batches(self, hop):
        # hop >= window: a frame's stage-0 positions end before the next frame's begin
        cfg = raw_config(((40, 10, 3), (3, 1, 2)), window=400)
        utt = raw_utterance(hop * 40, 9, silent=(4000, 5200))
        assert utterance_windows(utt, 400, hop).shape[0] > 32
        assert_matches_loop(utt, init_params(cfg, 9, dtype=np.float64), hop)

    def test_feature_input_shares_first_stage(self):
        cfg = feature_config(9, ((3, 1, 1),))
        assert_matches_loop(feature_utterance(45, 4, 7), init_params(cfg, 7), 1)

    @pytest.mark.parametrize("stages", [DEFAULT, ((160, 7, 3), (5, 1, 3))])
    def test_zero_frame_utterance_still_fails_to_decode(self, stages):
        cfg = raw_config(stages)
        params = init_params(cfg, 8)
        utt = raw_utterance(100, 8, silent=(0, 0))
        assert compute_emissions(utt, params, HOP).shape == (0, 5)
        message = r"^utterance of 100 samples is shorter than one hop \(160 samples\)$"
        for name in ("argmax", "crf", "hmm"):
            decode = decoder(name, list("abcde"), np.zeros((5, 5)), 3)
            [outcome] = decode_utterances([utt], params, HOP, decode)
            with pytest.raises(DataError, match=message):
                raise outcome

    def test_config_without_stages_decodes_and_matches_loop(self):
        for utt, cfg, hop in (
            (raw_utterance(3000, 10), raw_config((), window=200), HOP),
            (feature_utterance(20, 4, 10), feature_config(5, ()), 1),
        ):
            params = init_params(cfg, 10)
            assert_matches_loop(utt, params, hop)
            decode = decoder("hmm", list("abcde"), np.zeros((5, 5)), 1)
            [labels] = decode_utterances([utt], params, hop, decode)
            assert labels and set(labels) <= set("abcde")


# The stage-0 grid sweep: (input, window, stages as (kernel, shift, pool), hop).
# For raw input the hop is a multiple of stage 0's shift, not a multiple,
# below it, or wider than the window; feature input always hops one row,
# so its shift sets the grid instead. Without stages the hidden layer is
# stage 0, one position per frame: hop below and above the window.
SWEEP_CONFIGS = [
    ("raw", 400, ((40, 10, 3), (3, 1, 2)), 160),  # multiple: grid = shift
    ("raw", 401, ((30, 7, 2), (3, 1, 1)), 160),  # not a multiple, gcd 1
    ("raw", 400, ((24, 6, 1), (5, 1, 3)), 160),  # not a multiple, gcd 2
    ("raw", 300, ((20, 12, 2),), 9),  # below the shift, gcd 3
    ("raw", 300, ((30, 10, 3),), 450),  # wider than the window, a multiple
    ("raw", 301, ((30, 8, 2), (2, 1, 1)), 455),  # wider than the window, gcd 1
    ("feat", 9, ((3, 1, 1),), 1),
    ("feat", 10, ((3, 2, 2), (2, 1, 1)), 1),
    ("feat", 12, ((2, 3, 3),), 1),
    ("feat", 7, ((3, 2, 1), (2, 1, 2)), 1),
    ("raw", 300, (), 160),
    ("raw", 200, (), 450),
    ("feat", 9, (), 1),
]
# (dtype, frames, frames per batch: None keeps batch_frames)
SWEEP_RUNS = [("float32", 1, None), ("float64", 23, 1), ("float32", 40, 3), ("float64", 9, None)]


@pytest.mark.parametrize("run", SWEEP_RUNS, ids=lambda r: f"{r[0]}-{r[1]}x{r[2]}")
@pytest.mark.parametrize("case", range(len(SWEEP_CONFIGS)), ids=[
    f"{kind}{window}-{'-'.join(f'{k}:{s}:{p}' for k, s, p in stages) or 'nostages'}-hop{hop}"
    for kind, window, stages, hop in SWEEP_CONFIGS
])
def test_stage0_grid_sweep(case, run, monkeypatch):
    """compute_emissions equals the per-frame loop for every hop, shift, pool and input kind."""
    kind, window, stages, hop = SWEEP_CONFIGS[case]
    dtype, frames, batch = run
    seed = 100 + case
    if kind == "raw":
        cfg = raw_config(stages, window=window, filters=6)
        length = frames * hop + hop // 2
        utt = raw_utterance(length, seed, silent=(length // 3, length // 3 + 2 * window))
    else:
        cfg = feature_config(window, stages)
        utt = feature_utterance(frames, 4, seed)
    if batch is not None:
        monkeypatch.setattr(net, "batch_frames", lambda config, dt: batch)
    assert_matches_loop(utt, init_params(cfg, seed, dtype=np.dtype(dtype)), hop)


class TestFeatureEmissions:
    """Feature input, through compute_emissions, against the per-frame loop."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("context, stages", [
        (9, ((3, 1, 1),)),  # odd context, one stage, pool 1
        (10, ((3, 1, 3), (2, 1, 1))),  # even context, two stages, pool 3 then 1
        (7, ((2, 1, 1), (3, 1, 3))),  # odd context, pool 3 only in stage 1
        (12, ((4, 1, 3), (3, 2, 1))),  # even context, pool 3, stage 1 strided
    ])
    @pytest.mark.parametrize("length", [1, 5, 40])
    def test_matches_per_frame_loop(self, dtype, context, stages, length):
        cfg = feature_config(context, stages)
        utt = feature_utterance(length, 4, length + context)
        assert_matches_loop(utt, init_params(cfg, context, dtype=dtype), 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_more_frames_than_one_batch(self, dtype, monkeypatch):
        cfg = feature_config(8, ((3, 1, 3), (2, 1, 1)))
        params = init_params(cfg, 4, dtype=dtype)
        # stage 0 gathers 6 positions x 3 taps x 4 dims per frame; at 7
        # frames per batch, 100 frames take 14 full batches and a partial one
        monkeypatch.setattr(net, "BATCH_BYTES", 7 * 6 * 3 * 4 * np.dtype(dtype).itemsize)
        assert batch_frames(cfg, dtype) == 7
        assert_matches_loop(feature_utterance(100, 4, 1), params, 1)

    def test_feature_dim_checked(self):
        params = init_params(feature_config(9, ((3, 1, 1),)), 0)
        with pytest.raises(ValueError, match="T x 4 matrix"):
            score_frames(FramedSignal(np.zeros((5, 3)), 1, 5), params)


class TestBatchFrames:
    def test_default_raw_architecture_keeps_16(self):
        cfg = raw_config(DEFAULT, filters=30)
        assert batch_frames(cfg, np.float32) == 16
        assert batch_frames(cfg, np.float64) == 8

    def test_feature_input_sized_by_bytes(self):
        # 7 positions x 3 taps x 39 dims of float32 per frame
        cfg = NetworkConfig(9, 39, (StageConfig(3, 1, 20, 1),), hidden_units=50, num_classes=39)
        assert batch_frames(cfg, np.float32) == net.BATCH_BYTES // (7 * 3 * 39 * 4) == 453


class TestFrameAccuracy:
    def test_batched_accuracy_equals_per_frame(self):
        cfg = raw_config(DEFAULT)
        params = init_params(cfg, 9)
        utts = [raw_utterance(6000, s) for s in (10, 11)]
        windows = np.concatenate([utterance_windows(u, 1600, HOP) for u in utts])
        labels = np.arange(len(windows)) % 5
        loop = np.array([forward_pass(w, params)[0] for w in windows])
        expected = 100.0 * np.count_nonzero(loop.argmax(axis=1) == labels) / len(labels)
        dataset = FrameDataset(utts, np.split(labels, [len(windows) // 2]), 1600, HOP)
        assert frame_accuracy_of(params, dataset) == expected
