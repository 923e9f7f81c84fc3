import json
import tracemalloc

import numpy as np
import pytest

from rawphone.corpus import (
    LabeledUtterance,
    SynthSpec,
    build_frame_dataset,
    collect_alphabet,
    cycle_bias,
    load_feature_matrix,
    load_manifest,
    load_utterance,
    read_labels,
    read_raw_float,
    read_wav,
    synth_corpus,
    synth_splits,
    utterance_frame_labels,
    write_corpus,
    write_labels,
    write_wav,
)
from rawphone.errors import DataError
from rawphone.framing import (
    FrameGrid,
    SegmentAnnotation,
    Waveform,
    extract_feature_windows,
    extract_windows,
)
from rawphone.net import BATCH_BYTES
from rawphone.scoring import collapse_path

from oracles import utterance_windows


class TestWavIO:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.9, 0.9, size=1000)
        write_wav(tmp_path / "a.wav", Waveform(samples, 16000))
        back = read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 16000
        assert len(back) == 1000
        assert np.abs(back.samples - samples).max() <= 1.0 / 32768.0

    def test_int16_scale_convention(self, tmp_path):
        # full-scale negative maps to exactly -1.0
        write_wav(tmp_path / "b.wav", Waveform(np.array([-1.0, 0.0]), 8000))
        back = read_wav(tmp_path / "b.wav")
        assert back.samples[0] == -1.0
        assert back.samples[1] == 0.0

    def test_not_a_wav_rejected(self, tmp_path):
        (tmp_path / "x.wav").write_bytes(b"not audio")
        with pytest.raises(DataError):
            read_wav(tmp_path / "x.wav")

    def test_raw_float_stream(self, tmp_path):
        samples = np.array([0.5, -0.25, 0.125], dtype="<f4")
        (tmp_path / "x.f32").write_bytes(samples.tobytes())
        w = read_raw_float(tmp_path / "x.f32", 22050)
        assert w.sample_rate == 22050
        np.testing.assert_array_equal(w.samples, samples.astype(np.float64))


class TestLabelsIO:
    def test_round_trip(self, tmp_path):
        ann = SegmentAnnotation(((0, 100, "ah"), (100, 250, "ss")))
        write_labels(tmp_path / "l.txt", ann)
        assert read_labels(tmp_path / "l.txt").segments == ann.segments

    def test_malformed_line_reports_number(self, tmp_path):
        (tmp_path / "l.txt").write_text("0 100 a\n100 oops\n")
        with pytest.raises(DataError, match=":2"):
            read_labels(tmp_path / "l.txt")

    def test_overlap_rejected(self, tmp_path):
        (tmp_path / "l.txt").write_text("0 100 a\n50 150 b\n")
        with pytest.raises(DataError):
            read_labels(tmp_path / "l.txt")


class TestFeatureMatrix:
    def test_single_frame(self, tmp_path):
        data = np.arange(39, dtype="<f4")
        (tmp_path / "f.bin").write_bytes(data.tobytes())
        m = load_feature_matrix(tmp_path / "f.bin", 39)
        assert m.shape == (1, 39)

    def test_two_frames_read_in_order(self, tmp_path):
        data = np.arange(2 * 39, dtype="<f4")
        (tmp_path / "f.bin").write_bytes(data.tobytes())
        m = load_feature_matrix(tmp_path / "f.bin", 39)
        assert m.shape == (2, 39)
        np.testing.assert_array_equal(m.reshape(-1), data.astype(np.float64))

    def test_values_kept_as_float32(self, tmp_path):
        data = np.random.default_rng(0).normal(size=3 * 5).astype("<f4")
        (tmp_path / "f.bin").write_bytes(data.tobytes())
        m = load_feature_matrix(tmp_path / "f.bin", 5)
        assert m.dtype == np.float32
        assert m.tobytes() == data.tobytes()

    def test_empty_file_rejected(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(b"")
        with pytest.raises(DataError, match="no frames"):
            load_feature_matrix(tmp_path / "f.bin", 39)

    def test_size_mismatch_names_divisor(self, tmp_path):
        (tmp_path / "f.bin").write_bytes(b"\x00" * 10)
        with pytest.raises(DataError, match="divisible"):
            load_feature_matrix(tmp_path / "f.bin", 39)

    def test_non_finite_values_rejected(self, tmp_path):
        data = np.array([1.0, np.nan, 0.0, 2.0], dtype="<f4")
        (tmp_path / "f.bin").write_bytes(data.tobytes())
        with pytest.raises(DataError, match="non-finite"):
            load_feature_matrix(tmp_path / "f.bin", 2)


class TestManifest:
    def test_empty_file_gives_empty_list(self, tmp_path):
        (tmp_path / "m.jsonl").write_text("")
        assert load_manifest(tmp_path / "m.jsonl") == []

    def test_one_valid_line(self, tmp_path):
        (tmp_path / "m.jsonl").write_text(
            json.dumps({"id": "u0", "wav": "u0.wav", "labels": "u0.txt"}) + "\n"
        )
        refs = load_manifest(tmp_path / "m.jsonl")
        assert len(refs) == 1
        assert refs[0].id == "u0"
        assert refs[0].wav_path == tmp_path / "u0.wav"

    def test_missing_labels_field_reports_line(self, tmp_path):
        (tmp_path / "m.jsonl").write_text(json.dumps({"id": "u0", "wav": "x"}) + "\n")
        with pytest.raises(DataError, match=":1"):
            load_manifest(tmp_path / "m.jsonl")

    @pytest.mark.parametrize("utt_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
    def test_id_that_cannot_name_a_file_is_rejected_at_its_line(self, tmp_path, utt_id):
        rows = [{"id": "u0", "wav": "u0.wav", "labels": "u0.txt"},
                {"id": utt_id, "wav": "u1.wav", "labels": "u1.txt"}]
        (tmp_path / "m.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(DataError, match=r"m\.jsonl:2: id .* cannot name a file"):
            load_manifest(tmp_path / "m.jsonl")

    def test_repeated_id_is_rejected_at_its_line(self, tmp_path):
        rows = [{"id": "dup", "wav": "a.wav", "labels": "a.txt"},
                {"id": "u1", "wav": "b.wav", "labels": "b.txt"},
                {"id": "dup", "wav": "c.wav", "labels": "c.txt"}]
        (tmp_path / "m.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        with pytest.raises(DataError, match=r"m\.jsonl:3: id 'dup' repeats"):
            load_manifest(tmp_path / "m.jsonl")

    def test_wav_and_feat_both_rejected(self, tmp_path):
        rec = {"id": "u", "wav": "a", "feat": "b", "labels": "c"}
        (tmp_path / "m.jsonl").write_text(json.dumps(rec) + "\n")
        with pytest.raises(DataError):
            load_manifest(tmp_path / "m.jsonl")

    def test_missing_file_surfaces_on_access(self, tmp_path):
        rec = {"id": "u0", "wav": "absent.wav", "labels": "absent.txt"}
        (tmp_path / "m.jsonl").write_text(json.dumps(rec) + "\n")
        refs = load_manifest(tmp_path / "m.jsonl")  # lazy: no error yet
        with pytest.raises(DataError, match="u0"):
            load_utterance(refs[0])

    def test_raw_float_entry_needs_sample_rate(self, tmp_path):
        samples = np.array([0.1, 0.2, 0.3], dtype="<f4")
        (tmp_path / "u.f32").write_bytes(samples.tobytes())
        (tmp_path / "u.txt").write_text("0 3 a\n")
        rec = {"id": "u", "wav": "u.f32", "labels": "u.txt"}
        (tmp_path / "m.jsonl").write_text(json.dumps(rec) + "\n")
        refs = load_manifest(tmp_path / "m.jsonl")
        with pytest.raises(DataError, match="sample rate"):
            load_utterance(refs[0])
        utt = load_utterance(refs[0], raw_sample_rate=22050)
        assert utt.waveform.sample_rate == 22050
        np.testing.assert_array_equal(utt.waveform.samples, samples.astype(np.float64))

    def test_annotation_beyond_input_rejected(self, tmp_path):
        samples = np.zeros(100, dtype="<f4")
        (tmp_path / "u.f32").write_bytes(samples.tobytes())
        (tmp_path / "u.txt").write_text("0 500 a\n")
        rec = {"id": "u", "wav": "u.f32", "labels": "u.txt"}
        (tmp_path / "m.jsonl").write_text(json.dumps(rec) + "\n")
        refs = load_manifest(tmp_path / "m.jsonl")
        with pytest.raises(DataError, match="ends at 500"):
            load_utterance(refs[0], raw_sample_rate=16000)


class TestSynthSpec:
    def test_default_frequencies_are_well_separated(self):
        spec = SynthSpec()
        np.testing.assert_array_equal(
            spec.class_frequencies(), [300.0, 700.0, 1100.0, 1500.0, 1900.0]
        )

    def test_nyquist_violation_names_frequency(self):
        with pytest.raises(ValueError, match="8600"):
            SynthSpec(num_classes=11)  # harmonic of class 10 at 2*4300 Hz

    def test_bigram_bias_shape_checked(self):
        with pytest.raises(ValueError):
            SynthSpec(bigram_bias=((1.0, 1.0), (1.0, 1.0)))  # 2x2 for K=5


class TestSynthCorpus:
    def test_noiseless_single_segment_is_pure_tone(self):
        spec = SynthSpec(
            num_classes=2, noise_sigma=0.0, segments_range=(1, 1), seed=5
        )
        train, _cv, _test = synth_corpus(spec, 1, 0, 0)
        utt = train[0]
        assert len(utt.annotation.segments) == 1
        start, end, _label = utt.annotation.segments[0]
        assert (start, end) == (0, len(utt.waveform))
        # two-tone signal stays within the configured amplitude budget
        assert np.abs(utt.waveform.samples).max() <= spec.tone_amplitude * (
            1 + spec.harmonic_gain
        ) + 1e-12

    def test_same_seed_bitwise_identical(self):
        spec = SynthSpec(seed=9)
        a = synth_corpus(spec, 3, 2, 1)
        b = synth_corpus(spec, 3, 2, 1)
        for split_a, split_b in zip(a, b):
            for ua, ub in zip(split_a, split_b):
                assert ua.id == ub.id
                assert ua.waveform.samples.tobytes() == ub.waveform.samples.tobytes()
                assert ua.annotation.segments == ub.annotation.segments

    def test_segments_tile_each_utterance(self):
        train, cv, test = synth_corpus(SynthSpec(seed=1), 5, 2, 2)
        for utt in train + cv + test:
            segs = utt.annotation.segments
            assert segs[0][0] == 0
            assert segs[-1][1] == len(utt.waveform)
            for (s0, e0, _l0), (s1, _e1, _l1) in zip(segs[:-1], segs[1:]):
                assert e0 == s1

    def test_split_ids_disjoint(self):
        train, cv, test = synth_corpus(SynthSpec(seed=2), 4, 4, 4)
        ids = [u.id for u in train + cv + test]
        assert len(set(ids)) == len(ids)

    def test_self_forbidding_bigram_respected(self):
        spec = SynthSpec(
            num_classes=3, bigram_bias=cycle_bias(3, 10.0), segments_range=(6, 10), seed=3
        )
        train, _cv, _test = synth_corpus(spec, 120, 0, 0)
        assert len(train) == 120
        for utt in train:
            labels = [l for _s, _e, l in utt.annotation.segments]
            for a, b in zip(labels[:-1], labels[1:]):
                assert a != b

    def test_durations_within_configured_range(self):
        spec = SynthSpec(duration_ms=(60.0, 200.0), seed=4)
        train, _, _ = synth_corpus(spec, 10, 0, 0)
        lo, hi = 60 * 16, 200 * 16
        for utt in train:
            for s, e, _l in utt.annotation.segments:
                assert lo <= e - s <= hi


class TestWriteCorpus:
    def test_files_and_manifests_on_disk(self, tmp_path):
        train, cv, test = synth_corpus(SynthSpec(seed=0), 10, 2, 2)
        manifests = write_corpus(tmp_path, {"train": train, "cv": cv, "test": test})
        assert sorted(p.name for p in (tmp_path / "wav").iterdir()) == sorted(
            f"{u.id}.wav" for u in train + cv + test
        )
        assert len(list((tmp_path / "labels").iterdir())) == 14
        refs = load_manifest(manifests["train"])
        assert len(refs) == 10
        utt = load_utterance(refs[0])
        assert utt.waveform is not None
        assert utt.annotation.segments == train[0].annotation.segments

    def test_streamed_splits_write_the_corpus_of_the_lists(self, tmp_path):
        spec = SynthSpec(seed=4)
        streamed = synth_splits(spec, 3, 2, 1)
        assert all(not isinstance(split, list) for split in streamed.values())
        write_corpus(tmp_path / "streamed", streamed)
        write_corpus(tmp_path / "lists", dict(zip(("train", "cv", "test"),
                                                  synth_corpus(spec, 3, 2, 1))))
        files = sorted(p.relative_to(tmp_path / "lists")
                       for p in (tmp_path / "lists").rglob("*") if p.is_file())
        assert len(files) == 3 + 2 * 6
        for rel in files:
            assert (tmp_path / "streamed" / rel).read_bytes() == (tmp_path / "lists" / rel).read_bytes()

    def test_rewriting_is_byte_identical(self, tmp_path):
        train, cv, test = synth_corpus(SynthSpec(seed=0), 2, 1, 1)
        splits = {"train": train, "cv": cv, "test": test}
        write_corpus(tmp_path / "a", splits)
        write_corpus(tmp_path / "b", splits)
        for rel in ["train.jsonl", "wav/train-0000.wav", "labels/train-0000.txt"]:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def read_windows(ds):
    """Every window the dataset feeds a float32 training step, stacked (N, input_frames, d)."""
    out = np.empty((len(ds), *ds.window_shape), np.float32)
    for i in range(len(ds)):
        ds.read_window(i, out[i])
    return out


def raw_utt(samples, segments=None):
    x = np.asarray(samples, dtype=np.float64)
    return LabeledUtterance("u", SegmentAnnotation(segments or ((0, len(x), "a"),)),
                            waveform=Waveform(x, 16000))


def tone(length, seed, offset=0.0):
    rng = np.random.default_rng(seed)
    n = np.arange(length)
    return offset + 0.4 * np.sin(2 * np.pi * 700 * n / 16000) + 0.05 * rng.normal(size=length)


def with_stretch(x, start, stop, value):
    x = x.copy()
    x[start:stop] = value
    return x


def dataset_arrays(ds):
    """The arrays a dataset holds, directly, in lists or in its framed signals."""
    values = [a for v in vars(ds).values() for a in (v if isinstance(v, list) else [v])]
    values += [a for framed in ds.framed for a in vars(framed).values()]
    return [a for a in values if isinstance(a, np.ndarray)]


def owned_bytes(arrays):
    """Bytes of the memory behind the arrays (the whole buffer a view looks
    into), each buffer counted once."""
    buffers = {id(b): b for b in (a if a.base is None else a.base for a in arrays)}
    return sum(b.nbytes for b in buffers.values())


RAW_CASES = {  # name -> (utterances, window, hop, garbage)
    "silence": ([raw_utt(with_stretch(tone(6000, 1), 1000, 4500, 0.0))], 401, 160, None),
    "dc_offset": ([raw_utt(with_stretch(tone(5000, 2, offset=0.3), 800, 3500, 0.3))],
                  400, 160, None),
    "odd_window": ([raw_utt(tone(4000, 3)), raw_utt(tone(2500, 4))], 1601, 160, None),
    "hop_1": ([raw_utt(tone(300, 5))], 64, 1, None),
    "window_longer_than_utterance": ([raw_utt(tone(700, 6)), raw_utt(tone(170, 7))],
                                     1600, 160, None),
    "garbage": ([raw_utt(tone(3000, 8), ((500, 1200, "a"), (1600, 2400, "b")))],
                320, 80, "g"),
}


class TestTrainingWindowsBitIdentity:
    """Each window the dataset feeds the step is the stored float32 window it replaces."""

    @pytest.mark.parametrize("case", sorted(RAW_CASES))
    def test_raw_windows_equal_extract_windows(self, case):
        utts, window, hop, garbage = RAW_CASES[case]
        alphabet = sorted(set(collect_alphabet(utts)) | ({garbage} if garbage else set()))
        ds = build_frame_dataset(utts, window, hop, alphabet, garbage)
        expected = np.concatenate([
            extract_windows(u.waveform, FrameGrid.for_length(len(u.waveform), hop, window))
            for u in utts
        ])[:, :, None].astype(np.float32)
        assert read_windows(ds).tobytes() == expected.tobytes()
        index = {l: i for i, l in enumerate(alphabet)}
        labels = np.concatenate([
            utterance_frame_labels(u, window, hop, index, index.get(garbage)) for u in utts
        ])
        np.testing.assert_array_equal(ds.labels, labels)
        if case in ("silence", "dc_offset"):
            constant = ds.std == 0.0
            assert constant.any()
            if case == "dc_offset":
                assert np.abs(ds.mean[constant] - 0.3).max() < 1e-12
        if case == "garbage":
            assert (ds.labels == index["g"]).any()

    @pytest.mark.parametrize("context", [1, 4, 5, 15])
    def test_feature_windows_equal_extract_feature_windows(self, context):
        rng = np.random.default_rng(context)
        utts = [
            LabeledUtterance("f", SegmentAnnotation(((0, t, "a"),)),
                             features=rng.normal(size=(t, 3)))
            for t in (12, 7)
        ]
        ds = build_frame_dataset(utts, context, 1, ["a"])
        expected = np.concatenate([
            extract_feature_windows(u.features, context) for u in utts
        ]).astype(np.float32)
        assert read_windows(ds).tobytes() == expected.tobytes()


class TestFrameDatasetMemory:
    """The dataset holds the padded signals plus per-frame bytes, never one copy per window."""

    def test_raw_dataset_holds_padded_signals_plus_per_frame_stats(self):
        train, _, _ = synth_corpus(SynthSpec(seed=6), 4, 0, 0)
        window, hop = 1600, 160
        ds = build_frame_dataset(train, window, hop, collect_alphabet(train))
        padded = sum((len(u.waveform) + 2 * (window // 2)) * 8 for u in train)
        arrays = dataset_arrays(ds)
        assert owned_bytes(arrays) <= padded + 40 * len(ds) + 8 * window
        assert max(a.size for a in arrays) < len(ds) * window

    def test_wav_dataset_holds_float32_padded_signals(self, tmp_path):
        train, _, _ = synth_corpus(SynthSpec(seed=6), 4, 0, 0)
        manifest = write_corpus(tmp_path, {"train": train})["train"]
        utts = [load_utterance(ref) for ref in load_manifest(manifest)]
        window, hop = 1600, 160
        ds = build_frame_dataset(utts, window, hop, collect_alphabet(utts))
        assert [f.signal.dtype for f in ds.framed] == [np.float32] * len(utts)
        padded = sum((len(u.waveform) + 2 * (window // 2)) * 4 for u in utts)
        # plus the float64 window a training step is normalized in
        assert owned_bytes(dataset_arrays(ds)) <= padded + 40 * len(ds) + 8 * window

    def test_feature_dataset_holds_padded_matrices_plus_per_frame_index(self):
        rng = np.random.default_rng(0)
        utts = [LabeledUtterance("f", SegmentAnnotation(((0, t, "a"),)),
                                 features=rng.normal(size=(t, 39))) for t in (300, 250)]
        ds = build_frame_dataset(utts, 9, 1, ["a"])
        padded = sum((t + 9) * 39 * 4 for t in (300, 250))
        arrays = dataset_arrays(ds)
        assert owned_bytes(arrays) <= padded + 40 * len(ds)
        assert max(a.size for a in arrays) < len(ds) * 9 * 39

    def test_building_allocates_no_window_stack(self):
        train, _, _ = synth_corpus(SynthSpec(seed=7), 20, 0, 0)
        window, hop = 1600, 160
        alphabet = collect_alphabet(train)
        padded = sum((len(u.waveform) + 2 * (window // 2)) * 8 for u in train)
        tracemalloc.start()
        try:
            ds = build_frame_dataset(train, window, hop, alphabet)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = padded + 64 * len(ds) + 2 * BATCH_BYTES
        assert peak <= bound
        # stored float32 windows alone would exceed the bound: 10x the audio
        assert len(ds) * window * 4 > bound


class TestFrameDatasetAssembly:
    def test_windows_and_labels_align(self):
        train, _, _ = synth_corpus(SynthSpec(seed=6), 3, 0, 0)
        alphabet = collect_alphabet(train)
        assert alphabet == ["c0", "c1", "c2", "c3", "c4"]
        ds = build_frame_dataset(train, input_frames=400, hop_samples=160, alphabet=alphabet)
        expected_frames = sum(len(u.waveform) // 160 for u in train)
        assert len(ds) == expected_frames
        windows = np.concatenate([utterance_windows(u, 400, 160) for u in train])
        assert windows.shape == (expected_frames, 400, 1)
        assert windows.dtype == np.float32
        assert read_windows(ds).tobytes() == windows.tobytes()

    def test_feature_utterance_windows(self, tmp_path):
        feats = np.random.default_rng(0).normal(size=(20, 4)).astype("<f4")
        (tmp_path / "u.bin").write_bytes(feats.tobytes())
        (tmp_path / "u.txt").write_text("0 10 a\n10 20 b\n")
        (tmp_path / "m.jsonl").write_text(
            json.dumps({"id": "u", "feat": "u.bin", "labels": "u.txt"}) + "\n"
        )
        refs = load_manifest(tmp_path / "m.jsonl")
        utt = load_utterance(refs[0], feature_dim=4)
        win = utterance_windows(utt, input_frames=5, hop_samples=160)
        assert win.shape == (20, 5, 4)
        ds = build_frame_dataset([utt], 5, 160, ["a", "b"])
        np.testing.assert_array_equal(ds.labels, [0] * 10 + [1] * 10)

    def test_by_utterance_pairs_kept_utterances_with_their_labels(self):
        train, _, _ = synth_corpus(SynthSpec(seed=6), 3, 0, 0)
        short = LabeledUtterance("short", SegmentAnnotation(((0, 100, "c0"),)),
                                 waveform=Waveform(np.zeros(100), 16000))
        alphabet = collect_alphabet(train)
        index = {l: i for i, l in enumerate(alphabet)}
        ds = build_frame_dataset([train[0], short, *train[1:]], 400, 160, alphabet)
        pairs = ds.by_utterance()
        assert ds.ids == [u.id for u in train]  # no frames: left out
        assert [framed for framed, _l in pairs] == ds.framed
        assert len(pairs) == len(train)
        for utt, (framed, labels) in zip(train, pairs):
            np.testing.assert_array_equal(labels, utterance_frame_labels(utt, 400, 160, index))
            assert labels.base is ds.labels  # views, not copies
            assert framed.num_frames == len(labels)
        assert sum(len(l) for _f, l in pairs) == len(ds)

    def test_reference_sequence_collapses_segments(self):
        ann = SegmentAnnotation(((0, 10, "a"), (10, 20, "a"), (20, 30, "b")))
        assert collapse_path(ann.labels()) == ["a", "b"]
