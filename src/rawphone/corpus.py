"""Corpus ingestion and the synthetic tone corpus generator.

Utterances arrive either as 16-bit PCM WAV files (or headerless float32
sample streams) with sample-unit segment labels, or as precomputed
feature matrices with frame-unit segment labels. Manifests are JSON
lines: ``{"id": ..., "wav": ... | "feat": ..., "labels": ...}`` with
paths resolved relative to the manifest file.

The generator concatenates per-class tone segments (fundamental plus one
harmonic at half amplitude, Gaussian noise on top) and emits exact
segment annotations. All randomness flows through numpy's PCG64; each
utterance draws from SeedSequence([seed, split_index, utterance_index]),
so corpora are reproducible sample-for-sample and generation could be
parallelized per utterance without changing output.
"""

import dataclasses
import json
import math
import shutil
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .framing import (
    FrameGrid,
    FramedSignal,
    SegmentAnnotation,
    Waveform,
    frame_labels,
    grid_windows,
    row_stats,
)


def read_wav(path):
    """Read a mono 16-bit PCM RIFF/WAVE file into [-1, 1) float32 samples, exactly."""
    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise DataError(f"{path}: expected mono, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise DataError(
                    f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit"
                )
            rate = w.getframerate()
            raw = w.readframes(w.getnframes())
    except (wave.Error, EOFError, RuntimeError) as e:  # EOFError, RuntimeError: bad chunk sizes
        raise DataError(f"{path}: not a PCM WAV file: {e or type(e).__name__}") from e
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32) / np.float32(32768.0)
    if samples.size < 1:
        raise DataError(f"{path}: empty waveform")
    return Waveform(samples, rate)


def write_wav(path, waveform):
    """Write a waveform as mono 16-bit PCM, clipping to the int16 range."""
    x = np.clip(np.round(np.asarray(waveform.samples) * 32768.0), -32768, 32767)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(waveform.sample_rate)
        w.writeframes(x.astype("<i2").tobytes())


def read_raw_float(path, sample_rate):
    """Read a headerless little-endian float32 sample stream, kept as float32."""
    samples = np.fromfile(str(path), dtype="<f4").astype(np.float32, copy=False)
    if samples.size < 1:
        raise DataError(f"{path}: empty waveform")
    if not np.isfinite(samples).all():
        raise DataError(f"{path}: waveform contains non-finite samples")
    return Waveform(samples, sample_rate)


def read_labels(path):
    """Parse a segment label file: `start end label` per line."""
    segments = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected `start end label`")
            try:
                start, end = int(parts[0]), int(parts[1])
            except ValueError as e:
                raise DataError(f"{path}:{lineno}: non-integer bounds") from e
            segments.append((start, end, parts[2]))
    try:
        return SegmentAnnotation(tuple(segments))
    except ValueError as e:
        raise DataError(f"{path}: {e}") from e


def write_labels(path, annotation):
    with open(path, "w", encoding="utf-8") as f:
        for start, end, label in annotation.segments:
            f.write(f"{start} {end} {label}\n")


def load_feature_matrix(path, feature_dim):
    """Read a headerless float32 frame-major T x d feature matrix, kept as float32."""
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    data = np.fromfile(str(path), dtype="<f4")
    if data.size % feature_dim != 0:
        raise DataError(
            f"{path}: {4 * data.size} bytes not divisible by {4 * feature_dim} "
            f"(4 bytes x {feature_dim} dims per frame)"
        )
    if data.size == 0:
        raise DataError(f"{path}: feature matrix has no frames")
    if not np.isfinite(data).all():
        raise DataError(f"{path}: feature matrix contains non-finite values")
    return data.reshape(-1, feature_dim).astype(np.float32, copy=False)


@dataclass(frozen=True)
class UtteranceRef:
    """One manifest row; referenced files are opened lazily."""

    id: str
    labels_path: Path
    wav_path: Path = None
    feat_path: Path = None


@dataclass
class LabeledUtterance:
    """One utterance's signal and its segment labels; `annotation` is None
    for an utterance read without its labels (load_signal)."""

    id: str
    annotation: SegmentAnnotation
    waveform: Waveform = None
    features: np.ndarray = None

    def __post_init__(self):
        if (self.waveform is None) == (self.features is None):
            raise ValueError("utterance needs exactly one of waveform or features")
        if self.annotation is not None and self.annotation.segments:
            # spans are samples for waveforms, frames for feature matrices
            end = self.annotation.segments[-1][1]
            if end > self.length:
                raise ValueError(
                    f"utterance {self.id}: annotation ends at {end}, input has {self.length}"
                )

    @property
    def length(self):
        """Samples of the waveform, or frames of the feature matrix."""
        return len(self.waveform) if self.waveform is not None else self.features.shape[0]


def load_manifest(path):
    """Parse a JSON-lines manifest into UtteranceRef rows. An id names a file, so one
    that is empty, `.` or `..`, holds `/`, `\\` or NUL, or repeats is a DataError."""
    path = Path(path)
    base = path.parent
    refs = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: bad JSON: {e}") from e
            if not isinstance(rec, dict) or "id" not in rec or "labels" not in rec:
                raise DataError(f"{path}:{lineno}: record needs `id` and `labels`")
            has_wav, has_feat = "wav" in rec, "feat" in rec
            if has_wav == has_feat:
                raise DataError(
                    f"{path}:{lineno}: record needs exactly one of `wav` or `feat`"
                )
            for key in ("labels", "wav", "feat"):
                if key in rec and not isinstance(rec[key], str):
                    raise DataError(f"{path}:{lineno}: `{key}` must be a path string")
            utt_id = str(rec["id"])
            if utt_id in refs or utt_id in ("", ".", "..") or any(c in utt_id for c in "/\\\0"):
                why = "repeats an earlier row's" if utt_id in refs else "cannot name a file"
                raise DataError(f"{path}:{lineno}: id {utt_id!r} {why}")
            refs[utt_id] = UtteranceRef(
                id=utt_id,
                labels_path=base / rec["labels"],
                wav_path=base / rec["wav"] if has_wav else None,
                feat_path=base / rec["feat"] if has_feat else None,
            )
    return list(refs.values())


def load_utterance(ref, feature_dim=None, raw_sample_rate=None):
    """Materialize one manifest row: its labels, then its signal (see load_signal)."""
    try:
        annotation = read_labels(ref.labels_path)
    except OSError as e:
        raise DataError(f"cannot read utterance {ref.id}: {e}") from e
    try:
        return dataclasses.replace(load_signal(ref, feature_dim, raw_sample_rate),
                                   annotation=annotation)
    except ValueError as e:  # labels that run past the signal
        raise DataError(str(e)) from e


def load_signal(ref, feature_dim=None, raw_sample_rate=None):
    """One manifest row's waveform or feature matrix, without its labels.

    `feature_dim` is required for feature utterances and refused for
    waveform ones: a run reads one kind of input. A `wav` path ending in
    .f32 is read as a headerless float32 stream at `raw_sample_rate`. The
    label file is not opened: the utterance's annotation is None.
    """
    try:
        if ref.wav_path is not None:
            if feature_dim is not None:
                raise DataError(
                    f"utterance {ref.id}: waveform {ref.wav_path} in a feature-input run"
                )
            if str(ref.wav_path).endswith(".f32"):
                if raw_sample_rate is None:
                    raise DataError(
                        f"{ref.wav_path}: raw float input needs an explicit sample rate"
                    )
                wav = read_raw_float(ref.wav_path, raw_sample_rate)
            else:
                wav = read_wav(ref.wav_path)
            return LabeledUtterance(ref.id, None, waveform=wav)
        if feature_dim is None:
            raise DataError(f"{ref.feat_path}: feature input needs --feature-dim")
        feats = load_feature_matrix(ref.feat_path, feature_dim)
        return LabeledUtterance(ref.id, None, features=feats)
    except OSError as e:
        raise DataError(f"cannot read utterance {ref.id}: {e}") from e
    except ValueError as e:
        raise DataError(str(e)) from e


def stored_length(ref, feature_dim=None):
    """The samples (frames of a feature matrix) one manifest row's file holds,
    judged from its size alone without reading it; 0 if it cannot be stat'ed.

    A WAV file is taken as a 44-byte header and 16-bit samples.
    """
    path = ref.wav_path if ref.wav_path is not None else ref.feat_path
    try:
        size = path.stat().st_size
    except OSError:
        return 0
    if ref.feat_path is not None:
        return size // (4 * (feature_dim or 1))
    if str(path).endswith(".f32"):
        return size // 4
    return max(0, size - 44) // 2


def write_manifest(path, rows):
    """Write manifest rows (dicts with already-relative paths) as JSON lines."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in rows:
            f.write(json.dumps(rec, separators=(",", ":"), ensure_ascii=True) + "\n")


# ---------------------------------------------------------------------------
# synthetic tone corpus


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the tone-phoneme generator.

    Class k is a sinusoid at base + step*k Hz plus one harmonic at twice
    that frequency and half amplitude. Both must stay under Nyquist.
    """

    num_classes: int = 5
    base_freq_hz: float = 300.0
    freq_step_hz: float = 400.0
    harmonic_gain: float = 0.5
    tone_amplitude: float = 0.6
    noise_sigma: float = 0.05
    duration_ms: tuple = (60.0, 200.0)
    segments_range: tuple = (4, 8)
    bigram_bias: tuple = None  # K x K rows of relative next-class weights
    sample_rate: int = 16000
    seed: int = 0

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be at least 2, got {self.num_classes}")
        for name in ("base_freq_hz", "freq_step_hz", "tone_amplitude"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("harmonic_gain", "noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and at least 0, got {getattr(self, name)}")
        if not 0 < self.duration_ms[0] <= self.duration_ms[1] < math.inf:
            raise ValueError("duration_ms must be a finite positive (lo, hi) range, "
                             f"got {tuple(self.duration_ms)}")
        if self.segments_range[0] < 1 or self.segments_range[1] < self.segments_range[0]:
            raise ValueError("segments_range must be a (lo, hi) range with lo >= 1, "
                             f"got {tuple(self.segments_range)}")
        top = 2.0 * self.class_frequency(self.num_classes - 1)
        if top >= self.sample_rate / 2:
            raise ValueError(f"sample_rate must exceed twice the top harmonic at {top:.1f} Hz "
                             f"(Nyquist), got {self.sample_rate}")
        if self.bigram_bias is not None:
            b = np.asarray(self.bigram_bias, dtype=np.float64)
            k = self.num_classes
            if b.shape != (k, k):
                raise ValueError(f"bigram_bias must be {k} x {k}")
            if b.min() < 0 or (b.sum(axis=1) <= 0).any() or not np.isfinite(b).all():
                raise ValueError("bigram_bias rows must be finite and non-negative "
                                 "with positive sum")
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")

    def class_frequency(self, k):
        return self.base_freq_hz + self.freq_step_hz * k

    def class_frequencies(self):
        return np.array([self.class_frequency(k) for k in range(self.num_classes)])


def cycle_bias(num_classes, factor):
    """Bigram bias favoring class (k+1) mod K by `factor`, forbidding self."""
    b = np.ones((num_classes, num_classes))
    np.fill_diagonal(b, 0.0)
    for k in range(num_classes):
        b[k, (k + 1) % num_classes] = factor
    return tuple(tuple(row) for row in b)


def _synth_utterance(spec, rng, utt_id):
    lo = int(round(spec.duration_ms[0] * spec.sample_rate / 1000.0))
    hi = int(round(spec.duration_ms[1] * spec.sample_rate / 1000.0))
    n_segments = int(rng.integers(spec.segments_range[0], spec.segments_range[1] + 1))
    bias = None if spec.bigram_bias is None else np.asarray(spec.bigram_bias, dtype=np.float64)

    classes = []
    for s in range(n_segments):
        if s == 0 or bias is None:
            classes.append(int(rng.integers(spec.num_classes)))
        else:
            row = bias[classes[-1]]
            classes.append(int(rng.choice(spec.num_classes, p=row / row.sum())))

    pieces = []
    segments = []
    cursor = 0
    for k in classes:
        dur = int(rng.integers(lo, hi + 1))
        f = spec.class_frequency(k)
        phase1 = rng.uniform(0.0, 2.0 * np.pi)
        phase2 = rng.uniform(0.0, 2.0 * np.pi)
        n = np.arange(dur)
        tone = np.sin(2.0 * np.pi * f * n / spec.sample_rate + phase1)
        tone = tone + spec.harmonic_gain * np.sin(
            2.0 * np.pi * 2.0 * f * n / spec.sample_rate + phase2
        )
        pieces.append(spec.tone_amplitude * tone)
        segments.append((cursor, cursor + dur, f"c{k}"))
        cursor += dur
    samples = np.concatenate(pieces)
    if spec.noise_sigma > 0:
        samples = samples + rng.normal(0.0, spec.noise_sigma, size=samples.size)
    return LabeledUtterance(
        utt_id,
        SegmentAnnotation(tuple(segments)),
        waveform=Waveform(samples, spec.sample_rate),
    )


def _synth_split(spec, split_index, name, count):
    for i in range(count):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([spec.seed, split_index, i]))
        )
        yield _synth_utterance(spec, rng, f"{name}-{i:04d}")


def synth_splits(spec, n_train, n_cv, n_test):
    """Split name -> an iterator over its utterances, each generated when it is taken.

    Every utterance draws from its own seed, so the splits hold the same
    utterances however they are consumed.
    """
    counts = {"train": n_train, "cv": n_cv, "test": n_test}
    return {name: _synth_split(spec, index, name, count)
            for index, (name, count) in enumerate(counts.items())}


def synth_corpus(spec, n_train, n_cv, n_test):
    """Generate disjoint train/cv/test utterance lists, deterministic per seed."""
    return tuple(list(split) for split in synth_splits(spec, n_train, n_cv, n_test).values())


def remove_path(path):
    """Remove `path` if it exists: a symlink or file is unlinked, not
    followed, and a directory is removed with everything under it."""
    path = Path(path)
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def write_corpus(out_dir, splits):
    """Write WAVs, label files, and one manifest per split under out_dir.

    `splits` maps a split name to its utterances, any iterable: each is
    written, then dropped, before the next is taken. out_dir/wav and
    out_dir/labels are replaced whole, so a corpus written into a used
    out_dir holds the files a fresh one does; nothing else there is
    removed.
    """
    out = Path(out_dir)
    for sub in ("wav", "labels"):
        remove_path(out / sub)
        (out / sub).mkdir(parents=True)
    manifest_paths = {}
    for name, utts in splits.items():
        rows = []
        for utt in utts:
            wav_rel = f"wav/{utt.id}.wav"
            lab_rel = f"labels/{utt.id}.txt"
            write_wav(out / wav_rel, utt.waveform)
            write_labels(out / lab_rel, utt.annotation)
            rows.append({"id": utt.id, "wav": wav_rel, "labels": lab_rel})
        manifest_paths[name] = out / f"{name}.jsonl"
        write_manifest(manifest_paths[name], rows)
    return manifest_paths


# ---------------------------------------------------------------------------
# frame dataset assembly


def collect_alphabet(utterances):
    """Sorted unique segment labels across utterances."""
    labels = set()
    for utt in utterances:
        labels.update(l for _s, _e, l in utt.annotation.segments)
    return sorted(labels)


def utterance_grid(utt, input_frames, hop_samples):
    if utt.waveform is not None:
        return FrameGrid.for_length(len(utt.waveform), hop_samples, input_frames)
    return FrameGrid(1, input_frames, utt.features.shape[0])


def utterance_frame_labels(utt, input_frames, hop_samples, label_to_index, garbage_index=None):
    grid = utterance_grid(utt, input_frames, hop_samples)
    try:
        return frame_labels(utt.annotation, grid, label_to_index, garbage_index)
    except KeyError as e:
        raise DataError(f"utterance {utt.id}: label {e} not in alphabet") from e
    except DataError as e:
        raise DataError(f"utterance {utt.id}: {e}") from e


def frame_utterance(utt, input_frames, hop_samples, dtype, mean=None, std=None):
    """One utterance's framing.FramedSignal, padded by grid_windows: a feature
    matrix in `dtype`, or a waveform in its samples' own dtype with the
    row_stats of its windows (written into `mean` and `std` where given)."""
    grid = utterance_grid(utt, input_frames, hop_samples)
    if utt.waveform is None:
        padded, _rows = grid_windows(utt.features.astype(dtype, copy=False), grid)
        return FramedSignal(padded, 1, grid.num_frames)
    padded, rows = grid_windows(utt.waveform.samples[:, None], grid)
    return FramedSignal(padded, hop_samples, grid.num_frames, *row_stats(rows, mean, std))


class FrameDataset:
    """Training frames of utterances framed once each (frame_utterance).

    `framed[u]` frames the utterance `ids[u]`: a waveform padded in its own
    dtype (float32 as WAV and .f32 files load), a feature matrix in
    float32, the training dtype. The utterances themselves are not kept.
    Frame i, labelled `labels[i]`, is frame t of utterance
    `utts[i]`: its window is the input_frames rows of that signal from
    `starts[i]`, t * hop. Raw window statistics are the dataset-wide
    `mean` and `std`, which the framed utterances view: the steps
    (read_window), CV scoring and CRF emissions (by_utterance) read the
    same. Utterances without frames are left out. Beside the signals the
    dataset holds at most 36 bytes per frame, whatever the window length.
    """

    def __init__(self, utterances, labels, input_frames, hop_samples):
        kept = [(u, np.asarray(l, np.int64)) for u, l in zip(utterances, labels) if len(l)]
        if not kept:
            raise ValueError("dataset is empty")
        for utt, l in kept:
            frames = utterance_grid(utt, input_frames, hop_samples).num_frames
            if len(l) != frames:
                raise ValueError(f"utterance {utt.id}: {len(l)} labels, {frames} frames")
        self.ids = [u.id for u, _l in kept]
        self.raw = kept[0][0].waveform is not None
        if any((u.waveform is not None) != self.raw for u, _l in kept):
            raise ValueError("utterances mix waveform and feature input")
        self.input_frames, self.hop = input_frames, hop_samples
        self.labels = np.concatenate([l for _u, l in kept])
        counts = [len(l) for _u, l in kept]
        self.offsets = np.cumsum([0] + counts)  # utterance u's frames start at offsets[u]
        self.utts = np.repeat(np.arange(len(kept), dtype=np.int32), counts)
        if self.raw:
            self.mean, self.std = np.empty(len(self)), np.empty(len(self))
            self._window = np.empty((input_frames, 1))  # a step's float64 window
        self.framed = [
            frame_utterance(utt, input_frames, hop_samples, np.float32,
                            *((self.mean[a:b], self.std[a:b]) if self.raw else ()))
            for (utt, _l), a, b in zip(kept, self.offsets, self.offsets[1:])
        ]
        self.starts = np.concatenate([np.arange(f.num_frames) * f.hop for f in self.framed])

    def __len__(self):
        return len(self.labels)

    def by_utterance(self):
        """(framed signal, view of its frames' labels) per kept utterance, in order."""
        return list(zip(self.framed, np.split(self.labels, self.offsets[1:-1])))

    @property
    def window_shape(self):
        return self.input_frames, self.framed[0].signal.shape[1]

    def read_window(self, i, out):
        """Write frame i's window into `out`, an input_frames x d array.

        A raw window is (x - mean) / std in float64, cast to out's dtype,
        or zeros where std is 0: bit for bit the row of
        framing.extract_windows cast to that dtype.
        """
        start = self.starts[i]
        window = self.framed[self.utts[i]].signal[start : start + self.input_frames]
        if not self.raw:
            np.copyto(out, window)
        elif self.std[i] == 0.0:
            out.fill(0.0)
        else:
            np.subtract(window, self.mean[i], out=self._window)
            np.divide(self._window, self.std[i], out=out, casting="unsafe")


def build_frame_dataset(utterances, input_frames, hop_samples, alphabet, garbage=None):
    """The FrameDataset of labelled frames across utterances."""
    label_to_index = {l: i for i, l in enumerate(alphabet)}
    garbage_index = label_to_index[garbage] if garbage is not None else None
    labels = [
        utterance_frame_labels(utt, input_frames, hop_samples, label_to_index, garbage_index)
        for utt in utterances
    ]
    return FrameDataset(utterances, labels, input_frames, hop_samples)
