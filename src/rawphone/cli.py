"""Operator surface: subcommands wiring the library into full experiments.

Subcommands: synth, train, grid, decode, eval, filters, ablate-pool,
check-grad. Common flags: --config <json>, --out <dir>. Every other
option is a key of the subcommand's defaults table: its flag is `--`
plus the key with `_` as `-`, its type is the default's type, and a bool
defaulting to True is turned off by `--no-<key>` (False: on by
`--<key>`). Flags beat config-file values, which are checked against the
same table; every numeric value, whatever its source, and each number in
a comma list, must meet its bound in LEAST or POSITIVE. The fully resolved
configuration is echoed to <out>/resolved.json. Exit codes: 0 success, 1
usage error, 2 data error, 3 numeric/divergence error, 4 resource error
(a lost worker process, out of memory). Identical invocations produce
byte-identical outputs.
"""

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .corpus import (
    SynthSpec,
    build_frame_dataset,
    collect_alphabet,
    cycle_bias,
    load_manifest,
    load_signal,
    load_utterance,
    read_labels,
    stored_length,
    synth_splits,
    utterance_grid,
    write_corpus,
)
from .crf import train_transitions
from .decoding import (
    compute_emissions,  # not called here: bound for perfbench/run.py, which traces it by this name
    decode_utterances,
    decoder,
    decoder_units,
    seconds_per_frame,
)
from .errors import DataError, DivergenceError, NoLegalPathError, WorkerLostError
from .model_io import load_model, save_model
from .net import (
    NetworkConfig,
    StageConfig,
    backward_pass,
    forward_pass,
    init_params,
    param_count,
)
from .scoring import collapse_path, corpus_report, map_labels, read_mapping
from .training import (
    GridSpec,
    TrainConfig,
    dataset_scores,
    frame_loss,
    grid_search,
    history_csv_lines,
    numeric_gradient,
    random_check_config,
    train_network,
)
from .workers import ordered_map

DEFAULT_STAGES = "160:10:3,5:1:3,9:1:3"

CHOICES = {"decoder": ("argmax", "crf", "hmm")}

HELP = {
    "stages": "per-stage kernel:shift:pool, comma separated",
    "cycle_bias": "favor class (k+1) mod K by this factor, forbid self",
    "mapping": "label mapping file: `source target` lines",
    "configs": "number of random configurations",
    "crf_lr": "first trial step of the CRF line search, on the summed log-likelihood",
    "crf_epochs": "CRF transition-training iterations (0: no CRF training)",
}

# Each numeric option's least value, whatever its source; a string names
# the option whose value is the least. Where 0 is the least it keeps its
# documented meaning (an empty split, no bias, the model's rate, no
# `.f32` input, no CRF training, every configuration, ...).
LEAST = {
    "train": 0, "cv": 0, "test": 0, "classes": 2, "harmonic_gain": 0, "noise_sigma": 0,
    "max_duration_ms": "min_duration_ms", "min_segments": 1, "max_segments": "min_segments",
    "sample_rate": 0, "seed": 0, "cycle_bias": 0, "window_frames": 0, "filters": 1,
    "hidden": 1, "feature_dim": 0, "raw_sample_rate": 0, "lr": 0, "epochs": 1, "patience": 1,
    "crf_lr": 0, "crf_epochs": 0, "stages_count": 0, "max_configs": 0, "min_duration": 1,
    "n_fft": 1, "configs": 1,
}

# Numeric options that must be finite and above 0. `hop_ms` is in neither
# table: it must round to a sample at the corpus's rate (_load_data).
POSITIVE = ("base_freq", "freq_step", "tone_amplitude", "min_duration_ms", "window_ms", "eps",
            "tolerance")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_of_bounds(key, value, merged):
    """How `value` breaks option `key`'s bound ("must be ..."), or None; `merged`
    holds the options that bound others. A stage width (kernel, shift, pool) is >= 1."""
    if key in POSITIVE:
        return None if 0 < value < math.inf else "must be finite and positive"
    low = least = LEAST.get(key, 1)
    if isinstance(low, str):  # another option's value
        low, least = merged[low], f"{_flag(low)} ({merged[low]})"
    if not value >= low:
        return f"must be at least {least}"
    return "must be finite" if value == math.inf else None


def _element(key, text, kind, bound, what):
    """`text`, a part of option `key` that errors call `what`, as a `kind`
    within the bound of option (or stage width) `bound`."""
    try:
        value = kind(text)
    except ValueError:
        problem = f"is not {'an integer' if kind is int else 'a number'}"
    else:
        problem = _out_of_bounds(bound, value, None)
    if problem:
        raise ValueError(f"{_flag(key)}: {what} {problem}")
    return value


def _parse_stages(text, filters):
    stages = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"--stages: stage {part!r} must be kernel:shift:pool")
        kw, dw, pool = (_element("stages", x, int, width, f"{width} {x!r} of stage {part!r}")
                        for x, width in zip(fields, ("kernel", "shift", "pool")))
        stages.append(StageConfig(kw, dw, filters, pool))
    return tuple(stages)


def _list(cfg, key, kind):
    """Comma-list option `key`'s elements, each a `kind` within the bound of
    the option (or stage width) that `key` names before `_list`."""
    return tuple(_element(key, x, kind, key[:-5], f"element {x!r}") for x in cfg[key].split(","))


def _samples(key, ms, sample_rate):
    """Option `key`'s `ms` milliseconds in samples; a usage error naming it
    if they round to none or are not finite."""
    samples = ms * sample_rate / 1000.0
    if not 0.5 < samples < math.inf:  # round(0.5) == 0
        raise ValueError(f"{_flag(key)} {ms:g} is {samples:g} samples at {sample_rate} Hz; "
                         f"the {key.split('_')[0]} must round to at least one sample")
    return int(round(samples))


def _resolve(args, defaults):
    """Merge defaults, --config file values, and explicit flags (flags win)."""
    merged = dict(defaults)
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            try:
                file_values = json.load(f)
            except json.JSONDecodeError as e:
                raise DataError(f"{args.config}: bad JSON: {e}") from e
        _check_config(args.config, file_values, defaults)
        merged.update(file_values)
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    for key, value in merged.items():  # in table order, so a min is checked before its max
        if key == "stages":
            _parse_stages(value, 1)  # checks each stage's widths
        elif key in LEAST or key in POSITIVE:
            problem = _out_of_bounds(key, value, merged)
            if problem:
                raise ValueError(f"{_flag(key)} {problem}, got {value}")
    return merged


def _check_config(path, values, defaults):
    """Config-file values must have their default's type: a usage error if not.

    A float option also takes an int, kept as given.
    """
    if not isinstance(values, dict):
        raise ValueError(f"{path}: config must be a JSON object, got {json.dumps(values)}")
    unknown = set(values) - set(defaults)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    for key, value in values.items():
        kind = type(defaults[key])
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
            raise ValueError(f"{path}: {key} must be {kind.__name__}, got {json.dumps(value)}")
        if key in CHOICES and value not in CHOICES[key]:
            raise ValueError(f"{path}: {key} must be one of {list(CHOICES[key])}, got {value!r}")


def _echo_resolved(out_dir, subcommand, resolved):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"subcommand": subcommand, **resolved}
    (out_dir / "resolved.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    )


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _corpus_sample_rate(utterances):
    rates = {u.waveform.sample_rate for u in utterances if u.waveform is not None}
    if len(rates) > 1:
        raise DataError(f"mixed sample rates in corpus: {sorted(rates)}")
    return rates.pop() if rates else None


def _load_data(cfg, *manifests):
    """Load the splits a training subcommand needs.

    Returns (splits, alphabet, garbage, sample_rate, hop). The alphabet
    covers all given splits plus the garbage label.
    """
    feature_dim = cfg["feature_dim"] or None
    raw_rate = cfg["raw_sample_rate"] or None
    splits = []
    for manifest in manifests:
        refs = load_manifest(manifest)
        if not refs:
            raise DataError(f"{manifest}: no utterances")
        splits.append([load_utterance(r, feature_dim, raw_rate) for r in refs])
    utterances = [u for split in splits for u in split]
    garbage = cfg["garbage"] or None
    alphabet = collect_alphabet(utterances)
    if garbage is not None and garbage not in alphabet:
        alphabet = sorted(alphabet + [garbage])
    sample_rate = _corpus_sample_rate(utterances)
    if feature_dim is not None:
        hop = 1
    elif sample_rate is None:
        raise DataError("raw input needs waveform utterances")
    else:
        hop = _samples("hop_ms", cfg["hop_ms"], sample_rate)
    for manifest, split in zip(manifests, splits):  # frames do not depend on the window
        if not any(utterance_grid(u, 1, hop).num_frames for u in split):
            raise DataError(f"{manifest}: every utterance is shorter than one hop ({hop} samples)")
    return splits, alphabet, garbage, sample_rate, hop


# ---------------------------------------------------------------------------
# synth


SYNTH_DEFAULTS = {
    "train": 10, "cv": 2, "test": 2,
    "classes": 5, "base_freq": 300.0, "freq_step": 400.0,
    "harmonic_gain": 0.5, "tone_amplitude": 0.6, "noise_sigma": 0.05,
    "min_duration_ms": 60.0, "max_duration_ms": 200.0,
    "min_segments": 4, "max_segments": 8,
    "sample_rate": 16000, "seed": 0, "cycle_bias": 0.0,
}


def cmd_synth(args):
    cfg = _resolve(args, SYNTH_DEFAULTS)
    out = Path(args.out)
    try:
        spec = SynthSpec(
            num_classes=cfg["classes"],
            base_freq_hz=cfg["base_freq"],
            freq_step_hz=cfg["freq_step"],
            harmonic_gain=cfg["harmonic_gain"],
            tone_amplitude=cfg["tone_amplitude"],
            noise_sigma=cfg["noise_sigma"],
            duration_ms=(cfg["min_duration_ms"], cfg["max_duration_ms"]),
            segments_range=(cfg["min_segments"], cfg["max_segments"]),
            sample_rate=cfg["sample_rate"],
            seed=cfg["seed"],
        )
        if cfg["cycle_bias"] > 0:
            spec = dataclasses.replace(
                spec, bigram_bias=cycle_bias(cfg["classes"], cfg["cycle_bias"])
            )
    except ValueError as e:  # within the bounds, only the Nyquist limit is left to break
        raise ValueError(f"--sample-rate: {e}") from None
    out.mkdir(parents=True, exist_ok=True)
    manifests = write_corpus(out, synth_splits(spec, cfg["train"], cfg["cv"], cfg["test"]))
    _echo_resolved(out, "synth", cfg)
    for name, path in manifests.items():
        print(f"{name}: {path}")
    return 0


# ---------------------------------------------------------------------------
# train


TRAIN_DEFAULTS = {
    "window_ms": 100.0, "window_frames": 0, "stages": DEFAULT_STAGES,
    "filters": 30, "hidden": 100, "hop_ms": 10.0,
    "feature_dim": 0, "garbage": "", "raw_sample_rate": 0,
    "lr": 1e-4, "epochs": 15, "patience": 5, "seed": 0, "shuffle": True,
    "crf_lr": 0.05, "crf_epochs": 5,
}


def _network_config(cfg, sample_rate, num_classes):
    """The NetworkConfig of a resolved train or ablate-pool config."""
    if cfg["feature_dim"] and not cfg["window_frames"]:
        raise ValueError("feature input needs --window-frames")
    input_frames = cfg["window_frames"] or _samples("window_ms", cfg["window_ms"], sample_rate)
    return NetworkConfig(input_frames=input_frames, input_dim=cfg["feature_dim"] or 1,
                         stages=_parse_stages(cfg["stages"], cfg["filters"]),
                         hidden_units=cfg["hidden"], num_classes=num_classes)


def _check_window(input_frames, train_utts, cfg=None):
    """A usage error unless the window fits in the longest training utterance.

    Framing pads every utterance by half a window before anything else
    looks at it, so an oversized window would exhaust memory instead.
    With `cfg`, the message names the option that set the window.
    """
    raw = train_utts[0].waveform is not None
    longest = max(u.length for u in train_utts)
    if input_frames > longest:
        unit, what = ("samples" if raw else "frames"), "window"
        if cfg is not None:
            key = "window_frames" if cfg["window_frames"] else "window_ms"
            what = f"{_flag(key)} {cfg[key]:g} is a window"
        raise ValueError(f"{what} of {input_frames} {unit}, "
                         f"longer than the longest training utterance ({longest} {unit})")


def _train_config(cfg):
    return TrainConfig(
        learning_rate=cfg["lr"], max_epochs=cfg["epochs"],
        patience=cfg["patience"], seed=cfg["seed"], shuffle=cfg["shuffle"],
    )


def _train_once(tc, train_utts, cv_utts, net_config, hop, alphabet, garbage):
    """Train one network, printing one progress line per epoch to stderr.

    Returns the best parameters, the history and the training set, whose
    framed utterances the CRF emissions score without framing them again.
    """
    train_set = build_frame_dataset(train_utts, net_config.input_frames, hop, alphabet, garbage)
    cv_set = build_frame_dataset(cv_utts, net_config.input_frames, hop, alphabet, garbage)

    def report(epoch, ll, cv_acc, seconds):
        print(
            f"epoch {epoch}/{tc.max_epochs}: train log-likelihood {ll:.6f}, "
            f"cv frame accuracy {cv_acc:.3f}%, {seconds:.2f} s, "
            f"{len(train_set) / seconds:.0f} frames/s",
            file=sys.stderr,
        )

    best, history = train_network(train_set, cv_set, net_config, tc, on_epoch=report)
    return best, history, train_set


def _handed_over(items):
    """The items of a list in order, each dropped from the list as it is taken."""
    for i in range(len(items)):
        item, items[i] = items[i], None
        yield item


def cmd_train(args):
    cfg = _resolve(args, TRAIN_DEFAULTS)
    tc = _train_config(cfg)
    out = Path(args.out)
    (train_utts, cv_utts), alphabet, garbage, sample_rate, hop = _load_data(
        cfg, args.train_manifest, args.cv_manifest
    )
    net_config = _network_config(cfg, sample_rate, len(alphabet))
    _check_window(net_config.input_frames, train_utts, cfg)

    best, history, train_set = _train_once(
        tc, train_utts, cv_utts, net_config, hop, alphabet, garbage
    )

    transitions = np.zeros((len(alphabet), len(alphabet)))
    if cfg["crf_epochs"] > 0:
        crf_data = _handed_over(dataset_scores(best, train_set, lambda *pair: pair))

        def report(epoch, ll, seconds):
            print(
                f"crf epoch {epoch}/{cfg['crf_epochs']}: log-likelihood {ll:.6f}, "
                f"{seconds:.2f} s",
                file=sys.stderr,
            )

        transitions = train_transitions(
            crf_data, len(alphabet), lr=cfg["crf_lr"], epochs=cfg["crf_epochs"], on_epoch=report,
        ).transitions

    out.mkdir(parents=True, exist_ok=True)
    metadata = {
        "input_kind": "feature" if cfg["feature_dim"] else "raw",
        "sample_rate": sample_rate,
        "hop_samples": hop,
        "garbage": garbage,
    }
    save_model(out / "model.rcn", best, alphabet, metadata, transitions)
    (out / "history.csv").write_text("\n".join(history_csv_lines(history)) + "\n")
    _echo_resolved(out, "train", cfg)
    print(f"model: {out / 'model.rcn'}")
    print(f"best cv frame accuracy: {max(h[2] for h in history):.3f}")
    return 0


# ---------------------------------------------------------------------------
# grid


GRID_DEFAULTS = {
    "window_ms_list": "100,300,500,700", "kernel_list": "1,5,9",
    "filters_list": "10,50,90", "hidden_list": "100,800,1500",
    "pool_list": "3", "stages_count": 3, "max_configs": 0,
    "hop_ms": 10.0, "feature_dim": 0, "garbage": "", "raw_sample_rate": 0,
    "lr": 1e-4, "epochs": 5, "patience": 5, "seed": 0, "shuffle": True,
}


def cmd_grid(args):
    cfg = _resolve(args, GRID_DEFAULTS)
    tc = _train_config(cfg)
    out = Path(args.out)
    spec = GridSpec(
        window_ms=_list(cfg, "window_ms_list", float),
        kernel_width=_list(cfg, "kernel_list", int),
        num_filters=_list(cfg, "filters_list", int),
        hidden_units=_list(cfg, "hidden_list", int),
        pool_width=_list(cfg, "pool_list", int),
        num_stages=cfg["stages_count"],
    )
    (train_utts, cv_utts), alphabet, garbage, sample_rate, hop = _load_data(
        cfg, args.train_manifest, args.cv_manifest
    )
    if not cfg["feature_dim"]:  # feature windows are counted in frames
        for ms in spec.window_ms:
            _samples("window_ms_list", ms, sample_rate)
    configs = spec.configs(sample_rate or 1000, cfg["feature_dim"] or 1, len(alphabet))
    if not configs:
        raise ValueError("grid is empty after dropping infeasible configurations")

    def dataset_for(config):
        _check_window(config.input_frames, train_utts)
        return tuple(build_frame_dataset(utts, config.input_frames, hop, alphabet, garbage)
                     for utts in (train_utts, cv_utts))

    results = grid_search(dataset_for, configs, tc, max_configs=cfg["max_configs"] or None)

    rows = []
    for r in results:
        c = r.config
        rows.append([
            r.ordinal, c.input_frames,
            "/".join(str(s.kernel_width) for s in c.stages),
            "/".join(str(s.shift) for s in c.stages),
            "/".join(str(s.pool_width) for s in c.stages),
            c.stages[0].out_dim if c.stages else 0, c.hidden_units,
            param_count(c), r.seed,
            "" if r.failed else f"{r.cv_accuracy:.6f}",
            r.error,
        ])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "grid.csv",
        ["ordinal", "window_frames", "kernels", "shifts", "pools",
         "filters", "hidden", "param_count", "seed", "cv_accuracy", "error"],
        rows,
    )
    _echo_resolved(out, "grid", cfg)
    print(f"grid results: {out / 'grid.csv'} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# decode


DECODE_DEFAULTS = {
    "decoder": "crf", "min_duration": 3, "raw_sample_rate": 0,
}


def cmd_decode(args):
    cfg = _resolve(args, DECODE_DEFAULTS)
    out = Path(args.out)
    params, alphabet, metadata, transitions = load_model(args.model)
    if transitions is None:
        transitions = np.zeros((len(alphabet), len(alphabet)))
    decode = decoder(cfg["decoder"], alphabet, transitions, cfg["min_duration"])
    hop = metadata.get("hop_samples") or 1
    if metadata.get("input_kind") == "feature" or params.config.input_dim > 1:
        feature_dim = params.config.input_dim
    else:
        feature_dim = None
    refs = load_manifest(args.manifest)

    model_rate = metadata.get("sample_rate")

    def checked(ref):
        """The loaded utterance, or the DataError that makes it undecodable."""
        try:
            utt = load_signal(ref, feature_dim, cfg["raw_sample_rate"] or None)
            if utt.waveform is not None and feature_dim is not None:
                raise DataError("waveform utterance for a feature-input model")
            if utt.waveform is not None and model_rate and utt.waveform.sample_rate != model_rate:
                raise DataError(
                    f"sample rate {utt.waveform.sample_rate} Hz != model's {model_rate} Hz"
                )
            return utt
        except DataError as e:
            return e

    def decode_share(share):  # each worker loads, scores and decodes its own share
        return decode_utterances((checked(ref) for ref in share), params, hop, decode)

    per_frame = seconds_per_frame(
        params.config, hop, decoder_units(cfg["decoder"], len(alphabet), cfg["min_duration"])
    )

    hyp_dir = out / "hyp"
    hyp_dir.mkdir(parents=True, exist_ok=True)
    log_rows = []
    outcomes = ordered_map(decode_share, refs,
                           lambda ref: stored_length(ref, feature_dim) // hop * per_frame)
    for ref, outcome in zip(refs, outcomes):
        if isinstance(outcome, Exception):
            log_rows.append([ref.id, "error", str(outcome).replace(",", ";")])
        else:
            (hyp_dir / f"{ref.id}.txt").write_text(" ".join(outcome) + "\n")
            log_rows.append([ref.id, "ok", ""])
    _write_csv(out / "decode_log.csv", ["id", "status", "message"], log_rows)
    _echo_resolved(out, "decode", cfg)
    failed = sum(1 for r in log_rows if r[1] != "ok")
    print(f"decoded {len(log_rows) - failed}/{len(log_rows)} utterances -> {hyp_dir}")
    if log_rows and failed == len(log_rows):
        print(f"data error: every utterance failed; see {out / 'decode_log.csv'}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# eval


EVAL_DEFAULTS = {"mapping": "", "strip_garbage": False, "garbage": ""}


def cmd_eval(args):
    cfg = _resolve(args, EVAL_DEFAULTS)
    out = Path(args.out)
    refs = load_manifest(args.ref_manifest)
    if cfg["strip_garbage"] and not cfg["garbage"]:
        raise ValueError("--strip-garbage needs --garbage to name the label to strip")
    table = read_mapping(cfg["mapping"]) if cfg["mapping"] else None
    strip = cfg["garbage"] if cfg["strip_garbage"] else None

    def sequences(ref):
        labels = read_labels(ref.labels_path).labels()
        if not labels:
            raise DataError(f"utterance {ref.id}: {ref.labels_path} has no segments")
        ref_seq = collapse_path(labels, strip=strip)
        hyp_file = Path(args.hyp_dir) / f"{ref.id}.txt"
        hyp_seq = hyp_file.read_text().split() if hyp_file.exists() else []
        if table is not None:
            ref_seq = collapse_path(map_labels(ref_seq, table), strip=strip)
            hyp_seq = map_labels(hyp_seq, table)
        if hyp_seq and strip is not None:
            hyp_seq = collapse_path(hyp_seq, strip=strip)
        return ref.id, ref_seq, hyp_seq

    rows, overall = corpus_report(sequences(ref) for ref in refs)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "report.csv",
        ["id", "n_ref", "edit_distance", "accuracy", "substitutions", "deletions", "insertions"],
        rows,
    )
    _echo_resolved(out, "eval", cfg)
    print(f"phoneme accuracy (corpus-pooled): {overall:.3f}")
    print("S/D/I columns reflect one minimal alignment (match > sub > del > ins)")
    return 0


# ---------------------------------------------------------------------------
# filters


FILTERS_DEFAULTS = {"n_fft": 512, "sample_rate": 0}


def cmd_filters(args):
    cfg = _resolve(args, FILTERS_DEFAULTS)
    out = Path(args.out)
    params, _alphabet, metadata, _a = load_model(args.model)
    if params.config.input_dim != 1:
        raise DataError(
            "filter spectra need a raw-input model (first layer d_in == 1), "
            f"got d_in == {params.config.input_dim}"
        )
    if not params.config.stages:
        raise DataError("model has no convolutional layers")
    sample_rate = cfg["sample_rate"] or metadata.get("sample_rate")
    if not sample_rate:
        raise DataError("sample rate unknown; pass --sample-rate")
    n_fft, kernel_width = cfg["n_fft"], params.conv[0].kernel_width
    if n_fft < kernel_width:  # rfft would crop the filters to n_fft taps
        raise ValueError(f"--n-fft {n_fft} is below stage 0's kernel width {kernel_width}")
    weight = params.conv[0].weight.astype(np.float64)
    spectra = np.abs(np.fft.rfft(weight, n=n_fft, axis=1))
    rows = []
    for i in range(weight.shape[0]):
        for b in range(n_fft // 2 + 1):
            rows.append([i, f"{b * sample_rate / n_fft:.6f}", f"{spectra[i, b]:.8e}"])
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "filters.csv", ["filter_index", "bin_frequency_hz", "magnitude"], rows)
    _echo_resolved(out, "filters", cfg)
    print(f"filter spectra: {out / 'filters.csv'} ({weight.shape[0]} filters)")
    return 0


# ---------------------------------------------------------------------------
# ablate-pool


ABLATE_DEFAULTS = {
    k: v for k, v in TRAIN_DEFAULTS.items() if not k.startswith("crf_")
}
ABLATE_DEFAULTS.update({"min_duration": 3})


def _raised(outcome):
    """A decode outcome's labels; its error is raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _with_retained_pools(base, retained):
    """Last stages beyond `retained` lose pooling; the input window is kept."""
    stages = base.stages[:retained] + tuple(
        dataclasses.replace(s, pool_width=1) for s in base.stages[retained:]
    )
    return dataclasses.replace(base, stages=stages)


def cmd_ablate_pool(args):
    cfg = _resolve(args, ABLATE_DEFAULTS)
    tc = _train_config(cfg)
    out = Path(args.out)
    (train_utts, cv_utts, test_utts), alphabet, garbage, sample_rate, hop = _load_data(
        cfg, args.train_manifest, args.cv_manifest, args.test_manifest
    )
    base_config = _network_config(cfg, sample_rate, len(alphabet))
    if len(base_config.stages) != 3:
        raise ValueError("pooling ablation needs a 3-stage base configuration")
    _check_window(base_config.input_frames, train_utts, cfg)

    decode = decoder("hmm", alphabet, None, cfg["min_duration"])

    def row(retained):
        """Train with `retained` pooled stages, then decode and score the test split."""
        try:
            config = _with_retained_pools(base_config, retained)
            best = _train_once(tc, train_utts, cv_utts, config, hop, alphabet, garbage)[0]
            _report, acc = corpus_report(
                (u.id, collapse_path(u.annotation.labels()), _raised(hyp))
                for u, hyp in zip(test_utts, decode_utterances(test_utts, best, hop, decode))
            )
            return [retained, param_count(config), f"{acc:.6f}", ""]
        except (ValueError, DataError, NoLegalPathError, DivergenceError) as e:
            return [retained, "", "", str(e).replace(",", ";")]

    rows = ordered_map(lambda share: map(row, share), (0, 1, 2, 3))
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out / "ablation.csv",
        ["pool_layers", "param_count", "test_phoneme_accuracy", "error"],
        rows,
    )
    _echo_resolved(out, "ablate-pool", cfg)
    for row in rows:
        print(f"pool_layers={row[0]} params={row[1]} accuracy={row[2]} {row[3]}")
    return 0


# ---------------------------------------------------------------------------
# check-grad


CHECKGRAD_DEFAULTS = {"configs": 5, "eps": 1e-4, "tolerance": 1e-4, "seed": 0}


def cmd_check_grad(args):
    cfg = _resolve(args, CHECKGRAD_DEFAULTS)
    rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
    report = []
    for index in range(cfg["configs"]):
        config = random_check_config(rng)
        params = init_params(config, int(rng.integers(2**31)), dtype=np.float64)
        window = rng.normal(size=(config.input_frames, config.input_dim))
        target = int(rng.integers(config.num_classes))
        scores, cache = forward_pass(window, params)
        analytic, _ = backward_pass(cache, params, frame_loss(scores, target)[1])

        for name, tensor in params.named_tensors():
            numeric = numeric_gradient(
                tensor, lambda: frame_loss(forward_pass(window, params)[0], target)[0],
                cfg["eps"],
            )
            a = analytic[name]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-6)
            err = float(np.max(np.abs(a - numeric) / denom))
            report.append([index, name, f"{err:.3e}", "pass" if err < cfg["tolerance"] else "FAIL"])
    all_pass = all(row[3] == "pass" for row in report)
    for row in report:
        print(f"config {row[0]:2d} {row[1]:<16} rel_err {row[2]} {row[3]}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "gradcheck.csv", ["config", "tensor", "max_rel_error", "status"], report)
        _echo_resolved(out, "check-grad", cfg)
    print("gradient check:", "PASS" if all_pass else "FAIL")
    return 0 if all_pass else 3


# ---------------------------------------------------------------------------
# argument wiring


SUBCOMMANDS = (  # name, handler, help, option table, required path flags
    ("synth", cmd_synth, "generate a synthetic tone corpus", SYNTH_DEFAULTS, ()),
    ("train", cmd_train, "train the network (and CRF transitions)", TRAIN_DEFAULTS,
     ("train_manifest", "cv_manifest")),
    ("grid", cmd_grid, "hyperparameter grid search", GRID_DEFAULTS,
     ("train_manifest", "cv_manifest")),
    ("decode", cmd_decode, "decode a manifest with a trained model", DECODE_DEFAULTS,
     ("manifest", "model")),
    ("eval", cmd_eval, "score hypotheses against reference labels", EVAL_DEFAULTS,
     ("ref_manifest", "hyp_dir")),
    ("filters", cmd_filters, "export first-layer filter spectra", FILTERS_DEFAULTS, ("model",)),
    ("ablate-pool", cmd_ablate_pool, "retrain with 0-3 pooling layers", ABLATE_DEFAULTS,
     ("train_manifest", "cv_manifest", "test_manifest")),
    ("check-grad", cmd_check_grad, "finite-difference gradient check", CHECKGRAD_DEFAULTS, ()),
)


def _flag(key):
    return "--" + key.replace("_", "-")


def build_parser(only=None):
    """The argument parser, or with `only` the same parser holding that subcommand alone."""
    parser = _Parser(prog="rawphone", description=__doc__)
    # with one subcommand, the top-level usage still lists all, as the full parser does
    every = "{" + ",".join(name for name, *_rest in SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=every if only else None)
    for name, func, help_text, defaults, paths in SUBCOMMANDS:
        if only is not None and name != only:
            continue
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON file with option defaults")
        p.add_argument("--out", required=name != "check-grad", help="output directory")
        for key in paths:
            p.add_argument(_flag(key), required=True)
        for key, default in defaults.items():
            if isinstance(default, bool):
                p.add_argument(
                    _flag(("no_" if default else "") + key), dest=key, default=None,
                    action="store_false" if default else "store_true", help=HELP.get(key),
                )
            else:
                p.add_argument(
                    _flag(key), type=type(default), choices=CHOICES.get(key), help=HELP.get(key)
                )
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # building one subcommand's parser takes a fifth of the time of all eight
    named = argv[0] if argv and any(argv[0] == s[0] for s in SUBCOMMANDS) else None
    args = build_parser(named).parse_args(argv)
    try:
        return args.func(args)
    except (DataError, NoLegalPathError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    except (DivergenceError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 3
    except (WorkerLostError, MemoryError) as e:
        print(f"resource error: {e or 'out of memory'}", file=sys.stderr)
        return 4
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
