"""rawphone benchmark: seeded workloads driven through `rawphone.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a rawphone checkout; `rawphone` is imported from
that checkout's `src/`, never from an installed copy. The load is closed
loop and sequential: one process, one client, and each subcommand starts
when the previous one returns.

`--trace 0` sets the workload up five times (set-up time is their
median), then repeats rounds of the workload's subcommands until
`--seconds` have passed (at least two rounds) and reports the median of
each end-to-end metric over the rounds. `--trace 1` sets up once, runs
the whole pipeline untraced, then again with every layer's public
functions wrapped by `tracer.Tracer`, then untraced once more, and
reports the per-layer metrics and the tracing overhead. Outputs are checked on every run; the last
stdout line is the JSON result, the line before it the run context.
See README.md for the workloads and metrics.
"""

import os
import sys
import time

# BLAS threads are pinned before numpy loads; 1 is never above nproc.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
import wave  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import feat39  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
DECODERS = ("argmax", "hmm", "crf")
SETUP_REPEATS = 5
MIN_ROUNDS = 2
# A sanity floor, far below what every workload reaches: a pipeline that
# stops learning or decoding fails the output check instead of only
# reading low.
ACCURACY_FLOOR = 50.0

RAW_NET = ["--window-ms", "100", "--stages", "160:10:3,5:1:3,9:1:3", "--filters", "30", "--hidden", "100"]
FEAT_NET = [
    "--feature-dim", "39", "--window-frames", "9", "--stages", "3:1:1",
    "--filters", "20", "--hidden", "50",
]


@dataclass(frozen=True)
class Workload:
    corpus: str  # "synth" (5 tone classes, 16 kHz) or "feat39"
    train: int
    cv: int
    test: int
    train_args: tuple
    model_in_setup: bool  # train during set-up; rounds only decode and score

    @property
    def epochs(self):
        return int(self.train_args[self.train_args.index("--epochs") + 1])


WORKLOADS = {
    # Per-example SGD dominates; the acceptance architecture with its 6:5
    # ratio of SGD to CRF epochs and its 5:1 ratio of train to CV
    # utterances. The short decode of a small test split is timed apart
    # from `train`.
    "train_raw": Workload(
        "synth", 10, 2, 12,
        tuple(RAW_NET + ["--lr", "6e-3", "--epochs", "6", "--crf-epochs", "5"]), False,
    ),
    # Pure inference: the model is trained in set-up, and each round
    # decodes a test split larger than the acceptance one three ways.
    "decode_raw": Workload(
        "synth", 8, 4, 48,
        tuple(RAW_NET + ["--lr", "6e-3", "--epochs", "2", "--crf-epochs", "2"]), True,
    ),
    # Feature input with K=39: the K^2 CRF and HMM programs and the
    # O(n*m) Levenshtein over 30-40 phoneme references carry weight.
    "feat39": Workload(
        "feat39", 12, 4, 24,
        tuple(FEAT_NET + ["--lr", "1e-2", "--epochs", "2", "--crf-epochs", "3"]), False,
    ),
}


def _first_len(*args, **kwargs):
    return len(args[0])


def _grid_frames(*args, **kwargs):
    return args[1].num_frames


def _edit_cells(*args, **kwargs):
    return (len(args[0]) + 1) * (len(args[1]) + 1)


# Span name -> work units of one call (frames, DP cells) or None.
TRACE_TARGETS = {
    "cli.cmd_train": None,
    "cli.cmd_decode": None,
    "cli.cmd_eval": None,
    "cli.compute_emissions": None,
    "corpus.load_utterance": None,
    "corpus.build_frame_dataset": None,
    "framing.extract_windows": _grid_frames,
    "framing.extract_feature_windows": _first_len,
    "framing.frame_labels": _grid_frames,
    "net.forward_pass": None,
    "net.backward_pass": None,
    "net.maxpool_forward": None,
    "net.softmax": None,
    "training.train_network": None,
    "training.frame_accuracy_of": None,
    "training.sgd_step": None,
    "crf.train_transitions": None,
    "crf.transition_gradient": _first_len,
    "crf.crf_log_likelihood": None,
    "crf.viterbi": _first_len,
    "hmm.hmm_decode": None,
    "hmm.decode_scores": _first_len,
    "scoring.levenshtein": _edit_cells,
    "model_io.load_model": None,
    "model_io.save_model": None,
}


class StepFailed(Exception):
    """A subcommand returned nonzero or raised."""


class RunState:
    """Operation counts and output problems of one benchmark run."""

    def __init__(self, main):
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def cli(self, *argv):
        """One in-process subcommand call; raises StepFailed unless it returns 0."""
        argv = [str(a) for a in argv]
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self.main(argv)
        except Exception as e:  # an escaped exception is a failed operation
            traceback.print_exc()
            rc = f"{type(e).__name__}: {e}"
        if rc != 0:
            self.failed += 1
            raise StepFailed(f"`{argv[0]}` failed: {rc}")


# ---------------------------------------------------------------------------
# inputs


def make_corpus(state, wl, seed, out):
    if wl.corpus == "synth":
        state.cli(
            "synth", "--out", out, "--classes", 5, "--sample-rate", 16000,
            "--train", wl.train, "--cv", wl.cv, "--test", wl.test, "--seed", seed,
        )
    else:
        feat39.write_feature_corpus(out, {"train": wl.train, "cv": wl.cv, "test": wl.test}, seed)


def split_frames(corpus, split):
    """Frames the pipeline scores for one split: floor(samples/hop) or T."""
    total = 0
    for line in (corpus / f"{split}.jsonl").read_text().splitlines():
        rec = json.loads(line)
        if "wav" in rec:
            with wave.open(str(corpus / rec["wav"]), "rb") as w:
                total += w.getnframes() // (w.getframerate() // 100)
        else:
            total += (corpus / rec["feat"]).stat().st_size // (4 * feat39.FEATURE_DIM)
    return total


def train(state, wl, seed, corpus, model_dir):
    state.cli(
        "train", "--train-manifest", corpus / "train.jsonl", "--cv-manifest", corpus / "cv.jsonl",
        "--out", model_dir, "--seed", seed, *wl.train_args,
    )


def decode_and_score(state, corpus, model_dir, out, decoder):
    """Decode the test split with one decoder, then score it."""
    state.cli(
        "decode", "--manifest", corpus / "test.jsonl", "--model", model_dir / "model.rcn",
        "--decoder", decoder, "--out", out / f"dec_{decoder}",
    )
    state.cli(
        "eval", "--ref-manifest", corpus / "test.jsonl", "--hyp-dir", out / f"dec_{decoder}" / "hyp",
        "--out", out / f"eval_{decoder}",
    )


def train_frames(corpus, model_dir):
    """Training frames x epochs run (rows of history.csv)."""
    return split_frames(corpus, "train") * len(_read_csv(model_dir / "history.csv"))


# ---------------------------------------------------------------------------
# output checks


def _edit_distance(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j - 1] + (x != y), prev[j] + 1, cur[j - 1] + 1))
        prev = cur
    return prev[-1]


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_model(state, model_dir, epochs):
    """Best CV frame accuracy from history.csv, after checking its shape."""
    rows = _read_csv(model_dir / "history.csv")
    if not (model_dir / "model.rcn").is_file() or not 1 <= len(rows) <= epochs:
        state.problems.append(f"{model_dir}: missing model or {len(rows)} history rows")
        return 0.0
    best = max(float(r["cv_frame_accuracy"]) for r in rows)
    if best < ACCURACY_FLOOR:
        state.problems.append(f"{model_dir}: best cv frame accuracy {best:.2f} < {ACCURACY_FLOOR}")
    return best


def check_decodes(state, corpus, out):
    """Per-decoder OVERALL phoneme accuracy, after checking every decode and report.

    Each decode_log row counts as an operation. The OVERALL row must equal
    an edit distance recomputed here from the label files and hypotheses.
    """
    refs = [json.loads(line) for line in (corpus / "test.jsonl").read_text().splitlines()]
    accuracy = {}
    for d in DECODERS:
        log = _read_csv(out / f"dec_{d}" / "decode_log.csv")
        state.attempted += len(log)
        bad = [r["id"] for r in log if r["status"] != "ok"]
        state.failed += len(bad)
        if bad or [r["id"] for r in log] != [r["id"] for r in refs]:
            state.problems.append(f"{d}: decode_log does not mark every test utterance ok")
        n = e = 0
        for ref in refs:
            seq = [line.split()[2] for line in (corpus / ref["labels"]).read_text().splitlines()]
            ref_seq = [x for i, x in enumerate(seq) if i == 0 or x != seq[i - 1]]
            hyp_file = out / f"dec_{d}" / "hyp" / f"{ref['id']}.txt"
            hyp_seq = hyp_file.read_text().split() if hyp_file.is_file() else []
            n += len(ref_seq)
            e += _edit_distance(ref_seq, hyp_seq)
        overall = _read_csv(out / f"eval_{d}" / "report.csv")[-1]
        expected = 100.0 * (n - e) / n
        if (overall["id"], int(overall["n_ref"]), int(overall["edit_distance"])) != ("OVERALL", n, e):
            state.problems.append(f"{d}: report OVERALL row disagrees with the recomputed edit distance")
        accuracy[d] = float(overall["accuracy"])
        if abs(accuracy[d] - expected) > 1e-4 or accuracy[d] < ACCURACY_FLOOR:
            state.problems.append(f"{d}: phoneme accuracy {accuracy[d]:.3f} (recomputed {expected:.3f})")
    return accuracy


def digest(model_dir, out):
    """sha256 over model.rcn, history.csv, every hypothesis and every report.csv."""
    files = [("model.rcn", model_dir / "model.rcn"), ("history.csv", model_dir / "history.csv")]
    for d in DECODERS:
        files += [(f"dec_{d}/hyp/{p.name}", p) for p in sorted((out / f"dec_{d}" / "hyp").glob("*.txt"))]
        files.append((f"eval_{d}/report.csv", out / f"eval_{d}" / "report.csv"))
    h = hashlib.sha256()
    for name, f in files:
        h.update(f"{name}\n".encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def tree_digest(path):
    """sha256 over the relative names and bytes of the files under path, bytecode aside."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(f"{f.relative_to(path)}\n".encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def check_rerun(state, workload, seed, value):
    """Compare with the digest an earlier run of the same sources and seed stored."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    bench = hashlib.sha256(b"".join(f.read_bytes() for f in sorted(BENCH.glob("*.py")))).hexdigest()
    key = f"{tree_digest(ROOT / 'src')}:{bench}:{workload}:{seed}"
    if known.setdefault(key, value) != value:
        state.problems.append(f"outputs differ from an earlier run of the same code ({key})")
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, store)


def check_timing(state, workload, samples):
    """Flag a timed metric whose reference-speed and wall-clock medians moved apart.

    Compared with baseline.json, on the machine type it was taken on: if
    the reference-speed median got better and the wall-clock median worse
    (or the other way round), each by more than the metric's bound, the
    calibration divisor moved rather than the program's speed.
    """
    baseline = json.loads((BENCH / "baseline.json").read_text())
    context = baseline["context"]
    if (context["cpu_model"], context["nproc"]) != (run_context_cpu(), os.cpu_count()):
        return
    for metric, base in baseline["workloads"][workload]["end_to_end"].items():
        if metric not in samples.ref:
            continue
        ref_move = samples.median(metric) / base["median"] - 1.0
        wall_move = statistics.median(samples.wall[metric]) / base["wall_clock"]["median"] - 1.0
        if ref_move * wall_move < 0 and min(abs(ref_move), abs(wall_move)) > base["bound"]:
            state.problems.append(
                f"{metric}: reference-speed median moved {ref_move:+.1%} from baseline.json "
                f"but wall-clock median {wall_move:+.1%}"
            )


# ---------------------------------------------------------------------------
# runs


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def stats(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


# The speed of a core on a shared virtual machine drifts by up to ~1.8x
# within seconds, with wall and CPU time alike, which no amount of
# repetition in a 30 s run averages out. Every timed call is therefore
# bracketed by runs of a fixed calibration kernel (`calib.py`) in a child
# process of its own, and its wall time is also expressed at the
# reference speed at which the kernel takes CAL_REF_S. The end-to-end
# metrics use reference-speed times; plain wall-time figures are in the
# run context.
CAL_REF_S = 0.2


class RefClock:
    """Times calls in wall seconds and in reference-speed seconds.

    A context manager: it starts the calibration process on entry and
    stops it, waiting for it to end, on exit.
    """

    def __enter__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=THREADS, OMP_NUM_THREADS=THREADS)
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calib.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            self.last = self.calibrate()
        except BaseException:
            self.__exit__()
            raise
        self.all = [self.last]
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()
        return False

    def calibrate(self):
        """Wall seconds of one run of the calibration kernel in the child process."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise OSError(f"calibration process ended with code {self._proc.wait()}")
        return float(line)

    def time(self, fn, *args):
        """Run fn(*args); return (wall seconds, reference-speed seconds)."""
        before = self.last
        t0 = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - t0
        self.last = self.calibrate()
        self.all.append(self.last)
        return wall, wall * 2.0 * CAL_REF_S / (before + self.last)


class Samples:
    """Per-metric values of one run, at wall speed and at reference speed."""

    def __init__(self):
        self.wall, self.ref = {}, {}

    def add(self, metric, work, wall, ref):
        """A rate (work / time), or a time when work is None."""
        self.wall.setdefault(metric, []).append(wall if work is None else work / wall)
        self.ref.setdefault(metric, []).append(ref if work is None else work / ref)

    def median(self, metric):
        return statistics.median(self.ref[metric])

    def summary(self):
        return {k: {"ref": stats(self.ref[k]), "wall": stats(self.wall[k])} for k in self.ref}


def measure(state, clock, wl, name, seed, seconds, base, import_wall):
    """End-to-end metrics: set-up SETUP_REPEATS times, then timed rounds."""
    import_ref = import_wall * CAL_REF_S / clock.last
    samples = Samples()
    setup_digests = set()
    for rep in range(SETUP_REPEATS):
        corpus = fresh(base / f"setup{rep}") / "corpus"
        wall, ref = clock.time(make_corpus, state, wl, seed, corpus)
        wall, ref = wall + import_wall, ref + import_ref
        setup_digests.add(tree_digest(corpus))
        if wl.model_in_setup:
            model_dir = base / f"setup{rep}" / "model"
            train_wall, train_ref = clock.time(train, state, wl, seed, corpus, model_dir)
            wall, ref = wall + train_wall, ref + train_ref
            samples.add("train_frames_per_s", train_frames(corpus, model_dir), train_wall, train_ref)
            setup_digests.add(tree_digest(model_dir))
        samples.add("setup_s", None, wall, ref)
    if len(setup_digests) != (2 if wl.model_in_setup else 1):
        state.problems.append("repeated set-ups produced different inputs or models")
    test_frames = split_frames(corpus, "test")

    round_digests = set()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        out = fresh(base / "round")
        if not wl.model_in_setup:
            model_dir = out / "model"
            wall, ref = clock.time(train, state, wl, seed, corpus, model_dir)
            samples.add("train_frames_per_s", train_frames(corpus, model_dir), wall, ref)
        for d in DECODERS:
            wall, ref = clock.time(decode_and_score, state, corpus, model_dir, out, d)
            samples.add(f"decode_frames_per_s.{d}", test_frames, wall, ref)
        cv_acc = check_model(state, model_dir, wl.epochs)
        accuracy = check_decodes(state, corpus, out)
        round_digests.add(digest(model_dir, out))
        rounds += 1
    if len(round_digests) != 1:
        state.problems.append(f"{rounds} rounds produced {len(round_digests)} different outputs")
    check_rerun(state, name, seed, round_digests.pop())
    check_timing(state, name, samples)

    metrics = {"setup_s": (samples.median("setup_s"), "s")}
    for metric in ["train_frames_per_s"] + [f"decode_frames_per_s.{d}" for d in DECODERS]:
        metrics[metric] = (samples.median(metric), "frames/s")
    metrics["cv_frame_accuracy"] = (cv_acc, "%")
    for d in DECODERS:
        metrics[f"phoneme_accuracy.{d}"] = (accuracy[d], "%")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics, {"rounds": rounds, "import_s": import_wall, "samples": samples.summary(),
                     "calibration_s": stats(clock.all)}


def layer_metrics(tr, scored_frames, overhead_ratio):
    """Per-layer metrics from one traced pass over the whole pipeline."""
    fwd = "net.forward_pass"
    return {
        "framing.windows.frames": (tr.work_total("framing.extract_windows")
                                   + tr.work_total("framing.extract_feature_windows"), "count"),
        "framing.windows.us_per_frame": (tr.us_per_work("framing.extract_windows",
                                                        "framing.extract_feature_windows"), "us"),
        "framing.frame_labels.us_per_frame": (tr.us_per_work("framing.frame_labels"), "us"),
        "corpus.load_utterance.busy_s": (tr.busy_s("corpus.load_utterance"), "s"),
        "corpus.build_frame_dataset.busy_s": (tr.busy_s("corpus.build_frame_dataset"), "s"),
        "net.forward_pass.calls": (tr.calls(fwd), "count"),
        "net.forward_pass.us_per_call": (tr.us_per_call(fwd), "us"),
        "net.forward_pass.us_per_call.p99": (tr.us_per_call(fwd, 99), "us"),
        "net.forward_pass.per_scored_frame": (tr.calls(fwd) / scored_frames, "ratio"),
        "net.maxpool_forward.us_per_call": (tr.us_per_call("net.maxpool_forward"), "us"),
        "net.backward_pass.calls": (tr.calls("net.backward_pass"), "count"),
        "net.backward_pass.us_per_call": (tr.us_per_call("net.backward_pass"), "us"),
        "net.forward.step_s": (tr.busy_s(fwd, "training.train_network"), "s"),
        "net.forward.cv_s": (tr.busy_s(fwd, "training.frame_accuracy_of"), "s"),
        "net.forward.emissions_s": (tr.busy_s(fwd, "cli.compute_emissions"), "s"),
        "net.softmax.calls": (tr.calls("net.softmax", "cli."), "count"),
        "training.sgd_step.calls": (tr.calls("training.sgd_step"), "count"),
        "training.sgd_step.us_per_call": (tr.us_per_call("training.sgd_step"), "us"),
        "training.train_network.self_s": (tr.self_s("training.train_network"), "s"),
        "training.frame_accuracy_of.busy_s": (tr.busy_s("training.frame_accuracy_of"), "s"),
        "training.steps_per_s": (tr.calls("training.sgd_step") / tr.busy_s("training.train_network"), "1/s"),
        "crf.train_transitions.busy_s": (tr.busy_s("crf.train_transitions"), "s"),
        "crf.transition_gradient.us_per_frame": (tr.us_per_work("crf.transition_gradient"), "us"),
        "crf.crf_log_likelihood.calls": (tr.calls("crf.crf_log_likelihood"), "count"),
        "crf.crf_log_likelihood.busy_s": (tr.busy_s("crf.crf_log_likelihood"), "s"),
        "crf.viterbi.us_per_frame": (tr.us_per_work("crf.viterbi"), "us"),
        "hmm.hmm_decode.busy_s": (tr.busy_s("hmm.hmm_decode"), "s"),
        "hmm.decode_scores.us_per_frame": (tr.us_per_work("hmm.decode_scores"), "us"),
        "scoring.levenshtein.calls": (tr.calls("scoring.levenshtein"), "count"),
        "scoring.levenshtein.cells": (tr.work_total("scoring.levenshtein"), "count"),
        "scoring.levenshtein.us_per_cell": (tr.us_per_work("scoring.levenshtein"), "us"),
        "model_io.load_model.busy_s": (tr.busy_s("model_io.load_model"), "s"),
        "model_io.save_model.busy_s": (tr.busy_s("model_io.save_model"), "s"),
        "cli.train.self_s": (tr.self_s("cli.train"), "s"),
        "cli.decode.self_s": (tr.self_s("cli.decode"), "s"),
        "cli.eval.self_s": (tr.self_s("cli.eval"), "s"),
        "cli.compute_emissions.self_s": (tr.self_s("cli.compute_emissions"), "s"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def run_pipeline(state, wl, seed, corpus, out):
    train(state, wl, seed, corpus, out / "model")
    for d in DECODERS:
        decode_and_score(state, corpus, out / "model", out, d)


def traced(state, clock, wl, name, seed, base):
    """Per-layer metrics: untraced, traced and again untraced passes of train, decode and eval.

    The tracing overhead is the number of spans times the measured cost
    of one span, over the mean wall time of the untraced passes. The
    measured ratio of traced to untraced time goes to the summary only:
    on a shared machine one pass varies by more than the tracer costs.
    """
    corpus = fresh(base / "setup") / "corpus"
    make_corpus(state, wl, seed, corpus)
    tracer = Tracer(TRACE_TARGETS, run_id=f"{name}:{seed}")
    results = {}
    for label, ctx in (("untraced1", contextlib.nullcontext()), ("traced", tracer),
                       ("untraced2", contextlib.nullcontext())):
        out = fresh(base / label)
        with ctx:
            wall, ref = clock.time(run_pipeline, state, wl, seed, corpus, out)
        check_model(state, out / "model", wl.epochs)
        check_decodes(state, corpus, out)
        results[label] = (wall, ref, digest(out / "model", out))
    if len({r[2] for r in results.values()}) != 1:
        state.problems.append("traced outputs differ from untraced outputs")
    check_rerun(state, name, seed, results["traced"][2])
    if tracer.missing:
        state.problems.append(f"trace targets not found: {tracer.missing}")
    tracer.write(base / "spans.csv")
    scored = sum(split_frames(corpus, s) for s in ("train", "cv", "test"))
    span_cost = Tracer.span_cost_s()
    untraced_wall = (results["untraced1"][0] + results["untraced2"][0]) / 2.0
    metrics = layer_metrics(tracer, scored, len(tracer.names) * span_cost / untraced_wall)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics["process.cpu_s"] = (usage.ru_utime + usage.ru_stime, "s")
    summary = {f"{label}_{kind}_s": results[label][i]
               for label in results for i, kind in ((0, "wall"), (1, "ref"))}
    untraced_ref = (results["untraced1"][1] + results["untraced2"][1]) / 2.0
    summary.update(spans=len(tracer.names), scored_frames=scored, span_cost_s=span_cost,
                   measured_overhead_ratio=results["traced"][1] / untraced_ref - 1.0)
    return metrics, summary


# ---------------------------------------------------------------------------
# run context


def run_context_cpu():
    try:
        return next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        return platform.processor()


def run_context():
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": commit,
        "src_sha256": tree_digest(ROOT / "src"),
        "nproc": os.cpu_count(),
        "cpu_model": run_context_cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def process_age():
    """Seconds since this process started; /proc gives its start in clock ticks since boot."""
    with open("/proc/self/stat", encoding="ascii") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_cli():
    src = ROOT / "src"
    if not (src / "rawphone" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no rawphone sources under {src}; run from a rawphone checkout")
    sys.path.insert(0, str(src))
    import rawphone
    import rawphone.cli

    if Path(rawphone.__file__).resolve().parent != (src / "rawphone").resolve():
        raise SystemExit(f"run.py: imported rawphone from {rawphone.__file__}, not {src}")
    return rawphone.cli.main


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    # Interpreter start and imports count into set-up; starting the
    # calibration process does not.
    import_wall = process_age()
    with RefClock() as clock:
        t0 = time.perf_counter()
        cli_main = import_cli()
        import_wall += time.perf_counter() - t0

        load_before = os.getloadavg()
        state = RunState(cli_main)
        base = fresh(WORK / args.workload)
        wl = WORKLOADS[args.workload]
        try:
            if args.trace:
                metrics, summary = traced(state, clock, wl, args.workload, args.seed, base)
            else:
                metrics, summary = measure(state, clock, wl, args.workload, args.seed, args.seconds,
                                           base, import_wall)
        except (StepFailed, OSError, KeyError, ValueError) as e:
            state.problems.append(f"{type(e).__name__}: {e}")
            metrics, summary = {}, {}
    usage = resource.getrusage(resource.RUSAGE_SELF)
    context = run_context()
    context.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "process.cpu_s": usage.ru_utime + usage.ru_stime,
        "op_fail_ratio": state.failed / max(state.attempted, 1),
        "problems": state.problems, "summary": summary,
    })
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": not state.problems,
        "attempted": max(state.attempted, 1),
        "failed": state.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
