import collections
import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from rawphone import cli, decoding, framing, training, workers
from rawphone.cli import SUBCOMMANDS, build_parser, main
from rawphone.corpus import load_manifest, load_utterance, read_wav, write_labels, write_wav
from rawphone.decoding import decoder
from rawphone.errors import NoLegalPathError
from rawphone.framing import SegmentAnnotation, Waveform
from rawphone.model_io import load_model, save_model
from rawphone.net import NetworkConfig, StageConfig, init_params, param_count

from oracles import naive_dft_magnitude

SMALL_NET = ["--window-ms", "50", "--stages", "80:10:3,5:1:3,3:1:2",
             "--filters", "8", "--hidden", "16"]


def run(argv):
    return main([str(a) for a in argv])


def split_args(corpus, *splits):
    return [a for split in splits
            for a in (f"--{split}-manifest", corpus / f"{split}.jsonl")]


def refuse_framing(*_args):
    pytest.fail("a split was framed")


def write_config(path, values):
    path.write_text(json.dumps(values))
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert run(["synth", "--out", root, "--train", "10", "--cv", "2",
                "--test", "2", "--seed", "0"]) == 0
    return root


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("trained")
    argv = ["train", "--train-manifest", corpus / "train.jsonl",
            "--cv-manifest", corpus / "cv.jsonl", "--out", out,
            *SMALL_NET, "--lr", "3e-4", "--epochs", "2", "--seed", "0"]
    assert run(argv) == 0
    return out


class TestSynth:
    def test_file_counts(self, corpus):
        assert len(list((corpus / "wav").glob("*.wav"))) == 14
        assert len(list((corpus / "labels").glob("*.txt"))) == 14
        for name in ("train.jsonl", "cv.jsonl", "test.jsonl"):
            assert (corpus / name).exists()

    def test_repeat_is_byte_identical(self, corpus, tmp_path):
        assert run(["synth", "--out", tmp_path / "again", "--train", "10",
                    "--cv", "2", "--test", "2", "--seed", "0"]) == 0
        for rel in ("train.jsonl", "wav/train-0003.wav", "labels/cv-0001.txt",
                    "resolved.json"):
            assert (tmp_path / "again" / rel).read_bytes() == (corpus / rel).read_bytes()

    def test_nyquist_violation_exits_nonzero_naming_frequency(self, tmp_path, capsys):
        rc = run(["synth", "--out", tmp_path / "x", "--classes", "11"])
        assert rc == 1
        assert "8600" in capsys.readouterr().err

    def test_resolved_config_echoed(self, corpus):
        resolved = json.loads((corpus / "resolved.json").read_text())
        assert resolved["subcommand"] == "synth"
        assert resolved["train"] == 10

    def test_synth_into_used_out_gives_the_tree_of_a_fresh_synth(self, tmp_path):
        def tree(root):
            return {p.relative_to(root).as_posix(): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        sizes = ["--cv", "1", "--test", "1"]
        used, elsewhere = tmp_path / "used", tmp_path / "elsewhere"
        assert run(["synth", "--out", used, "--train", "4", *sizes]) == 0
        # a symlinked labels/ is replaced, not followed
        shutil.move(used / "labels", elsewhere)
        (used / "labels").symlink_to(elsewhere, target_is_directory=True)
        assert run(["synth", "--out", used, "--train", "2", *sizes]) == 0
        assert run(["synth", "--out", tmp_path / "fresh", "--train", "2", *sizes]) == 0
        assert tree(used) == tree(tmp_path / "fresh")
        assert len(list(elsewhere.iterdir())) == 6


class TestTrain:
    def test_lr_zero_single_epoch_keeps_seeded_init(self, corpus, tmp_path):
        argv = ["train", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl", "--out", tmp_path,
                *SMALL_NET, "--lr", "0", "--epochs", "1", "--seed", "7",
                "--crf-epochs", "0"]
        assert run(argv) == 0
        params, alphabet, metadata, transitions = load_model(tmp_path / "model.rcn")
        assert alphabet == ["c0", "c1", "c2", "c3", "c4"]
        fresh = init_params(params.config, 7)
        for (n1, t1), (n2, t2) in zip(params.named_tensors(), fresh.named_tensors()):
            assert t1.tobytes() == t2.tobytes(), n1
        np.testing.assert_array_equal(transitions, np.zeros((5, 5)))
        assert metadata["hop_samples"] == 160

    def test_same_invocation_twice_identical_outputs(self, corpus, trained, tmp_path):
        argv = ["train", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl", "--out", tmp_path,
                *SMALL_NET, "--lr", "3e-4", "--epochs", "2", "--seed", "0"]
        assert run(argv) == 0
        assert (tmp_path / "model.rcn").read_bytes() == (trained / "model.rcn").read_bytes()
        assert (tmp_path / "history.csv").read_bytes() == (trained / "history.csv").read_bytes()

    def test_each_train_and_cv_utterance_is_framed_once(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(workers, "usable_cores", lambda: 1)  # every map in this process
        frame, framed = framing.grid_windows, collections.Counter()

        def counted(signal, grid):
            # keyed on the samples, not on id(): the signal is a fresh view,
            # and a freed view's id can be reused
            framed[np.asarray(signal).tobytes()] += 1
            return frame(signal, grid)

        for name, module in list(sys.modules.items()):  # every binding of grid_windows
            if name.startswith("rawphone") and getattr(module, "grid_windows", None) is frame:
                monkeypatch.setattr(module, "grid_windows", counted)
        assert run(["train", *split_args(corpus, "train", "cv"), "--out", tmp_path, *SMALL_NET,
                    "--lr", "3e-4", "--epochs", "3", "--crf-epochs", "1", "--seed", "0"]) == 0
        # each of the 10 training and 2 CV utterances, over 3 epochs, CV scoring
        # and the CRF emissions
        assert sorted(framed.values()) == [1] * 12

    def test_one_progress_line_per_epoch_on_stderr(self, corpus, trained, tmp_path, capsys):
        argv = ["train", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl", "--out", tmp_path,
                *SMALL_NET, "--lr", "3e-4", "--epochs", "2", "--seed", "0"]
        capsys.readouterr()
        assert run(argv) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("epoch ")]
        rows = (tmp_path / "history.csv").read_text().splitlines()[1:]
        assert len(lines) == len(rows) == 2
        for line, row in zip(lines, rows):
            epoch, ll, acc = row.split(",")
            assert line.startswith(f"epoch {epoch}/2: train log-likelihood {ll}, ")
            assert f"cv frame accuracy {float(acc):.3f}%" in line
            assert line.endswith(" frames/s")
        assert "epoch" not in captured.out
        # progress output leaves the artifacts as they were
        assert (tmp_path / "model.rcn").read_bytes() == (trained / "model.rcn").read_bytes()
        assert (tmp_path / "history.csv").read_bytes() == (trained / "history.csv").read_bytes()

    def test_one_crf_progress_line_per_crf_epoch(self, corpus, tmp_path, capsys):
        argv = ["train", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl", *SMALL_NET,
                "--lr", "3e-4", "--epochs", "1", "--crf-epochs", "3", "--seed", "0"]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
            assert run([*argv, "--out", tmp_path / "quiet"]) == 0
        capsys.readouterr()
        assert run([*argv, "--out", tmp_path / "loud"]) == 0
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines() if line.startswith("crf ")]
        assert len(lines) == 3
        for epoch, line in enumerate(lines, 1):
            assert re.fullmatch(
                rf"crf epoch {epoch}/3: log-likelihood -\d+\.\d{{6}}, \d+\.\d\d s", line
            ), line
        assert "crf epoch" not in captured.out
        for name in ("model.rcn", "history.csv"):
            assert (tmp_path / "loud" / name).read_bytes() == (
                tmp_path / "quiet" / name
            ).read_bytes(), name

    def test_utterance_shorter_than_one_hop_is_skipped(self, corpus, tmp_path):
        # 100 samples at the default 160-sample hop: no frames, no transitions
        import shutil

        data = tmp_path / "data"
        shutil.copytree(corpus, data)
        write_wav(data / "wav" / "short.wav", Waveform(np.zeros(100), 16000))
        write_labels(data / "labels" / "short.txt", SegmentAnnotation(((0, 100, "c0"),)))
        with open(data / "train.jsonl", "a", encoding="utf-8") as f:
            f.write(json.dumps({"id": "short", "wav": "wav/short.wav",
                                "labels": "labels/short.txt"}) + "\n")
        assert run(["train", "--train-manifest", data / "train.jsonl",
                    "--cv-manifest", data / "cv.jsonl", "--out", tmp_path / "r",
                    *SMALL_NET, "--lr", "3e-4", "--epochs", "1", "--crf-epochs", "2",
                    "--seed", "0"]) == 0
        _params, alphabet, _metadata, transitions = load_model(tmp_path / "r" / "model.rcn")
        assert transitions.shape == (len(alphabet), len(alphabet))
        assert np.abs(transitions).max() > 0.0

    def test_config_file_flags_and_overrides(self, corpus, tmp_path):
        cfg_file = tmp_path / "base.json"
        cfg_file.write_text(json.dumps({"lr": 0.0, "epochs": 1, "crf_epochs": 0}))
        argv = ["train", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl", "--out", tmp_path / "o",
                *SMALL_NET, "--config", cfg_file, "--seed", "3"]
        assert run(argv) == 0
        resolved = json.loads((tmp_path / "o" / "resolved.json").read_text())
        assert resolved["lr"] == 0.0 and resolved["seed"] == 3

    def test_unknown_config_key_is_usage_error(self, corpus, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"nonsense": 1}))
        rc = run(["train", "--train-manifest", corpus / "train.jsonl",
                  "--cv-manifest", corpus / "cv.jsonl", "--out", tmp_path / "o",
                  "--config", cfg_file])
        assert rc == 1

    @pytest.mark.parametrize("values, key", [
        ({"epochs": "2"}, "epochs"),
        ({"hidden": 8.5}, "hidden"),
        ({"epochs": True}, "epochs"),
        ({"shuffle": 0}, "shuffle"),
        ({"stages": 3}, "stages"),
        (5, "JSON object"),
        (["lr"], "JSON object"),
    ])
    def test_wrong_typed_config_value_is_usage_error(self, corpus, tmp_path, capsys,
                                                     values, key):
        cfg_file = write_config(tmp_path / "typed.json", values)
        rc = run(["train", *split_args(corpus, "train", "cv"), "--out", tmp_path / "o",
                  "--config", cfg_file])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(cfg_file) in err and key in err
        assert not (tmp_path / "o").exists()

    def test_history_csv_schema(self, trained):
        lines = (trained / "history.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_log_likelihood,cv_frame_accuracy"
        assert len(lines) == 3

    def test_cv_accuracy_beats_chance_after_first_epoch(self, tmp_path):
        assert run(["synth", "--out", tmp_path / "c", "--train", "30", "--cv", "6",
                    "--test", "2", "--seed", "0"]) == 0
        assert run(["train", "--train-manifest", tmp_path / "c" / "train.jsonl",
                    "--cv-manifest", tmp_path / "c" / "cv.jsonl",
                    "--out", tmp_path / "r", *SMALL_NET, "--lr", "1e-3",
                    "--epochs", "1", "--crf-epochs", "0", "--seed", "0"]) == 0
        rows = list(csv.DictReader((tmp_path / "r" / "history.csv").open()))
        chance = 100.0 / 5
        assert float(rows[0]["cv_frame_accuracy"]) > chance

    def test_garbage_label_covers_annotation_gaps(self, corpus, tmp_path):
        # copy the corpus but punch a hole into one training annotation
        import shutil

        holed = tmp_path / "holed"
        shutil.copytree(corpus, holed)
        target = holed / "labels" / "train-0000.txt"
        lines = target.read_text().strip().split("\n")
        first = lines[0].split()
        lines[0] = f"{int(first[0]) + 500} {first[1]} {first[2]}"
        target.write_text("\n".join(lines) + "\n")

        without = run(["train", "--train-manifest", holed / "train.jsonl",
                       "--cv-manifest", holed / "cv.jsonl", "--out", tmp_path / "a",
                       *SMALL_NET, "--lr", "0", "--epochs", "1", "--crf-epochs", "0"])
        assert without == 2  # uncovered frame center without a garbage label

        with_garbage = run(["train", "--train-manifest", holed / "train.jsonl",
                            "--cv-manifest", holed / "cv.jsonl", "--out", tmp_path / "b",
                            *SMALL_NET, "--lr", "0", "--epochs", "1",
                            "--crf-epochs", "0", "--garbage", "sil"])
        assert with_garbage == 0
        from rawphone.model_io import load_model as lm

        _p, alphabet, metadata, _t = lm(tmp_path / "b" / "model.rcn")
        assert "sil" in alphabet
        assert metadata["garbage"] == "sil"


class TestDecode:
    def test_argmax_equals_crf_with_zero_transitions(self, corpus, tmp_path):
        run(["train", "--train-manifest", corpus / "train.jsonl",
             "--cv-manifest", corpus / "cv.jsonl", "--out", tmp_path / "m",
             *SMALL_NET, "--lr", "3e-4", "--epochs", "1", "--seed", "0",
             "--crf-epochs", "0"])
        for decoder, out in (("argmax", "a"), ("crf", "b")):
            assert run(["decode", "--manifest", corpus / "test.jsonl",
                        "--model", tmp_path / "m" / "model.rcn",
                        "--decoder", decoder, "--out", tmp_path / out]) == 0
        for hyp in (tmp_path / "a" / "hyp").iterdir():
            assert hyp.read_bytes() == (tmp_path / "b" / "hyp" / hyp.name).read_bytes()

    def test_short_utterance_error_recorded_run_continues(self, corpus, trained, tmp_path):
        # 2 frames at hop 160: too short for the 3-state minimum duration
        wav_dir = tmp_path / "data"
        wav_dir.mkdir()
        write_wav(wav_dir / "short.wav", Waveform(np.zeros(320), 16000))
        write_labels(wav_dir / "short.txt", SegmentAnnotation(((0, 320, "c0"),)))
        write_wav(wav_dir / "long.wav",
                  Waveform(np.sin(np.arange(4000) * (2 * np.pi * 300 / 16000)), 16000))
        write_labels(wav_dir / "long.txt", SegmentAnnotation(((0, 4000, "c0"),)))
        manifest = wav_dir / "m.jsonl"
        manifest.write_text(
            json.dumps({"id": "short", "wav": "short.wav", "labels": "short.txt"}) + "\n"
            + json.dumps({"id": "long", "wav": "long.wav", "labels": "long.txt"}) + "\n"
        )
        assert run(["decode", "--manifest", manifest, "--model",
                    trained / "model.rcn", "--decoder", "hmm",
                    "--out", tmp_path / "d"]) == 0
        rows = list(csv.DictReader((tmp_path / "d" / "decode_log.csv").open()))
        by_id = {r["id"]: r["status"] for r in rows}
        assert by_id == {"short": "error", "long": "ok"}
        assert (tmp_path / "d" / "hyp" / "long.txt").exists()
        assert not (tmp_path / "d" / "hyp" / "short.txt").exists()

    def test_hmm_decodes_scores_whose_softmax_underflows(self):
        decode = decoder("hmm", ["a", "b"], None, 3)
        confident = np.array([[800.0, 0.0], [800.0, 0.0], [0.0, 800.0], [0.0, 800.0]])
        nan = np.full((4, 2), np.nan)
        assert decode([confident])[0] == ["a"]
        with np.errstate(invalid="ignore"):
            unscorable, decoded = decode([nan, confident])
        assert isinstance(unscorable, NoLegalPathError)
        assert "no finite-score legal path" in str(unscorable)
        assert decoded == ["a"]

    def test_sample_rate_mismatch_recorded_as_error(self, trained, tmp_path):
        wav_dir = tmp_path / "data"
        wav_dir.mkdir()
        tone = np.sin(np.arange(4000) * (2 * np.pi * 300 / 16000))
        rows = []
        for name, rate in (("narrow", 8000), ("wide", 16000)):
            write_wav(wav_dir / f"{name}.wav", Waveform(tone, rate))
            write_labels(wav_dir / f"{name}.txt", SegmentAnnotation(((0, 4000, "c0"),)))
            rows.append(json.dumps({"id": name, "wav": f"{name}.wav", "labels": f"{name}.txt"}))
        manifest = wav_dir / "m.jsonl"
        manifest.write_text("\n".join(rows) + "\n")
        assert run(["decode", "--manifest", manifest, "--model", trained / "model.rcn",
                    "--decoder", "argmax", "--out", tmp_path / "d"]) == 0
        rows = {r["id"]: r for r in csv.DictReader((tmp_path / "d" / "decode_log.csv").open())}
        assert rows["narrow"]["status"] == "error"
        assert "8000" in rows["narrow"]["message"] and "16000" in rows["narrow"]["message"]
        assert rows["wide"]["status"] == "ok"
        assert not (tmp_path / "d" / "hyp" / "narrow.txt").exists()

    @pytest.mark.parametrize("labels", ["missing", "corrupt"])
    def test_labels_are_not_read_by_decode_but_by_eval(self, corpus, trained, tmp_path,
                                                       capsys, labels):
        data = tmp_path / "data"
        data.mkdir()
        rows = [json.loads(line) for line in (corpus / "test.jsonl").read_text().splitlines()]
        rows = [{**r, "wav": str(corpus / r["wav"]), "labels": str(corpus / r["labels"])}
                for r in rows]
        rows[0]["labels"] = str(data / "bad.txt")
        if labels == "corrupt":
            (data / "bad.txt").write_text("0 100\n")
        manifest = data / "m.jsonl"
        manifest.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert run(["decode", "--manifest", manifest, "--model", trained / "model.rcn",
                    "--decoder", "argmax", "--out", tmp_path / "d"]) == 0
        log = list(csv.DictReader((tmp_path / "d" / "decode_log.csv").open()))
        assert [r["status"] for r in log] == ["ok"] * len(rows)
        capsys.readouterr()
        assert run(["eval", "--ref-manifest", manifest, "--hyp-dir", tmp_path / "d" / "hyp",
                    "--out", tmp_path / "e"]) == 2
        assert str(data / "bad.txt") in capsys.readouterr().err

    def test_every_utterance_failing_exits_data_error(self, trained, tmp_path, capsys):
        wav_dir = tmp_path / "data"
        wav_dir.mkdir()
        write_wav(wav_dir / "short.wav", Waveform(np.zeros(320), 16000))
        write_labels(wav_dir / "short.txt", SegmentAnnotation(((0, 320, "c0"),)))
        manifest = wav_dir / "m.jsonl"
        manifest.write_text(
            json.dumps({"id": "short", "wav": "short.wav", "labels": "short.txt"}) + "\n"
        )
        assert run(["decode", "--manifest", manifest, "--model", trained / "model.rcn",
                    "--decoder", "hmm", "--out", tmp_path / "d"]) == 2
        assert "every utterance failed" in capsys.readouterr().err
        rows = list(csv.DictReader((tmp_path / "d" / "decode_log.csv").open()))
        assert [r["status"] for r in rows] == ["error"]
        resolved = json.loads((tmp_path / "d" / "resolved.json").read_text())
        assert resolved["subcommand"] == "decode" and resolved["decoder"] == "hmm"

    def test_min_duration_zero_is_usage_error_before_any_hypothesis(
            self, corpus, trained, tmp_path, capsys):
        # the bound holds for every decoder, though only the HMM reads the value
        for name in ("hmm", "argmax"):
            rc = run(["decode", "--manifest", corpus / "test.jsonl", "--model",
                      trained / "model.rcn", "--decoder", name, "--min-duration", "0",
                      "--out", tmp_path / "d"])
            assert rc == 1
            assert "usage error: --min-duration must be at least 1, got 0" in (
                capsys.readouterr().err)
            assert not (tmp_path / "d").exists()

    def test_unknown_decoder_in_config_is_usage_error(self, corpus, trained, tmp_path, capsys):
        cfg_file = write_config(tmp_path / "beam.json", {"decoder": "beam"})
        rc = run(["decode", "--manifest", corpus / "test.jsonl", "--model",
                  trained / "model.rcn", "--config", cfg_file, "--out", tmp_path / "d"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "decoder" in err and "beam" in err
        assert not (tmp_path / "d").exists()

    def test_waveform_for_feature_model_is_logged_data_error(self, corpus, tmp_path):
        cfg = NetworkConfig(9, 13, (StageConfig(3, 1, 4, 1),), 4, 2)
        save_model(tmp_path / "m.rcn", init_params(cfg, 0), ["a", "b"],
                   metadata={"input_kind": "feature", "hop_samples": 1})
        assert run(["decode", "--manifest", corpus / "test.jsonl", "--model",
                    tmp_path / "m.rcn", "--decoder", "argmax", "--out", tmp_path / "d"]) == 2
        rows = list(csv.DictReader((tmp_path / "d" / "decode_log.csv").open()))
        assert len(rows) == 2
        assert all(r["status"] == "error" and "feature-input" in r["message"] for r in rows)

    @pytest.mark.parametrize("metadata", [None, {"input_kind": "raw", "sample_rate": 16000}],
                             ids=["no_metadata", "no_hop"])
    def test_raw_model_without_hop_is_data_error(self, corpus, trained, tmp_path, capsys,
                                                 metadata):
        # without hop_samples a raw model would be framed every sample
        params, alphabet, _metadata, transitions = load_model(trained / "model.rcn")
        save_model(tmp_path / "m.rcn", params, alphabet, metadata, transitions)
        assert run(["decode", "--manifest", corpus / "test.jsonl", "--model",
                    tmp_path / "m.rcn", "--out", tmp_path / "d"]) == 2
        assert "model metadata lacks hop_samples" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_missing_model_exits_nonzero(self, corpus, tmp_path):
        rc = run(["decode", "--manifest", corpus / "test.jsonl",
                  "--model", tmp_path / "no_such.rcn", "--out", tmp_path / "d"])
        assert rc == 2

    @pytest.mark.parametrize("decoder", ["argmax", "crf", "hmm"])
    @pytest.mark.parametrize("group_frames", [None, 1])
    def test_mixed_manifest_decodes_as_each_utterance_alone(
            self, corpus, trained, tmp_path, monkeypatch, decoder, group_frames):
        if group_frames is not None:  # every utterance in a group of its own
            monkeypatch.setattr(decoding, "DECODE_GROUP_FRAMES", group_frames)
        data = tmp_path / "data"
        data.mkdir()
        tone = np.sin(np.arange(4000) * (2 * np.pi * 700 / 16000))
        for name, samples, rate in (("sub_hop", tone[:100], 16000),  # 0 frames
                                    ("two_frames", tone[:320], 16000),  # < hmm min duration
                                    ("narrow", tone, 8000)):
            write_wav(data / f"{name}.wav", Waveform(samples, rate))
            write_labels(data / f"{name}.txt", SegmentAnnotation(((0, len(samples), "c0"),)))
        rows = [json.loads(line) for line in (corpus / "test.jsonl").read_text().splitlines()]
        good = [json.dumps({"id": r["id"], "wav": str(corpus / r["wav"]),
                            "labels": str(corpus / r["labels"])}) for r in rows]
        odd = [json.dumps({"id": n, "wav": f"{n}.wav", "labels": f"{n}.txt"})
               for n in ("sub_hop", "two_frames", "narrow")]
        lines = [good[0], odd[0], odd[1], good[1], odd[2]]
        (data / "all.jsonl").write_text("\n".join(lines) + "\n")

        def decode(manifest, out):
            assert run(["decode", "--manifest", manifest, "--model", trained / "model.rcn",
                        "--decoder", decoder, "--out", out]) in (0, 2)
            log = (out / "decode_log.csv").read_text().splitlines()
            hyps = {p.name: p.read_bytes() for p in (out / "hyp").iterdir()}
            return log, hyps

        log, hyps = decode(data / "all.jsonl", tmp_path / "all")
        alone_log, alone_hyps = [log[0]], {}
        for i, line in enumerate(lines):
            (data / f"one{i}.jsonl").write_text(line + "\n")
            one_log, one_hyps = decode(data / f"one{i}.jsonl", tmp_path / f"one{i}")
            alone_log += one_log[1:]
            alone_hyps.update(one_hyps)
        assert log == alone_log
        assert hyps == alone_hyps
        status = [row.split(",")[1] for row in log[1:]]
        assert status == ["ok", "error", "error" if decoder == "hmm" else "ok", "ok", "error"]

    def test_repeat_decode_byte_identical(self, corpus, trained, tmp_path):
        for out in ("r1", "r2"):
            assert run(["decode", "--manifest", corpus / "test.jsonl",
                        "--model", trained / "model.rcn", "--decoder", "hmm",
                        "--out", tmp_path / out]) == 0
        for f in (tmp_path / "r1" / "hyp").iterdir():
            assert f.read_bytes() == (tmp_path / "r2" / "hyp" / f.name).read_bytes()
        assert (tmp_path / "r1" / "decode_log.csv").read_bytes() == (
            tmp_path / "r2" / "decode_log.csv"
        ).read_bytes()

    def test_redecode_into_used_out_scores_as_a_fresh_decode(self, corpus, trained, tmp_path):
        data = tmp_path / "corpus"
        shutil.copytree(corpus, data)
        model, used = trained / "model.rcn", tmp_path / "used"

        def decode_and_eval(out):
            assert run(["decode", "--manifest", data / "test.jsonl", "--model", model,
                        "--decoder", "hmm", "--out", out]) == 0
            assert run(["eval", "--ref-manifest", data / "test.jsonl", "--hyp-dir", out / "hyp",
                        "--out", out / "eval"]) == 0
            return (out / "eval" / "report.csv").read_bytes()

        decode_and_eval(used)
        assert (used / "hyp" / "test-0000.txt").exists()
        (data / "wav" / "test-0000.wav").write_bytes(b"RIFFjunk")
        redecoded = decode_and_eval(used)
        assert redecoded == decode_and_eval(tmp_path / "fresh")
        assert sorted(p.name for p in (used / "hyp").iterdir()) == ["test-0001.txt"]
        assert sorted(p.name for p in used.iterdir()) == [
            "decode_log.csv", "eval", "hyp", "resolved.json"]

    def test_smaller_manifest_into_used_out_leaves_only_its_hypotheses(
        self, corpus, trained, tmp_path
    ):
        out, model = tmp_path / "d", trained / "model.rcn"
        outside = tmp_path / "keep.txt"
        outside.write_text("not decode's\n")
        (out / "hyp").mkdir(parents=True)
        (out / "hyp" / "stale.txt").write_text("c0\n")
        row = json.loads((corpus / "test.jsonl").read_text().splitlines()[1])
        row.update(wav=str(corpus / row["wav"]), labels=str(corpus / row["labels"]))
        (tmp_path / "one.jsonl").write_text(json.dumps(row) + "\n")
        for manifest in (corpus / "test.jsonl", tmp_path / "one.jsonl"):
            assert run(["decode", "--manifest", manifest, "--model", model,
                        "--decoder", "argmax", "--out", out]) == 0
        assert sorted(p.name for p in (out / "hyp").iterdir()) == [f"{row['id']}.txt"]
        assert outside.read_text() == "not decode's\n"
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert (out / "hyp").stat().st_mode == fresh.stat().st_mode
        assert sorted(p.name for p in out.iterdir()) == ["decode_log.csv", "hyp", "resolved.json"]

    def test_killed_run_staging_directory_is_removed(self, corpus, trained, tmp_path):
        out = tmp_path / "d"
        (out / ".hyp.partial").mkdir(parents=True)
        (out / ".hyp.partial" / "test-0000.txt").write_text("c0\n")
        assert run(["decode", "--manifest", corpus / "test.jsonl", "--model",
                    trained / "model.rcn", "--decoder", "argmax", "--out", out]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["decode_log.csv", "hyp", "resolved.json"]


    @pytest.mark.parametrize("edit", ["escaping", "repeated"])
    def test_id_that_escapes_or_repeats_is_data_error_before_any_output(
        self, corpus, trained, tmp_path, capsys, edit
    ):
        rows = [json.loads(line) for line in (corpus / "test.jsonl").read_text().splitlines()]
        for row in rows:
            row.update(wav=str(corpus / row["wav"]), labels=str(corpus / row["labels"]))
        if edit == "escaping":
            rows[0]["id"] = "../escaped"
        else:
            rows[1]["id"] = rows[0]["id"]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = tmp_path / "d" / "out"
        rc = run(["decode", "--manifest", manifest, "--model", trained / "model.rcn",
                  "--decoder", "argmax", "--out", out])
        assert rc == 2
        assert f"m.jsonl:{1 if edit == 'escaping' else 2}: id {rows[0]['id']!r}" in (
            capsys.readouterr().err)
        assert not (tmp_path / "d").exists()


class TestEval:
    def make_refs(self, tmp_path, seqs):
        data = tmp_path / "refs"
        data.mkdir()
        lines = []
        for i, seq in enumerate(seqs):
            segs = tuple((100 * j, 100 * (j + 1), lab) for j, lab in enumerate(seq))
            write_labels(data / f"u{i}.txt", SegmentAnnotation(segs))
            write_wav(data / f"u{i}.wav", Waveform(np.zeros(100 * len(seq)), 16000))
            lines.append(json.dumps({"id": f"u{i}", "wav": f"u{i}.wav", "labels": f"u{i}.txt"}))
        manifest = data / "m.jsonl"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_strip_garbage_without_garbage_is_usage_error(self, tmp_path, capsys):
        refs = self.make_refs(tmp_path, [["a", "b"]])
        rc = run(["eval", "--ref-manifest", refs, "--hyp-dir", tmp_path,
                  "--out", tmp_path / "o", "--strip-garbage"])
        assert rc == 1
        assert "--strip-garbage needs --garbage" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_identity_hypothesis_scores_hundred(self, tmp_path):
        manifest = self.make_refs(tmp_path, [["a", "b", "c"], ["b", "a"]])
        hyp = tmp_path / "hyp"
        hyp.mkdir()
        (hyp / "u0.txt").write_text("a b c\n")
        (hyp / "u1.txt").write_text("b a\n")
        assert run(["eval", "--ref-manifest", manifest, "--hyp-dir", hyp,
                    "--out", tmp_path / "e"]) == 0
        rows = list(csv.DictReader((tmp_path / "e" / "report.csv").open()))
        assert all(float(r["accuracy"]) == 100.0 for r in rows)

    def test_hyp_dir_that_is_not_a_directory_is_data_error(self, tmp_path, capsys):
        manifest = self.make_refs(tmp_path, [["a", "b"]])
        (tmp_path / "file").write_text("u0\n")
        for hyp in (tmp_path / "hpy", tmp_path / "file"):
            assert run(["eval", "--ref-manifest", manifest, "--hyp-dir", hyp,
                        "--out", tmp_path / "e"]) == 2
            assert f"{hyp}: --hyp-dir is not a directory" in capsys.readouterr().err
            assert not (tmp_path / "e").exists()

    def test_missing_hypothesis_counts_all_deletions(self, tmp_path):
        manifest = self.make_refs(tmp_path, [["a", "b", "c"]])
        hyp = tmp_path / "hyp"
        hyp.mkdir()
        assert run(["eval", "--ref-manifest", manifest, "--hyp-dir", hyp,
                    "--out", tmp_path / "e"]) == 0
        rows = list(csv.DictReader((tmp_path / "e" / "report.csv").open()))
        assert rows[0]["accuracy"] == "0.000000"
        assert rows[0]["deletions"] == "3"

    def test_aggregate_is_corpus_pooled(self, tmp_path):
        manifest = self.make_refs(tmp_path, [["a", "b"], ["a", "b", "c", "d"]])
        hyp = tmp_path / "hyp"
        hyp.mkdir()
        (hyp / "u0.txt").write_text("a x\n")     # 1 error of 2
        (hyp / "u1.txt").write_text("a b c d\n")  # perfect 4
        assert run(["eval", "--ref-manifest", manifest, "--hyp-dir", hyp,
                    "--out", tmp_path / "e"]) == 0
        rows = list(csv.DictReader((tmp_path / "e" / "report.csv").open()))
        overall = [r for r in rows if r["id"] == "OVERALL"][0]
        # pooled: (6 - 1) / 6, not the mean of per-utterance accuracies
        assert float(overall["accuracy"]) == pytest.approx(100 * 5 / 6)

    def test_mapping_applied(self, tmp_path):
        manifest = self.make_refs(tmp_path, [["x", "y"]])
        hyp = tmp_path / "hyp"
        hyp.mkdir()
        (hyp / "u0.txt").write_text("a a\n")
        mapping = tmp_path / "map.txt"
        mapping.write_text("x a\ny a\na a\n")
        assert run(["eval", "--ref-manifest", manifest, "--hyp-dir", hyp,
                    "--mapping", mapping, "--out", tmp_path / "e"]) == 0
        rows = list(csv.DictReader((tmp_path / "e" / "report.csv").open()))
        # ref [x, y] -> [a, a] -> collapsed [a]; hyp [a, a] stays two tokens
        assert rows[0]["n_ref"] == "1"
        assert rows[0]["insertions"] == "1"


def save_filter_model(path, weights, window=64):
    kw = weights.shape[1]
    cfg = NetworkConfig(window, 1, (StageConfig(kw, 1, weights.shape[0], 1),), 4, 2)
    params = init_params(cfg, 0)
    params.conv[0].weight[...] = weights.astype(np.float32)
    save_model(path, params, ["a", "b"], metadata={"sample_rate": 16000})


class TestFilters:
    def read_spectra(self, path, n_filters, n_fft=512):
        rows = list(csv.DictReader(path.open()))
        mags = np.zeros((n_filters, n_fft // 2 + 1))
        for r in rows:
            b = int(round(float(r["bin_frequency_hz"]) * n_fft / 16000))
            mags[int(r["filter_index"]), b] = float(r["magnitude"])
        return mags

    def test_impulse_filter_is_flat(self, tmp_path):
        w = np.zeros((1, 16))
        w[0, 0] = 1.0
        save_filter_model(tmp_path / "m.rcn", w)
        assert run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path]) == 0
        mags = self.read_spectra(tmp_path / "filters.csv", 1)
        np.testing.assert_allclose(mags[0], 1.0, atol=1e-6)

    def test_zero_filter_is_zero(self, tmp_path):
        save_filter_model(tmp_path / "m.rcn", np.zeros((1, 16)))
        assert run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path]) == 0
        mags = self.read_spectra(tmp_path / "filters.csv", 1)
        np.testing.assert_array_equal(mags[0], 0.0)

    def test_cosine_filter_peaks_at_nearest_bin(self, tmp_path):
        kw, f0, sr = 48, 2000.0, 16000
        w = np.cos(2 * np.pi * f0 * np.arange(kw) / sr)[None, :]
        save_filter_model(tmp_path / "m.rcn", w)
        assert run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path]) == 0
        mags = self.read_spectra(tmp_path / "filters.csv", 1)
        # float32 weights: compare against the independent reference at 1e-5
        reference = naive_dft_magnitude(w[0].astype(np.float32).astype(np.float64), 512)
        np.testing.assert_allclose(mags[0], reference, atol=1e-5)
        assert abs(mags[0].argmax() - f0 * 512 / sr) <= 1

    def test_n_fft_below_kernel_width_is_usage_error(self, tmp_path, capsys):
        save_filter_model(tmp_path / "m.rcn", np.ones((2, 48)))
        assert run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path / "f",
                    "--n-fft", "47"]) == 1
        assert "usage error: --n-fft 47 is below stage 0's kernel width 48" in (
            capsys.readouterr().err)
        assert not (tmp_path / "f").exists()
        assert run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path / "f",
                    "--n-fft", "48"]) == 0

    def test_negative_sample_rate_is_usage_error(self, tmp_path, capsys):
        save_filter_model(tmp_path / "m.rcn", np.ones((2, 16)))
        assert run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path / "f",
                    "--sample-rate", "-5"]) == 1
        assert "usage error: --sample-rate must be at least 0, got -5" in (
            capsys.readouterr().err)
        assert not (tmp_path / "f").exists()
        # 0 still means the model's rate
        assert run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path / "f",
                    "--sample-rate", "0"]) == 0
        assert "8000.000000" in (tmp_path / "f" / "filters.csv").read_text()

    def test_feature_model_rejected(self, tmp_path):
        cfg = NetworkConfig(9, 13, (StageConfig(3, 1, 4, 1),), 4, 2)
        save_model(tmp_path / "m.rcn", init_params(cfg, 0), ["a", "b"])
        rc = run(["filters", "--model", tmp_path / "m.rcn", "--out", tmp_path / "f"])
        assert rc == 2


def write_raw_float_corpus(corpus, root):
    """The corpus with every WAV rewritten as a headerless float32 stream."""
    root.mkdir()
    for split in ("train", "cv", "test"):
        rows = []
        for line in (corpus / f"{split}.jsonl").read_text().splitlines():
            rec = json.loads(line)
            waveform = read_wav(corpus / rec["wav"])
            (root / f"{rec['id']}.f32").write_bytes(waveform.samples.astype("<f4").tobytes())
            rec["wav"] = f"{rec['id']}.f32"
            rec["labels"] = str(corpus / rec["labels"])
            rows.append(json.dumps(rec))
        (root / f"{split}.jsonl").write_text("\n".join(rows) + "\n")
    return root


ABLATE_ARGS = [*SMALL_NET, "--lr", "3e-4", "--epochs", "1", "--seed", "0"]


class TestAblatePool:
    def test_train_and_cv_are_framed_once_for_all_four_settings(self, corpus, tmp_path,
                                                                monkeypatch):
        monkeypatch.setattr(workers, "usable_cores", lambda: 1)
        build, built = cli.build_frame_dataset, []
        monkeypatch.setattr(cli, "build_frame_dataset",
                            lambda utts, *rest: built.append(len(utts)) or build(utts, *rest))
        assert run(["ablate-pool", *split_args(corpus, "train", "cv", "test"),
                    "--out", tmp_path, *ABLATE_ARGS]) == 0
        assert built == [10, 2]
        assert len((tmp_path / "ablation.csv").read_text().splitlines()) == 5

    def test_framing_data_error_ends_the_run(self, corpus, tmp_path, capsys):
        # a training utterance whose labels leave frames uncovered, without --garbage:
        # the same error for every setting, so exit 2 and no table
        rows = [json.loads(line) for line in (corpus / "train.jsonl").read_text().splitlines()]
        rows = [{**r, "wav": str(corpus / r["wav"]), "labels": str(corpus / r["labels"])}
                for r in rows]
        (tmp_path / "gap.txt").write_text("0 800 c0\n")
        rows[3]["labels"] = str(tmp_path / "gap.txt")
        (tmp_path / "train.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        assert run(["ablate-pool", "--train-manifest", tmp_path / "train.jsonl",
                    *split_args(corpus, "cv", "test"), "--out", tmp_path / "o",
                    *ABLATE_ARGS]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: utterance {rows[3]['id']}: frame ") and (
            "not covered by any segment" in err)
        assert not (tmp_path / "o" / "ablation.csv").exists()

    def test_four_rows_param_counts_strictly_decreasing(self, corpus, tmp_path):
        argv = ["ablate-pool", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl",
                "--test-manifest", corpus / "test.jsonl",
                "--out", tmp_path, *SMALL_NET,
                "--lr", "3e-4", "--epochs", "1", "--seed", "0"]
        assert run(argv) == 0
        rows = list(csv.DictReader((tmp_path / "ablation.csv").open()))
        assert len(rows) == 4
        assert [r["pool_layers"] for r in rows] == ["0", "1", "2", "3"]
        counts = [int(r["param_count"]) for r in rows]
        assert counts[0] > counts[1] > counts[2] > counts[3]

    def test_full_pooling_row_matches_base_config(self, corpus, tmp_path):
        argv = ["ablate-pool", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl",
                "--test-manifest", corpus / "test.jsonl",
                "--out", tmp_path, *SMALL_NET,
                "--lr", "3e-4", "--epochs", "1", "--seed", "0"]
        assert run(argv) == 0
        rows = list(csv.DictReader((tmp_path / "ablation.csv").open()))
        from rawphone.net import param_count
        from rawphone.cli import _parse_stages

        base = NetworkConfig(800, 1, _parse_stages("80:10:3,5:1:3,3:1:2", 8), 16, 5)
        assert int(rows[3]["param_count"]) == param_count(base)

    def test_unused_garbage_label_runs(self, corpus, tmp_path):
        assert run(["ablate-pool", *split_args(corpus, "train", "cv", "test"),
                    "--out", tmp_path, *ABLATE_ARGS, "--garbage", "sil"]) == 0
        rows = list(csv.DictReader((tmp_path / "ablation.csv").open()))
        assert len(rows) == 4
        assert all(r["error"] == "" for r in rows)

    def test_empty_test_manifest_is_data_error(self, corpus, tmp_path):
        (tmp_path / "empty.jsonl").write_text("")
        assert run(["ablate-pool", *split_args(corpus, "train", "cv"),
                    "--test-manifest", tmp_path / "empty.jsonl",
                    "--out", tmp_path / "o", *ABLATE_ARGS]) == 2

    def test_raw_float_input_with_raw_sample_rate(self, corpus, tmp_path):
        raw = write_raw_float_corpus(corpus, tmp_path / "raw")
        assert run(["ablate-pool", *split_args(raw, "train", "cv", "test"),
                    "--out", tmp_path / "f32", *ABLATE_ARGS,
                    "--raw-sample-rate", "16000"]) == 0
        assert run(["ablate-pool", *split_args(corpus, "train", "cv", "test"),
                    "--out", tmp_path / "wav", *ABLATE_ARGS]) == 0
        # int16 / 32768 is exact in float32: the two inputs are the same signal
        assert (tmp_path / "f32" / "ablation.csv").read_bytes() == (
            tmp_path / "wav" / "ablation.csv"
        ).read_bytes()


TINY_GRID = ["--window-ms-list", "50", "--kernel-list", "5", "--filters-list", "4",
             "--hidden-list", "8", "--pool-list", "2", "--epochs", "1", "--seed", "0"]


class TestGrid:
    def test_unused_garbage_label_trains_every_config(self, corpus, tmp_path):
        assert run(["grid", *split_args(corpus, "train", "cv"), "--out", tmp_path,
                    *TINY_GRID, "--garbage", "sil"]) == 0
        rows = list(csv.DictReader((tmp_path / "grid.csv").open()))
        assert rows
        assert all(r["error"] == "" and r["cv_accuracy"] for r in rows)

    def test_no_shuffle_flag_equals_config_key(self, corpus, tmp_path):
        cfg_file = write_config(tmp_path / "noshuffle.json", {"shuffle": False})
        assert run(["grid", *split_args(corpus, "train", "cv"), "--out", tmp_path / "flag",
                    *TINY_GRID, "--no-shuffle"]) == 0
        assert run(["grid", *split_args(corpus, "train", "cv"), "--out", tmp_path / "file",
                    *TINY_GRID, "--config", cfg_file]) == 0
        for name in ("grid.csv", "resolved.json"):
            assert (tmp_path / "flag" / name).read_bytes() == (
                tmp_path / "file" / name
            ).read_bytes(), name
        assert json.loads((tmp_path / "flag" / "resolved.json").read_text())["shuffle"] is False

    def test_train_and_cv_are_framed_once_per_window(self, corpus, tmp_path, monkeypatch):
        # 4 configurations for each of 2 windows, and 4 more for a window longer than
        # every training utterance, which is never framed and fails each of its rows
        monkeypatch.setattr(workers, "usable_cores", lambda: 1)
        build, built = cli.build_frame_dataset, []
        monkeypatch.setattr(cli, "build_frame_dataset",
                            lambda utts, *rest: built.append(len(utts)) or build(utts, *rest))
        assert run(["grid", *split_args(corpus, "train", "cv"), "--out", tmp_path,
                    "--window-ms-list", "30,50,1e9", "--kernel-list", "3,5",
                    "--filters-list", "4", "--hidden-list", "4,8", "--pool-list", "2",
                    "--stages-count", "1", "--epochs", "1", "--seed", "0"]) == 0
        assert built == [10, 2, 10, 2]
        rows = list(csv.DictReader((tmp_path / "grid.csv").open()))
        assert len(rows) == 12
        failed = [r for r in rows if r["error"]]
        assert len(failed) == 4 and all(r["window_frames"] == "16000000000" for r in failed)


    def test_stageless_grid_trains_each_window_and_hidden_size_once(self, corpus, tmp_path):
        # the only CLI route to a network without stages
        argv = ["grid", *split_args(corpus, "train", "cv"), "--out", tmp_path,
                "--stages-count", "0", "--window-ms-list", "30,50", "--kernel-list", "1,5,9",
                "--filters-list", "4,8", "--hidden-list", "4,8", "--pool-list", "2,3",
                "--epochs", "1", "--seed", "0"]
        assert run(argv) == 0
        rows = list(csv.DictReader((tmp_path / "grid.csv").open()))
        assert len(rows) == 2 * 2  # windows x hidden sizes
        assert sorted(int(r["ordinal"]) for r in rows) == [0, 1, 2, 3]
        assert sorted((int(r["window_frames"]), int(r["hidden"])) for r in rows) == [
            (480, 4), (480, 8), (800, 4), (800, 8)]
        for r in rows:
            assert r["kernels"] == r["shifts"] == r["pools"] == "" and r["filters"] == "0"
            assert r["error"] == "" and 0.0 <= float(r["cv_accuracy"]) <= 100.0
            assert int(r["param_count"]) == param_count(
                NetworkConfig(int(r["window_frames"]), 1, (), int(r["hidden"]), 5))

    def test_raw_float_input_with_raw_sample_rate(self, corpus, tmp_path):
        raw = write_raw_float_corpus(corpus, tmp_path / "raw")
        assert run(["grid", *split_args(raw, "train", "cv"), "--out", tmp_path / "f32",
                    *TINY_GRID, "--raw-sample-rate", "16000"]) == 0
        assert run(["grid", *split_args(corpus, "train", "cv"), "--out", tmp_path / "wav",
                    *TINY_GRID]) == 0
        # int16 / 32768 is exact in float32: the two inputs are the same signal
        assert (tmp_path / "f32" / "grid.csv").read_bytes() == (
            tmp_path / "wav" / "grid.csv"
        ).read_bytes()


class TestCheckGrad:
    def test_fresh_net_passes(self, tmp_path):
        assert run(["check-grad", "--seed", "5", "--configs", "3",
                    "--out", tmp_path]) == 0
        rows = list(csv.DictReader((tmp_path / "gradcheck.csv").open()))
        assert rows and all(r["status"] == "pass" for r in rows)

    def test_float_option_takes_int_from_config_as_given(self, tmp_path):
        cfg_file = write_config(tmp_path / "c.json", {"tolerance": 1, "configs": 1})
        assert run(["check-grad", "--seed", "5", "--config", cfg_file,
                    "--out", tmp_path / "o"]) == 0
        assert '"tolerance": 1\n' in (tmp_path / "o" / "resolved.json").read_text()

    @pytest.mark.parametrize("eps", ["0", "nan", "inf", "-1e-4"])
    def test_eps_not_finite_and_positive_is_usage_error(self, tmp_path, capsys, eps):
        rc = run(["check-grad", "--configs", "1", f"--eps={eps}", "--out", tmp_path / "o"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"usage error: --eps must be finite and positive, got {float(eps)}" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("configs", ["0", "-1"])
    def test_configs_below_one_is_usage_error(self, tmp_path, capsys, configs):
        rc = run(["check-grad", "--configs", configs, "--out", tmp_path / "o"])
        assert rc == 1
        captured = capsys.readouterr()
        assert f"usage error: --configs must be at least 1, got {configs}" in captured.err
        assert "PASS" not in captured.out
        assert not (tmp_path / "o").exists()

    @pytest.fixture
    def corrupted(self, monkeypatch):
        exact = training.backward_pass

        def corrupted(*args, **kwargs):
            grads = exact(*args, **kwargs)
            grads["hidden.bias"][...] += 1.0
            return grads

        monkeypatch.setattr(training, "backward_pass", corrupted)

    def test_corrupted_gradient_fails(self, capsys, corrupted):
        rc = run(["check-grad", "--seed", "5", "--configs", "1"])
        assert rc == 3
        rows = capsys.readouterr().out.splitlines()
        assert any("hidden.bias" in row and row.endswith(" FAIL") for row in rows)
        assert rows[-1] == "gradient check: FAIL"

    def test_failing_check_echoes_resolved_config(self, tmp_path, corrupted):
        assert run(["check-grad", "--seed", "5", "--configs", "1", "--out", tmp_path]) == 3
        assert json.loads((tmp_path / "resolved.json").read_text()) == {
            "subcommand": "check-grad", "configs": 1, "eps": 1e-4, "tolerance": 1e-4, "seed": 5}
        statuses = [r["status"] for r in csv.DictReader((tmp_path / "gradcheck.csv").open())]
        assert "FAIL" in statuses


class TestFeaturePipeline:
    def make_feature_corpus(self, root, n_utts, seed):
        """Feature utterances: 3 frame-synchronous classes, 8-dim features."""
        rng = np.random.default_rng(seed)
        root.mkdir(parents=True)
        rows = []
        for i in range(n_utts):
            n_segs = int(rng.integers(2, 5))
            labels = []
            feats = []
            segs = []
            cursor = 0
            for _ in range(n_segs):
                k = int(rng.integers(3))
                length = int(rng.integers(6, 12))
                block = rng.normal(0, 0.4, size=(length, 8))
                block[:, k] += 2.0  # class signature dimension
                feats.append(block)
                segs.append((cursor, cursor + length, f"p{k}"))
                cursor += length
            feat = np.concatenate(feats).astype("<f4")
            (root / f"u{i}.bin").write_bytes(feat.tobytes())
            write_labels(root / f"u{i}.txt", SegmentAnnotation(tuple(segs)))
            rows.append(json.dumps({"id": f"u{i}", "feat": f"u{i}.bin",
                                    "labels": f"u{i}.txt"}))
        manifest = root / "m.jsonl"
        manifest.write_text("\n".join(rows) + "\n")
        return manifest

    def test_train_and_decode_on_features(self, tmp_path):
        train_m = self.make_feature_corpus(tmp_path / "tr", 20, 0)
        cv_m = self.make_feature_corpus(tmp_path / "cv", 5, 1)
        test_m = self.make_feature_corpus(tmp_path / "te", 4, 2)
        assert run(["train", "--train-manifest", train_m, "--cv-manifest", cv_m,
                    "--out", tmp_path / "run", "--feature-dim", "8",
                    "--window-frames", "5", "--stages", "3:1:1",
                    "--filters", "8", "--hidden", "16", "--lr", "3e-3",
                    "--epochs", "4", "--seed", "0"]) == 0
        params, alphabet, metadata, _a = load_model(tmp_path / "run" / "model.rcn")
        assert metadata["input_kind"] == "feature"
        assert metadata["hop_samples"] == 1
        assert params.config.input_dim == 8
        assert alphabet == ["p0", "p1", "p2"]

        assert run(["decode", "--manifest", test_m, "--model",
                    tmp_path / "run" / "model.rcn", "--decoder", "hmm",
                    "--out", tmp_path / "dec"]) == 0
        assert run(["eval", "--ref-manifest", test_m, "--hyp-dir",
                    tmp_path / "dec" / "hyp", "--out", tmp_path / "ev"]) == 0
        rows = list(csv.DictReader((tmp_path / "ev" / "report.csv").open()))
        overall = [r for r in rows if r["id"] == "OVERALL"][0]
        # the signature dimension makes this trivially learnable
        assert float(overall["accuracy"]) >= 80.0


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--no-such-flag", "x", "--out", "y"])
        assert exc.value.code == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        rc = run(["train", "--train-manifest", tmp_path / "none.jsonl",
                  "--cv-manifest", tmp_path / "none.jsonl", "--out", tmp_path])
        assert rc == 2

    @pytest.mark.parametrize("split", ["train", "cv"])
    @pytest.mark.parametrize("command, args", [
        ("train", [*SMALL_NET, "--epochs", "1"]),
        ("grid", ["--window-ms-list", "50", "--kernel-list", "5", "--filters-list", "4",
                  "--hidden-list", "8", "--epochs", "1"]),
        ("ablate-pool", [*SMALL_NET, "--epochs", "1"]),
    ])
    def test_split_with_no_frames_is_data_error(self, corpus, tmp_path, capsys, command, args,
                                                split):
        # 100 samples each at the default 160-sample hop: the split has no frames
        lines = []
        for i in range(3):
            write_wav(tmp_path / f"s{i}.wav", Waveform(np.zeros(100), 16000))
            write_labels(tmp_path / f"s{i}.txt", SegmentAnnotation(((0, 100, "c0"),)))
            lines.append(json.dumps({"id": f"s{i}", "wav": f"s{i}.wav", "labels": f"s{i}.txt"}))
        short = tmp_path / "short.jsonl"
        short.write_text("\n".join(lines) + "\n")
        splits = ("train", "cv", "test") if command == "ablate-pool" else ("train", "cv")
        manifests = {s: short if s == split else corpus / f"{s}.jsonl" for s in splits}
        rc = run([command, *[a for s, m in manifests.items() for a in (f"--{s}-manifest", m)],
                  "--out", tmp_path / "o", *args])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"data error: {short}: every utterance is shorter than one hop (160 samples)" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, window, splits", [
        ("train", ["--window-frames", "5"], ("train", "cv")),
        ("grid", ["--window-ms-list", "5"], ("train", "cv")),
        ("ablate-pool", ["--window-frames", "5", "--stages", "2:1:1,2:1:1,1:1:1"],
         ("train", "cv", "test")),
    ])
    def test_waveform_row_in_a_feature_run_is_data_error_before_framing(
            self, corpus, tmp_path, capsys, monkeypatch, command, window, splits):
        monkeypatch.setattr(cli, "build_frame_dataset", refuse_framing)
        rc = run([command, *split_args(corpus, *splits), "--out", tmp_path / "o",
                  "--feature-dim", "4", *window, "--epochs", "1"])
        assert rc == 2
        first = load_manifest(corpus / "train.jsonl")[0]
        assert capsys.readouterr().err == (
            f"data error: utterance {first.id}: waveform {first.wav_path} in a feature-input run\n")
        assert not (tmp_path / "o").exists()

    def test_manifest_mixing_waveform_and_feature_rows_is_data_error(
            self, corpus, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_frame_dataset", refuse_framing)
        feature_m = TestFeaturePipeline().make_feature_corpus(tmp_path / "feat", 3, 0)
        wav = load_manifest(corpus / "train.jsonl")[0]
        with feature_m.open("a") as f:  # a waveform row after the feature rows
            f.write(json.dumps({"id": wav.id, "wav": str(wav.wav_path),
                                "labels": str(wav.labels_path)}) + "\n")
        rc = run(["train", "--train-manifest", feature_m, "--cv-manifest", feature_m,
                  "--out", tmp_path / "o", "--feature-dim", "8", "--window-frames", "5",
                  "--stages", "3:1:1", "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: utterance {wav.id}: waveform {wav.wav_path} in a feature-input run\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, args, splits", [
        ("train", [*SMALL_NET, "--epochs", "1"], ("train", "cv")),
        ("grid", ["--window-ms-list", "50", "--kernel-list", "5", "--filters-list", "4",
                  "--hidden-list", "8", "--epochs", "1"], ("train", "cv")),
        ("ablate-pool", [*SMALL_NET, "--epochs", "1"], ("train", "cv", "test")),
    ])
    @pytest.mark.parametrize("hop_ms", ["-10", "0", "0.03", "inf", "nan"])
    def test_hop_below_one_sample_is_usage_error(self, tmp_path, capsys, command, args,
                                                 splits, hop_ms):
        # short utterances, so that a hop clamped to one sample still trains quickly
        lines = []
        for i in range(2):
            write_wav(tmp_path / f"s{i}.wav", Waveform(np.linspace(-0.5, 0.5, 200), 16000))
            write_labels(tmp_path / f"s{i}.txt",
                         SegmentAnnotation(((0, 100, "c0"), (100, 200, "c1"))))
            lines.append(json.dumps({"id": f"s{i}", "wav": f"s{i}.wav", "labels": f"s{i}.txt"}))
        (tmp_path / "short.jsonl").write_text("\n".join(lines) + "\n")
        manifests = [a for s in splits for a in (f"--{s}-manifest", tmp_path / "short.jsonl")]
        # 0.03 ms is 0.48 samples at 16 kHz, which rounds to 0
        rc = run([command, *manifests, "--out", tmp_path / "o", *args, "--hop-ms", hop_ms])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"usage error: --hop-ms {float(hop_ms):g} is " in err
        assert "the hop must round to at least one sample" in err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command, option, args", [
        ("train", "--crf-epochs", [*SMALL_NET, "--epochs", "1"]),
        ("grid", "--max-configs", ["--window-ms-list", "50", "--kernel-list", "3,5",
                                   "--filters-list", "4", "--hidden-list", "8", "--epochs", "1"]),
        ("grid", "--stages-count", ["--window-ms-list", "50", "--kernel-list", "3,5",
                                    "--filters-list", "4", "--hidden-list", "8", "--epochs", "1"]),
    ])
    def test_negative_count_is_usage_error(self, corpus, tmp_path, capsys, command, option,
                                           args):
        argv = [command, *split_args(corpus, "train", "cv"), *args]
        assert run([*argv, "--out", tmp_path / "o", option, "-1"]) == 1
        assert f"usage error: {option} must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # 0 keeps its meaning: no CRF training, every configuration of the grid,
        # or networks without stages, which both kernels leave the same
        assert run([*argv, "--out", tmp_path / "z", option, "0"]) == 0
        if command == "train":
            _params, _alphabet, _meta, transitions = load_model(tmp_path / "z" / "model.rcn")
            assert not transitions.any()
        else:
            rows = 2 if option == "--max-configs" else 1
            assert len((tmp_path / "z" / "grid.csv").read_text().splitlines()) == 1 + rows

    @pytest.mark.parametrize("value", ["-1", "nan"])
    def test_crf_lr_below_zero_or_nan_is_usage_error(self, corpus, tmp_path, capsys, value):
        argv = ["train", *split_args(corpus, "train", "cv"), *SMALL_NET, "--epochs", "1",
                "--crf-lr", value, "--out", tmp_path / "o"]
        assert run(argv) == 1
        assert "usage error: --crf-lr must be at least 0, got " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, splits", [
        ("train", ("train", "cv")), ("grid", ("train", "cv")),
        ("ablate-pool", ("train", "cv", "test")),
    ])
    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_lr_below_zero_or_not_finite_is_usage_error(self, corpus, tmp_path, capsys,
                                                        command, splits, value):
        argv = [command, *split_args(corpus, *splits), "--epochs", "1", "--lr", value,
                "--out", tmp_path / "o"]
        assert run(argv) == 1
        expected = {"-1": "--lr must be at least 0, got -1.0",
                    "nan": "--lr must be at least 0, got nan",
                    "inf": "--lr must be finite, got inf"}[value]
        assert f"usage error: {expected}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("command, splits", [
        ("train", ("train", "cv")), ("ablate-pool", ("train", "cv", "test")),
    ])
    def test_window_longer_than_every_training_utterance_is_usage_error(
        self, corpus, tmp_path, capsys, command, splits
    ):
        longest = longest_train_utterance(corpus)
        argv = [command, *split_args(corpus, *splits), *SMALL_NET, "--epochs", "1"]
        # 1e9 ms would be zero-padded by 8e9 samples per utterance before any other check
        for option, value, samples in (("--window-ms", "1e9", 16_000_000_000),
                                       ("--window-frames", str(longest + 1), longest + 1)):
            assert run([*argv, "--out", tmp_path / "o", option, value]) == 1
            assert (
                f"usage error: {option} {float(value):g} is a window of {samples} samples, "
                f"longer than the longest training utterance ({longest} samples)"
            ) in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_grid_records_window_longer_than_every_training_utterance_as_failed(
        self, corpus, tmp_path
    ):
        grid = ["--kernel-list", "5", "--filters-list", "4", "--hidden-list", "8",
                "--pool-list", "2", "--epochs", "1", "--window-ms-list", "50,1e9"]
        assert run(["grid", *split_args(corpus, "train", "cv"), "--out", tmp_path, *grid]) == 0
        rows = {r["window_frames"]: r for r in csv.DictReader((tmp_path / "grid.csv").open())}
        assert rows["800"]["error"] == "" and rows["800"]["cv_accuracy"]
        failed = rows["16000000000"]
        assert failed["cv_accuracy"] == ""
        assert failed["error"] == (
            "ValueError: window of 16000000000 samples, longer than the longest training "
            f"utterance ({longest_train_utterance(corpus)} samples)"
        )

    def test_grid_feature_windows_are_whole_frame_counts(self, tmp_path, capsys):
        make = TestFeaturePipeline().make_feature_corpus
        train_m = make(tmp_path / "tr", 3, 0)
        cv_m = make(tmp_path / "cv", 2, 1)
        argv = ["grid", "--train-manifest", train_m, "--cv-manifest", cv_m, "--feature-dim", "8",
                "--kernel-list", "2", "--filters-list", "2", "--hidden-list", "4",
                "--pool-list", "1", "--stages-count", "1", "--epochs", "1"]
        assert run([*argv, "--out", tmp_path / "ok", "--window-ms-list", "3,5"]) == 0
        rows = list(csv.DictReader((tmp_path / "ok" / "grid.csv").open()))
        assert sorted(r["window_frames"] for r in rows) == ["3", "5"]
        for windows, element in (("9.7", "9.7"), ("5,0.5", "0.5")):
            capsys.readouterr()
            out = tmp_path / windows
            assert run([*argv, "--out", out, "--window-ms-list", windows]) == 1
            assert capsys.readouterr().err == (
                f"usage error: --window-ms-list: element {element!r} is not an integer\n")
            assert not out.exists()

    def test_feature_window_of_the_longest_utterance_trains(self, tmp_path, capsys):
        make = TestFeaturePipeline().make_feature_corpus
        train_m = make(tmp_path / "tr", 3, 0)
        cv_m = make(tmp_path / "cv", 2, 1)
        longest = max(len(load_utterance(r, feature_dim=8).features)
                      for r in load_manifest(train_m))
        argv = ["train", "--train-manifest", train_m, "--cv-manifest", cv_m,
                "--feature-dim", "8", "--stages", "3:1:1", "--filters", "2", "--hidden", "4",
                "--epochs", "1", "--crf-epochs", "0"]
        assert run([*argv, "--out", tmp_path / "fits", "--window-frames", longest]) == 0
        assert run([*argv, "--out", tmp_path / "o", "--window-frames", longest + 1]) == 1
        assert (
            f"usage error: --window-frames {longest + 1} is a window of {longest + 1} frames, "
            f"longer than the longest training utterance ({longest} frames)"
        ) in capsys.readouterr().err


def longest_train_utterance(corpus):
    return max(len(load_utterance(r).waveform) for r in load_manifest(corpus / "train.jsonl"))


class TestParser:
    def outcome(self, parse, argv):
        """Exit code, stdout and stderr of parsing `argv`; code None when parsing succeeds."""
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                parse(argv)
            except SystemExit as e:
                code = e.code
        return code, out.getvalue(), err.getvalue()

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["no-such-command"],
        *([name, "--help"] for name, *_rest in SUBCOMMANDS),
        *([name, "--no-such-flag"] for name, *_rest in SUBCOMMANDS),
        *([name, "--out", "o", "--config"] for name, *_rest in SUBCOMMANDS),
        ["check-grad", "stray"],
    ], ids=lambda argv: " ".join(argv) or "none")
    def test_main_parses_as_the_full_parser(self, argv, monkeypatch):
        """main builds one subcommand's parser; what it prints and exits with must not change."""
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or
                            build_parser(only))
        lazy = self.outcome(main, argv)
        full = self.outcome(build_parser().parse_args, argv)
        assert lazy == full
        assert lazy[0] in (0, 1)  # help, or a usage error
        named = argv and argv[0] in [name for name, *_rest in SUBCOMMANDS]
        assert built == [argv[0] if named else None]


class TestOptionTables:
    def test_every_table_key_has_exactly_one_flag(self):
        parser = build_parser()
        subparsers = next(a for a in parser._actions if a.dest == "command").choices
        for name, _func, _help, defaults, paths in SUBCOMMANDS:
            dests = [a.dest for a in subparsers[name]._actions]
            assert sorted(dests) == sorted(["help", "config", "out", *paths, *defaults]), name

    def test_bool_flags_follow_their_default(self):
        ns = build_parser().parse_args(["eval", "--ref-manifest", "m", "--hyp-dir", "h",
                                        "--out", "o", "--strip-garbage"])
        assert ns.strip_garbage is True
        grid = ["grid", "--train-manifest", "t", "--cv-manifest", "c", "--out", "o"]
        assert build_parser().parse_args(grid).shuffle is None
        assert build_parser().parse_args([*grid, "--no-shuffle"]).shuffle is False
        with pytest.raises(SystemExit):
            build_parser().parse_args([*grid, "--shuffle"])


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "rawphone.cli", "synth", "--out",
             str(tmp_path / "c"), "--train", "1", "--cv", "1", "--test", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "c" / "train.jsonl").exists()


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the thread count of the OpenBLAS that numpy bundles, after `import rawphone`
BLAS_THREADS = """
import ctypes, glob, os
import rawphone
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "libscipy_openblas*"))
get = libs and getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None)
if get:
    get.argtypes, get.restype = (), ctypes.c_int
print(get() if get else "absent")
"""


class TestBlasThreads:
    """A process that starts from the package runs one BLAS thread unless the
    operator sets a count, with the outputs of a pinned run."""

    @staticmethod
    def child(argv, pinned):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
        if pinned:
            env.update(dict.fromkeys(BLAS_VARIABLES, "1"))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_unpinned_train_and_decode_match_a_pinned_run(self, corpus, tmp_path):
        for pinned in (True, False):
            out = tmp_path / ("pinned" if pinned else "unset")
            self.child(["-m", "rawphone.cli", "train", *split_args(corpus, "train", "cv"),
                        "--out", out / "run", *SMALL_NET, "--epochs", "1", "--seed", "0"], pinned)
            self.child(["-m", "rawphone.cli", "decode", "--manifest", corpus / "test.jsonl",
                        "--model", out / "run" / "model.rcn", "--out", out / "dec"], pinned)
        names = ["run/model.rcn", "run/history.csv", "dec/decode_log.csv",
                 *(f"dec/hyp/{p.name}" for p in (tmp_path / "pinned" / "dec" / "hyp").iterdir())]
        assert len(names) == 5
        for name in names:
            assert (tmp_path / "unset" / name).read_bytes() == (
                tmp_path / "pinned" / name).read_bytes(), name

    def test_unpinned_process_runs_one_blas_thread(self):
        threads = self.child(["-c", BLAS_THREADS], pinned=False).strip()
        if threads == "absent":
            pytest.skip("numpy bundles no OpenBLAS with a thread-count query")
        assert threads == "1"
