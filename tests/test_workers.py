"""The ordered map over forked workers, and the subcommands that run on it.

Every output of `train`, `decode`, `eval`, `grid` and `ablate-pool` must
be byte-identical whatever the number of workers, and a failure inside a
worker must end the subcommand as it ends the same run on one worker.
The worker count is set through `workers.usable_cores`, and the fork
gate is forced open or shut through `workers.FORK_PRICE_S`: the decodes
here are small enough that the gate would run them inline.
"""

import json
import multiprocessing
import os
import re
import signal
import sys
import threading

import numpy as np
import pytest

from rawphone import decoding, workers
from rawphone.cli import main
from rawphone.corpus import write_labels, write_wav
from rawphone.decoding import decoder_units, seconds_per_frame
from rawphone.errors import DataError, DivergenceError, WorkerLostError
from rawphone.framing import SegmentAnnotation, Waveform
from rawphone.net import NetworkConfig, StageConfig
from rawphone.workers import ordered_map, worker_count

SMALL_NET = ["--window-ms", "50", "--stages", "80:10:3,5:1:3,3:1:2",
             "--filters", "8", "--hidden", "16"]


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture
def cores(monkeypatch):
    """Set the number of usable cores the worker count is taken from."""
    def set_cores(n):
        monkeypatch.setattr(workers, "usable_cores", lambda: n)
    return set_cores


@pytest.fixture
def gate(monkeypatch):
    """Force the fork gate open (fork whatever the estimate) or shut (never fork)."""
    def set_gate(state):
        price = {"open": -float("inf"), "shut": float("inf")}[state]
        monkeypatch.setattr(workers, "FORK_PRICE_S", price)
    return set_gate


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def squares(share):
    for x in share:
        print(f"item {x}", file=sys.stderr)
        yield x * x


class TestOrderedMap:
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_outputs_in_item_order_for_any_worker_count(self, cores, capsys, n):
        for count in (1, 2, 3, 8):
            cores(count)
            assert ordered_map(squares, range(n)) == [x * x for x in range(n)]
            assert capsys.readouterr().err == "".join(f"item {x}\n" for x in range(n))
            assert multiprocessing.active_children() == []

    def test_worker_count_is_cores_capped_at_items(self, cores):
        cores(2)
        assert [worker_count(n) for n in (0, 1, 2, 5)] == [1, 1, 2, 2]
        cores(1)
        assert worker_count(5) == 1

    def test_each_share_runs_in_its_own_process_and_inner_maps_run_inline(self, cores):
        cores(3)

        def pids(share):
            for _x in share:
                yield os.getpid(), worker_count(10), ordered_map(squares, [3, 4])

        outputs = ordered_map(pids, range(3))
        assert outputs[0][0] == os.getpid()
        assert len({pid for pid, _count, _inner in outputs}) == 3
        assert [count for _pid, count, _inner in outputs] == [3, 1, 1]
        assert all(inner == [9, 16] for _pid, _count, inner in outputs)

    @pytest.mark.parametrize("failing", [0, 2, 4])
    def test_earliest_failure_raised_after_the_stderr_before_it(self, cores, capsys, failing):
        def work(share):
            for x in share:
                print(f"item {x}", file=sys.stderr)
                if x >= failing:
                    raise DivergenceError(f"item {x} diverged")
                yield x

        for count in (1, 2, 3):
            cores(count)
            with pytest.raises(DivergenceError, match=f"^item {failing} diverged$"):
                ordered_map(work, range(5))
            assert capsys.readouterr().err == "".join(f"item {x}\n" for x in range(failing + 1))
            assert multiprocessing.active_children() == []

    def test_worker_that_dies_without_results_is_an_error(self, cores):
        cores(2)

        def work(share):
            if share[0] != 0:
                os._exit(7)
            yield from share

        with pytest.raises(WorkerLostError, match="exit code 7"):
            ordered_map(work, range(4))
        assert multiprocessing.active_children() == []

    def test_exception_that_does_not_pickle_arrives_as_its_class_and_message(self, cores):
        cores(2)

        def work(share):
            for x in share:
                if x == 3:
                    error = DataError(f"item {x} is bad")
                    error.hook = lambda: None  # pickle cannot send a lambda
                    raise error
                yield x

        with pytest.raises(DataError, match="^item 3 is bad$"):
            ordered_map(work, range(4))
        assert multiprocessing.active_children() == []

    def test_exception_whose_class_does_not_pickle_is_a_lost_worker_naming_it(self, cores):
        cores(2)

        class LocalError(Exception):  # defined in a function: pickle cannot find it
            pass

        def work(share):
            for x in share:
                if x == 3:
                    raise LocalError("no way home")
                yield x

        with pytest.raises(WorkerLostError, match="LocalError.*no way home"):
            ordered_map(work, range(4))
        assert multiprocessing.active_children() == []

    def test_python_threads_keep_the_map_inline(self, cores):
        cores(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert worker_count(4) == 1
            assert ordered_map(lambda share: ((os.getpid(), x) for x in share), range(4)) == [
                (os.getpid(), x) for x in range(4)]
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()


def pids(share):
    return (os.getpid() for _item in share)


# the benchmark's networks: 39-dim features in 39 classes, and the
# acceptance architecture on 16 kHz audio in 5 classes
FEAT39_NET = NetworkConfig(9, 39, (StageConfig(3, 1, 20, 1),), 50, 39)
RAW_NET = NetworkConfig(1600, 1, (StageConfig(160, 10, 30, 3), StageConfig(5, 1, 30, 3),
                                  StageConfig(9, 1, 30, 3)), 100, 5)


class TestForkGate:
    """The gate forks only when the later shares' estimated work is worth a fork."""

    def forks(self, config, hop, decoder, frames):
        """Whether a decode of utterances `frames` long forks on 2 cores."""
        per_frame = seconds_per_frame(config, hop, decoder_units(decoder, config.num_classes, 3))
        return len(set(ordered_map(pids, frames, lambda f: f * per_frame))) > 1

    # the benchmark's test splits: feat39 24 utterances of about 319
    # frames, train_raw 12 of about 73, decode_raw 48 of about 78
    @pytest.mark.parametrize("decoder, forks", [("argmax", False), ("hmm", False),
                                                ("crf", True)])
    def test_feat39_sized_decode(self, cores, decoder, forks):
        cores(2)
        assert self.forks(FEAT39_NET, 1, decoder, [319] * 24) == forks
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("decoder", ["argmax", "hmm", "crf"])
    @pytest.mark.parametrize("utterances, frames", [(12, 73), (48, 78)])
    def test_raw_sized_decodes_fork(self, cores, decoder, utterances, frames):
        cores(2)
        assert self.forks(RAW_NET, 160, decoder, [frames] * utterances)

    # train prices its CV and CRF-emission utterances as argmax decodes:
    # feat39's 4 CV and 12 training utterances of about 319 frames and
    # train_raw's 2 CV utterances of about 73 stay inline; train_raw's 10
    # training utterances fork
    @pytest.mark.parametrize("config, hop, frames, forks", [
        (FEAT39_NET, 1, [319] * 4, False), (FEAT39_NET, 1, [319] * 12, False),
        (RAW_NET, 160, [73] * 2, False), (RAW_NET, 160, [73] * 10, True),
    ], ids=["feat39_cv", "feat39_crf", "train_raw_cv", "train_raw_crf"])
    def test_train_sized_maps(self, cores, config, hop, frames, forks):
        cores(2)
        assert self.forks(config, hop, "argmax", frames) == forks
        assert multiprocessing.active_children() == []

    def test_map_without_an_estimate_forks(self, cores):
        cores(2)
        assert len(set(ordered_map(pids, range(2)))) == 2

    def test_forks_only_when_the_later_shares_cost_more_than_the_price(self, cores,
                                                                      monkeypatch):
        cores(2)  # shares [0, 1] and [2, 3]: the later share costs 2 + 3 seconds
        monkeypatch.setattr(workers, "FORK_PRICE_S", 5.0)
        assert ordered_map(pids, range(4), float) == [os.getpid()] * 4
        monkeypatch.setattr(workers, "FORK_PRICE_S", 4.9)
        assert len(set(ordered_map(pids, range(4), float))) == 2

    def test_takes_the_most_workers_whose_forks_pay(self, cores, monkeypatch):
        cores(4)  # 8 items of 1 s: 4 workers leave 6 s to 3 children, 3 leave 6 s to 2
        monkeypatch.setattr(workers, "FORK_PRICE_S", 2.5)
        outputs = ordered_map(pids, [1.0] * 8, float)
        assert len(set(outputs)) == 3 and outputs[:2] == [os.getpid()] * 2


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert run(["synth", "--out", root, "--train", "8", "--cv", "2",
                "--test", "4", "--seed", "3"]) == 0
    return root


@pytest.fixture(scope="module")
def model(tmp_path_factory, corpus):
    out = tmp_path_factory.mktemp("model")
    assert run(["train", "--train-manifest", corpus / "train.jsonl",
                "--cv-manifest", corpus / "cv.jsonl", "--out", out, *SMALL_NET,
                "--lr", "3e-4", "--epochs", "1", "--crf-epochs", "2", "--seed", "3"]) == 0
    return out / "model.rcn"


def manifest_with_bad_rate(corpus, root, position):
    """The test split with an 8 kHz utterance, which the 16 kHz model cannot
    decode, inserted at `position`."""
    root.mkdir()
    tone = np.sin(np.arange(4000) * (2 * np.pi * 700 / 8000))
    write_wav(root / "narrow.wav", Waveform(tone, 8000))
    write_labels(root / "narrow.txt", SegmentAnnotation(((0, 4000, "c0"),)))
    lines = [json.dumps({"id": r["id"], "wav": str(corpus / r["wav"]),
                         "labels": str(corpus / r["labels"])})
             for r in map(json.loads, (corpus / "test.jsonl").read_text().splitlines())]
    lines.insert(position, json.dumps({"id": "narrow", "wav": "narrow.wav",
                                       "labels": "narrow.txt"}))
    (root / "m.jsonl").write_text("\n".join(lines) + "\n")
    return root / "m.jsonl"


class TestWorkerCountIndependence:
    # 5 utterances: 2 workers split them 2 + 3, 3 workers 1 + 2 + 2, so
    # positions 1 and 2 put the failing one on each side of a share boundary
    @pytest.mark.parametrize("position", [1, 2])
    @pytest.mark.parametrize("decoder", ["argmax", "crf", "hmm"])
    def test_decode_and_eval(self, corpus, model, cores, gate, tmp_path, decoder, position):
        manifest = manifest_with_bad_rate(corpus, tmp_path / "data", position)
        outputs = {}
        for state in ("open", "shut"):
            gate(state)
            for count in (1, 2, 3):
                cores(count)
                out = tmp_path / f"{state}{count}"
                assert run(["decode", "--manifest", manifest, "--model", model,
                            "--decoder", decoder, "--out", out / "dec"]) == 0
                assert run(["eval", "--ref-manifest", manifest,
                            "--hyp-dir", out / "dec" / "hyp", "--out", out / "ev"]) == 0
                assert multiprocessing.active_children() == []
                outputs[state, count] = tree_bytes(out)
        assert all(tree == outputs["shut", 1] for tree in outputs.values())
        log = outputs["shut", 1]["dec/decode_log.csv"].decode().splitlines()
        assert log[1 + position].startswith("narrow,error,sample rate 8000 Hz")
        hyps = [p for p in outputs["shut", 1] if p.startswith("dec/hyp/")]
        assert len(log) == 6 and len(hyps) == 4

    def test_train(self, corpus, cores, gate, tmp_path, capsys):
        """CV scoring and the CRF's emissions, mapped over the worker count."""
        outputs = {}
        for state in ("open", "shut"):
            gate(state)
            for count in (1, 2, 3):
                cores(count)
                out = tmp_path / f"{state}{count}"
                assert run(["train", "--train-manifest", corpus / "train.jsonl",
                            "--cv-manifest", corpus / "cv.jsonl", "--out", out, *SMALL_NET,
                            "--lr", "3e-4", "--epochs", "2", "--crf-epochs", "2",
                            "--seed", "3"]) == 0
                assert multiprocessing.active_children() == []
                # each epoch line without its timings
                lines = [re.sub(r", [0-9.]+ s(, [0-9]+ frames/s)?$", "", line)
                         for line in capsys.readouterr().err.splitlines()]
                outputs[state, count] = ((out / "model.rcn").read_bytes(),
                                         (out / "history.csv").read_bytes(), lines)
        assert all(output == outputs["shut", 1] for output in outputs.values())
        assert [line.split(":")[0] for line in outputs["shut", 1][2]] == [
            "epoch 1/2", "epoch 2/2", "crf epoch 1/2", "crf epoch 2/2"]

    def test_grid(self, corpus, cores, tmp_path):
        outputs = {}
        for count in (1, 2):
            cores(count)
            out = tmp_path / f"grid{count}"
            assert run(["grid", "--train-manifest", corpus / "train.jsonl",
                        "--cv-manifest", corpus / "cv.jsonl", "--out", out,
                        "--window-ms-list", "30,40,50", "--kernel-list", "5",
                        "--filters-list", "4", "--hidden-list", "8", "--pool-list", "2",
                        "--epochs", "1", "--seed", "3"]) == 0
            assert multiprocessing.active_children() == []
            outputs[count] = (out / "grid.csv").read_bytes()
        assert outputs[1] == outputs[2]
        assert len(outputs[1].splitlines()) == 4

    def test_ablate_pool_rows_and_epoch_lines_in_setting_order(self, corpus, cores, tmp_path,
                                                               capsys):
        outputs = {}
        for count in (1, 2):
            cores(count)
            out = tmp_path / f"abl{count}"
            assert run(["ablate-pool", "--train-manifest", corpus / "train.jsonl",
                        "--cv-manifest", corpus / "cv.jsonl",
                        "--test-manifest", corpus / "test.jsonl", "--out", out, *SMALL_NET,
                        "--lr", "3e-4", "--epochs", "2", "--seed", "3"]) == 0
            assert multiprocessing.active_children() == []
            captured = capsys.readouterr()
            outputs[count] = (out / "ablation.csv").read_bytes(), captured.out
            epochs = [line.split(":")[0] for line in captured.err.splitlines()]
            assert epochs == ["epoch 1/2", "epoch 2/2"] * 4
        assert outputs[1] == outputs[2]


def last_test_utterance(corpus):
    """The id of the test split's last utterance, in the last share for any worker count."""
    return json.loads((corpus / "test.jsonl").read_text().splitlines()[-1])["id"]


class TestFailuresInsideWorkers:
    @pytest.fixture(autouse=True)
    def open_gate(self, gate):
        gate("open")

    def test_scorer_divergence_exits_as_on_one_worker(self, corpus, model, cores, tmp_path,
                                                      monkeypatch, capsys):
        last = last_test_utterance(corpus)
        score = decoding.compute_emissions

        def diverging(utt, params, hop):
            if utt.id == last:  # in the last share for any worker count
                raise DivergenceError(f"scores of {utt.id} are not finite")
            return score(utt, params, hop)

        monkeypatch.setattr(decoding, "compute_emissions", diverging)
        ends = {}
        for count in (1, 2):
            cores(count)
            rc = run(["decode", "--manifest", corpus / "test.jsonl", "--model", model,
                      "--out", tmp_path / f"d{count}"])
            assert multiprocessing.active_children() == []
            ends[count] = rc, capsys.readouterr().err
        assert ends[1] == ends[2] == (3, f"numeric error: scores of {last} are not finite\n")

    def test_scorer_error_that_does_not_pickle_exits_as_on_one_worker(
            self, corpus, model, cores, tmp_path, monkeypatch, capsys):
        last = last_test_utterance(corpus)
        score = decoding.compute_emissions

        def failing(utt, params, hop):
            if utt.id == last:
                error = DataError(f"utterance {utt.id} is unreadable")
                error.retry = lambda: score(utt, params, hop)  # pickle cannot send a lambda
                raise error
            return score(utt, params, hop)

        monkeypatch.setattr(decoding, "compute_emissions", failing)
        ends = {}
        for count in (1, 2):
            cores(count)
            rc = run(["decode", "--manifest", corpus / "test.jsonl", "--model", model,
                      "--out", tmp_path / f"d{count}"])
            assert multiprocessing.active_children() == []
            ends[count] = rc, capsys.readouterr().err
        assert ends[1] == ends[2] == (2, f"data error: utterance {last} is unreadable\n")

    def test_worker_killed_exits_with_a_resource_error(self, corpus, model, cores, tmp_path,
                                                       monkeypatch, capsys):
        score = decoding.compute_emissions

        def killed_in_a_worker(utt, params, hop):
            if multiprocessing.parent_process() is not None:
                os.kill(os.getpid(), signal.SIGKILL)
            return score(utt, params, hop)

        monkeypatch.setattr(decoding, "compute_emissions", killed_in_a_worker)
        cores(2)
        rc = run(["decode", "--manifest", corpus / "test.jsonl", "--model", model,
                  "--out", tmp_path / "d"])
        err = capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert rc == 4
        assert err == ("resource error: a worker process was killed by signal SIGKILL "
                       "before sending its results\n")

    def test_memory_error_exits_with_a_resource_error_on_any_worker_count(
            self, corpus, model, cores, tmp_path, monkeypatch, capsys):
        last = last_test_utterance(corpus)
        score = decoding.compute_emissions

        def exhausted(utt, params, hop):
            if utt.id == last:
                raise MemoryError("Unable to allocate 64.0 GiB for an array")
            return score(utt, params, hop)

        monkeypatch.setattr(decoding, "compute_emissions", exhausted)
        ends = {}
        for count in (1, 2):
            cores(count)
            rc = run(["decode", "--manifest", corpus / "test.jsonl", "--model", model,
                      "--out", tmp_path / f"d{count}"])
            assert multiprocessing.active_children() == []
            ends[count] = rc, capsys.readouterr().err
        assert ends[1] == ends[2] == (
            4, "resource error: Unable to allocate 64.0 GiB for an array\n")

    def test_data_error_rows_in_ablate_pool(self, corpus, cores, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        write_wav(data / "short.wav", Waveform(np.zeros(100), 16000))  # under one hop
        write_labels(data / "short.txt", SegmentAnnotation(((0, 100, "c0"),)))
        lines = (corpus / "test.jsonl").read_text().splitlines()
        rows = [json.dumps({**r, "wav": str(corpus / r["wav"]), "labels": str(corpus / r["labels"])})
                for r in map(json.loads, lines)]
        rows.append(json.dumps({"id": "short", "wav": "short.wav", "labels": "short.txt"}))
        (data / "test.jsonl").write_text("\n".join(rows) + "\n")
        outputs = {}
        for count in (1, 2):
            cores(count)
            out = tmp_path / f"abl{count}"
            assert run(["ablate-pool", "--train-manifest", corpus / "train.jsonl",
                        "--cv-manifest", corpus / "cv.jsonl",
                        "--test-manifest", data / "test.jsonl", "--out", out, *SMALL_NET,
                        "--lr", "3e-4", "--epochs", "1", "--seed", "3"]) == 0
            assert multiprocessing.active_children() == []
            outputs[count] = (out / "ablation.csv").read_bytes(), capsys.readouterr().out
        assert outputs[1] == outputs[2]
        table = outputs[1][0].decode().splitlines()
        assert len(table) == 5
        assert all("shorter than one hop" in row for row in table[1:])

    def test_error_outside_the_handled_kinds_propagates(self, corpus, model, cores, tmp_path,
                                                        monkeypatch):
        last = last_test_utterance(corpus)
        score = decoding.compute_emissions

        def failing(utt, params, hop):
            if utt.id == last:
                raise KeyError(utt.id)
            return score(utt, params, hop)

        monkeypatch.setattr(decoding, "compute_emissions", failing)
        for count in (1, 2):
            cores(count)
            with pytest.raises(KeyError, match=last):
                run(["decode", "--manifest", corpus / "test.jsonl", "--model", model,
                     "--out", tmp_path / f"d{count}"])
            assert multiprocessing.active_children() == []
