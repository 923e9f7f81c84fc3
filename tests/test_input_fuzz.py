"""Seeded fuzz of the inputs `decode` and `eval` read: manifests, label files,
WAV headers, `.f32` sample streams and feature matrices.

Each case copies a valid corpus, applies one mutation and runs `decode`
with one of the three decoders, then `eval`, in process. Every run must
end in exit 0, 2 (data error) or 3 (numeric error); an exception escaping
`main` or a usage-error exit fails the case.
"""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest

from rawphone.cli import main
from rawphone.corpus import read_wav
from rawphone.model_io import save_model
from rawphone.net import NetworkConfig, StageConfig, init_params

ALPHABET = ["c0", "c1", "c2", "c3", "c4"]
FEATURE_DIM = 4
NASTY_JSON = [None, 7, -1.5, True, [], {}, "", "../nowhere.wav", "x" * 300]


def run_quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Pristine wav, .f32 and feature corpora and a model for each input kind."""
    root = tmp_path_factory.mktemp("fuzz")
    assert run_quiet(["synth", "--out", root / "wav", "--train", "1", "--cv", "1",
                      "--test", "3", "--seed", "5"]) == 0
    raw = root / "f32"
    raw.mkdir()
    rows = []
    for line in (root / "wav" / "test.jsonl").read_text().splitlines():
        rec = json.loads(line)
        samples = read_wav(root / "wav" / rec["wav"]).samples.astype("<f4")
        (raw / f"{rec['id']}.f32").write_bytes(samples.tobytes())
        shutil.copy(root / "wav" / rec["labels"], raw / f"{rec['id']}.txt")
        rows.append(json.dumps({"id": rec["id"], "wav": f"{rec['id']}.f32",
                                "labels": f"{rec['id']}.txt"}))
    (raw / "test.jsonl").write_text("\n".join(rows) + "\n")

    feat = root / "feat"
    feat.mkdir()
    rng = np.random.default_rng(5)
    rows = []
    for i in range(3):
        t = int(rng.integers(8, 30))
        (feat / f"u{i}.bin").write_bytes(rng.normal(size=(t, FEATURE_DIM)).astype("<f4").tobytes())
        cut = int(rng.integers(1, t))
        (feat / f"u{i}.txt").write_text(f"0 {cut} c{i}\n{cut} {t} c{i + 1}\n")
        rows.append(json.dumps({"id": f"u{i}", "feat": f"u{i}.bin", "labels": f"u{i}.txt"}))
    (feat / "test.jsonl").write_text("\n".join(rows) + "\n")

    transitions = np.random.default_rng(6).normal(size=(5, 5))
    raw_config = NetworkConfig(400, 1, (StageConfig(80, 10, 4, 3),), 8, 5)
    save_model(root / "raw.rcn", init_params(raw_config, 1), ALPHABET,
               {"input_kind": "raw", "sample_rate": 16000, "hop_samples": 160}, transitions)
    feat_config = NetworkConfig(5, FEATURE_DIM, (StageConfig(3, 1, 4, 1),), 6, 5)
    save_model(root / "feat.rcn", init_params(feat_config, 2), ALPHABET,
               {"input_kind": "feature", "hop_samples": 1}, transitions)
    return root


def _flip_bytes(data, rng, limit=None):
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        if out:
            pos = int(rng.integers(min(len(out), limit or len(out))))
            out[pos] ^= 1 << int(rng.integers(8))
    return bytes(out)


def mutate_manifest(path, rng):
    lines = path.read_text().splitlines()
    i = int(rng.integers(len(lines)))
    rec = json.loads(lines[i])
    kind = int(rng.integers(6))
    if kind == 0:
        del rec[list(rec)[int(rng.integers(len(rec)))]]
        lines[i] = json.dumps(rec)
    elif kind == 1:
        rec[list(rec)[int(rng.integers(len(rec)))]] = NASTY_JSON[int(rng.integers(len(NASTY_JSON)))]
        lines[i] = json.dumps(rec)
    elif kind == 2:
        lines[i] = lines[i][: int(rng.integers(len(lines[i])))]
    elif kind == 3:
        lines.append(lines[i])  # duplicate id
    elif kind == 4:
        lines[i] = json.dumps(list(rec.values()))
    else:
        lines = []
    path.write_text("\n".join(lines) + "\n")
    return f"manifest line {i} edit {kind}"


def mutate_labels(path, rng):
    lines = path.read_text().splitlines()
    i = int(rng.integers(len(lines)))
    start, end, label = lines[i].split()
    kind = int(rng.integers(6))
    if kind == 0:
        lines[i] = f"{end} {start} {label}"
    elif kind == 1:
        lines[i] = f"-{end} {start} {label}"
    elif kind == 2:
        lines[i] = f"{start} {end}.5 {label}"
    elif kind == 3:
        lines = []
    elif kind == 4:
        lines.append(f"{int(end) * 100} {int(end) * 100 + 1} zz")
    else:
        lines[i] = f"{start} {end} {label} extra"
    path.write_text("\n".join(lines) + "\n")
    return f"labels line {i} edit {kind}"


def mutate_wav(path, rng):
    data = path.read_bytes()
    kind = int(rng.integers(3))
    if kind == 0:
        path.write_bytes(_flip_bytes(data, rng, limit=44))
    elif kind == 1:
        path.write_bytes(data[: int(rng.integers(60))])
    else:
        # channels, sample rate, bits per sample or data size set to a random value
        offset, size = [(22, 2), (24, 4), (34, 2), (40, 4)][int(rng.integers(4))]
        value = int(rng.integers(0, 2 ** (8 * size)))
        path.write_bytes(data[:offset] + value.to_bytes(size, "little") + data[offset + size:])
    return f"wav header edit {kind}"


def mutate_floats(path, rng):
    data = path.read_bytes()
    kind = int(rng.integers(4))
    if kind == 0:
        path.write_bytes(data[: int(rng.integers(len(data)))])
    elif kind == 1:
        values = np.frombuffer(data, dtype="<f4").copy()
        values[rng.integers(len(values), size=3)] = [np.nan, np.inf, -np.inf][int(rng.integers(3))]
        path.write_bytes(values.tobytes())
    elif kind == 2:
        path.write_bytes(data + rng.bytes(int(rng.integers(1, 4))))
    else:
        path.write_bytes(_flip_bytes(data, rng))
    return f"float data edit {kind}"


CASES = [  # corpus, model, extra decode flags
    ("wav", "raw.rcn", []),
    ("f32", "raw.rcn", ["--raw-sample-rate", "16000"]),
    ("feat", "feat.rcn", []),
]


def test_mutated_decode_inputs_exit_cleanly(corpora, tmp_path):
    rng = np.random.Generator(np.random.PCG64(606))
    exits = set()
    for i in range(90):
        name, model, flags = CASES[i % 3]
        corpus = tmp_path / f"c{i}"
        shutil.copytree(corpora / name, corpus)
        rows = [json.loads(line) for line in (corpus / "test.jsonl").read_text().splitlines()]
        row = rows[int(rng.integers(len(rows)))]
        data_file = corpus / row["wav" if "wav" in row else "feat"]
        target = int(rng.integers(4))
        if target == 0:
            what = mutate_manifest(corpus / "test.jsonl", rng)
        elif target == 1:
            what = mutate_labels(corpus / row["labels"], rng)
        elif name == "wav":
            what = mutate_wav(data_file, rng)
        else:
            what = mutate_floats(data_file, rng)
        decoder = ("argmax", "hmm", "crf")[(i // 3) % 3]
        steps = [
            ["decode", "--manifest", corpus / "test.jsonl", "--model", corpora / model,
             "--decoder", decoder, "--out", tmp_path / f"d{i}", *flags],
            ["eval", "--ref-manifest", corpus / "test.jsonl",
             "--hyp-dir", tmp_path / f"d{i}" / "hyp", "--out", tmp_path / f"e{i}"],
        ]
        for argv in steps:
            try:
                rc = run_quiet(argv)
            except Exception as e:  # noqa: BLE001 - any escaping exception is the failure
                pytest.fail(f"case {i} ({name}, {what}) {argv[0]}: {type(e).__name__}: {e}")
            assert rc in (0, 2, 3), f"case {i} ({name}, {what}) {argv[0]} exited {rc}"
            exits.add(rc)
    # both outcomes occur: the mutations reach past the first checks
    assert {0, 2} <= exits
