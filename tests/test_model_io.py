import json
import struct

import numpy as np
import pytest

from rawphone.cli import main
from rawphone.errors import DataError
from rawphone.model_io import MAGIC, load_model, save_model
from rawphone.net import NetworkConfig, StageConfig, forward_pass, init_params


def small_params(seed=0):
    cfg = NetworkConfig(24, 1, (StageConfig(4, 2, 3, 2), StageConfig(2, 1, 5, 1)), 6, 4)
    return init_params(cfg, seed)


class TestModelRoundTrip:
    def test_save_load_save_is_bitwise_exact(self, tmp_path):
        crf = np.random.default_rng(4).normal(size=(4, 4))
        for dtype, transitions in ((np.float32, None), (np.float64, crf)):
            params = small_params().astype(dtype)
            a = tmp_path / "a.rcn"
            b = tmp_path / "b.rcn"
            save_model(a, params, ["w", "x", "y", "z"], metadata={"sample_rate": 16000},
                       transitions=transitions)
            loaded, alphabet, metadata, back = load_model(a)
            assert alphabet == ["w", "x", "y", "z"]
            assert metadata == {"sample_rate": 16000}
            assert (back is None) == (transitions is None)
            # the file holds float32, loaded into one flat buffer
            assert loaded.flat.tobytes() == params.flat.astype(np.float32).tobytes()
            save_model(b, loaded, alphabet, metadata=metadata, transitions=back)
            assert a.read_bytes() == b.read_bytes()

    def test_tensors_preserved_exactly(self, tmp_path):
        params = small_params(3)
        save_model(tmp_path / "m.rcn", params, ["a", "b", "c", "d"])
        loaded, _, _, _ = load_model(tmp_path / "m.rcn")
        for (n1, t1), (n2, t2) in zip(params.named_tensors(), loaded.named_tensors()):
            assert n1 == n2
            assert t1.tobytes() == t2.tobytes()

    def test_scores_identical_after_round_trip(self, tmp_path):
        params = small_params(5)
        save_model(tmp_path / "m.rcn", params, list("abcd"))
        loaded, _, _, _ = load_model(tmp_path / "m.rcn")
        x = np.random.default_rng(1).normal(size=(24, 1)).astype(np.float32)
        before, _ = forward_pass(x, params)
        after, _ = forward_pass(x, loaded)
        assert before.tobytes() == after.tobytes()

    def test_transition_matrix_round_trips(self, tmp_path):
        params = small_params(7)
        a = np.random.default_rng(2).normal(size=(4, 4)).astype(np.float32)
        save_model(tmp_path / "m.rcn", params, list("abcd"), transitions=a)
        _, _, _, back = load_model(tmp_path / "m.rcn")
        assert back.tobytes() == a.tobytes()

    def test_magic_checked(self, tmp_path):
        (tmp_path / "bad.rcn").write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataError, match="magic"):
            load_model(tmp_path / "bad.rcn")

    def test_truncated_file_rejected(self, tmp_path):
        params = small_params()
        save_model(tmp_path / "m.rcn", params, list("abcd"))
        data = (tmp_path / "m.rcn").read_bytes()
        (tmp_path / "t.rcn").write_bytes(data[:-10])
        with pytest.raises(DataError, match="truncated"):
            load_model(tmp_path / "t.rcn")

    def test_wrong_transition_shape_rejected(self, tmp_path):
        params = small_params()
        with pytest.raises(ValueError):
            save_model(tmp_path / "m.rcn", params, list("abcd"), transitions=np.zeros((2, 2)))

    def test_file_starts_with_magic(self, tmp_path):
        save_model(tmp_path / "m.rcn", small_params(), list("abcd"))
        assert (tmp_path / "m.rcn").read_bytes()[:4] == MAGIC


def write_raw(path, header, arrays):
    """A model file with an arbitrary header and tensor payload."""
    blob = json.dumps(header).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in arrays)
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob + payload)


def saved_parts(tmp_path, transitions=None):
    """Header and tensors of a valid saved model, to be tampered with."""
    params = small_params()
    save_model(tmp_path / "ok.rcn", params, list("abcd"), transitions=transitions)
    data = (tmp_path / "ok.rcn").read_bytes()
    (hlen,) = struct.unpack("<I", data[4:8])
    arrays = [t for _n, t in params.named_tensors()]
    if transitions is not None:
        arrays.append(transitions)
    return json.loads(data[8 : 8 + hlen]), arrays


class TestMalformedModel:
    def test_file_shorter_than_preamble(self, tmp_path):
        (tmp_path / "m.rcn").write_bytes(MAGIC + b"\x01\x02")
        with pytest.raises(DataError, match="preamble"):
            load_model(tmp_path / "m.rcn")

    @pytest.mark.parametrize("key", ["config", "tensors", "alphabet", "metadata"])
    def test_header_key_missing(self, tmp_path, key):
        header, arrays = saved_parts(tmp_path)
        del header[key]
        write_raw(tmp_path / "m.rcn", header, arrays if key != "tensors" else [])
        with pytest.raises(DataError, match=f"lacks {key}"):
            load_model(tmp_path / "m.rcn")

    @pytest.mark.parametrize("key", ["config", "tensors", "alphabet", "metadata"])
    def test_header_field_of_wrong_kind(self, tmp_path, key):
        header, arrays = saved_parts(tmp_path)
        header[key] = 7
        write_raw(tmp_path / "m.rcn", header, arrays)
        with pytest.raises(DataError, match=f"field {key} is not"):
            load_model(tmp_path / "m.rcn")

    def test_tensor_shape_disagrees_with_config(self, tmp_path):
        header, arrays = saved_parts(tmp_path)
        header["config"]["hidden_units"] = 3  # tensors were saved for 6
        write_raw(tmp_path / "m.rcn", header, arrays)
        with pytest.raises(DataError, match="hidden.weight has shape"):
            load_model(tmp_path / "m.rcn")

    def test_transitions_not_k_by_k(self, tmp_path):
        header, arrays = saved_parts(tmp_path, transitions=np.zeros((4, 4), np.float32))
        header["tensors"][-1]["shape"] = [2, 8]
        write_raw(tmp_path / "m.rcn", header, arrays)
        with pytest.raises(DataError, match="crf.A has shape"):
            load_model(tmp_path / "m.rcn")

    def test_alphabet_size_differs_from_num_classes(self, tmp_path):
        header, arrays = saved_parts(tmp_path)
        header["alphabet"] = ["a", "b", "c"]
        write_raw(tmp_path / "m.rcn", header, arrays)
        with pytest.raises(DataError, match="alphabet of 3 labels for 4 classes"):
            load_model(tmp_path / "m.rcn")

    def test_non_finite_weight(self, tmp_path):
        params = small_params()
        params.conv[1].weight[0, 0] = np.nan
        save_model(tmp_path / "m.rcn", params, list("abcd"))
        with pytest.raises(DataError, match="stage1.weight holds non-finite"):
            load_model(tmp_path / "m.rcn")

    def test_cli_exits_2(self, tmp_path, capsys):
        (tmp_path / "m.rcn").write_bytes(MAGIC)
        (tmp_path / "test.tsv").write_text("")
        rc = main(["decode", "--manifest", str(tmp_path / "test.tsv"),
                   "--model", str(tmp_path / "m.rcn"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "preamble" in capsys.readouterr().err


RAW_METADATA = {"input_kind": "raw", "sample_rate": 16000, "hop_samples": 160}


class TestMetadata:
    """A field decoding reads is checked where the model loads."""

    @pytest.mark.parametrize("key, value", [
        ("hop_samples", "abc"), ("hop_samples", 1.5), ("hop_samples", -160), ("hop_samples", 0),
        ("hop_samples", None), ("hop_samples", True), ("hop_samples", "160"),
        ("input_kind", "wav"), ("input_kind", None), ("input_kind", 1),
        ("sample_rate", 0), ("sample_rate", -16000), ("sample_rate", 16000.0),
        ("sample_rate", None), ("sample_rate", True), ("sample_rate", "16000"),
    ])
    def test_unusable_field_is_data_error(self, tmp_path, key, value):
        save_model(tmp_path / "m.rcn", small_params(), list("abcd"), {**RAW_METADATA, key: value})
        with pytest.raises(DataError, match=f"model metadata {key} is "):
            load_model(tmp_path / "m.rcn")

    def test_raw_model_without_sample_rate_is_data_error(self, tmp_path):
        metadata = {"input_kind": "raw", "hop_samples": 160}
        save_model(tmp_path / "m.rcn", small_params(), list("abcd"), metadata)
        with pytest.raises(DataError, match="sample_rate is None, not a positive integer"):
            load_model(tmp_path / "m.rcn")

    @pytest.mark.parametrize("metadata", [
        RAW_METADATA, {"input_kind": "feature", "sample_rate": None, "hop_samples": 1},
        {"input_kind": "feature", "hop_samples": 1}, {"sample_rate": 16000}, {},
    ])
    def test_usable_metadata_loads_as_written(self, tmp_path, metadata):
        save_model(tmp_path / "m.rcn", small_params(), list("abcd"), metadata)
        assert load_model(tmp_path / "m.rcn")[2] == metadata

    @pytest.mark.parametrize("value", ["abc", 0, None])
    def test_decode_exits_2_naming_the_field(self, tmp_path, capsys, value):
        save_model(tmp_path / "m.rcn", small_params(), list("abcd"),
                   {**RAW_METADATA, "hop_samples": value})
        (tmp_path / "test.jsonl").write_text("")
        rc = main(["decode", "--manifest", str(tmp_path / "test.jsonl"),
                   "--model", str(tmp_path / "m.rcn"), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"model metadata hop_samples is {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


NASTY_VALUES = [-1, 0, 1, 3, 2**40, 10**30, 1e300, 24.0, 2.5, "4", "", None, True, False,
                [], {}, [2, 2], [-1], [2**33, 2**33], float("nan"), float("inf")]


def _json_paths(node, prefix=()):
    """Every (path, value) of a JSON tree, containers included."""
    yield prefix, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


def _edit_header(header, rng):
    """A copy of `header` with one value replaced, one key dropped or one key added."""
    header = json.loads(json.dumps(header))
    paths = [p for p, _v in _json_paths(header) if p]
    path = paths[int(rng.integers(len(paths)))]
    parent = header
    for key in path[:-1]:
        parent = parent[key]
    action = int(rng.integers(3))
    if action == 0:
        parent[path[-1]] = NASTY_VALUES[int(rng.integers(len(NASTY_VALUES)))]
    elif action == 1 and isinstance(parent, dict):
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent["extra"] = NASTY_VALUES[int(rng.integers(len(NASTY_VALUES)))]
    else:
        parent.append(NASTY_VALUES[int(rng.integers(len(NASTY_VALUES)))])
    return header, f"header edit {action} at {path}"


def _mutate(data, header, payload, rng):
    """One seeded mutation of a valid model file: (bytes, description)."""
    kind = int(rng.integers(5))
    n = len(data)
    if kind == 0:
        # flip a bit, in the preamble and header half of the time
        limit = 8 + len(json.dumps(header)) if rng.random() < 0.5 else n
        pos, bit = int(rng.integers(limit)), int(rng.integers(8))
        out = bytearray(data)
        out[pos] ^= 1 << bit
        return bytes(out), f"bit {bit} of byte {pos} flipped"
    if kind == 1:
        cut = int(rng.integers(n))
        return data[:cut], f"truncated to {cut} bytes"
    if kind == 2:
        pos, extra = int(rng.integers(n + 1)), rng.bytes(int(rng.integers(1, 9)))
        return data[:pos] + extra + data[pos:], f"{extra!r} inserted at {pos}"
    if kind == 3:
        pos = int(rng.integers(n))
        span = int(rng.integers(1, 9))
        return data[:pos] + data[pos + span:], f"{span} bytes deleted at {pos}"
    edited, what = _edit_header(header, rng)
    blob = json.dumps(edited).encode("utf-8")
    return MAGIC + struct.pack("<I", len(blob)) + blob + payload, what


class TestModelFuzz:
    def test_mutated_files_load_and_run_or_raise_data_error(self, tmp_path):
        params = small_params(11)
        transitions = np.random.default_rng(3).normal(size=(4, 4)).astype(np.float32)
        save_model(tmp_path / "ok.rcn", params, list("abcd"), {"sample_rate": 16000},
                   transitions)
        data = (tmp_path / "ok.rcn").read_bytes()
        (hlen,) = struct.unpack("<I", data[4:8])
        header, payload = json.loads(data[8 : 8 + hlen]), data[8 + hlen :]
        rng = np.random.Generator(np.random.PCG64(2024))
        loaded_count = 0
        for i in range(400):
            mutated, what = _mutate(data, header, payload, rng)
            path = tmp_path / f"m{i % 4}.rcn"
            path.write_bytes(mutated)
            try:
                loaded, _alphabet, _metadata, _a = load_model(path)
            except DataError:
                continue
            except Exception as e:  # noqa: BLE001 - any other type is the failure
                pytest.fail(f"mutation {i} ({what}): {type(e).__name__}: {e}")
            config = loaded.config
            try:
                forward_pass(np.zeros((config.input_frames, config.input_dim), np.float32), loaded)
            except Exception as e:  # noqa: BLE001
                pytest.fail(f"mutation {i} ({what}) loaded but forward_pass failed: {e!r}")
            loaded_count += 1
        # both outcomes occur: the mutations reach past the first check
        assert 0 < loaded_count < 400
