"""Model file container.

Layout: magic bytes ``RCN1``, a little-endian uint32 byte length, a UTF-8
JSON header (architecture, label alphabet, metadata, ordered tensor
descriptors), then each tensor's raw float32 little-endian values
concatenated in declared order. Writing the same model twice produces
byte-identical files; a save/load/save round trip is bitwise exact.
"""

import dataclasses
import json
import math
import struct

import numpy as np

from .errors import DataError
from .net import NetworkConfig, NetworkParams, tensor_shapes

MAGIC = b"RCN1"
HEADER_FIELDS = {"config": dict, "tensors": list, "alphabet": list, "metadata": dict}


def save_model(path, params, alphabet, metadata=None, transitions=None):
    """Write params (and optionally the CRF transition matrix) to `path`.

    The network's tensors are written as its one flat buffer, which holds
    them in the declared order.
    """
    tensors = [(name, t.shape) for name, t in params.named_tensors()]
    blobs = [params.flat]
    if transitions is not None:
        k = params.config.num_classes
        a = np.asarray(transitions)
        if a.shape != (k, k):
            raise ValueError(f"transition matrix must be {k} x {k}, got {a.shape}")
        tensors.append(("crf.A", a.shape))
        blobs.append(a)
    header = {
        "config": dataclasses.asdict(params.config),
        "alphabet": list(alphabet),
        "metadata": dict(metadata or {}),
        "tensors": [{"name": n, "shape": list(shape)} for n, shape in tensors],
    }
    blob = json.dumps(header, separators=(",", ":"), ensure_ascii=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for values in blobs:
            f.write(np.ascontiguousarray(values, dtype="<f4").tobytes())


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _integers_only(node):
    """True when every leaf of a JSON tree is an integer (not a bool or float)."""
    if isinstance(node, dict):
        return all(_integers_only(v) for v in node.values())
    if isinstance(node, list):
        return all(_integers_only(v) for v in node)
    return _is_int(node)


def _check_metadata(path, metadata):
    """Raise a DataError naming the first metadata field that decoding
    cannot use as it is: `hop_samples` must be a positive integer,
    `input_kind` "raw" or "feature", and `sample_rate` a positive integer
    (or null, except in a raw model). Other absent fields are not checked."""
    def bad(key, needs):
        return DataError(f"{path}: model metadata {key} is {metadata.get(key)!r}, not {needs}")

    hop = metadata.get("hop_samples", 1)
    if not (_is_int(hop) and hop > 0):
        raise bad("hop_samples", "a positive integer")
    kind = metadata.get("input_kind")
    if "input_kind" in metadata and kind not in ("raw", "feature"):
        raise bad("input_kind", '"raw" or "feature"')
    rate = metadata.get("sample_rate")
    if not (_is_int(rate) and rate > 0 or rate is None and kind != "raw"):
        raise bad("sample_rate", "a positive integer")


def load_model(path):
    """Read a model file.

    Returns (params, alphabet, metadata, transitions) with transitions
    None when the file carries no ``crf.A`` tensor. Every way a file can
    disagree with its own config (truncation, missing keys or tensors,
    tensor shapes, alphabet size, non-finite weights), and metadata that
    decoding cannot use (_check_metadata), is a DataError.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise DataError(f"{path}: not a model file (bad magic {data[:4]!r})")
    if len(data) < 8:
        raise DataError(f"{path}: {len(data)} bytes, shorter than the 8-byte preamble")
    (hlen,) = struct.unpack("<I", data[4:8])
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"{path}: corrupt model header: {e}") from e
    if not isinstance(header, dict):
        raise DataError(f"{path}: the model header is not a JSON object")
    missing = [k for k in HEADER_FIELDS if k not in header]
    if missing:
        raise DataError(f"{path}: model header lacks {', '.join(missing)}")
    for key, kind in HEADER_FIELDS.items():
        if not isinstance(header[key], kind):
            raise DataError(f"{path}: model header field {key} is not a JSON {kind.__name__}")
    try:
        if not _integers_only(header["config"]):
            raise ValueError("config values must be integers")
        config = NetworkConfig.from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as e:
        raise DataError(f"{path}: bad network config: {e!r}") from e

    offset = 8 + hlen
    arrays = {}
    for desc in header["tensors"]:
        try:
            name, shape = desc["name"], tuple(desc["shape"])
            if not isinstance(name, str) or not all(_is_int(n) and n >= 0 for n in shape):
                raise ValueError("a tensor needs a string name and non-negative integer dimensions")
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"{path}: bad tensor descriptor {desc!r}") from e
        end = offset + 4 * math.prod(shape)
        if end > len(data):
            raise DataError(f"{path}: truncated tensor {name}")
        arrays[name] = np.frombuffer(data[offset:end], dtype="<f4").reshape(shape).copy()
        offset = end
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes after tensors")

    k = config.num_classes
    expected = tensor_shapes(config) + ([("crf.A", (k, k))] if "crf.A" in arrays else [])
    for name, shape in expected:
        if name not in arrays:
            raise DataError(f"{path}: missing tensor '{name}'")
        if arrays[name].shape != shape:
            raise DataError(
                f"{path}: tensor {name} has shape {arrays[name].shape}, the config needs {shape}"
            )
        if not np.isfinite(arrays[name]).all():
            raise DataError(f"{path}: tensor {name} holds non-finite values")
    alphabet, metadata = header["alphabet"], header["metadata"]
    if len(alphabet) != k:
        raise DataError(f"{path}: alphabet of {len(alphabet)} labels for {k} classes")
    if not all(isinstance(label, str) for label in alphabet):
        raise DataError(f"{path}: alphabet labels must be strings")
    _check_metadata(path, metadata)

    flat = np.concatenate([arrays[name].ravel() for name, _shape in tensor_shapes(config)])
    return NetworkParams(config, flat), alphabet, metadata, arrays.get("crf.A")
