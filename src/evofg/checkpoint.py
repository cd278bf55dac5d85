"""Binary checkpoint container shared by expert/router/key-cache files.

Layout (all integers little-endian):
  bytes 0..3   magic "EVFG"
  bytes 4..7   format version (u32)
  bytes 8..11  header length in bytes (u32)
  header       UTF-8 JSON; carries a "kind" and a "tensors" list of {"name", "shape"}
  payload      for each tensor, in header order, raw float64 little-endian
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"EVFG"
FORMAT_VERSION = 1
MAX_DIM = np.iinfo(np.intp).max  # the largest dimension numpy can hold


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, header: dict, tensors: dict):
    header = dict(header)
    header["tensors"] = [
        {"name": k, "shape": list(v.shape)} for k, v in tensors.items()
    ]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for v in tensors.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def load_checkpoint(path, kind):
    """(header, tensors) of a sound checkpoint of ``kind`` at ``path``. Each
    tensor's shape is checked against what is left of the file before it is
    read."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        fixed = fh.read(8)
        if len(fixed) != 8:
            raise CheckpointError(f"{path}: truncated before the header length")
        version, hlen = struct.unpack("<II", fixed)
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        blob = fh.read(hlen)
        if len(blob) != hlen:
            raise CheckpointError(
                f"{path}: header length {hlen} runs past the end of the file"
            )
        try:
            header = json.loads(blob.decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise CheckpointError(f"{path}: header is not JSON: {exc}") from None
        if not isinstance(header, dict) or not isinstance(header.get("tensors"), list):
            raise CheckpointError(f"{path}: header has no tensor list")
        size = os.fstat(fh.fileno()).st_size
        tensors = {}
        for entry in header["tensors"]:
            try:
                name, shape = entry["name"], tuple(int(n) for n in entry["shape"])
            except (KeyError, TypeError, ValueError):
                raise CheckpointError(f"{path}: malformed tensor entry {entry!r}") from None
            if not all(0 <= n <= MAX_DIM for n in shape):
                raise CheckpointError(f"{path}: tensor {name} has a dimension out of "
                                      f"range in its shape {list(shape)}")
            count = math.prod(shape)
            if 8 * count > size - fh.tell():
                raise CheckpointError(f"{path}: truncated tensor {name}: its shape "
                                      f"{list(shape)} runs past the end of the file")
            tensors[name] = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last tensor")
    if header.get("kind") != kind:
        raise CheckpointError(f"{path}: is of kind {header.get('kind')!r}, not {kind!r}")
    return header, tensors


def check_tensors(path, model, param_shapes):
    """``model``, built on a checkpoint's tensors, once they are exactly the
    parameters that ``param_shapes(*model.dims)`` names, in those shapes.
    The widths ``model.dims`` are read from the model: from the tensors
    themselves, and a router's input width from its feature names."""
    got = {k: v.shape for k, v in model.params.items()}
    try:
        expected = param_shapes(*model.dims)
    except (KeyError, IndexError, ValueError):  # a width tensor missing or of another rank
        expected = None
    if got != expected:
        raise CheckpointError(
            f"{path}: tensors {sorted(got)} do not match the architecture's "
            f"parameters (or their shapes differ)"
        )
    return model
