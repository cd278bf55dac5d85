import json
import re
import struct

import numpy as np
import pytest

from evofg.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def _write(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


def _fixed(hlen):
    return MAGIC + struct.pack("<II", FORMAT_VERSION, hlen)


def _rejected(path, reason):
    with pytest.raises(CheckpointError, match=re.escape(path)) as err:
        load_checkpoint(path)
    assert reason in str(err.value)


def test_round_trip(tmp_path):
    path = str(tmp_path / "ok.bin")
    save_checkpoint(path, {"kind": "test"}, {"t": np.arange(6.0).reshape(2, 3)})
    header, tensors = load_checkpoint(path)
    assert header["kind"] == "test"
    assert np.array_equal(tensors["t"], np.arange(6.0).reshape(2, 3))


def test_file_shorter_than_the_fixed_header_rejected(tmp_path):
    path = _write(tmp_path / "x.bin", MAGIC + b"\x01\x00\x00")
    _rejected(path, "truncated before the header length")


def test_header_that_is_not_json_rejected(tmp_path):
    path = _write(tmp_path / "x.bin", _fixed(5) + b"{oops")
    _rejected(path, "header is not JSON")


def test_header_without_tensors_rejected(tmp_path):
    blob = b'{"kind": "router"}'
    path = _write(tmp_path / "x.bin", _fixed(len(blob)) + blob)
    _rejected(path, "no tensor list")


@pytest.mark.parametrize("entry", [{"name": "t"}, {"name": "t", "shape": "ab"}, 5])
def test_malformed_tensor_entry_rejected(tmp_path, entry):
    blob = json.dumps({"tensors": [entry]}).encode()
    path = _write(tmp_path / "x.bin", _fixed(len(blob)) + blob)
    _rejected(path, "malformed tensor entry")


def test_header_length_past_the_end_rejected(tmp_path):
    path = str(tmp_path / "x.bin")
    save_checkpoint(path, {"kind": "test"}, {"t": np.ones(3)})
    with open(path, "rb") as fh:
        data = fh.read()
    _write(path, _fixed(len(data)) + data[12:])
    _rejected(path, "runs past the end of the file")
