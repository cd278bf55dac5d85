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
from evofg.experts import init_expert, load_expert, save_expert
from evofg.router import init_router, load_router, save_router


def _write(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)
    return str(path)


def _fixed(hlen):
    return MAGIC + struct.pack("<II", FORMAT_VERSION, hlen)


def _rejected(path, reason):
    with pytest.raises(CheckpointError, match=re.escape(path)) as err:
        load_checkpoint(path, "test")
    assert reason in str(err.value)


def test_round_trip(tmp_path):
    path = str(tmp_path / "ok.bin")
    save_checkpoint(path, {"kind": "test"}, {"t": np.arange(6.0).reshape(2, 3)})
    header, tensors = load_checkpoint(path, "test")
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


@pytest.mark.parametrize("saved,loader", [("expert", load_router), ("router", load_expert)])
def test_a_file_of_another_kind_rejected(tmp_path, saved, loader):
    path = str(tmp_path / f"{saved}.bin")
    if saved == "expert":
        save_expert(init_expert("GPR", 4, 5, 4, seed=1), path)
    else:
        save_router(init_router(4, 3, 4, 2, 4, seed=2), path, ["a", "b", "c"])
    with pytest.raises(CheckpointError, match=re.escape(path)) as err:
        loader(path)
    assert f"is of kind {saved!r}, not " in str(err.value)


def _resaved(path, kind, header_change, tensor_change):
    """The checkpoint at ``path`` saved again without ``dims`` and with the
    given changes to its header and its tensors."""
    header, tensors = load_checkpoint(path, kind)
    header.pop("dims", None)
    header_change(header)
    tensor_change(tensors)
    save_checkpoint(path, header, tensors)


def _keep(_):
    pass


# (header change, tensor change) per case; each leaves a file the loader
# cannot build a model from
EXPERT_DEFECTS = {
    "no arch": (lambda h: h.pop("arch"), _keep),
    "unknown arch": (lambda h: h.update(arch="MLP"), _keep),
    "arch not a string": (lambda h: h.update(arch=["GPR"]), _keep),
    "w0 missing": (_keep, lambda t: t.pop("w0")),
    "wq missing": (_keep, lambda t: t.pop("wq")),
    "w0 of rank 1": (_keep, lambda t: t.update(w0=t["w0"][0])),
    "wq of rank 1": (_keep, lambda t: t.update(wq=t["wq"][0])),
    "wq of rank 0": (_keep, lambda t: t.update(wq=t["wq"][0, 0])),
}
ROUTER_DEFECTS = {
    "no use_memory": (lambda h: h.pop("use_memory"), _keep),
    "use_memory not a bool": (lambda h: h.update(use_memory=1), _keep),
    "no feature_names": (lambda h: h.pop("feature_names"), _keep),
    "feature_names not a list": (lambda h: h.update(feature_names="abc"), _keep),
    "a feature name not a string": (lambda h: h.update(feature_names=["a", 2, "c"]), _keep),
    "feature_names of another count": (lambda h: h.update(feature_names=["a", "b"]), _keep),
    "gnn_w missing": (_keep, lambda t: t.pop("gnn_w")),
    "proj_w missing": (_keep, lambda t: t.pop("proj_w")),
    "mem_node missing": (_keep, lambda t: t.pop("mem_node")),
    "scale missing": (_keep, lambda t: t.pop("scale")),
    "gnn_w of rank 1": (_keep, lambda t: t.update(gnn_w=t["gnn_w"][0])),
    "gnn_w of rank 3": (_keep, lambda t: t.update(gnn_w=t["gnn_w"][None])),
    "proj_w of rank 0": (_keep, lambda t: t.update(proj_w=t["proj_w"][0, 0])),
    "mem_node of rank 0": (_keep, lambda t: t.update(mem_node=t["mem_node"][0, 0])),
}


@pytest.mark.parametrize("defect", EXPERT_DEFECTS)
def test_a_malformed_expert_file_rejected(tmp_path, defect):
    path = str(tmp_path / "expert.bin")
    save_expert(init_expert("GPR", 4, 5, 3, seed=3), path)
    _resaved(path, "expert", *EXPERT_DEFECTS[defect])
    with pytest.raises(CheckpointError, match=re.escape(path)):
        load_expert(path)


@pytest.mark.parametrize("defect", ROUTER_DEFECTS)
def test_a_malformed_router_file_rejected(tmp_path, defect):
    path = str(tmp_path / "router.bin")
    save_router(init_router(4, 3, 5, 2, 4, seed=4), path, ["a", "b", "c"])
    _resaved(path, "router", *ROUTER_DEFECTS[defect])
    with pytest.raises(CheckpointError, match=re.escape(path)):
        load_router(path)


@pytest.mark.parametrize("arch", ["CHEBY", "ATTENTION"])
def test_widths_are_read_from_the_tensors(tmp_path, arch):
    expert_path, router_path = str(tmp_path / "expert.bin"), str(tmp_path / "router.bin")
    save_expert(init_expert(arch, 4, 5, 3, seed=5), expert_path)
    save_router(init_router(4, 3, 5, 2, 4, seed=6, use_memory=False), router_path,
                ["a", "b", "c"])
    for path, kind in ((expert_path, "expert"), (router_path, "router")):
        header, _ = load_checkpoint(path, kind)
        assert "dims" not in header
    assert load_expert(expert_path).dims == (4, 5, 3)
    model, names = load_router(router_path)
    assert (model.dims, model.use_memory, names) == ((4, 3, 5, 2, 4), False, ["a", "b", "c"])
