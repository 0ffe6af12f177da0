import json
import struct

import numpy as np
import pytest
from numpy.lib import format as npformat

from slukit.modelio import MAGIC, VERSION, ModelIOError, load_blob, save_blob


def _header_length(data):
    return int.from_bytes(data[8:12], "big")


@pytest.mark.parametrize("cut", [
    lambda data: 4 + 5,
    lambda data: 12 + _header_length(data) // 2,
    lambda data: len(data) - 7,
], ids=["fixed-header", "json", "array"])
def test_truncated_blob_raises_model_error(tmp_path, cut):
    p = tmp_path / "m.slk"
    save_blob(p, "toy", {"note": "é"}, {"w": np.arange(12.0).reshape(3, 4)})
    data = p.read_bytes()
    p.write_bytes(data[:cut(data)])
    with pytest.raises(ModelIOError, match="m.slk"):
        load_blob(p, "toy")


def test_save_blob_refuses_lone_surrogate_without_writing(tmp_path):
    p = tmp_path / "m.slk"
    with pytest.raises(ModelIOError, match="m.slk"):
        save_blob(p, "toy", {"vocab": ["a", "b\ud800"]}, {"w": np.zeros(2)})
    assert not p.exists()


@pytest.mark.parametrize("header", [
    ["w"], {"kind": "toy"}, {"kind": "toy", "arrays": "w"}, {"kind": "toy", "arrays": [1]},
], ids=["not-an-object", "no-arrays", "arrays-not-a-list", "array-name-not-a-string"])
def test_malformed_header_raises_model_error(tmp_path, header):
    # the header is followed by one well-formed array, so only the
    # header can be at fault
    p = tmp_path / "m.slk"
    payload = json.dumps(header).encode("utf-8")
    with open(p, "wb") as fh:
        fh.write(MAGIC + struct.pack(">II", VERSION, len(payload)) + payload)
        npformat.write_array(fh, np.zeros(2))
    with pytest.raises(ModelIOError, match="m.slk"):
        load_blob(p, "toy")
