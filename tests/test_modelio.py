import json
import struct

import numpy as np
import pytest
from numpy.lib import format as npformat

from slukit.modelio import (MAGIC, VERSION, ModelIOError, check_arrays, check_header,
                            header_values, load_blob, save_blob)


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


# ---------------------------------------------------------------------------
# The load rule, on a toy model's key table, header and shapes
# ---------------------------------------------------------------------------

_TOY_KEYS = {"n": int, "names": [str], "pairs": [[str]]}


def test_header_values_gives_the_values_in_table_order():
    header = {"pairs": [["a", "b"]], "names": [], "n": 2, "kind": "toy", "arrays": []}
    assert header_values("m.slk", header, _TOY_KEYS) == [2, [], [["a", "b"]]]


@pytest.mark.parametrize("header, key", [
    ({"names": [], "pairs": []}, "n"),
    ({"n": True, "names": [], "pairs": []}, "n"),
    ({"n": 2.0, "names": [], "pairs": []}, "n"),
    ({"n": 2, "names": ["a", 1], "pairs": []}, "names"),
    ({"n": 2, "names": [], "pairs": [["a"], "b"]}, "pairs"),
    ({"n": 2, "names": "a", "pairs": [[True]]}, "names"),
], ids=["missing", "true-for-int", "float-for-int", "int-in-names", "text-in-pairs",
        "first-of-two"])
def test_header_values_names_a_missing_key_or_one_of_another_type(header, key):
    with pytest.raises(ModelIOError, match=f"^m.slk: header (lacks key|key) {key!r}"):
        header_values("m.slk", header, _TOY_KEYS)


_TOY_HEADER = {"a": 1, "b": [1, 2], "c": {"x": 1}}


def test_check_header_skips_the_layouts_own_keys():
    check_header("m.slk", dict(_TOY_HEADER, kind="toy", arrays=["w"]), _TOY_HEADER)


@pytest.mark.parametrize("edit, key", [
    (lambda h: {"b": [2, 1], "c": {}}, "a"),
    (lambda h: dict(h, b=[2, 1], c={}), "b"),
    (lambda h: dict(h, c={"x": 1.0}), "c"),
    (lambda h: dict(h, aa=0, b=[]), "aa"),
    (lambda h: dict(h, d=None), "d"),
], ids=["missing-first", "reordered-list", "float-for-int", "extra-first", "extra"])
def test_check_header_names_the_first_differing_key_in_sorted_order(edit, key):
    with pytest.raises(ModelIOError, match=f"^m.slk: header (lacks key|key) {key!r}"):
        check_header("m.slk", edit(_TOY_HEADER), _TOY_HEADER)


_TOY_SHAPES = {"w": (2, 3), "b": (2,)}


@pytest.mark.parametrize("arrays, name", [
    ({"b": np.zeros(2)}, "w"),
    ({"w": np.zeros((3, 2)), "b": np.zeros(2)}, "w"),
    ({"w": np.zeros((2, 3)), "b": np.zeros(2), "v": np.zeros(2)}, "v"),
    ({"w": np.zeros((2, 3)), "b": np.zeros(2, np.float32)}, "b"),
    ({"w": np.zeros((2, 3), np.int64), "b": np.zeros(2)}, "w"),
], ids=["missing", "misshapen", "extra", "float32", "int64"])
def test_check_arrays_names_the_array_save_would_not_write(arrays, name):
    check_arrays("m.slk", {"w": np.zeros((2, 3)), "b": np.zeros(2)}, _TOY_SHAPES)
    with pytest.raises(ModelIOError, match=f"^m.slk: array {name!r}"):
        check_arrays("m.slk", arrays, _TOY_SHAPES)
