"""Versioned on-disk format for trained models, and the rule to load one.

Layout: 4-byte magic, 4-byte big-endian version, 4-byte header length,
a UTF-8 JSON header (sorted keys, includes the array name order), then
one raw .npy blob per array in that order.  No timestamps anywhere, so
identical models serialize to identical bytes.

A model's `load` reads a file only as its `save` writes it: `load_blob`
refuses header bytes, an array blob or a tail other than those `save_blob`
writes for what it read, then `header_values` types the keys the model
reads, `check_arrays` matches the arrays to the shapes those imply, and
`check_header` compares the whole header with the one `save` writes for
the model read.  Every refusal of a model file is a ModelIOError that
starts with the file, and names the key or array where one is at fault.
"""
from __future__ import annotations

import io
import json
import struct

import numpy as np
from numpy.lib import format as npformat

MAGIC = b"SLK1"
VERSION = 1


class ModelIOError(Exception):
    pass


def save_blob(path, kind: str, header: dict, arrays: dict) -> None:
    """Write a model file; ModelIOError, before the file is opened, if
    the header holds text UTF-8 cannot encode (a lone surrogate)."""
    names = sorted(arrays)
    head = dict(header)
    head["kind"] = kind
    head["arrays"] = names
    payload = _header_bytes(path, head)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">II", VERSION, len(payload)))
        fh.write(payload)
        for name in names:
            npformat.write_array(fh, np.ascontiguousarray(arrays[name]))


def _header_bytes(path, head) -> bytes:
    """The header as a model file holds it; ModelIOError if it holds text
    UTF-8 cannot encode (a lone surrogate)."""
    try:
        return json.dumps(head, sort_keys=True, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ModelIOError(f"{path}: header holds text UTF-8 cannot encode") from exc


def load_blob(path, expect_kind: str):
    """(header, arrays) of an `expect_kind` model file; ModelIOError if it is not
    one, or if its bytes are not those `save_blob` writes for the header and
    arrays read: a header written with other spacing or key order, an array's
    blob in another layout, or bytes after the last array."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ModelIOError(f"{path}: bad magic {magic!r}")
        try:
            version, hlen = struct.unpack(">II", fh.read(8))
            if version != VERSION:
                raise ModelIOError(f"{path}: unsupported version {version}")
            # JSON and numpy report bad or missing bytes as ValueError
            payload = fh.read(hlen)
            header = json.loads(payload.decode("utf-8"))
            names = header.get("arrays") if isinstance(header, dict) else None
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
                raise ModelIOError(f"{path}: header is not an object with an 'arrays' "
                                   "list of names")
            if _header_bytes(path, header) != payload:
                raise ModelIOError(f"{path}: header is not written as save writes it")
            arrays = {name: _read_array(path, fh, name) for name in names}
            if fh.read(1):
                raise ModelIOError(f"{path}: bytes follow the last array")
        except (struct.error, ValueError) as exc:
            raise ModelIOError(f"{path}: truncated or corrupt model file: {exc}") from exc
    if header.get("kind") != expect_kind:
        raise ModelIOError(
            f"{path}: expected a {expect_kind!r} model, found {header.get('kind')!r}"
        )
    return header, arrays


def _read_array(path, fh, name):
    """The next .npy blob of `fh`; ModelIOError naming the file and the array
    unless its bytes are those `save_blob` writes for the array read."""
    start = fh.tell()
    array = npformat.read_array(fh)
    end = fh.tell()
    again = io.BytesIO()
    npformat.write_array(again, np.ascontiguousarray(array))
    fh.seek(start)
    if fh.read(end - start) != again.getvalue():
        raise ModelIOError(f"{path}: array {name!r} is not stored as save writes it")
    return array


def _holds(value, kind) -> bool:
    if isinstance(kind, list):
        return type(value) is list and all(_holds(v, kind[0]) for v in value)
    return type(value) is kind  # so that true is not an int


def _kind_name(kind) -> str:
    return f"list[{_kind_name(kind[0])}]" if isinstance(kind, list) else kind.__name__


def header_values(path, header, keys) -> list:
    """header[key] for each key of the table `keys`, in its order; ModelIOError
    naming the file and the key for one that is missing or not of its type in
    `keys`, the type JSON reads back ([kind] is a list of that kind)."""
    for key, kind in keys.items():
        if key not in header:
            raise ModelIOError(f"{path}: header lacks key {key!r}")
        if not _holds(header[key], kind):
            raise ModelIOError(f"{path}: header key {key!r} is not a {_kind_name(kind)}")
    return [header[key] for key in keys]


def check_arrays(path, arrays, shapes) -> None:
    """ModelIOError naming the file and the array for a name of `shapes` that
    `arrays` lacks or holds in another shape or not as float64, and for an
    array `shapes` does not name."""
    for name, shape in shapes.items():
        got = arrays[name].shape if name in arrays else None
        if got != shape:
            raise ModelIOError(f"{path}: array {name!r} has shape {got}, "
                               f"the header implies {shape}")
        if arrays[name].dtype != np.float64:
            raise ModelIOError(f"{path}: array {name!r} is {arrays[name].dtype}, not float64")
    for name in sorted(arrays.keys() - shapes.keys()):
        raise ModelIOError(f"{path}: array {name!r} is not one the header implies")


def check_header(path, header, want) -> None:
    """The one header rule: ModelIOError naming the file and the first key, in
    sorted order, that only one of `header` and `want` (the header `save`
    writes for the model read) holds or whose `json.dumps(value,
    sort_keys=True)` text differs between the two.  The layout's own keys,
    "kind" and "arrays", are skipped."""
    for key in sorted((header.keys() | want.keys()) - {"kind", "arrays"}):
        if key not in header:
            raise ModelIOError(f"{path}: header lacks key {key!r}")
        if key not in want or (json.dumps(header[key], sort_keys=True)
                               != json.dumps(want[key], sort_keys=True)):
            raise ModelIOError(f"{path}: header key {key!r} is not as save writes it")
