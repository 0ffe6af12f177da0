"""Versioned on-disk format for trained models.

Layout: 4-byte magic, 4-byte big-endian version, 4-byte header length,
a UTF-8 JSON header (sorted keys, includes the array name order), then
one raw .npy blob per array in that order.  No timestamps anywhere, so
identical models serialize to identical bytes.
"""
from __future__ import annotations

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
    try:
        payload = json.dumps(head, sort_keys=True, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ModelIOError(f"{path}: header holds text UTF-8 cannot encode") from exc
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">II", VERSION, len(payload)))
        fh.write(payload)
        for name in names:
            npformat.write_array(fh, np.ascontiguousarray(arrays[name]))


def load_blob(path, expect_kind: str):
    """(header, arrays) of an `expect_kind` model file; ModelIOError if it is not one."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ModelIOError(f"{path}: bad magic {magic!r}")
        try:
            version, hlen = struct.unpack(">II", fh.read(8))
            if version != VERSION:
                raise ModelIOError(f"{path}: unsupported version {version}")
            # JSON and numpy report bad or missing bytes as ValueError
            header = json.loads(fh.read(hlen).decode("utf-8"))
            names = header.get("arrays") if isinstance(header, dict) else None
            if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
                raise ModelIOError(f"{path}: header is not an object with an 'arrays' "
                                   "list of names")
            arrays = {name: npformat.read_array(fh) for name in names}
        except (struct.error, ValueError) as exc:
            raise ModelIOError(f"{path}: truncated or corrupt model file: {exc}") from exc
    if header.get("kind") != expect_kind:
        raise ModelIOError(
            f"{path}: expected a {expect_kind!r} model, found {header.get('kind')!r}"
        )
    return header, arrays
