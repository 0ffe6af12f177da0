"""Small numeric helpers shared by the trainers and decoders."""
from __future__ import annotations

import hashlib

import numpy as np


def derived_seed(*parts) -> int:
    """Stable 64-bit seed derived from arbitrary string-able parts.

    Independent of PYTHONHASHSEED and platform, so parallel and serial
    runs that shard work by utterance agree bit for bit.
    """
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def softmax(a: np.ndarray, axis=-1) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    e = np.exp(a - m)
    return e / np.sum(e, axis=axis, keepdims=True)


def rng_for(*parts) -> np.random.Generator:
    """PCG64 generator seeded from `derived_seed(*parts)`."""
    return np.random.default_rng(derived_seed(*parts))
