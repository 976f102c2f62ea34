"""Decoding of scalar edge keys, the inverse of
:func:`repro.radio.encode_edges`: what the tests' set-difference
oracles turn their key diffs back into edge arrays with."""

import numpy as np


def decode_edges(keys: np.ndarray, n: int) -> np.ndarray:
    """Canonical ``(m, 2)`` int64 edges of keys ``u * n + v``."""
    k = np.asarray(keys, dtype=np.int64)
    if k.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    return np.stack(np.divmod(k, n), axis=1)
