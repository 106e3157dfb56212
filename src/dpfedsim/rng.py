"""Deterministic random substreams derived from one master seed.

Every random draw in a run comes from a substream keyed by
(master seed, purpose tag, ids...).  Streams are independent of each
other and of the order in which they are drawn, so training an
episode's nodes together as one stack gives each node the same draws,
and the same results, as training it alone.
"""

import hashlib

import numpy as np

__all__ = ["substream", "substream_seed"]


def substream_seed(master_seed: int, *path: int | str) -> int:
    """Derive a 64-bit child seed from the master seed and a key path."""
    token = repr((int(master_seed),) + tuple(path)).encode("utf-8")
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big")


def substream(master_seed: int, *path: int | str) -> np.random.Generator:
    """Generator for the substream named by ``path`` under ``master_seed``.

    The same (seed, path) always yields an identical stream; distinct
    paths yield independent streams.
    """
    return np.random.default_rng(substream_seed(master_seed, *path))
