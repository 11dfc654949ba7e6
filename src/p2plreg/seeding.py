"""Deterministic seed derivation for named random streams.

SeedSequence only accepts integer entropy, so string labels are folded to
stable 32-bit values first. The mapping is fixed by the CRC-32 of the
UTF-8 bytes and therefore identical across platforms and runs.
"""

from __future__ import annotations

import zlib

import numpy as np


def _as_entropy(part) -> int:
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    return int(part)


def seed_sequence(*parts) -> np.random.SeedSequence:
    return np.random.SeedSequence(tuple(_as_entropy(p) for p in parts))


def derived_rng(*parts) -> np.random.Generator:
    """Generator for the stream named by ``parts`` (ints or labels)."""
    return np.random.default_rng(seed_sequence(*parts))


def derived_seed(*parts) -> int:
    """Stable 32-bit child seed for handing to APIs that take one integer."""
    return int(seed_sequence(*parts).generate_state(1, np.uint32)[0])
