"""Reproducible random streams.

Every random quantity in the package is drawn from a counter-based Philox
generator keyed by (seed, stream name).  Independent stream names give
statistically independent streams, and a (seed, name) pair always yields the
same stream, so any report is reproducible bit-for-bit from its seed.
"""

from __future__ import annotations

import hashlib

from numpy.random import Generator, Philox, SeedSequence


def _name_entropy(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:16], "big")


def stream(seed: int, name: str = "") -> Generator:
    """Return the Philox generator for stream `name` under master `seed`."""
    seq = SeedSequence(entropy=seed, spawn_key=(_name_entropy(name),))
    return Generator(Philox(seq))
