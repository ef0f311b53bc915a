"""Deterministic seed derivation.

Every stochastic consumer in the package (arrival sampling, walk-speed
draws, EM restarts, Monte Carlo moments) receives a seed derived from a
master seed, a purpose label, and an index.  Derivation goes through a
cryptographic hash so that per-purpose streams are independent and the
mapping is stable across platforms, processes, and Python versions.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_seed"]

_SEED_BYTES = 8  # 64-bit seeds for numpy PCG64


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from ``(master, label, index)``.

    The same triple always yields the same seed; distinct triples yield
    independent-looking seeds.  Uses SHA-256 over a canonical encoding.
    """
    for value in (master, index):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError("master and index must be integers")
    payload = f"{master}:{label}:{index}".encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big")
