"""Deterministic seed derivation.

Every stochastic step in the framework draws from a generator whose seed is
derived from the master seed plus a label path (test type, iteration,
strength, perturbation index, sample index, method id, ...).  Derivation
goes through blake2b so that results are independent of execution schedule
and stable across processes.
"""
import hashlib

import numpy as np


def derive_seed(*parts) -> int:
    """Hash a label path into a 64-bit seed."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def derive_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))
