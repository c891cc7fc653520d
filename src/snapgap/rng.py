"""Deterministic RNG streams derived from a single root seed.

Every randomized task (a CV fold split, a tree, a permutation repeat) gets its
own generator keyed by fixed integers, so results are bit-identical no matter
what order or parallelism the tasks run with.
"""
from __future__ import annotations

import random
import sys
import zlib
from types import ModuleType

import numpy as np

# Fixed stream namespaces.
STREAM_FOLDS = 1
STREAM_TREE = 2
STREAM_PERMUTE = 3
STREAM_SPLIT = 4
STREAM_SYNTH = 5


def _numpy_random() -> ModuleType:
    """`numpy.random`, imported at the first call without loading OpenSSL.

    numpy.random imports `secrets.randbits`, the entropy of unseeded
    generators, and `secrets` imports `hmac`, which loads OpenSSL
    (`_hashlib`, 3.6 MB resident). Unless `secrets` or numpy.random is loaded
    already, numpy.random is imported against a stand-in `secrets` whose
    `randbits` is `random.SystemRandom().getrandbits`, the function
    `secrets.randbits` is. The stand-in leaves `sys.modules` after the
    import, so a later `import secrets` loads the real module.
    """
    if "numpy.random" in sys.modules or "secrets" in sys.modules:
        return np.random
    stand_in = ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    sys.modules["secrets"] = stand_in
    try:
        import numpy.random
    finally:
        del sys.modules["secrets"]
    return numpy.random


def derive_rng(root_seed: int, *stream: int) -> np.random.Generator:
    """Generator for the (root_seed, *stream) key; same key, same stream."""
    npr = _numpy_random()
    return npr.default_rng(npr.SeedSequence((int(root_seed),) + tuple(int(s) for s in stream)))


def stream_id(name: str) -> int:
    """Stable integer id for a named stream (platform-independent)."""
    return zlib.crc32(name.encode("utf-8"))
