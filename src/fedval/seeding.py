"""Deterministic seed derivation.

Every stochastic step in the simulator draws from a seed computed by
`derive_seed`, never from global RNG state.  Derivation hashes the full
scope of the draw (master seed, purpose tag, client id, round index, ...)
so adding a client or a round never perturbs the randomness of the others,
and identical configs replay bit-identically.
"""

import hashlib


def derive_seed(*parts) -> int:
    """Hash a scope tuple (ints / strings) into a 64-bit RNG seed.

    The hashed bytes are each part's `repr`, UTF-8 encoded and followed by
    a NUL byte, hashed in one buffer.
    """
    for part in parts:
        if not isinstance(part, (int, str)):
            raise TypeError(f"seed scope parts must be int or str, got {type(part).__name__}")
    text = "\x00".join([*map(repr, parts), ""])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")
