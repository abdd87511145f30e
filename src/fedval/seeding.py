"""Deterministic seed derivation.

Every stochastic step in the simulator draws from a seed computed by
`derive_seed`, never from global RNG state.  Derivation hashes the full
scope of the draw (master seed, purpose tag, client id, round index, ...)
so adding a client or a round never perturbs the randomness of the others,
and identical configs replay bit-identically.

Local SGD shuffles client `cid` with `default_rng(derive_seed(round_seed,
"client", cid))`.  `client_generators` builds a whole round's generators in
one pass: it hashes the scopes' shared prefix once, runs numpy's
`SeedSequence` hash for all seeds as uint32 array operations and hands each
`PCG64` its four seed words.  Every generator starts in exactly the state
`default_rng` gives its seed.  Under NEP 19 numpy keeps `SeedSequence`'s
hash and `PCG64`'s seeding stream-stable; the oracle test against
`default_rng` in tests/test_seeding.py guards that this copy still agrees.
"""

import hashlib

import numpy as np


def _check(parts) -> None:
    for part in parts:
        if not isinstance(part, (int, str)):
            raise TypeError(f"seed scope parts must be int or str, got {type(part).__name__}")


def derive_seed(*parts) -> int:
    """Hash a scope tuple (ints / strings) into a 64-bit RNG seed.

    The hashed bytes are each part's `repr`, UTF-8 encoded and followed by
    a NUL byte, hashed in one buffer.
    """
    _check(parts)
    text = "\x00".join([*map(repr, parts), ""])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def client_seeds(round_seed: int, client_ids) -> np.ndarray:
    """`derive_seed(round_seed, "client", cid)` for each id, as a uint64 array."""
    client_ids = list(client_ids)
    _check([round_seed, *client_ids])
    prefix = hashlib.sha256(f"{round_seed!r}\x00{'client'!r}\x00".encode())
    digests = []
    for cid in client_ids:
        h = prefix.copy()
        h.update(f"{cid!r}\x00".encode())
        digests.append(h.digest()[:8])
    return np.frombuffer(b"".join(digests), dtype="<u8").astype(np.uint64)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx, pool size 4).
# Its hash constants follow a schedule that does not depend on the seed, so
# each call's (xor, multiply) pair is tabulated once; hashmix is
# v = ((v ^ xor) * mul), v ^= v >> 16, and mix(x, y) = MIX_L x - MIX_R y
# followed by the same shift.  All arithmetic is mod 2**32 on uint32 arrays.
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _schedule(h: int, mult: int, n: int) -> np.ndarray:
    # (2, n, 1): the xor and the multiply constant of n successive hashmix calls
    pairs = []
    for _ in range(n):
        pairs.append((h, h * mult & 0xFFFFFFFF))
        h = pairs[-1][1]
    return np.array(pairs, dtype=np.uint32).T[:, :, None]


# mix_entropy makes 4 + 12 hashmix calls; generate_state(4, uint64) makes 8
_ENTROPY = _schedule(0x43B0D7E5, 0x931E8875, 16)
_OUTPUT = _schedule(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = v ^ xor
    v *= mul
    v ^= v >> 16
    return v


def seed_words(seeds) -> np.ndarray:
    """(K, 4) uint64: `SeedSequence(s).generate_state(4, np.uint64)` for each seed s.

    These are the words `PCG64(s)` seeds itself from.  A seed below 2**64 is
    two 32-bit entropy words (low first), padded with zeros to the pool.
    """
    seeds = np.asarray(seeds, dtype="<u8")
    pool = np.zeros((4, seeds.shape[0]), dtype=np.uint32)
    pool[:2] = seeds.view("<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _ENTROPY[0, :4], _ENTROPY[1, :4])
    for src in range(4):
        # the other three words, each mixed with its own hashmix of word src
        dst = [i for i in range(4) if i != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        hashed = _hashmix(pool[src], _ENTROPY[0, calls], _ENTROPY[1, calls])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUTPUT[0], _OUTPUT[1])
    # pairs of words, low first, as generate_state joins them
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


class _SeedWords:
    """A seed sequence that hands PCG64 its four precomputed seed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def generators(seeds):
    """Yield, for each seed, a Generator in the state `default_rng(seed)` starts in."""
    # numpy.random is imported on first use, as `default_rng` imports it:
    # importing it with fedval raised a run's peak RSS
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedWords)  # PCG64 takes a seed sequence's words as they are
    for words in seed_words(seeds):
        yield Generator(PCG64(_SeedWords(words)))


def client_generators(round_seed: int, client_ids):
    """Yield `default_rng(derive_seed(round_seed, "client", cid))`'s state for each id, in order."""
    return generators(client_seeds(round_seed, client_ids))
