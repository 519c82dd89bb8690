"""Prime fields GF(q): validated moduli and the seedable uniform sampling
used by every matrix and simulation routine."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List

import numpy as np

# Default modulus: a Mersenne prime comfortably above the field-size advisory
# bound for desk-scale parameters, small enough for the int64 fast path.
DEFAULT_MODULUS = 2147483647

# Largest modulus for which matrices are stored as int64: entries stay below
# 2^31, so exactmat's eliminations stay inside (-2^62, 2^62) and its
# products can split entries into 16-bit limbs (see the kernel notes there).
# Above this, object-dtype Python integers take over.
INT64_SAFE_MODULUS = 2147483647

# Moduli must leave headroom for widening multiplication.
MODULUS_LIMIT = 1 << 62

# Witness set making Miller-Rabin deterministic far beyond 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_MASK64 = (1 << 64) - 1


class NotPrime(ValueError):
    """Raised when a requested modulus is composite."""


class TooLarge(ValueError):
    """Raised when a requested modulus, enumeration or matrix exceeds the
    supported size."""


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldModulus:
    """A validated prime modulus q. Construct through make_field."""

    q: int

    def dtype(self):
        """Array dtype used for matrices over this field."""
        return np.int64 if self.q <= INT64_SAFE_MODULUS else object


def make_field(q: int) -> FieldModulus:
    """Validate q and return the corresponding field modulus.

    Raises NotPrime for composite q and TooLarge for q >= 2^62 (the widening
    arithmetic needs the headroom).
    """
    if q >= MODULUS_LIMIT:
        raise TooLarge(f"modulus {q} >= 2^62")
    if q < 2 or not _is_prime(q):
        raise NotPrime(f"modulus {q} is not prime")
    return FieldModulus(q)


# ---- seedable randomness ----------------------------------------------------
#
# Reproducibility contract: the only consumed randomness is the raw 64-bit
# output stream of numpy's PCG64, whose bit stream is stable across numpy
# versions. Conversion to field values is done here by fixed-threshold
# rejection, never by numpy's distribution methods, so every transcript is a
# pure function of the seed.


def derive_seed(parent_seed: int, label: str) -> int:
    """Stable child seed: blake2b over the parent seed and a text label."""
    h = hashlib.blake2b(digest_size=8)
    h.update(int(parent_seed).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


class SeededRng:
    """Single-owner 64-bit random stream with labeled child derivation."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def raw(self, count: int) -> np.ndarray:
        """The next count raw 64-bit words as a uint64 array."""
        return self._gen.integers(0, 1 << 64, size=count, dtype=np.uint64)

    def spawn(self, label: str) -> "SeededRng":
        """Independent child stream, deterministic in (seed, label)."""
        return SeededRng(derive_seed(self.seed, label))


def uniform_ints(rng: SeededRng, bound: int, count: int) -> np.ndarray:
    """count iid uniform draws from [0, bound) by fixed-threshold rejection.

    Returns uint64. A 64-bit word is rejected when it falls into the final
    partial block [2^64 - 2^64 mod bound, 2^64); survivors reduce mod bound.
    """
    if bound < 1 or bound > _MASK64:
        raise ValueError("bound must be in [1, 2^64]")
    if count == 0:
        return np.empty(0, dtype=np.uint64)
    rem = (1 << 64) % bound
    parts: List[np.ndarray] = []
    have = 0
    while have < count:
        need = count - have
        draw = rng.raw(need + 8)
        if rem:
            draw = draw[draw < np.uint64((1 << 64) - rem)]
        draw = draw[:need] % np.uint64(bound)
        parts.append(draw)
        have += draw.size
    return np.concatenate(parts) if len(parts) > 1 else parts[0]


def sample_array(rng: SeededRng, field: FieldModulus, count: int) -> np.ndarray:
    """count iid uniform field values as a flat array in the field's dtype."""
    raw = uniform_ints(rng, field.q, count)
    if field.dtype() is np.int64:
        return raw.astype(np.int64)
    return np.array([int(v) for v in raw], dtype=object)

