"""Prime table: the first 10_000 primes, precomputed once at import.

Adelic truncations index primes 1-based (prime_at(1) == 2) to match the
usual enumeration p_1 < p_2 < ...; requests beyond the table raise.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

TABLE_SIZE = 10_000


def _sieve(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, int(limit**0.5) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return np.nonzero(mask)[0]


# p_10000 = 104729; sieve slightly beyond.
PRIMES: tuple[int, ...] = tuple(int(q) for q in _sieve(104_800)[:TABLE_SIZE])
assert len(PRIMES) == TABLE_SIZE

_INDEX = {q: i + 1 for i, q in enumerate(PRIMES)}


def prime_at(i: int) -> int:
    """i-th prime, 1-based: prime_at(1) = 2."""
    if not 1 <= i <= TABLE_SIZE:
        raise ConfigError(f"prime index {i} outside table of {TABLE_SIZE} primes")
    return PRIMES[i - 1]


def prime_index(p: int) -> int:
    """1-based index of prime p in the table."""
    try:
        return _INDEX[p]
    except KeyError:
        raise ConfigError(f"{p} is not a prime in the table") from None


def is_prime(p: int) -> bool:
    if p in _INDEX:
        return True
    if p <= PRIMES[-1]:
        return False
    n = int(p)
    if n < 2 or n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True
