"""Combinatorics of the groupwise keys: the derived piece counts,
lexicographic indexing of the S-subsets of [N], and the intersection-counting
identities with their brute-force oracle. External surfaces are 1-based."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Tuple


class InvalidParams(ValueError):
    """A key-space query named an impossible (N, S), server or subset size."""


def comb0(x: int, y: int) -> int:
    """Binomial coefficient with the convention C(x, y) = 0 when y > x or
    either argument is negative."""
    if x < 0 or y < 0 or y > x:
        return 0
    return math.comb(x, y)


def piece_counts(N: int, Nr: int, M: int, S: int) -> Tuple[int, int, int]:
    """Derived sizes (r, n, alpha): per-server message rows, gradient piece
    count, and key piece count. No feasibility filtering here."""
    groups = comb0(N, S)
    r = groups - comb0(M, S)
    alpha = N - M
    return r, r * Nr - groups * alpha, alpha


@dataclass(frozen=True)
class KeyGroupIndex:
    """All S-subsets of [N] in strict lexicographic order, 1-based."""

    N: int
    S: int
    groups: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.groups)


def enumerate_groups(N: int, S: int) -> KeyGroupIndex:
    """Complete, duplicate-free, lexicographically sorted S-subset listing."""
    if N < 1 or not 1 <= S <= N:
        raise InvalidParams(f"need 1 <= S <= N, got N={N}, S={S}")
    return KeyGroupIndex(N=N, S=S, groups=tuple(combinations(range(1, N + 1), S)))


def omega_closed(N: int, S: int, subset_size: int) -> int:
    """Key groups meeting any server set of the given size, closed form:
    C(N, S) - C(N - size, S)."""
    if not 0 <= subset_size <= N:
        raise InvalidParams(f"subset size {subset_size} outside [0, {N}]")
    return comb0(N, S) - comb0(N - subset_size, S)


def omega_split(N: int, S: int, subset_size: int) -> int:
    """Same count, split by how many servers of the set a group contains."""
    if not 0 <= subset_size <= N:
        raise InvalidParams(f"subset size {subset_size} outside [0, {N}]")
    return sum(
        comb0(subset_size, k) * comb0(N - subset_size, S - k) for k in range(1, S + 1)
    )


def omega_bruteforce(index: KeyGroupIndex, servers: Iterable[int]) -> int:
    """Oracle: count groups intersecting the server set by enumeration."""
    wanted = set(servers)
    if not wanted <= set(range(1, index.N + 1)):
        raise InvalidParams("servers outside [N]")
    return sum(1 for g in index.groups if wanted.intersection(g))
