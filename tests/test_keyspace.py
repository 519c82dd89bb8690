"""Group enumeration, the key groups available to each server, piece
counting, and the intersection count identities."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcode.field import make_field
from sgcode.keyspace import (
    InvalidParams,
    comb0,
    enumerate_groups,
    omega_bruteforce,
    omega_closed,
    omega_split,
    piece_counts,
)
from sgcode.scheme import SchemeParams, derive_dims

Q = make_field(2147483647)


# ---- binomials and piece counts ----------------------------------------------


def test_comb0_extends_binomials_with_zero():
    assert comb0(5, 2) == 10
    assert comb0(2, 5) == 0
    assert comb0(-1, 0) == 0
    assert comb0(4, -1) == 0
    assert comb0(0, 0) == 1


def test_piece_counts_small_example():
    # (N, Nr, M, S) = (3, 3, 2, 2): 2 message rows, 3 gradient pieces,
    # 1 key piece per group.
    assert piece_counts(3, 3, 2, 2) == (2, 3, 1)


def test_piece_counts_large_example():
    r, n, alpha = piece_counts(14, 12, 8, 6)
    assert r == math.comb(14, 6) - math.comb(8, 6) == 2975
    assert alpha == 6
    assert n == r * 12 - math.comb(14, 6) * 6 == 17682


# ---- group enumeration -------------------------------------------------------


def test_enumerate_groups_lexicographic():
    index = enumerate_groups(4, 2)
    assert index.groups == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert len(index) == comb0(4, 2)
    assert index.groups[3] == (2, 3)
    assert index.groups.index((1, 4)) == 2


def test_enumerate_groups_pairs_of_three():
    assert enumerate_groups(3, 2).groups == ((1, 2), (1, 3), (2, 3))


def test_enumerate_groups_rejects_bad_params():
    with pytest.raises(InvalidParams):
        enumerate_groups(3, 4)
    with pytest.raises(InvalidParams):
        enumerate_groups(3, 0)
    with pytest.raises(InvalidParams):
        enumerate_groups(0, 1)


def available_groups(dims, server):
    """1-based groups whose first key piece the server may touch."""
    hidden = set(dims.hidden_key_offsets(server).tolist())
    return frozenset(g + 1 for g in range(dims.group_count) if g not in hidden)


def test_availability_counts_and_membership():
    dims = derive_dims(SchemeParams(K=1, N=3, Nr=3, M=2, S=2, q=Q))
    assert available_groups(dims, 1) == frozenset({1, 2})
    assert available_groups(dims, 2) == frozenset({1, 3})
    assert available_groups(dims, 3) == frozenset({2, 3})
    for N, M, S in [(5, 4, 2), (6, 4, 3), (7, 5, 4)]:
        dims = derive_dims(SchemeParams(K=1, N=N, Nr=5, M=M, S=S, q=Q))
        for n in range(1, N + 1):
            groups = available_groups(dims, n)
            assert len(groups) == comb0(N - 1, S - 1)
            assert all(n in enumerate_groups(N, S).groups[g - 1] for g in groups)


# ---- intersection counting ---------------------------------------------------


def test_omega_edge_sizes():
    assert omega_closed(5, 2, 0) == 0
    assert omega_closed(5, 2, 5) == comb0(5, 2)
    assert omega_split(5, 2, 0) == 0
    with pytest.raises(InvalidParams):
        omega_closed(5, 2, 6)
    with pytest.raises(InvalidParams):
        omega_split(5, 2, -1)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_omega_triple_agreement(data):
    N = data.draw(st.integers(min_value=1, max_value=8))
    S = data.draw(st.integers(min_value=1, max_value=N))
    x = data.draw(st.integers(min_value=0, max_value=N))
    index = enumerate_groups(N, S)
    closed = omega_closed(N, S, x)
    assert closed == omega_split(N, S, x)
    assert closed == omega_bruteforce(index, range(1, x + 1))
    # The count depends only on the subset size, not on which servers.
    servers = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=N),
            min_size=x,
            max_size=x,
            unique=True,
        )
    )
    assert closed == omega_bruteforce(index, servers)


def test_omega_bruteforce_rejects_unknown_servers():
    with pytest.raises(InvalidParams):
        omega_bruteforce(enumerate_groups(3, 2), [4])


# ---- key columns of the demand matrix ----------------------------------------


def unavailable_key_columns(dims, server):
    """1-based F columns of the key pieces the server lacks."""
    return frozenset((dims.n * dims.K + dims.hidden_key_offsets(server) + 1).tolist())


def test_unavailable_key_columns_small_example():
    dims = derive_dims(SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=Q))
    # n*K = 9 gradient piece columns come first; server 1 misses only the
    # group {2, 3}, whose single key piece sits at 1-based column 12.
    assert unavailable_key_columns(dims, 1) == frozenset({12})
    assert unavailable_key_columns(dims, 2) == frozenset({11})
    assert unavailable_key_columns(dims, 3) == frozenset({10})


def test_unavailable_key_columns_count():
    params = SchemeParams(K=2, N=5, Nr=5, M=2, S=2, q=Q)
    dims = derive_dims(params)
    r, n, alpha = piece_counts(5, 5, 2, 2)
    for server in range(1, 6):
        cols = unavailable_key_columns(dims, server)
        missing_groups = comb0(5, 2) - comb0(4, 1)
        assert len(cols) == alpha * missing_groups
        assert all(c > n * params.K for c in cols)


def test_unavailable_key_columns_rejects_bad_server():
    dims = derive_dims(SchemeParams(K=1, N=3, Nr=3, M=2, S=2, q=Q))
    with pytest.raises(InvalidParams, match="server 0 outside"):
        dims.hidden_key_offsets(0)
    with pytest.raises(InvalidParams, match="server 4 outside"):
        dims.hidden_key_offsets(4)
