"""Exact matrix algebra over GF(q): construction, arithmetic identities,
rank and solving, block assembly, and serialization."""

from __future__ import annotations

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcode.exactmat import (
    DimensionMismatch,
    FieldMatrix,
    Singular,
    SubsetDecoder,
    Unsolvable,
    assemble_blocks,
    first_singular_subset,
    invert,
    pivot_columns,
    rank,
    solve_linear,
)
from sgcode.field import SeededRng, make_field, sample_array

F7 = make_field(7)
F2 = make_field(2)
BIG = make_field((1 << 61) - 1)
DEFAULT = make_field(2147483647)


def random_matrix(rows, cols, field, seed):
    data = sample_array(SeededRng(seed), field, rows * cols).reshape(rows, cols)
    return FieldMatrix.wrap(data, field)


# ---- construction and access -------------------------------------------------


def test_from_rows_and_entry():
    m = FieldMatrix.from_rows([[1, 9, -1], [0, 2, 3]], F7)
    assert m.shape == (2, 3)
    assert m.entry(0, 1).value == 2
    assert m.entry(0, 2).value == 6
    assert [e.value for e in m.entries] == [1, 2, 6, 0, 2, 3]


def test_from_rows_rejects_ragged():
    with pytest.raises(DimensionMismatch):
        FieldMatrix.from_rows([[1, 2], [3]], F7)


def test_from_rows_empty_needs_cols():
    m = FieldMatrix.from_rows([], F7, cols=4)
    assert m.shape == (0, 4)
    assert rank(m) == 0


def test_zeros_identity_and_is_zero():
    z = FieldMatrix.zeros(2, 3, F7)
    assert z.is_zero()
    i = FieldMatrix.identity(3, F7)
    assert not i.is_zero()
    assert rank(i) == 3
    assert i @ z.transpose() == FieldMatrix.zeros(3, 2, F7)


def test_take_rows_cols_and_transpose():
    m = FieldMatrix.from_rows([[1, 2, 3], [4, 5, 6]], F7)
    assert m.take_rows([1]) == FieldMatrix.from_rows([[4, 5, 6]], F7)
    assert m.take_cols([2, 0]) == FieldMatrix.from_rows([[3, 1], [6, 4]], F7)
    assert m.transpose().transpose() == m


def test_matrix_data_is_frozen():
    m = FieldMatrix.from_rows([[1, 2]], F7)
    with pytest.raises(ValueError):
        m.data[0, 0] = 5


def test_mixed_moduli_rejected():
    a = FieldMatrix.identity(2, F7)
    b = FieldMatrix.identity(2, make_field(11))
    with pytest.raises(ValueError):
        a @ b


def test_shape_mismatches_rejected():
    a = FieldMatrix.zeros(2, 3, F7)
    b = FieldMatrix.zeros(3, 3, F7)
    with pytest.raises(DimensionMismatch):
        a + b
    with pytest.raises(DimensionMismatch):
        b @ b @ a


# ---- arithmetic identities ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), q=st.sampled_from([2, 7, 2147483647]))
def test_ring_identities(seed, q):
    field = make_field(q)
    a = random_matrix(4, 5, field, seed)
    b = random_matrix(4, 5, field, seed + 1)
    c = random_matrix(5, 3, field, seed + 2)
    d = random_matrix(3, 4, field, seed + 3)
    assert (a + b) - b == a
    assert -(-a) == a
    assert (a + b) @ c == a @ c + b @ c
    assert (a @ c) @ d == a @ (c @ d)
    assert a.scale(3) == a + a + a


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), q=st.sampled_from([2, 7, 2147483647]))
def test_rank_invariants(seed, q):
    field = make_field(q)
    a = random_matrix(5, 7, field, seed)
    b = random_matrix(7, 4, field, seed + 1)
    assert rank(a) == rank(a.transpose())
    assert rank(a @ b) <= min(rank(a), rank(b))
    assert rank(a) <= 5


def test_matmul_limb_split_matches_object_oracle():
    # Worst-case magnitudes: every entry q - 1 through the int64 fast path
    # must agree with plain big-integer dot products.
    q = DEFAULT.q
    full = np.full((20, 300), q - 1, dtype=np.int64)
    a = FieldMatrix.wrap(full.copy(), DEFAULT)
    b = FieldMatrix.wrap(full.T.copy(), DEFAULT)
    want = np.dot(full.astype(object), full.T.astype(object)) % q
    got = (a @ b).data
    assert got.dtype == np.int64
    assert np.array_equal(got.astype(object), want)

    ra = random_matrix(17, 33, DEFAULT, 400)
    rb = random_matrix(33, 11, DEFAULT, 401)
    want2 = np.dot(ra.data.astype(object), rb.data.astype(object)) % q
    assert np.array_equal((ra @ rb).data.astype(object), want2)


def test_object_dtype_path_roundtrips():
    a = random_matrix(6, 6, BIG, 77)
    assert a.data.dtype == object
    product = a @ a
    assert product.data.dtype == object
    if rank(a) == 6:
        assert invert(a) @ a == FieldMatrix.identity(6, BIG)


# ---- rank, solve, invert -----------------------------------------------------


def test_rank_known_values():
    assert rank(FieldMatrix.zeros(3, 4, F7)) == 0
    assert rank(FieldMatrix.identity(5, F7)) == 5
    dependent = FieldMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], F7)
    assert rank(dependent) == 2
    # [[1, 1], [1, 1]] has rank 1 over GF(2) but [[1, 1], [1, 0]] has 2.
    assert rank(FieldMatrix.from_rows([[1, 1], [1, 1]], F2)) == 1
    assert rank(FieldMatrix.from_rows([[1, 1], [1, 0]], F2)) == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), q=st.sampled_from([2, 7, 2147483647]))
def test_solve_returns_exact_solution(seed, q):
    field = make_field(q)
    a = random_matrix(6, 4, field, seed)
    x = random_matrix(4, 3, field, seed + 1)
    b = a @ x
    got = solve_linear(a, b)
    assert a @ got == b


def test_solve_canonical_free_variables_are_zero():
    a = FieldMatrix.from_rows([[1, 1]], F7)
    b = FieldMatrix.from_rows([[1]], F7)
    # Any [x, 1 - x] solves; the canonical answer zeroes the free variable.
    assert solve_linear(a, b) == FieldMatrix.from_rows([[1], [0]], F7)

    a2 = FieldMatrix.from_rows([[0, 1, 2], [0, 0, 0]], F7)
    b2 = FieldMatrix.from_rows([[3], [0]], F7)
    assert solve_linear(a2, b2) == FieldMatrix.from_rows([[0], [3], [0]], F7)


def test_solve_detects_inconsistency():
    a = FieldMatrix.from_rows([[1, 1], [2, 2]], F7)
    b = FieldMatrix.from_rows([[1], [3]], F7)
    with pytest.raises(Unsolvable):
        solve_linear(a, b)
    with pytest.raises(DimensionMismatch):
        solve_linear(a, FieldMatrix.zeros(3, 1, F7))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), q=st.sampled_from([2, 7, 2147483647]))
def test_invert_exactly_when_full_rank(seed, q):
    field = make_field(q)
    a = random_matrix(5, 5, field, seed)
    if rank(a) == 5:
        b = invert(a)
        eye = FieldMatrix.identity(5, field)
        assert a @ b == eye
        assert b @ a == eye
    else:
        with pytest.raises(Singular):
            invert(a)


def test_invert_requires_square():
    with pytest.raises(DimensionMismatch):
        invert(FieldMatrix.zeros(2, 3, F7))


def test_pivot_columns_count_rank_of_leading_columns():
    dependent = FieldMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]], F7)
    assert pivot_columns(dependent) == [0, 1]
    leading_zero = FieldMatrix.from_rows([[0, 1, 1], [0, 1, 0]], F2)
    assert pivot_columns(leading_zero) == [1, 2]
    a = random_matrix(4, 9, F2, 31)
    pivots = pivot_columns(a)
    for j in range(a.cols + 1):
        assert sum(c < j for c in pivots) == rank(a.take_cols(range(j)))


# ---- subset invertibility scan -----------------------------------------------


def reference_scan(arr, field, r, N, Nr):
    """First singular stacked block C_U by one rank per subset."""
    checked = 0
    for subset in combinations(range(1, N + 1), Nr):
        checked += 1
        rows = np.concatenate([np.arange((s - 1) * r, s * r) for s in subset])
        if rank(FieldMatrix.wrap(arr[rows], field)) < r * Nr:
            return checked, subset
    return checked, None


def stacked_blocks(r, N, Nr, field, seed):
    """r rows per server for N servers, r*Nr columns, writable."""
    return random_matrix(r * N, r * Nr, field, seed).data.copy()


@pytest.mark.parametrize("q", [2, 3, 7, 2147483647, (1 << 61) - 1])
@pytest.mark.parametrize("r, N, Nr", [(1, 4, 2), (2, 5, 3), (1, 5, 1), (3, 4, 4), (2, 6, 4)])
def test_first_singular_subset_matches_reference_scan(q, r, N, Nr):
    field = make_field(q)
    for seed in range(8):
        arr = stacked_blocks(r, N, Nr, field, seed)
        got = first_singular_subset(arr, q, r, N, Nr)
        assert got == reference_scan(arr, field, r, N, Nr)


@pytest.mark.parametrize("field", [make_field(3), DEFAULT, BIG])
def test_first_singular_subset_duplicated_server_block(field):
    r, N, Nr = 2, 5, 3
    arr = stacked_blocks(r, N, Nr, field, 11)
    if field.q > 3:
        assert first_singular_subset(arr, field.q, r, N, Nr) == (10, None)  # C(5, 3)

    # Server 2 repeats server 1, so the first subset U0 = (1, 2, 3) is singular.
    first = arr.copy()
    first[2:4] = first[0:2]
    assert first_singular_subset(first, field.q, r, N, Nr) == (1, (1, 2, 3))

    # Server 5 repeats server 2: (1, 2, 5) is the first subset holding both,
    # third in lexicographic order.
    later = arr.copy()
    later[8:10] = later[2:4]
    got = first_singular_subset(later, field.q, r, N, Nr)
    assert got == reference_scan(later, field, r, N, Nr)
    if field.q > 3:
        assert got == (3, (1, 2, 5))


@pytest.mark.parametrize("field", [F2, DEFAULT, BIG])
def test_first_singular_subset_all_servers_respond(field):
    r, N = 3, 4
    arr = stacked_blocks(r, N, N, field, 5)
    assert first_singular_subset(arr, field.q, r, N, N) == reference_scan(
        arr, field, r, N, N
    )
    arr[9:12] = arr[0:3]
    assert first_singular_subset(arr, field.q, r, N, N) == (1, (1, 2, 3, 4))


# ---- subset decoder ----------------------------------------------------------


@pytest.mark.parametrize("cols", [0, 3])
@pytest.mark.parametrize("q", [2, 7, 2147483647, (1 << 61) - 1])
@pytest.mark.parametrize("r, N, Nr", [(2, 4, 4), (3, 4, 3), (2, 5, 4), (2, 4, 2), (2, 6, 3)])
def test_subset_decoder_matches_reference_solve(q, r, N, Nr, cols):
    # Nr = N, Nr = N - 1 and Nr <= N/2, where a subset can drop all of U0.
    field = make_field(q)
    m, lead = r * Nr, r + 1
    for seed in range(6):
        arr = stacked_blocks(r, N, Nr, field, seed)
        if q > 2147483647:
            assert arr.dtype == object
        x = random_matrix(r * N, cols, field, 100 + seed).data
        u0 = FieldMatrix.wrap(arr[:m], field)
        if rank(u0) < m:
            with pytest.raises(Singular, match=re.escape(str(tuple(range(1, Nr + 1))))):
                SubsetDecoder(arr, q, r, Nr, lead)
            continue
        decoder = SubsetDecoder(arr, q, r, Nr, lead)
        for subset in combinations(range(1, N + 1), Nr):
            rows = np.concatenate([np.arange((s - 1) * r, s * r) for s in subset])
            c_u = FieldMatrix.wrap(arr[rows], field)
            if rank(c_u) < m:
                with pytest.raises(Singular, match=re.escape(str(subset))):
                    decoder(subset, x[rows])
                continue
            want = solve_linear(c_u, FieldMatrix.wrap(x[rows], field)).data[:lead]
            got = decoder(subset, x[rows])
            assert got.shape == (lead, cols)
            assert np.array_equal(got, want)


# ---- block assembly ----------------------------------------------------------


def test_assemble_blocks_matches_manual_layout():
    a = FieldMatrix.from_rows([[1, 2], [3, 4]], F7)
    b = FieldMatrix.from_rows([[5], [6]], F7)
    c = FieldMatrix.from_rows([[0, 1]], F7)
    d = FieldMatrix.from_rows([[2]], F7)
    got = assemble_blocks([[a, b], [c, d]])
    want = FieldMatrix.from_rows([[1, 2, 5], [3, 4, 6], [0, 1, 2]], F7)
    assert got == want


def test_assemble_blocks_demand_shape():
    # The demand layout: an n x nK block beside zeros over an identity.
    n, nk, keys = 3, 9, 3
    grid = [
        [FieldMatrix.zeros(n, nk, F7), FieldMatrix.zeros(n, keys, F7)],
        [FieldMatrix.zeros(keys, nk, F7), FieldMatrix.identity(keys, F7)],
    ]
    assert assemble_blocks(grid).shape == (n + keys, nk + keys)


def test_assemble_blocks_validates_grid():
    a = FieldMatrix.zeros(2, 2, F7)
    tall = FieldMatrix.zeros(3, 2, F7)
    wide = FieldMatrix.zeros(2, 3, F7)
    with pytest.raises(DimensionMismatch):
        assemble_blocks([[a, a], [a]])
    with pytest.raises(DimensionMismatch):
        assemble_blocks([[a, tall]])
    with pytest.raises(DimensionMismatch):
        assemble_blocks([[a, a], [a, wide]])
    with pytest.raises(ValueError):
        assemble_blocks([[a, FieldMatrix.zeros(2, 2, make_field(11))]])
    with pytest.raises(DimensionMismatch):
        assemble_blocks([])


# ---- serialization -----------------------------------------------------------


def test_json_roundtrip_preserves_everything():
    m = random_matrix(4, 6, DEFAULT, 123)
    again = FieldMatrix.from_json(m.to_json())
    assert again == m
    obj = m.to_json_dict()
    assert obj["rows"] == 4 and obj["cols"] == 6
    assert obj["q"] == str(DEFAULT.q)
    assert all(isinstance(s, str) for s in obj["data"])


def test_json_roundtrip_big_modulus():
    m = random_matrix(3, 3, BIG, 9)
    assert FieldMatrix.from_json(m.to_json()) == m


def test_json_rejects_bad_payloads():
    good = random_matrix(2, 2, F7, 1).to_json_dict()
    short = dict(good, data=good["data"][:3])
    with pytest.raises(DimensionMismatch):
        FieldMatrix.from_json_dict(short)
    out_of_range = dict(good, data=["7", "0", "0", "0"])
    with pytest.raises(ValueError):
        FieldMatrix.from_json_dict(out_of_range)
    composite = dict(good, q="6")
    with pytest.raises(ValueError):
        FieldMatrix.from_json_dict(composite)
