"""Exact matrices over GF(q): the matrix type, products against an
object-dtype reference, rank and solving, and the subset scan and decoder."""

from __future__ import annotations

import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgcode import exactmat
from sgcode.exactmat import (
    DimensionMismatch,
    FieldMatrix,
    Singular,
    SubsetDecoder,
    Unsolvable,
    first_singular_subset,
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


def fm(rows, field):
    """A matrix from nested int lists, reduced into [0, q)."""
    return FieldMatrix.wrap(np.array(rows, dtype=field.dtype()) % field.q, field)


def transpose(m):
    return FieldMatrix.wrap(m.data.T.copy(), m.modulus)


# ---- construction and access -------------------------------------------------


def test_rank_of_a_matrix_without_rows():
    m = FieldMatrix.wrap(np.zeros((0, 4), dtype=np.int64), F7)
    assert m.shape == (0, 4)
    assert rank(m) == 0


def test_zeros_identity_and_is_zero():
    z = fm(np.zeros((2, 3)), F7)
    assert z.is_zero()
    i = fm(np.eye(3), F7)
    assert not i.is_zero()
    assert rank(i) == 3
    assert i @ transpose(z) == fm(np.zeros((3, 2)), F7)


def test_take_rows_cols_and_transpose():
    m = fm([[1, 2, 3], [4, 5, 6]], F7)
    assert m.take_rows([1]) == fm([[4, 5, 6]], F7)
    assert m.take_cols([2, 0]) == fm([[3, 1], [6, 4]], F7)
    assert transpose(transpose(m)) == m


def test_matrix_data_is_frozen():
    m = fm([[1, 2]], F7)
    with pytest.raises(ValueError):
        m.data[0, 0] = 5


def test_mixed_moduli_rejected():
    a = fm(np.eye(2), F7)
    b = fm(np.eye(2), make_field(11))
    with pytest.raises(ValueError):
        a @ b


def test_shape_mismatches_rejected():
    a = fm(np.zeros((2, 3)), F7)
    b = fm(np.zeros((3, 3)), F7)
    with pytest.raises(DimensionMismatch):
        b @ b @ a
    with pytest.raises(DimensionMismatch):
        FieldMatrix.wrap(np.zeros(3, dtype=np.int64), F7)


# ---- products ----------------------------------------------------------------


def object_product(a, b, q):
    return np.dot(a.astype(object), b.astype(object)) % q


@pytest.mark.parametrize("q", [7, 2147483647, (1 << 61) - 1])
@pytest.mark.parametrize(
    "m, k, n",
    # Around the float64 limb product's 2^15 multiply-add threshold, a wide
    # inner dimension, and empty operands.
    [(4, 5, 3), (31, 32, 32), (32, 32, 32), (3, 3000, 4), (0, 5, 3), (4, 0, 3)],
)
def test_matmul_matches_object_reference(q, m, k, n):
    field = make_field(q)
    for seed in range(3):
        a = random_matrix(m, k, field, seed)
        b = random_matrix(k, n, field, seed + 10)
        got = a @ b
        assert got.modulus == field
        assert got.data.dtype == field.dtype()
        assert got.shape == (m, n)
        assert np.array_equal(got.data.astype(object), object_product(a.data, b.data, q))
        c = random_matrix(n, 2, field, seed + 20)
        assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), q=st.sampled_from([2, 7, 2147483647]))
def test_rank_invariants(seed, q):
    field = make_field(q)
    a = random_matrix(5, 7, field, seed)
    b = random_matrix(7, 4, field, seed + 1)
    assert rank(a) == rank(transpose(a))
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
        eye = fm(np.eye(6, dtype=np.int64), BIG)
        assert solve_linear(a, eye) @ a == eye


# ---- int64 overflow bounds at the edges ---------------------------------------


def _count_f64_products(monkeypatch):
    calls = []
    original = exactmat._f64_product

    def counted(a, b):
        calls.append(a.shape[1])
        return original(a, b)

    monkeypatch.setattr(exactmat, "_f64_product", counted)
    return calls


def _products(k, f64):
    """float64 products the limb path runs: two for each 64-wide block of
    the inner dimension k, none off the float path."""
    return 2 * -(-k // 64) if f64 else 0


def _top(q):
    """The largest entry for the limb bounds: 0x7FFEFFFF has the largest low
    limb, 0xFFFF, below 2^31 - 1; smaller fields take q - 1."""
    return 0x7FFEFFFF if q > 0x7FFEFFFF else q - 1


@pytest.mark.parametrize(
    "m, k, n, f64, q, top, fill",
    [
        pytest.param(
            1, 1 << 21, 2, True, DEFAULT.q, DEFAULT.q - 1, DEFAULT.q - 1, id="2097152-True"
        ),
        # Before inner blocks, k > 2^21 ran on Python integers; this case
        # keeps its id but now runs the float path like every other k.
        pytest.param(
            1, (1 << 21) + 1, 2, True, DEFAULT.q, DEFAULT.q - 1, DEFAULT.q - 1, id="2097153-False"
        ),
    ]
    + [
        pytest.param(16, k, 32, True, q, _top(q), q - 1, id=f"{k}-q{q}")
        for k in (64, 65, 128, 129, 4097)
        for q in (2, 7, DEFAULT.q)
    ]
    # With the even fill q - 1 a block of 65 low-limb terms sums past 2^53
    # yet still rounds exactly. With the odd fill q - 2 each low-limb term
    # is odd, so 65 of them sum to an odd value past 2^53 that float64
    # rounds: a 65-wide block gets these cases wrong.
    + [
        pytest.param(16, k, 32, True, DEFAULT.q, _top(DEFAULT.q), DEFAULT.q - 2, id=f"{k}-odd")
        for k in (65, 128, 4097)
    ],
)
def test_matmul_inner_dimension_edge(monkeypatch, m, k, n, f64, q, top, fill):
    # a is top and b is fill. Each 64-wide inner block splits only a, and
    # with top = 0x7FFEFFFF each block's low-limb sum is just below 2^53. At
    # k = 65, 129 and 4097 the last block is a single column; the
    # accumulator runs over up to 65 blocks here and 32769 at k = 2^21 + 1.
    # The exact entry is k * top * fill mod q.
    calls = _count_f64_products(monkeypatch)
    a = np.full((m, k), top, dtype=np.int64)
    b = np.full((k, n), fill, dtype=np.int64)
    got = exactmat._matmul_kernel(a, b, q)
    assert len(calls) == _products(k, f64)
    assert got.dtype == np.int64
    assert got.shape == (m, n)
    assert np.all(got == k * top * fill % q)
    if k < 1 << 21:
        assert np.array_equal(got.astype(object), np.dot(a.astype(object), b.astype(object)) % q)


@pytest.mark.parametrize("m, n", [(0, 2), (2, 0)])
def test_matmul_empty_operand_with_long_inner_dimension(m, n):
    # No multiply-adds, so the int64 limb product runs whatever k is; the
    # result must still be an int64 matrix of zeros.
    k = (1 << 16) + 1
    a = np.ones((m, k), dtype=np.int64)
    b = np.ones((k, n), dtype=np.int64)
    got = exactmat._matmul_kernel(a, b, DEFAULT.q)
    assert got.dtype == np.int64
    assert got.shape == (m, n)


@pytest.mark.parametrize(
    "shape, f64",
    [
        ((32, 32, 32), True),
        ((31, 32, 32), False),
        ((16, 64, 32), True),
        ((64, 64, 8), True),
        ((16, 65, 32), True),
        ((15, 64, 32), False),
        ((8, 1000, 8), True),
        ((3, 200, 70), True),
    ],
)
@pytest.mark.parametrize("fill", ["max", "random"])
def test_matmul_either_side_of_size_threshold(monkeypatch, shape, f64, fill):
    # 32*32*32 = 2^15 multiply-adds takes the float64 limb product, 31*32*32
    # the int64 one; both must equal the object-dtype product. At k = 64 the
    # float path is one inner block; k = 65, 200 and 1000 accumulate 2, 4 and
    # 16 blocks.
    q = DEFAULT.q
    m, k, n = shape
    if fill == "max":
        a = np.full((m, k), q - 1, dtype=np.int64)
        b = np.full((k, n), q - 1, dtype=np.int64)
    else:
        a, b = random_matrix(m, k, DEFAULT, 5).data, random_matrix(k, n, DEFAULT, 6).data
    calls = _count_f64_products(monkeypatch)
    got = exactmat._matmul_kernel(a, b, q)
    assert len(calls) == _products(k, f64)
    assert got.dtype == np.int64
    assert np.array_equal(got.astype(object), exactmat._matmul_kernel(a.astype(object), b.astype(object), q))


def _extreme_matrix(rows, cols, q, seed):
    """Entries drawn from {1, q - 1}: updates p*row_t - lead_t*row_p then
    reach both ends of (-(q-1)^2, (q-1)^2)."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random((rows, cols)) < 0.5, 1, q - 1).astype(np.int64)


@pytest.mark.parametrize("kind", ["max", "extreme", "random"])
@pytest.mark.parametrize("rows, cols", [(12, 20), (30, 30), (40, 25)])
def test_elimination_kernels_match_object_dtype(kind, rows, cols):
    q = DEFAULT.q
    if kind == "max":
        mat = np.full((rows, cols), q - 1, dtype=np.int64)
        mat[np.arange(min(rows, cols)), np.arange(min(rows, cols))] = 1
    elif kind == "extreme":
        mat = _extreme_matrix(rows, cols, q, rows * cols)
    else:
        mat = random_matrix(rows, cols, DEFAULT, rows + cols).data
    for kernel, args in ((exactmat._rank_kernel, ()), (exactmat._reduce_rows, (cols // 2,))):
        fast, oracle = mat.copy(), mat.astype(object)
        assert kernel(fast, q, *args) == kernel(oracle, q, *args)
        assert fast.dtype == np.int64
        assert np.array_equal(fast.astype(object), oracle)
        assert fast.min() >= 0 and fast.max() < q


def _reference_rref(rows, q, stop):
    """Reduced row echelon form over GF(q) on Python integers, one entry at
    a time; returns (pivot columns, reduced rows)."""
    rows = [[v % q for v in row] for row in rows]
    pivots, r = [], 0
    for c in range(stop):
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = pow(rows[r][c], -1, q)
        rows[r] = [v * inv % q for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % q for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return pivots, rows


@pytest.mark.parametrize("q", [2, 7, 2147483647])
@pytest.mark.parametrize("kind", ["extreme", "random"])
def test_pivots_and_solve_match_reference_elimination(q, kind):
    field = make_field(q)
    for seed in range(4):
        if kind == "extreme":
            a_arr = _extreme_matrix(9, 7, q, seed) % q
            b_arr = _extreme_matrix(9, 3, q, seed + 50) % q
        else:
            a_arr = random_matrix(9, 7, field, seed).data.copy()
            b_arr = random_matrix(9, 3, field, seed + 50).data
        a_arr[:, 3] = a_arr[:, 1]  # one dependent column
        a, b = FieldMatrix.wrap(a_arr, field), FieldMatrix.wrap(b_arr, field)
        pivots, _ = _reference_rref(a_arr.tolist(), q, 7)
        assert pivot_columns(a) == pivots
        # A consistent right-hand side: the canonical solution is read off
        # the reference reduced form of [A | A X].
        rhs = a @ FieldMatrix.wrap(b_arr[:7], field)
        pivots, reduced = _reference_rref(
            np.concatenate([a_arr, rhs.data], axis=1).tolist(), q, 7
        )
        want = np.zeros((7, 3), dtype=np.int64)
        for i, c in enumerate(pivots):
            want[c] = reduced[i][7:]
        assert np.array_equal(solve_linear(a, rhs).data, want)


@pytest.mark.parametrize("q", [2, 7, 2147483647])
def test_subset_decoder_at_extreme_entries(q):
    field = make_field(q)
    r, N, Nr = 2, 5, 3
    m = r * Nr
    for seed in range(8):
        arr = _extreme_matrix(r * N, m, q, seed) % q
        x = _extreme_matrix(r * N, 4, q, seed + 100) % q
        if rank(FieldMatrix.wrap(arr[:m], field)) < m:
            continue
        decoder = SubsetDecoder(arr, q, r, Nr, 3)
        for subset in combinations(range(1, N + 1), Nr):
            rows = np.concatenate([np.arange((s - 1) * r, s * r) for s in subset])
            pivots, reduced = _reference_rref(
                np.concatenate([arr[rows], x[rows]], axis=1).tolist(), q, m
            )
            if len(pivots) < m:
                with pytest.raises(Singular):
                    decoder(subset, x[rows])
                continue
            want = np.array([row[m:] for row in reduced[:3]], dtype=np.int64)
            assert np.array_equal(decoder(subset, x[rows]), want)


# ---- rank and solve ----------------------------------------------------------


def test_rank_known_values():
    assert rank(fm(np.zeros((3, 4)), F7)) == 0
    assert rank(fm(np.eye(5), F7)) == 5
    dependent = fm([[1, 2, 3], [2, 4, 6], [0, 1, 1]], F7)
    assert rank(dependent) == 2
    # [[1, 1], [1, 1]] has rank 1 over GF(2) but [[1, 1], [1, 0]] has 2.
    assert rank(fm([[1, 1], [1, 1]], F2)) == 1
    assert rank(fm([[1, 1], [1, 0]], F2)) == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6), q=st.sampled_from([2, 7, 2147483647]))
def test_solve_returns_exact_solution(seed, q):
    field = make_field(q)
    a = random_matrix(6, 4, field, seed)
    x = random_matrix(4, 3, field, seed + 1)
    b = a @ x
    assert a @ solve_linear(a, b) == b


def test_solve_canonical_free_variables_are_zero():
    a = fm([[1, 1]], F7)
    b = fm([[1]], F7)
    # Any [x, 1 - x] solves; the canonical answer zeroes the free variable.
    assert solve_linear(a, b) == fm([[1], [0]], F7)

    a2 = fm([[0, 1, 2], [0, 0, 0]], F7)
    b2 = fm([[3], [0]], F7)
    assert solve_linear(a2, b2) == fm([[0], [3], [0]], F7)


def test_solve_detects_inconsistency():
    a = fm([[1, 1], [2, 2]], F7)
    b = fm([[1], [3]], F7)
    with pytest.raises(Unsolvable):
        solve_linear(a, b)
    with pytest.raises(DimensionMismatch):
        solve_linear(a, fm(np.zeros((3, 1)), F7))


def test_pivot_columns_count_rank_of_leading_columns():
    dependent = fm([[1, 2, 3], [2, 4, 6], [0, 1, 1]], F7)
    assert pivot_columns(dependent) == [0, 1]
    leading_zero = fm([[0, 1, 1], [0, 1, 0]], F2)
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


# ---- blocked elimination -------------------------------------------------------


def _count_blocked(monkeypatch):
    calls = []
    original = exactmat._eliminate_blocked

    def counted(mat, q, stop_col, reduced):
        calls.append(reduced)
        return original(mat, q, stop_col, reduced)

    monkeypatch.setattr(exactmat, "_eliminate_blocked", counted)
    return calls


def _on_row_kernels(fn, *args):
    """fn(*args) with the blocked path switched off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exactmat, "_BLOCK_MIN_ENTRIES", 1 << 62)
        return fn(*args)


def _deficient(rows, cols, q, seed, rank_):
    """An int64 product of rank at most rank_, with zero and duplicated
    columns and a zero row."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, q, (rows, rank_), dtype=np.int64)
    right = rng.integers(0, q, (rank_, cols), dtype=np.int64)
    mat = exactmat._matmul_kernel(left, right, q)
    mat[:, rng.choice(cols, cols // 8, replace=False)] = 0
    mat[:, rng.choice(cols, cols // 8)] = mat[:, rng.choice(cols, cols // 8)]
    mat[rng.integers(rows)] = 0
    return mat


def _solve_outcome(a, b, field):
    """solve_linear's canonical solution, or "Unsolvable"."""
    try:
        return solve_linear(FieldMatrix.wrap(a, field), FieldMatrix.wrap(b, field)).data
    except Unsolvable:
        return "Unsolvable"


def _assert_same_as_row_kernels(mat, stop, field):
    """Pivots, reduced pivot rows of a consistent system, and solve_linear's
    answer on a consistent and on an arbitrary right-hand side agree with the
    row kernels."""
    q = field.q
    wrapped = FieldMatrix.wrap(mat, field)
    assert pivot_columns(wrapped) == _on_row_kernels(pivot_columns, wrapped)
    a = mat[:, :stop]
    width = max(mat.shape[1] - stop, 3)  # keep the systems as large as mat
    x = sample_array(SeededRng(stop), field, stop * width).reshape(stop, width)
    consistent = np.concatenate([a, exactmat._matmul_kernel(a, x, q)], axis=1)
    fast, slow = consistent.copy(), consistent.copy()
    pivots = exactmat._reduce_rows(fast, q, stop)
    assert pivots == _on_row_kernels(exactmat._reduce_rows, slow, q, stop)
    assert np.array_equal(fast[: len(pivots)], slow[: len(pivots)])
    rest = mat[:, stop:] if stop < mat.shape[1] else mat[:, :1]
    for b in (consistent[:, stop:], rest):
        got = _solve_outcome(a, b, field)
        want = _on_row_kernels(_solve_outcome, a, b, field)
        assert type(got) is type(want) and np.array_equal(got, want)


@pytest.mark.parametrize("q", [2, 7, 2147483647])
@pytest.mark.parametrize(
    "shape, stop, blocked",
    [
        ((128, 256), 128, True),  # 2^15 entries
        ((127, 256), 127, False),  # one row fewer
        ((512, 64), 64, False),  # one panel of any size
        ((64, 512), 65, True),  # a one-column second panel
    ],
)
def test_blocked_path_runs_from_the_size_threshold(monkeypatch, q, shape, stop, blocked):
    assert exactmat._BLOCK_MIN_ENTRIES == 1 << 15 and exactmat._BLOCK_WIDTH == 64
    field = make_field(q)
    mat = _deficient(*shape, q, q + stop, min(shape) // 2)
    calls = _count_blocked(monkeypatch)
    _assert_same_as_row_kernels(mat, stop, field)
    assert bool(calls) == blocked
    if blocked:
        # rank, then _reduce_rows and two solves, each blocked once; the
        # pivot-block inverses inside stay on the row kernels.
        assert calls == [False, True, True, True]


def test_object_dtype_stays_on_row_kernels(monkeypatch):
    # q > 2^31 - 1 holds Python integers; rank 4 keeps the eliminations short.
    mat = (random_matrix(128, 4, BIG, 3) @ random_matrix(4, 256, BIG, 4)).data
    assert mat.dtype == object and mat.size == exactmat._BLOCK_MIN_ENTRIES
    calls = _count_blocked(monkeypatch)
    assert rank(FieldMatrix.wrap(mat, BIG)) == 4
    x = solve_linear(FieldMatrix.wrap(mat[:, :128], BIG), FieldMatrix.wrap(mat[:, 128:], BIG))
    assert FieldMatrix.wrap(mat[:, :128], BIG) @ x == FieldMatrix.wrap(mat[:, 128:], BIG)
    assert calls == []


@pytest.fixture
def narrow_panels(monkeypatch):
    # 8-column panels from any size, so small matrices cross many panels.
    monkeypatch.setattr(exactmat, "_BLOCK_WIDTH", 8)
    monkeypatch.setattr(exactmat, "_BLOCK_MIN_ENTRIES", 0)


@pytest.mark.parametrize("q", [2, 7, 2147483647])
@pytest.mark.parametrize("rows, cols", [(30, 70), (70, 30), (45, 45)])
@pytest.mark.parametrize("kind", ["full", "deficient", "low"])
def test_blocked_eliminations_match_row_kernels(narrow_panels, q, rows, cols, kind):
    field = make_field(q)
    for seed in range(3):
        if kind == "full":
            mat = random_matrix(rows, cols, field, seed).data.copy()
        else:
            rank_ = min(rows, cols) - 3 if kind == "deficient" else 5
            mat = _deficient(rows, cols, q, seed, rank_)
        if kind == "low":
            mat[:, 8:16] = 0  # a whole panel without a pivot
        for stop in (21, cols):  # 21 is no multiple of the width
            _assert_same_as_row_kernels(mat, stop, field)


@pytest.mark.parametrize("q", [2, 7, 2147483647])
def test_blocked_subset_scan_and_decoder_match_row_kernels(narrow_panels, q):
    # m = 12 columns span two 8-column panels; duplicated server blocks make
    # U0 or a later subset singular.
    field = make_field(q)
    r, N, Nr, lead = 3, 6, 4, 5
    for seed in range(4):
        arr = stacked_blocks(r, N, Nr, field, seed)
        x = random_matrix(r * N, 2, field, seed + 40).data
        for dup in (None, (3, 0), (15, 6)):
            data = arr.copy()
            if dup is not None:
                data[dup[0] : dup[0] + r] = data[dup[1] : dup[1] + r]
            scan = first_singular_subset(data, q, r, N, Nr)
            assert scan == _on_row_kernels(first_singular_subset, data, q, r, N, Nr)
            for subset in combinations(range(1, N + 1), Nr):
                rows = np.concatenate([np.arange((s - 1) * r, s * r) for s in subset])

                def decoded():
                    try:
                        return SubsetDecoder(data, q, r, Nr, lead)(subset, x[rows])
                    except Singular as exc:
                        return str(exc)

                got, want = decoded(), _on_row_kernels(decoded)
                assert type(got) is type(want) and np.array_equal(got, want)
