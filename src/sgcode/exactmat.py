"""Dense exact matrices over GF(q): rank, canonical linear solve, and the
responder-subset invertibility scan and subset decoder.
Every result is exact integer arithmetic; large int64 products run their
16-bit limbs through float64 BLAS only where every sum is an integer below
2^53 (see the kernel notes)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .field import FieldModulus


class DimensionMismatch(ValueError):
    """Block or operand shapes do not line up."""


class Unsolvable(ValueError):
    """The linear system A X = B has no solution."""


class Singular(ValueError):
    """The matrix has no inverse."""


# ---- raw kernels ------------------------------------------------------------
#
# The kernels mutate plain 2-D ndarrays holding values in [0, q). For
# q <= INT64_SAFE_MODULUS = 2^31 - 1 the dtype is int64; larger q uses
# object-dtype Python integers through the same code paths. The int64 bounds:
#
# - Elimination (_rank_kernel, _reduce_rows). Row values are < q < 2^31, so a
#   block update pivot*row_t - lead_t*row_p or row_t - lead_t*row_p stays
#   inside (-2^62, 2^62) before _reduce brings it back to [0, q).
# - Products (_matmul_kernel). Both operands split into 16-bit limbs, so
#   every limb product is below 2^32. With inner dimension k <= 2^21 each
#   limb sum is an integer below 2^53, which float64 holds exactly, so the
#   BLAS dgemm behind float64 @ gives exact sums in any summation order and
#   with or without FMA. The four limb products recombine in int64 as
#   hh * (2^32 mod q) + (hl + lh) * 2^16 + ll after reducing hh and hl + lh,
#   which stays below 2^62 + 2^47 + 2^53 < 2^63.
# - Short products. With k <= _F64_SHORT_INNER = 64, as in every panel
#   update of the blocked elimination, only a splits into limbs and b is
#   multiplied whole: each product of a limb below 2^16 and an entry below
#   2^31 is below 2^47, so every sum is below 64 * 2^16 * 2^31 = 2^53. The
#   two products recombine as (hi mod q) * 2^16 + lo < 2^47 + 2^53. Two BLAS
#   products and three conversions replace four and six, with the same
#   result.
# - The float path has a fixed cost of six conversions and four BLAS calls
#   (about 35 us on a 2-core x86-64 box with OpenBLAS), so a product of
#   fewer than _F64_MIN_MAC = 2^15 multiply-adds (m*k*n) keeps the int64
#   limb product (a >> 16) @ b and (a & 0xFFFF) @ b. The high limb's sums
#   stay below 2^46 * k and the low limb's below 2^47 * k; a non-empty
#   product below the threshold has k < 2^15, so both stay below 2^62.
#   Most products of the small schemes sit below that size; the transcript
#   product and encode of an N = 8 scheme sit far above it. The paths give
#   identical results, and the threshold is where they cost the same. Any
#   other int64 product, with k > 2^21 (or an empty one with k > 2^16),
#   runs on Python integers and comes back as int64.
# - Blocked elimination (_eliminate_blocked). An int64 elimination of at
#   least _BLOCK_MIN_ENTRIES = 2^15 entries whose first stop_col columns
#   span more than one panel of _BLOCK_WIDTH = 64 runs panel by panel: the
#   row rank kernel on the panel, _reduce_rows on the k x k pivot block
#   (k <= 64), then each other row's trailing columns less two chained
#   _matmul_kernel products of inner dimension k, which take the short
#   product at or above the size threshold. Both products come back in
#   [0, q), so every difference lies in (-q, q) before _reduce. Object
#   dtype always runs the row kernels.
# - The threshold is where the two paths cost the same. Over 44 random
#   full-rank int64 eliminations from 72 x 72 to 330 x 1155 (rank, and
#   _reduce_rows of a square system with the other columns riding along;
#   medians of 9 on a 2-core x86-64 box with one OpenBLAS thread), a
#   log-linear fit of the blocked-to-row time ratio against the entry count
#   crosses 1 at 2^14.9 entries. All 20 below 2^15 entries ran slower
#   blocked (1.07-2.69x the row time), 9 of the 10 from 2^15 to 2^16 ran
#   faster (0.47-1.09x), and all 14 from 2^16 up ran faster (0.22-0.71x).
#   The width was measured on one N = 8 round's eliminations (368 x 1246 down
#   to 138 x 460): 0.51 s at 64 against 0.53-0.68 s at 32, 48, 96 and 128.

_F64_MIN_MAC = 1 << 15
_F64_MAX_INNER = 1 << 21
_F64_SHORT_INNER = 64
_INT_MAX_INNER = 1 << 16
_BLOCK_WIDTH = 64
_BLOCK_MIN_ENTRIES = 1 << 15


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place: int64 x inside (-2^62, 2^63), or object-dtype x.

    On int64, floor division by a scalar is several times faster than
    numpy's remainder on large blocks and gives the same least residue for
    negative x. On a single row the two extra calls cost more than they
    save, so row scalings keep `%`.
    """
    if x.dtype == object:
        x %= q
    else:
        x -= (x // q) * q
    return x


def _reduce_rows(mat: np.ndarray, q: int, stop_col: int) -> List[int]:
    """In-place reduction to reduced row echelon form; returns the pivot
    column list.

    Pivots are the first nonzero entry in column order (deterministic).
    Eliminates only within the first stop_col columns; later columns ride
    along as right-hand sides. Every row takes the update
    row_t - lead_t * row_p, with lead_p set to 0 so the pivot row stays; a
    row with lead 0 is left unchanged by it. Large int64 eliminations take
    the blocked path, which gives the same pivots and reduced rows.
    """
    if _blocked(mat, stop_col):
        return _eliminate_blocked(mat, q, stop_col, reduced=True)
    rows = mat.shape[0]
    pivots: List[int] = []
    r = 0
    for c in range(stop_col):
        if r == rows:
            break
        nz = np.nonzero(mat[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            mat[[r, p], c:] = mat[[p, r], c:]
        pivot = int(mat[r, c])
        if pivot != 1:
            inverse = pow(pivot, -1, q)
            mat[r, c:] = mat[r, c:] * inverse % q
        lead = mat[:, c].copy()
        lead[r] = 0
        block = mat[:, c:]
        block[...] = _reduce(block - np.outer(lead, mat[r, c:]), q)
        pivots.append(c)
        r += 1
    return pivots


def _rank_kernel(
    mat: np.ndarray, q: int, swaps: Optional[List[Tuple[int, int]]] = None
) -> List[int]:
    """Pivot columns of mat, destroying it. mat must be a private copy.

    Rank needs no echelon form, so this scales each target row by the pivot
    value instead of dividing by it: row_t <- pivot*row_t - lead_t*row_p.
    Both products stay below (q-1)^2 < 2^62, and no modular inverse is ever
    taken, which makes this several times faster than _reduce_rows. Columns
    are eliminated in order, so the pivots among the first j columns count
    the rank of those j columns. Large int64 matrices take the blocked
    path, which gives the same pivots. When swaps is given, each row
    exchange is appended to it as a pair of row positions.
    """
    rows, cols = mat.shape
    if _blocked(mat, cols):
        return _eliminate_blocked(mat, q, cols, reduced=False)
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = mat[r:, c] != 0
        p = int(np.argmax(hits))
        if not hits[p]:
            continue
        if p:
            mat[[r, r + p], c:] = mat[[r + p, r], c:]
            if swaps is not None:
                swaps.append((r, r + p))
        below = mat[r + 1:, c:]
        if below.size:
            update = mat[r, c] * below
            update -= below[:, :1] * mat[r, c:]
            below[...] = _reduce(update, q)
        pivots.append(c)
        r += 1
    return pivots


def _blocked(mat: np.ndarray, stop_col: int) -> bool:
    """Whether an elimination of mat's first stop_col columns takes the
    blocked path: int64, at least _BLOCK_MIN_ENTRIES entries, more than one
    panel."""
    return (
        mat.dtype == np.int64
        and stop_col > _BLOCK_WIDTH
        and mat.size >= _BLOCK_MIN_ENTRIES
    )


def _eliminate_blocked(
    mat: np.ndarray, q: int, stop_col: int, reduced: bool
) -> List[int]:
    """_reduce_rows (reduced) or _rank_kernel (not reduced) by panels of
    _BLOCK_WIDTH columns, with the same pivot columns and row exchanges.

    The row rank kernel on a copy of a panel's active rows picks the pivot
    columns J and pivot rows I that the row kernels pick, since scaling a
    row moves none of its zeros; its row exchanges are replayed on mat. With
    B = mat[I, J], B^-1 mat[I] is the only combination of rows I that is the
    identity on J, and every other row t becomes the only
    row_t - (combination of rows I) that is zero on J, which is
    row_t - mat[t, J] B^-1 mat[I]. The row kernels reach these same rows one
    pivot at a time; here they take two _matmul_kernel products. Without
    `reduced` only the rows below the pivots are updated, and only past the
    panel.
    """
    rows = mat.shape[0]
    pivots: List[int] = []
    r = 0
    for c0 in range(0, stop_col, _BLOCK_WIDTH):
        if r == rows:
            break
        c1 = min(c0 + _BLOCK_WIDTH, stop_col)
        swaps: List[Tuple[int, int]] = []
        found = _rank_kernel(mat[r:, c0:c1].copy(), q, swaps)
        if not found:
            continue
        for i, j in swaps:
            mat[[r + i, r + j], c0:] = mat[[r + j, r + i], c0:]
        k, cols = len(found), [c0 + c for c in found]
        # With `reduced` the pivot rows take the update too, which zeroes
        # them (B B^-1 mat[I] = mat[I]) before head replaces them.
        top, start = (0, c0) if reduced else (r + k, c1)
        lead, target = mat[top:, cols], mat[top:, start:]
        if target.size:
            block = np.concatenate(
                [mat[r : r + k, cols], np.eye(k, dtype=np.int64)], axis=1
            )
            _reduce_rows(block, q, k)  # [B | I] -> [I | B^-1]
            head = _matmul_kernel(block[:, k:], mat[r : r + k, start:], q)
            target -= _matmul_kernel(lead, head, q)
            _reduce(target, q)
            if reduced:
                mat[r : r + k, start:] = head
        pivots.extend(cols)
        r += k
    return pivots


def _f64_limbs(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    return (x >> 16).astype(np.float64), (x & 0xFFFF).astype(np.float64)


def _f64_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of float64 limbs, exact below 2^53, as int64."""
    return (a @ b).astype(np.int64)


def _matmul_kernel(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact modular product of value-reduced arrays."""
    if a.dtype == np.int64 and b.dtype == np.int64:
        (m, k), n = a.shape, b.shape[1]
        if k <= _F64_SHORT_INNER and m * k * n >= _F64_MIN_MAC:
            a_hi, a_lo = _f64_limbs(a)
            whole = b.astype(np.float64)
            out = _reduce(_f64_product(a_hi, whole), q) << 16
            out += _f64_product(a_lo, whole)
            return _reduce(out, q)
        if k <= _F64_MAX_INNER and m * k * n >= _F64_MIN_MAC:
            a_hi, a_lo = _f64_limbs(a)
            b_hi, b_lo = _f64_limbs(b)
            out = _reduce(_f64_product(a_hi, b_hi), q) * ((1 << 32) % q)
            mid = _f64_product(a_hi, b_lo)
            mid += _f64_product(a_lo, b_hi)
            out += _reduce(mid, q) << 16
            out += _f64_product(a_lo, b_lo)
            return _reduce(out, q)
        if k <= _INT_MAX_INNER:
            hi = (a >> 16) @ b % q
            lo = (a & 0xFFFF) @ b % q
            return (hi * 65536 + lo) % q
        return _matmul_kernel(a.astype(object), b, q).astype(np.int64)
    return np.dot(a.astype(object), b.astype(object)) % q


# ---- matrix type ------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """Immutable dense matrix over GF(q); entries are least residues."""

    data: np.ndarray
    modulus: FieldModulus

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise DimensionMismatch("matrix data must be 2-D")
        self.data.flags.writeable = False

    @classmethod
    def wrap(cls, arr: np.ndarray, field: FieldModulus) -> "FieldMatrix":
        """Adopt an already-reduced array without copying. Caller must not
        keep a writable reference."""
        return cls(arr, field)

    # shape and access

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self.data.shape

    def take_rows(self, index: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.data[list(index), :], self.modulus)

    def take_cols(self, index: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.data[:, list(index)], self.modulus)

    # arithmetic

    def _check(self, other: "FieldMatrix") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"inner dimensions {self.cols} and {other.rows} differ"
            )
        return FieldMatrix(
            _matmul_kernel(self.data, other.data, self.modulus.q), self.modulus
        )

    def is_zero(self) -> bool:
        return not np.any(self.data)


# ---- operations -------------------------------------------------------------


def pivot_columns(a: FieldMatrix) -> List[int]:
    """Pivot columns of a column-ordered elimination: the columns that are
    not combinations of the columns before them."""
    return _rank_kernel(a.data.copy(), a.modulus.q)


def rank(a: FieldMatrix) -> int:
    """Row-space dimension by exact Gaussian elimination."""
    return len(pivot_columns(a))


def _row_blocks(r: int, count: int) -> List[np.ndarray]:
    """block[i] holds the r row indices of the server at 0-based position i."""
    return [np.arange(r * i, r * (i + 1)) for i in range(count)]


def _block_rows(block: List[np.ndarray], positions: List[int]) -> np.ndarray:
    if not positions:
        return np.empty(0, dtype=np.intp)
    return np.concatenate([block[i] for i in positions])


class SubsetDecoder:
    """One elimination of the first responder subset U0 = (1..Nr), which
    decides and decodes every other size-Nr subset U of the servers.

    arr stacks r rows per server and has m = r*Nr columns. Reducing
    [C_U0^T | C_out^T | I_m[:, :lead]] yields T = C_out C_U0^-1 for the
    servers outside U0 and E = C_U0^-1[:lead], the leading rows of the
    inverse, which ride along as extra right-hand sides. Every other subset
    is U = U0 - A + B with kept part K, and C_U C_U0^-1 keeps identity rows
    for K, so C_U is invertible exactly when the r|A| x r|A| block
    T[rows of B, columns of A] is. Writing C_U Y = X_U as Y = C_U0^-1 Z gives
    Z_K = X_K and X_B = T[B,K] Z_K + T[B,A] Z_A, and the leading rows of Y
    are E Z: one r|A| x r|A| solve and two products per subset.

    Raises Singular naming U0 when C_U0 is singular.
    """

    def __init__(self, arr: np.ndarray, q: int, r: int, Nr: int, lead: int):
        m, rows = r * Nr, arr.shape[0]
        aug = np.concatenate(
            [arr[:m].T, arr[m:].T, np.eye(m, lead, dtype=arr.dtype)], axis=1
        )
        if len(_reduce_rows(aug, q, m)) < m:
            u0 = tuple(range(1, Nr + 1))
            raise Singular(f"responder subset {u0} is not invertible")
        self.t = aug[:, m:rows].T
        self.e = np.ascontiguousarray(aug[:, rows:].T)
        self.q, self.Nr = q, Nr
        self.block = _row_blocks(r, rows // r)

    def _exchange(self, subset: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
        """For the sorted 1-based subset U = U0 - A + B: the rows of A within
        C_U0 and the rows of B within T."""
        dropped = sorted(set(range(self.Nr)) - {s - 1 for s in subset})
        added = [s - self.Nr - 1 for s in subset if s > self.Nr]
        return _block_rows(self.block, dropped), _block_rows(self.block, added)

    def invertible(self, subset: Tuple[int, ...]) -> bool:
        """Whether C_U of the sorted subset is invertible."""
        dropped, added = self._exchange(subset)
        block = self.t[np.ix_(added, dropped)]
        return len(_rank_kernel(block, self.q)) == dropped.size

    def __call__(self, subset: Tuple[int, ...], x_u: np.ndarray) -> np.ndarray:
        """Leading rows of C_U^-1 x_u for the sorted subset, where x_u stacks
        the subset's r-row blocks in order, so x_u = [X_K; X_B]. Raises
        Singular naming the subset when C_U is singular."""
        q = self.q
        dropped, added = self._exchange(subset)
        if not dropped.size:
            return _matmul_kernel(self.e, x_u, q)
        kept = _block_rows(self.block, [s - 1 for s in subset if s <= self.Nr])
        x_k, x_b = x_u[: kept.size], x_u[kept.size :]
        rhs = (x_b - _matmul_kernel(self.t[np.ix_(added, kept)], x_k, q)) % q
        aug = np.concatenate([self.t[np.ix_(added, dropped)], rhs], axis=1)
        if len(_reduce_rows(aug, q, dropped.size)) < dropped.size:
            raise Singular(f"responder subset {subset} is not invertible")
        z = np.empty((self.e.shape[1], x_u.shape[1]), dtype=x_u.dtype)
        z[kept] = x_k
        z[dropped] = aug[:, dropped.size :]
        return _matmul_kernel(self.e, z, q)


def first_singular_subset(
    arr: np.ndarray, q: int, r: int, N: int, Nr: int
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Scan the size-Nr server subsets U in lexicographic order for the first
    whose stacked block C_U is singular; arr stacks r rows per server for N
    servers and has r*Nr columns, and servers are 1-based.

    Returns (subsets_checked, first_failure): the count up to and including
    the first singular subset, or the total count and None when every C_U
    is invertible. U0 = (1..Nr) is eliminated once (SubsetDecoder), and each
    other subset costs a rank of its small exchange block; with Nr = N the
    one subset is ranked directly.
    """
    if Nr == N:
        full = len(_rank_kernel(np.array(arr), q)) == r * Nr
        return 1, None if full else tuple(range(1, N + 1))
    try:
        decoder = SubsetDecoder(arr, q, r, Nr, 0)
    except Singular:
        return 1, tuple(range(1, Nr + 1))
    others = islice(combinations(range(1, N + 1), Nr), 1, None)
    for checked, subset in enumerate(others, start=2):
        if not decoder.invertible(subset):
            return checked, subset
    return comb(N, Nr), None


def solve_linear(
    a: FieldMatrix, b: FieldMatrix, pivots: Optional[List[int]] = None
) -> FieldMatrix:
    """Canonical solution X of A X = B with free variables set to zero.

    Raises Unsolvable when the system is inconsistent. When pivots is given,
    A's pivot columns are appended to it, so their count is rank(A).
    """
    a._check(b)
    if a.rows != b.rows:
        raise DimensionMismatch("A and B must have the same row count")
    q = a.modulus.q
    aug = np.concatenate([a.data, b.data], axis=1)
    found = _reduce_rows(aug, q, a.cols)
    if pivots is not None:
        pivots.extend(found)
    if np.any(aug[len(found):, a.cols:]):
        raise Unsolvable("rank of [A | B] exceeds rank of A")
    x = np.zeros((a.cols, b.cols), dtype=a.data.dtype)
    for i, c in enumerate(found):
        x[c, :] = aug[i, a.cols:]
    return FieldMatrix(x, a.modulus)
