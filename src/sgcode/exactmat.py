"""Dense exact matrices over GF(q): rank, canonical linear solve, inversion,
the responder-subset invertibility scan and subset decoder, and block
assembly. Everything is integer arithmetic; there is no floating point
anywhere in this module."""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .field import FieldElement, FieldModulus, make_field


class DimensionMismatch(ValueError):
    """Block or operand shapes do not line up."""


class Unsolvable(ValueError):
    """The linear system A X = B has no solution."""


class Singular(ValueError):
    """The matrix has no inverse."""


# ---- raw kernels ------------------------------------------------------------
#
# The kernels mutate plain 2-D ndarrays holding values in [0, q). For
# q <= INT64_SAFE_MODULUS the dtype is int64 and every intermediate stays
# inside (-2^62, 2^62): row values are < q <= 2^31 - 1, an outer-product
# update subtracts at most (q-1)^2 < 2^62 before reduction. Larger q uses
# object-dtype Python integers through the same code paths.


def _reduce_rows(mat: np.ndarray, q: int, stop_col: int, full: bool) -> List[int]:
    """In-place Gaussian elimination; returns the pivot column list.

    Pivots are the first nonzero entry in column order (deterministic).
    Eliminates only within the first stop_col columns; later columns ride
    along as right-hand sides. full=True produces reduced echelon form,
    full=False only clears below the pivots (enough for rank).
    """
    rows = mat.shape[0]
    pivots: List[int] = []
    r = 0
    for c in range(stop_col):
        if r == rows:
            break
        col = mat[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            mat[[r, p], c:] = mat[[p, r], c:]
        pivot = int(mat[r, c])
        if pivot != 1:
            inverse = pow(pivot, -1, q)
            mat[r, c:] = mat[r, c:] * inverse % q
        if full:
            fac = mat[:, c].copy()
            fac[r] = 0
            tgt = np.nonzero(fac)[0]
        else:
            tgt = r + 1 + np.nonzero(mat[r + 1:, c])[0]
        if tgt.size:
            block = mat[tgt, c:]
            block = (block - np.outer(block[:, 0], mat[r, c:])) % q
            mat[tgt, c:] = block
        pivots.append(c)
        r += 1
    return pivots


def _rank_kernel(mat: np.ndarray, q: int) -> List[int]:
    """Pivot columns of mat, destroying it. mat must be a private copy.

    Rank needs no echelon form, so this scales each target row by the pivot
    value instead of dividing by it: row_t <- pivot*row_t - lead_t*row_p.
    Both products stay below (q-1)^2 < 2^62, and no modular inverse is ever
    taken, which makes this several times faster than _reduce_rows. Columns
    are eliminated in order, so the pivots among the first j columns count
    the rank of those j columns.
    """
    rows, cols = mat.shape
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
        below = mat[r + 1:, c:]
        if below.size:
            lead = mat[r + 1:, c]
            below[...] = (mat[r, c] * below - lead[:, None] * mat[r, c:]) % q
        pivots.append(c)
        r += 1
    return pivots


def _matmul_kernel(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact modular product of value-reduced arrays."""
    if a.dtype == np.int64 and b.dtype == np.int64 and a.shape[1] <= (1 << 16):
        # 16-bit limb split: both partial products stay far below 2^63.
        hi = (a >> 16) @ b % q
        lo = (a & 0xFFFF) @ b % q
        return (hi * 65536 + lo) % q
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

    # construction

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[Union[int, FieldElement]]],
        field: FieldModulus,
        cols: Optional[int] = None,
    ) -> "FieldMatrix":
        """Build from nested sequences of ints or field elements.

        cols disambiguates the width when rows is empty.
        """
        values = [
            [e.value if isinstance(e, FieldElement) else int(e) % field.q for e in row]
            for row in rows
        ]
        if values:
            width = len(values[0])
            if any(len(row) != width for row in values):
                raise DimensionMismatch("ragged rows")
        else:
            width = 0 if cols is None else cols
        arr = np.array(values, dtype=field.dtype()).reshape(len(values), width)
        return cls(arr, field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: FieldModulus) -> "FieldMatrix":
        return cls(np.zeros((rows, cols), dtype=field.dtype()), field)

    @classmethod
    def identity(cls, size: int, field: FieldModulus) -> "FieldMatrix":
        arr = np.zeros((size, size), dtype=field.dtype())
        if size:
            idx = np.arange(size)
            arr[idx, idx] = 1
        return cls(arr, field)

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

    @property
    def entries(self) -> Tuple[FieldElement, ...]:
        """Row-major entries as field elements."""
        return tuple(
            FieldElement(int(v), self.modulus) for v in self.data.reshape(-1)
        )

    def entry(self, row: int, col: int) -> FieldElement:
        """0-based single-entry access."""
        return FieldElement(int(self.data[row, col]), self.modulus)

    def take_rows(self, index: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.data[list(index), :], self.modulus)

    def take_cols(self, index: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix(self.data[:, list(index)], self.modulus)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.data.T.copy(), self.modulus)

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

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in addition")
        return FieldMatrix((self.data + other.data) % self.modulus.q, self.modulus)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        if self.shape != other.shape:
            raise DimensionMismatch("shape mismatch in subtraction")
        return FieldMatrix((self.data - other.data) % self.modulus.q, self.modulus)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix((-self.data) % self.modulus.q, self.modulus)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"inner dimensions {self.cols} and {other.rows} differ"
            )
        return FieldMatrix(
            _matmul_kernel(self.data, other.data, self.modulus.q), self.modulus
        )

    def scale(self, scalar: Union[int, FieldElement]) -> "FieldMatrix":
        s = scalar.value if isinstance(scalar, FieldElement) else scalar % self.modulus.q
        return FieldMatrix(self.data * s % self.modulus.q, self.modulus)

    def is_zero(self) -> bool:
        return not np.any(self.data)

    # serialization

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "q": str(self.modulus.q),
            "data": [str(int(v)) for v in self.data.reshape(-1)],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "FieldMatrix":
        field = make_field(int(obj["q"]))
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = [int(s) for s in obj["data"]]
        if len(data) != rows * cols:
            raise DimensionMismatch("data length does not match rows*cols")
        if any(not 0 <= v < field.q for v in data):
            raise ValueError("entry outside [0, q)")
        arr = np.array(data, dtype=field.dtype()).reshape(rows, cols)
        return cls(arr, field)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "FieldMatrix":
        return cls.from_json_dict(json.loads(text))


# ---- operations -------------------------------------------------------------


def _work_copy(m: FieldMatrix) -> np.ndarray:
    return np.array(m.data, dtype=m.data.dtype)


def pivot_columns(a: FieldMatrix) -> List[int]:
    """Pivot columns of a column-ordered elimination: the columns that are
    not combinations of the columns before them."""
    return _rank_kernel(_work_copy(a), a.modulus.q)


def rank(a: FieldMatrix) -> int:
    """Row-space dimension by exact Gaussian elimination."""
    return len(pivot_columns(a))


def _u0_frame(
    arr: np.ndarray, q: int, r: int, Nr: int, lead: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """One elimination of the first responder subset U0 = (1..Nr).

    arr stacks r rows per server and has m = r*Nr columns. Reducing
    [C_U0^T | C_out^T | I_m[:, :lead]] yields T = C_out C_U0^-1 for the
    servers outside U0 and E = C_U0^-1[:lead], the leading rows of the
    inverse, which ride along as extra right-hand sides. Returns (T, E), or
    None when C_U0 is singular.
    """
    m = r * Nr
    out = arr.shape[0] - m
    aug = np.concatenate(
        [arr[:m].T, arr[m:].T, np.eye(m, lead, dtype=arr.dtype)], axis=1
    )
    if len(_reduce_rows(aug, q, m, full=True)) < m:
        return None
    return aug[:, m : m + out].T, np.ascontiguousarray(aug[:, m + out :].T)


def _row_blocks(r: int, count: int) -> List[np.ndarray]:
    """block[i] holds the r row indices of the server at 0-based position i."""
    return [np.arange(r * i, r * (i + 1)) for i in range(count)]


def _block_rows(block: List[np.ndarray], positions: List[int]) -> np.ndarray:
    if not positions:
        return np.empty(0, dtype=np.intp)
    return np.concatenate([block[i] for i in positions])


def _exchange(
    subset: Tuple[int, ...], Nr: int, block: List[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """For the sorted 1-based subset U = U0 - A + B: the rows of A within
    C_U0 and the rows of B within T."""
    dropped = sorted(set(range(Nr)) - {s - 1 for s in subset})
    added = [s - Nr - 1 for s in subset if s > Nr]
    return _block_rows(block, dropped), _block_rows(block, added)


def first_singular_subset(
    arr: np.ndarray, q: int, r: int, N: int, Nr: int
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Scan the size-Nr server subsets U in lexicographic order for the first
    whose stacked block C_U is singular; arr stacks r rows per server for N
    servers and has r*Nr columns, and servers are 1-based.

    Returns (subsets_checked, first_failure): the count up to and including
    the first singular subset, or the total count and None when every C_U
    is invertible.

    U0 = (1..Nr) is eliminated once (_u0_frame), which yields
    T = C_out C_U0^-1 for the servers outside U0. Every other subset is
    U = U0 - A + B, and C_U C_U0^-1 keeps identity rows for the servers of
    U0 - A, so C_U is invertible exactly when the r|A| x r|A| block
    T[rows of B, columns of A] is.
    """
    m = r * Nr
    if Nr == N:
        full = len(_rank_kernel(np.array(arr), q)) == m
        return 1, None if full else tuple(range(1, N + 1))
    frame = _u0_frame(arr, q, r, Nr, 0)
    if frame is None:
        return 1, tuple(range(1, Nr + 1))
    t = frame[0]
    block = _row_blocks(r, N)
    others = islice(combinations(range(1, N + 1), Nr), 1, None)
    for checked, subset in enumerate(others, start=2):
        cols, rows = _exchange(subset, Nr, block)
        if len(_rank_kernel(t[np.ix_(rows, cols)], q)) < cols.size:
            return checked, subset
    return comb(N, Nr), None


class SubsetDecoder:
    """The leading `lead` rows of C_U^-1 X_U for every size-Nr subset U of
    the N servers stacked in arr, from one elimination of U0 = (1..Nr).

    For U = U0 - A + B with kept part K, write C_U Y = X_U as Y = C_U0^-1 Z.
    Then Z_K = X_K, X_B = T[B,K] Z_K + T[B,A] Z_A, and the leading rows of Y
    are E Z: one r|A| x r|A| solve and two products per subset.

    Raises Singular naming U0 when C_U0 is singular.
    """

    def __init__(self, arr: np.ndarray, q: int, r: int, Nr: int, lead: int):
        frame = _u0_frame(arr, q, r, Nr, lead)
        if frame is None:
            u0 = tuple(range(1, Nr + 1))
            raise Singular(f"responder subset {u0} is not invertible")
        self.t, self.e = frame
        self.q, self.Nr = q, Nr
        self.block = _row_blocks(r, arr.shape[0] // r)

    def __call__(self, subset: Tuple[int, ...], x_u: np.ndarray) -> np.ndarray:
        """Leading rows of C_U^-1 x_u for the sorted subset, where x_u stacks
        the subset's r-row blocks in order, so x_u = [X_K; X_B]. Raises
        Singular naming the subset when C_U is singular."""
        q = self.q
        dropped, added = _exchange(subset, self.Nr, self.block)
        if not dropped.size:
            return _matmul_kernel(self.e, x_u, q)
        kept = _block_rows(self.block, [s - 1 for s in subset if s <= self.Nr])
        x_k, x_b = x_u[: kept.size], x_u[kept.size :]
        rhs = x_b
        if kept.size:
            rhs = (x_b - _matmul_kernel(self.t[np.ix_(added, kept)], x_k, q)) % q
        aug = np.concatenate([self.t[np.ix_(added, dropped)], rhs], axis=1)
        if len(_reduce_rows(aug, q, dropped.size, full=True)) < dropped.size:
            raise Singular(f"responder subset {subset} is not invertible")
        z = np.empty((self.e.shape[1], x_u.shape[1]), dtype=x_u.dtype)
        z[kept] = x_k
        z[dropped] = aug[:, dropped.size :]
        return _matmul_kernel(self.e, z, q)


def solve_linear(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Canonical solution X of A X = B with free variables set to zero.

    Raises Unsolvable when the system is inconsistent.
    """
    a._check(b)
    if a.rows != b.rows:
        raise DimensionMismatch("A and B must have the same row count")
    q = a.modulus.q
    aug = np.concatenate([_work_copy(a), _work_copy(b)], axis=1)
    pivots = _reduce_rows(aug, q, a.cols, full=True)
    if np.any(aug[len(pivots):, a.cols:]):
        raise Unsolvable("rank of [A | B] exceeds rank of A")
    x = np.zeros((a.cols, b.cols), dtype=a.data.dtype)
    for i, c in enumerate(pivots):
        x[c, :] = aug[i, a.cols:]
    return FieldMatrix(x, a.modulus)


def invert(a: FieldMatrix) -> FieldMatrix:
    """Inverse of a square matrix; raises Singular when rank-deficient."""
    if a.rows != a.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    q = a.modulus.q
    aug = np.concatenate(
        [_work_copy(a), np.asarray(FieldMatrix.identity(a.rows, a.modulus).data)],
        axis=1,
    )
    pivots = _reduce_rows(aug, q, a.cols, full=True)
    if len(pivots) < a.rows:
        raise Singular(f"rank {len(pivots)} < {a.rows}")
    return FieldMatrix(aug[:, a.cols:].copy(), a.modulus)


def assemble_blocks(layout: Sequence[Sequence[FieldMatrix]]) -> FieldMatrix:
    """Exact block concatenation; no entry reordering.

    Every block row must share a height, every block column a width, and all
    blocks the modulus.
    """
    if not layout or any(not row for row in layout):
        raise DimensionMismatch("empty block layout")
    field = layout[0][0].modulus
    widths = [b.cols for b in layout[0]]
    for row in layout:
        if len(row) != len(widths):
            raise DimensionMismatch("ragged block grid")
        for block, width in zip(row, widths):
            if block.modulus != field:
                raise ValueError("mixed moduli")
            if block.cols != width:
                raise DimensionMismatch("block column widths differ")
        if any(b.rows != row[0].rows for b in row):
            raise DimensionMismatch("block row heights differ")
    stacked = np.concatenate(
        [np.concatenate([b.data for b in row], axis=1) for row in layout], axis=0
    )
    return FieldMatrix(stacked, field)
