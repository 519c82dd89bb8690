"""Scheme parameters, derived dimensions, data assignments, and the
randomized construct-verify-retry build of the coding matrix C and the block
demand matrix F = [F1 0; F2 F3]."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from .analysis import Infeasible, feasible_counts
from .exactmat import (
    FieldMatrix,
    SubsetDecoder,
    Unsolvable,
    block_rows,
    first_singular_subset,
    row_blocks,
    solve_linear,
)
from .field import (
    FieldModulus,
    SeededRng,
    TooLarge,
    make_field,
    sample_array,
    uniform_ints,
)
from .keyspace import InvalidParams, comb0, enumerate_groups

RETRY_LIMIT = 32

# build_scheme refuses a tuple whose C or F would hold more entries than
# this, before it allocates either.
MAX_MATRIX_ENTRIES = 1 << 26

FORMAT_VERSION = 1


class ConstructionFailed(RuntimeError):
    """All resampling attempts produced a rank-deficient coding matrix,
    which signals a field too small for the degree bound."""


class BadAssignment(ValueError):
    """A data assignment violates the replication or range constraints."""


class ParseError(ValueError):
    """A serialized artifact is malformed or internally inconsistent."""


# ---- parameters and dimensions ----------------------------------------------


@dataclass(frozen=True)
class SchemeParams:
    """Problem tuple: K datasets, N servers, any Nr responders must suffice,
    replication at least M, keys shared by groups of S servers."""

    K: int
    N: int
    Nr: int
    M: int
    S: int
    q: FieldModulus

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.N < 1:
            raise ValueError("N must be at least 1")
        for name in ("Nr", "M", "S"):
            v = getattr(self, name)
            if not 1 <= v <= self.N:
                raise ValueError(f"{name}={v} outside [1, N={self.N}]")


@dataclass(frozen=True)
class DerivedDims:
    """The layout map of a parameter tuple: the sizes r (message rows per
    server), n (gradient pieces) and alpha (key pieces per group), the
    demand shape f_rows x f_cols, and where each index fact puts its rows
    and columns. All indices are 0-based; servers and datasets are 1-based.

    - Server s owns rows (s-1)r .. sr-1 of C and of the transcript X.
    - Piece i of dataset k is F column and W row (k-1) + iK.
    - Piece j of the key of group g (the g-th lexicographic S-subset) sits
      at offset j*C(N,S) + g of the key block: C column n + offset, F
      column and W row nK + offset. Servers outside the group must not
      touch it.
    """

    K: int
    N: int
    S: int
    r: int
    n: int
    alpha: int
    f_rows: int
    f_cols: int

    @property
    def key_cols(self) -> int:
        """Width of the key block: alpha * C(N,S)."""
        return self.f_rows - self.n

    @property
    def group_count(self) -> int:
        return self.key_cols // self.alpha

    def server_rows(self, servers: Iterable[int]) -> np.ndarray:
        """Row indices of C and X of the servers' blocks, in the given order."""
        return block_rows(self._row_blocks, [s - 1 for s in servers])

    @cached_property
    def _row_blocks(self) -> List[np.ndarray]:
        return row_blocks(self.r, self.N)

    def gradient_columns(self, dataset: int) -> List[int]:
        """F columns and W rows of the dataset's pieces."""
        return [(dataset - 1) + i * self.K for i in range(self.n)]

    def hidden_key_offsets(self, server: int) -> np.ndarray:
        """Ascending key-block offsets of the key pieces the server lacks."""
        if not 1 <= server <= self.N:
            raise InvalidParams(f"server {server} outside [1, {self.N}]")
        return self._hidden_key_offsets[server - 1]

    @cached_property
    def _hidden_key_offsets(self) -> Tuple[np.ndarray, ...]:
        # Enumerated on first use, so that sizing a tuple never lists its
        # C(N,S) groups.
        groups = enumerate_groups(self.N, self.S).groups
        copies = np.arange(self.alpha, dtype=np.intp)[:, None] * len(groups)
        out = []
        for server in range(1, self.N + 1):
            missing = [g for g, members in enumerate(groups) if server not in members]
            offsets = (copies + np.array(missing, dtype=np.intp)).reshape(-1)
            offsets.flags.writeable = False
            out.append(offsets)
        return tuple(out)


def derive_dims(params: SchemeParams) -> DerivedDims:
    """Compute (r, n, alpha) and the demand shape; r/n is never reduced.
    The alpha*C(N,S) key columns are r*Nr - n, so f_rows = r*Nr."""
    r, n, alpha = feasible_counts(params.N, params.Nr, params.M, params.S)
    keys = r * params.Nr - n
    return DerivedDims(
        K=params.K,
        N=params.N,
        S=params.S,
        r=r,
        n=n,
        alpha=alpha,
        f_rows=r * params.Nr,
        f_cols=n * params.K + keys,
    )


# ---- data assignment --------------------------------------------------------


def is_integer(value: object) -> bool:
    """An int or numpy integer, and not a bool: the test for a server id."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _server_id(value: object) -> int:
    if not is_integer(value):
        raise BadAssignment(f"server id {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class DataAssignment:
    """Which servers hold each dataset."""

    dataset_servers: Tuple[FrozenSet[int], ...]

    @classmethod
    def from_datasets(
        cls, n_servers: int, datasets: Iterable[Iterable[int]]
    ) -> "DataAssignment":
        """Server ids are 1-based ints or numpy integers; any other value,
        such as a float, a string or a bool, raises BadAssignment.
        n_servers is not read: validate_assignment checks the ids against
        the parameters."""
        return cls(tuple(frozenset(_server_id(s) for s in d) for d in datasets))

    @property
    def K(self) -> int:
        return len(self.dataset_servers)

    def holders(self, dataset: int) -> FrozenSet[int]:
        """1-based dataset index."""
        return self.dataset_servers[dataset - 1]

    def non_holders(self, dataset: int, n_servers: int) -> FrozenSet[int]:
        return frozenset(range(1, n_servers + 1)) - self.holders(dataset)


def cyclic_assignment(params: SchemeParams) -> DataAssignment:
    """D_k = {((k-1+j) mod N)+1 : j in [0, M-1]}; exactly M servers each."""
    sets = [
        [((k - 1 + j) % params.N) + 1 for j in range(params.M)]
        for k in range(1, params.K + 1)
    ]
    return DataAssignment.from_datasets(params.N, sets)


def random_assignment(params: SchemeParams, rng: SeededRng) -> DataAssignment:
    """Heterogeneous assignment: each dataset lands on a uniform subset of a
    uniform size from [M, N]. Deterministic in the rng seed."""
    sizes = uniform_ints(rng, params.N - params.M + 1, params.K).astype(np.int64)
    sets = []
    for k in range(params.K):
        order = np.argsort(rng.raw(params.N), kind="stable")
        sets.append([int(s) + 1 for s in order[: int(sizes[k]) + params.M]])
    return DataAssignment.from_datasets(params.N, sets)


def validate_assignment(
    params: SchemeParams, assignment: DataAssignment
) -> Tuple[str, ...]:
    """Empty tuple when valid, else one message per violation."""
    violations: List[str] = []
    if assignment.K != params.K:
        violations.append(
            f"assignment lists {assignment.K} datasets, params say {params.K}"
        )
    servers = frozenset(range(1, params.N + 1))
    for k, holders in enumerate(assignment.dataset_servers, start=1):
        if not holders <= servers:
            violations.append(f"dataset {k} names servers outside [1, {params.N}]")
        if len(holders) < params.M:
            violations.append(
                f"dataset {k} on {len(holders)} servers, below replication {params.M}"
            )
    return tuple(violations)


# ---- coding matrix ----------------------------------------------------------


def _sample_coding(
    params: SchemeParams, dims: DerivedDims, rng: SeededRng
) -> np.ndarray:
    """Uniform C, zero in every server's rows at its hidden key columns."""
    arr = sample_array(rng, params.q, dims.r * params.N * dims.f_rows)
    arr = arr.reshape(dims.r * params.N, dims.f_rows)
    for server in range(1, params.N + 1):
        cols = dims.n + dims.hidden_key_offsets(server)
        arr[np.ix_(dims.server_rows([server]), cols)] = 0
    return arr


def recommended_min_q(
    params: SchemeParams, dims: DerivedDims, assignment: DataAssignment
) -> int:
    """Smallest field size the degree bound certifies for random success;
    the worst non-holder count is taken over datasets."""
    worst = max(
        (len(assignment.non_holders(k, params.N)) for k in range(1, params.K + 1)),
        default=0,
    )
    return (
        dims.r * worst * params.K
        + dims.r * params.Nr * comb0(params.N, params.Nr)
        + 1
    )


# ---- demand matrix ----------------------------------------------------------


def demand_pattern(dims: DerivedDims, field: FieldModulus) -> np.ndarray:
    """F with its fixed blocks in place and F2 = 0: row i of F1 is 1 on the
    K columns of piece i, the upper-right block is zero, and F3 = I."""
    f = np.zeros((dims.f_rows, dims.f_cols), dtype=field.dtype())
    nk = np.arange(dims.n * dims.K)
    f[nk // dims.K, nk] = 1
    f[np.arange(dims.n, dims.f_rows), np.arange(nk.size, dims.f_cols)] = 1
    return f


def _attempt(
    arr: np.ndarray,
    params: SchemeParams,
    dims: DerivedDims,
    assignment: DataAssignment,
) -> Tuple[Optional[str], Optional[np.ndarray]]:
    """(None, F) when the sampled C passes every rank certification, else
    (a description of the first defect, None).

    Every size-Nr subset's C_U must be invertible. Then, because F1
    restricted to a dataset's columns is the identity, the F2 columns of
    dataset k solve C_Q X = -C_G on the rows of its non-holders, which
    depends on k only through that set. One solve per distinct set, in
    sorted order, writes the canonical X into F. It raises Unsolvable
    exactly when C_Q lacks full row rank: n = r*Nr - C(N,S)*(N-M) >= 1 with
    r <= C(N,S) gives N - M <= Nr - 1, so the non-holders lie in a responder
    subset the scan proved invertible and their rows [C_G | C_Q] are
    independent, yet a consistent system with y C_Q = 0 has y C_G = 0."""
    field = params.q
    _, failure = first_singular_subset(arr, field.q, dims.r, params.N, params.Nr)
    if failure is not None:
        return f"responder subset {failure} is not invertible", None
    datasets: Dict[FrozenSet[int], List[int]] = {}
    for k in range(1, params.K + 1):
        dbar = assignment.non_holders(k, params.N)
        if dbar:
            datasets.setdefault(dbar, []).append(k)
    f = demand_pattern(dims, field)
    for dbar in sorted(datasets, key=sorted):
        sub = arr[dims.server_rows(sorted(dbar))]
        try:
            x = solve_linear(
                FieldMatrix.wrap(sub[:, dims.n :], field),
                FieldMatrix.wrap((-sub[:, : dims.n]) % field.q, field),
            )
        except Unsolvable:
            return f"key rows of non-holders {sorted(dbar)} lack full row rank", None
        for k in datasets[dbar]:
            f[dims.n :, dims.gradient_columns(k)] = x.data
    return None, f


_FIXED_BLOCK_ERRORS = {
    "F1": "F1 is not the piece-sum pattern",
    "upper-right": "upper-right block of F is not zero",
    "F3": "F3 is not the identity",
}


def broken_fixed_block(
    f: np.ndarray, dims: DerivedDims, field: FieldModulus
) -> Optional[str]:
    """The first of F's fixed blocks, "F1", "upper-right" or "F3", that
    differs from demand_pattern, or None when all three match."""
    pattern = demand_pattern(dims, field)
    n, nk = dims.n, dims.n * dims.K
    for name, block in (
        ("F1", np.s_[:n, :nk]),
        ("upper-right", np.s_[:n, nk:]),
        ("F3", np.s_[n:, nk:]),
    ):
        if not np.array_equal(f[block], pattern[block]):
            return name
    return None


# ---- full scheme ------------------------------------------------------------


def refuse_above_cap(entries: int) -> None:
    """TooLarge when entries exceeds MAX_MATRIX_ENTRIES."""
    if entries > MAX_MATRIX_ENTRIES:
        # A huge count may have more digits than Python converts to a string.
        shown = entries if entries.bit_length() <= 64 else f"2^{entries.bit_length() - 1}"
        raise TooLarge(
            f"C or F would hold at least {shown} entries, "
            f"above the cap of {MAX_MATRIX_ENTRIES}"
        )


def _checked_dims(
    params: SchemeParams,
) -> Tuple[DerivedDims, Tuple[Tuple[int, int], Tuple[int, int]]]:
    """derive_dims and the shapes of C and F; TooLarge above
    MAX_MATRIX_ENTRIES entries. C is r*N x r*Nr with r >= 1 on every
    feasible tuple, so N*Nr above the cap is refused before derive_dims
    computes a single binomial."""
    refuse_above_cap(params.N * params.Nr)
    dims = derive_dims(params)
    shapes = (dims.r * dims.N, dims.f_rows), (dims.f_rows, dims.f_cols)
    refuse_above_cap(max(rows * cols for rows, cols in shapes))
    return dims, shapes


@dataclass(frozen=True)
class SchemeArtifact:
    """A built scheme: parameters, dimensions, assignment, the coding
    matrix C, the demand matrix F, and the randomness bookkeeping that
    reproduces them."""

    params: SchemeParams
    dims: DerivedDims
    assignment: DataAssignment
    c: FieldMatrix
    f: FieldMatrix
    seed: int
    retries_used: int

    @cached_property
    def decoder(self) -> SubsetDecoder:
        """The piece sums, the first n rows of C_U^-1 X_U, from any responder
        subset's stacked messages. Built from C on first use, so one artifact
        eliminates its C_U0 once; raises exactmat.Singular naming U0 when
        C_U0 is singular. certify never reads it."""
        p = self.params
        return SubsetDecoder(self.c.data, p.q.q, self.dims.r, p.Nr, self.dims.n)


def build_scheme(
    params: SchemeParams,
    assignment: Optional[DataAssignment] = None,
    seed: int = 0,
) -> SchemeArtifact:
    """derive_dims, then sample C and build F until an attempt passes, or raise
    ConstructionFailed after RETRY_LIMIT; deterministic in (params, assignment,
    seed). Raises TooLarge, before allocating C or F, above MAX_MATRIX_ENTRIES
    entries in either (N*Nr above the cap is refused before derive_dims)."""
    dims, _ = _checked_dims(params)
    if assignment is None:
        assignment = cyclic_assignment(params)
    violations = validate_assignment(params, assignment)
    if violations:
        raise BadAssignment("; ".join(violations))
    rng = SeededRng(seed).spawn("coding")
    for attempt in range(RETRY_LIMIT):
        arr = _sample_coding(params, dims, rng.spawn(f"sample-{attempt}"))
        defect, f = _attempt(arr, params, dims, assignment)
        if f is not None:
            return SchemeArtifact(
                params=params, dims=dims, assignment=assignment, seed=seed, retries_used=attempt,
                c=FieldMatrix.wrap(arr, params.q), f=FieldMatrix.wrap(f, params.q),
            )
    raise ConstructionFailed(
        f"{RETRY_LIMIT} attempts failed (last: {defect}); "
        f"q={params.q.q} is below the recommended minimum "
        f"{recommended_min_q(params, dims, assignment)}"
    )


# ---- serialization ----------------------------------------------------------

_PARAMS = ("K", "N", "Nr", "M", "S")


def _matrix_json(mat: FieldMatrix) -> str:
    """The matrix as json.dumps(indent=2) writes it inside the artifact
    (format v1), with its entries formatted by one C-level %."""
    values = mat.data.reshape(-1).tolist()
    data = ('      "%d",\n' * len(values) % tuple(values))[:-2]
    head = f'{{\n    "rows": {mat.rows},\n    "cols": {mat.cols},\n    "q": "{mat.modulus.q}",\n'
    return f'{head}    "data": [\n{data}\n    ]\n  }}'


def artifact_to_json(artifact: SchemeArtifact) -> str:
    header = {
        "format_version": FORMAT_VERSION,
        **{key: getattr(artifact.params, key) for key in _PARAMS},
        "q": str(artifact.params.q.q),
        "seed": artifact.seed,
        "retries_used": artifact.retries_used,
        "assignment": {"D": [sorted(d) for d in artifact.assignment.dataset_servers]},
    }
    c, f = _matrix_json(artifact.c), _matrix_json(artifact.f)
    return json.dumps(header, indent=2)[:-2] + f',\n  "C": {c},\n  "F": {f}\n}}\n'


def _json_int(value: object, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{what} {value!r} is not a JSON integer")
    return value


def _decimal(value: object, what: str) -> int:
    if not (isinstance(value, str) and value.isascii() and value.isdigit()):
        raise ParseError(f"{what} {value!r} is not a decimal string")
    return int(value)


def _matrix_data(name: str, obj: dict, shape: Tuple[int, int], q: int) -> list:
    """The entry list of C or F, once its q, shape and length match."""
    if _decimal(obj["q"], f"{name} q") != q:
        raise ParseError(f"matrix {name} modulus differs from header q")
    got = tuple(_json_int(obj[key], f"{name} {key}") for key in ("rows", "cols"))
    if got != shape:
        raise ParseError(f"{name} shape {got} does not match parameters")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != shape[0] * shape[1]:
        raise ParseError(f"{name} data does not hold rows*cols entries")
    return data


def _entries(data: list, field: FieldModulus) -> np.ndarray:
    """ASCII decimal strings below q, converted in one numpy call."""
    digits = "".join(data)
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError("matrix entries must be ASCII decimal strings")
    # An empty entry leaves a double space, which the parse skips; a value
    # above 2^63 - 1 saturates, and the range check refuses it.
    arr = np.fromstring(" ".join(data), dtype=np.int64, sep=" ")
    if arr.size != len(data):
        raise ParseError("empty matrix entry")
    if arr.max() >= field.q:
        raise ParseError("entry outside [0, q)")
    return arr.astype(field.dtype(), copy=False)


def artifact_from_json(text: str) -> SchemeArtifact:
    """Parse and check an artifact, failing fast: the header (JSON integers,
    a prime decimal q), the size cap (N*Nr before feasibility, then C and
    F), the assignment, each matrix's q, shape and length, and only then the
    entries and F's fixed blocks."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("artifact must be a JSON object")
    try:
        version = _json_int(obj["format_version"], "format_version")
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported format_version {version}")
        field = make_field(_decimal(obj["q"], "q"))
        params = SchemeParams(**{k: _json_int(obj[k], k) for k in _PARAMS}, q=field)
        seed, retries = (_json_int(obj[k], k) for k in ("seed", "retries_used"))
        dims, shapes = _checked_dims(params)
        assignment = DataAssignment.from_datasets(params.N, obj["assignment"]["D"])
        violations = validate_assignment(params, assignment)
        if violations:
            raise ParseError("; ".join(violations))
        data = [_matrix_data(n, obj[n], s, field.q) for n, s in zip("CF", shapes)]
        c, f = (_entries(d, field).reshape(s) for d, s in zip(data, shapes))
    except (ParseError, Infeasible):
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed artifact: {exc}") from exc
    broken = broken_fixed_block(f, dims, field)
    if broken is not None:
        raise ParseError(_FIXED_BLOCK_ERRORS[broken])
    return SchemeArtifact(
        params=params, dims=dims, assignment=assignment, seed=seed, retries_used=retries,
        c=FieldMatrix.wrap(c, field), f=FieldMatrix.wrap(f, field),
    )
