"""Scheme parameters, derived dimensions, data assignments, and the
randomized construct-verify-retry build of the coding matrix C and the block
demand matrix F = [F1 0; F2 F3]."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .analysis import Infeasible, feasibility_violation
from .exactmat import (
    FieldMatrix,
    Unsolvable,
    assemble_blocks,
    first_singular_subset,
    solve_linear,
)
from .field import FieldModulus, SeededRng, make_field, sample_array, uniform_ints
from .keyspace import (
    KeyGroupIndex,
    availability,
    comb0,
    enumerate_groups,
    piece_counts,
)

RETRY_LIMIT = 32

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
    """Sizes hanging off the parameter tuple: r message rows per server,
    n gradient pieces, alpha key pieces, and the demand-matrix shape."""

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


def derive_dims(params: SchemeParams) -> DerivedDims:
    """Compute (r, n, alpha) and the demand shape; r/n is never reduced."""
    violation = feasibility_violation(params.N, params.Nr, params.M, params.S)
    if violation is not None:
        raise Infeasible(violation)
    r, n, alpha = piece_counts(params.N, params.Nr, params.M, params.S)
    groups = comb0(params.N, params.S)
    dims = DerivedDims(
        r=r,
        n=n,
        alpha=alpha,
        f_rows=n + alpha * groups,
        f_cols=n * params.K + alpha * groups,
    )
    assert dims.f_rows == r * params.Nr
    return dims


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of every feasibility inequality, with witnesses on failure."""

    passed: bool
    failures: Tuple[str, ...]


def check_feasibility(params: SchemeParams) -> FeasibilityReport:
    """Check the subset-size condition, positivity, and the per-size
    counting inequalities behind encodability and decodability."""
    N, Nr, M, S = params.N, params.Nr, params.M, params.S
    failures: List[str] = []
    if S < N - Nr + 2:
        failures.append(f"S >= N-Nr+2 fails: S={S} < {N - Nr + 2}")
    r, n, alpha = piece_counts(N, Nr, M, S)
    if r < 1:
        failures.append(f"message row count r={r} is not positive")
    if n < 1:
        failures.append(f"gradient piece count n={n} is not positive")
    if r >= 1 and n >= 1:
        for x in range(1, N - M + 1):
            omega = comb0(N, S) - comb0(N - x, S)
            if alpha * omega < r * x:
                failures.append(
                    f"encodability count fails at x={x}: {alpha}*{omega} < {r}*{x}"
                )
        for x in range(1, Nr + 1):
            omega = comb0(N, S) - comb0(N - x, S)
            if n + alpha * omega < r * x:
                failures.append(
                    f"decodability count fails at x={x}: {n}+{alpha}*{omega} < {r}*{x}"
                )
    return FeasibilityReport(passed=not failures, failures=tuple(failures))


# ---- data assignment --------------------------------------------------------


def _server_id(value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise BadAssignment(f"server id {value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class DataAssignment:
    """Which servers hold each dataset, and the derived per-server view."""

    dataset_servers: Tuple[FrozenSet[int], ...]
    server_datasets: Tuple[FrozenSet[int], ...]

    @classmethod
    def from_datasets(
        cls, n_servers: int, datasets: Iterable[Iterable[int]]
    ) -> "DataAssignment":
        """Server ids are 1-based ints or numpy integers; any other value,
        such as a float, a string or a bool, raises BadAssignment."""
        holders = tuple(frozenset(_server_id(s) for s in d) for d in datasets)
        per_server = tuple(
            frozenset(k + 1 for k, d in enumerate(holders) if n in d)
            for n in range(1, n_servers + 1)
        )
        return cls(dataset_servers=holders, server_datasets=per_server)

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


@dataclass(frozen=True)
class CodingMatrix:
    """Stacked per-server encoder C = [C_G | C_Q], r rows per server; the key
    block C_Q is zero wherever the key group excludes the server."""

    matrix: FieldMatrix
    r: int
    n: int

    def server_rows(self, server: int) -> np.ndarray:
        """0-based row indices of the 1-based server's block."""
        return np.arange((server - 1) * self.r, server * self.r)

    @property
    def free_block(self) -> FieldMatrix:
        return self.matrix.take_cols(range(self.n))

    @property
    def key_block(self) -> FieldMatrix:
        return self.matrix.take_cols(range(self.n, self.matrix.cols))


def _forbidden_key_cols(
    params: SchemeParams, dims: DerivedDims, index: KeyGroupIndex
) -> Dict[int, np.ndarray]:
    """Per server, the 0-based columns of C that must vanish: key piece
    (i, j) sits at column n + (j-1)*C(N,S) + (i-1)."""
    avail = availability(index)
    out: Dict[int, np.ndarray] = {}
    for server in range(1, params.N + 1):
        missing = [
            i for i in range(1, dims.group_count + 1)
            if i not in avail.per_server[server]
        ]
        cols = [
            dims.n + j * dims.group_count + (i - 1)
            for j in range(dims.alpha)
            for i in missing
        ]
        out[server] = np.array(cols, dtype=np.intp)
    return out


def _distinct_nonholder_sets(
    params: SchemeParams, assignment: DataAssignment
) -> List[FrozenSet[int]]:
    seen = {
        assignment.non_holders(k, params.N) for k in range(1, params.K + 1)
    }
    seen.discard(frozenset())
    return sorted(seen, key=sorted)


def _sample_coding(
    params: SchemeParams,
    dims: DerivedDims,
    forbidden: Dict[int, np.ndarray],
    rng: SeededRng,
) -> np.ndarray:
    arr = sample_array(rng, params.q, dims.r * params.N * dims.f_rows)
    arr = arr.reshape(dims.r * params.N, dims.f_rows)
    for server in range(1, params.N + 1):
        cols = forbidden[server]
        if cols.size:
            arr[(server - 1) * dims.r : server * dims.r, cols] = 0
    return arr


def _nonholder_solution(
    arr: np.ndarray, dims: DerivedDims, dbar: FrozenSet[int], field: FieldModulus
) -> np.ndarray:
    """The canonical solution X of C_Q(non-holder rows) X = -C_G(non-holder
    rows): F2's columns for every dataset that the servers dbar lack.

    Raises Unsolvable when C_Q(non-holder rows) lacks full row rank. The
    identity columns appended to the right-hand side make the system
    solvable exactly then, and leave the canonical solution of the other
    columns unchanged, so one elimination both checks the rank and solves.
    """
    rows = np.concatenate(
        [np.arange((s - 1) * dims.r, s * dims.r) for s in sorted(dbar)]
    )
    sub = arr[rows]
    rhs = np.concatenate(
        [(-sub[:, : dims.n]) % field.q, np.eye(rows.size, dtype=sub.dtype)], axis=1
    )
    x = solve_linear(
        FieldMatrix.wrap(sub[:, dims.n :], field), FieldMatrix.wrap(rhs, field)
    )
    return x.data[:, : dims.n]


def _coding_defect(
    arr: np.ndarray,
    params: SchemeParams,
    dims: DerivedDims,
    assignment: DataAssignment,
    field: FieldModulus,
) -> Tuple[Optional[str], Dict[FrozenSet[int], np.ndarray]]:
    """(None, F2 solutions per distinct non-holder set) when every rank
    certification passes, else (a description, {})."""
    _, failure = first_singular_subset(arr, field.q, dims.r, params.N, params.Nr)
    if failure is not None:
        return f"responder subset {failure} is not invertible", {}
    solutions: Dict[FrozenSet[int], np.ndarray] = {}
    for dbar in _distinct_nonholder_sets(params, assignment):
        try:
            solutions[dbar] = _nonholder_solution(arr, dims, dbar, field)
        except Unsolvable:
            return f"key rows of non-holders {sorted(dbar)} lack full row rank", {}
    return None, solutions


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


def _build_coding(
    params: SchemeParams,
    dims: DerivedDims,
    assignment: DataAssignment,
    rng: SeededRng,
) -> Tuple[CodingMatrix, int, Dict[FrozenSet[int], np.ndarray]]:
    index = enumerate_groups(params.N, params.S)
    forbidden = _forbidden_key_cols(params, dims, index)
    defect: Optional[str] = "no attempt made"
    for attempt in range(RETRY_LIMIT):
        arr = _sample_coding(params, dims, forbidden, rng.spawn(f"sample-{attempt}"))
        defect, solutions = _coding_defect(arr, params, dims, assignment, params.q)
        if defect is None:
            coding = CodingMatrix(
                matrix=FieldMatrix.wrap(arr, params.q), r=dims.r, n=dims.n
            )
            return coding, attempt, solutions
    raise ConstructionFailed(
        f"{RETRY_LIMIT} attempts failed (last: {defect}); "
        f"q={params.q.q} is below the recommended minimum "
        f"{recommended_min_q(params, dims, assignment)}"
    )


# ---- demand matrix ----------------------------------------------------------


@dataclass(frozen=True)
class DemandMatrix:
    """F = [F1 0; F2 F3]: F1 extracts piece sums, F2 carries the solved key
    coefficients, F3 stays the identity."""

    f1: FieldMatrix
    f2: FieldMatrix
    f3: FieldMatrix
    matrix: FieldMatrix


def gradient_columns(dims: DerivedDims, params: SchemeParams, dataset: int) -> List[int]:
    """0-based F columns of the dataset's pieces: 1-based {k + (i-1)K}."""
    return [(dataset - 1) + i * params.K for i in range(dims.n)]


def _f1_array(dims: DerivedDims, params: SchemeParams) -> np.ndarray:
    arr = np.zeros((dims.n, dims.n * params.K), dtype=params.q.dtype())
    for i in range(dims.n):
        arr[i, i * params.K : (i + 1) * params.K] = 1
    return arr


def _demand_matrix(
    params: SchemeParams,
    dims: DerivedDims,
    assignment: DataAssignment,
    solutions: Dict[FrozenSet[int], np.ndarray],
) -> DemandMatrix:
    """F1 by pattern, F3 = identity, and F2's columns from the solutions.

    Because F1 restricted to a dataset's columns is the identity, the F2
    columns of dataset k solve C_Q(non-holder rows) X = -C_G(non-holder
    rows), which depends on k only through its non-holder set; solutions
    holds one canonical solution per set (_nonholder_solution)."""
    f1 = FieldMatrix.wrap(_f1_array(dims, params), params.q)
    f2_arr = np.zeros((dims.key_cols, dims.n * params.K), dtype=params.q.dtype())
    for k in range(1, params.K + 1):
        dbar = assignment.non_holders(k, params.N)
        if dbar:
            f2_arr[:, gradient_columns(dims, params, k)] = solutions[dbar]
    f2 = FieldMatrix.wrap(f2_arr, params.q)
    f3 = FieldMatrix.identity(dims.key_cols, params.q)
    zero = FieldMatrix.zeros(dims.n, dims.key_cols, params.q)
    return DemandMatrix(
        f1=f1, f2=f2, f3=f3, matrix=assemble_blocks([[f1, zero], [f2, f3]])
    )


# ---- full scheme ------------------------------------------------------------


@dataclass(frozen=True)
class SchemeArtifact:
    """A built scheme: parameters, dimensions, assignment, both matrices,
    and the randomness bookkeeping that reproduces them."""

    params: SchemeParams
    dims: DerivedDims
    assignment: DataAssignment
    coding: CodingMatrix
    demand: DemandMatrix
    seed: int
    retries_used: int

    @property
    def c(self) -> FieldMatrix:
        return self.coding.matrix

    @property
    def f(self) -> FieldMatrix:
        return self.demand.matrix


def build_scheme(
    params: SchemeParams,
    assignment: Optional[DataAssignment] = None,
    seed: int = 0,
) -> SchemeArtifact:
    """derive_dims, then construct C and F; deterministic in
    (params, assignment, seed)."""
    dims = derive_dims(params)
    if assignment is None:
        assignment = cyclic_assignment(params)
    violations = validate_assignment(params, assignment)
    if violations:
        raise BadAssignment("; ".join(violations))
    rng = SeededRng(seed).spawn("coding")
    coding, retries, solutions = _build_coding(params, dims, assignment, rng)
    demand = _demand_matrix(params, dims, assignment, solutions)
    return SchemeArtifact(
        params=params,
        dims=dims,
        assignment=assignment,
        coding=coding,
        demand=demand,
        seed=seed,
        retries_used=retries,
    )


# ---- serialization ----------------------------------------------------------


def artifact_to_json_dict(artifact: SchemeArtifact) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "K": artifact.params.K,
        "N": artifact.params.N,
        "Nr": artifact.params.Nr,
        "M": artifact.params.M,
        "S": artifact.params.S,
        "q": str(artifact.params.q.q),
        "seed": artifact.seed,
        "retries_used": artifact.retries_used,
        "assignment": {
            "D": [sorted(d) for d in artifact.assignment.dataset_servers]
        },
        "C": artifact.c.to_json_dict(),
        "F": artifact.f.to_json_dict(),
    }


def artifact_to_json(artifact: SchemeArtifact) -> str:
    return json.dumps(artifact_to_json_dict(artifact), indent=2) + "\n"


def artifact_from_json_dict(obj: dict) -> SchemeArtifact:
    try:
        version = obj["format_version"]
        if version != FORMAT_VERSION:
            raise ParseError(f"unsupported format_version {version}")
        field = make_field(int(obj["q"]))
        params = SchemeParams(
            K=int(obj["K"]),
            N=int(obj["N"]),
            Nr=int(obj["Nr"]),
            M=int(obj["M"]),
            S=int(obj["S"]),
            q=field,
        )
        assignment = DataAssignment.from_datasets(params.N, obj["assignment"]["D"])
        c_mat = FieldMatrix.from_json_dict(obj["C"])
        f_mat = FieldMatrix.from_json_dict(obj["F"])
        seed = int(obj["seed"])
        retries = int(obj["retries_used"])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed artifact: {exc}") from exc
    dims = derive_dims(params)
    for name, mat in (("C", c_mat), ("F", f_mat)):
        if mat.modulus != field:
            raise ParseError(f"matrix {name} modulus differs from header q")
    if c_mat.shape != (dims.r * params.N, dims.f_rows):
        raise ParseError(f"C shape {c_mat.shape} does not match parameters")
    if f_mat.shape != (dims.f_rows, dims.f_cols):
        raise ParseError(f"F shape {f_mat.shape} does not match parameters")
    nk = dims.n * params.K
    f1 = f_mat.take_rows(range(dims.n)).take_cols(range(nk))
    f2 = f_mat.take_rows(range(dims.n, dims.f_rows)).take_cols(range(nk))
    f3 = f_mat.take_rows(range(dims.n, dims.f_rows)).take_cols(
        range(nk, dims.f_cols)
    )
    return SchemeArtifact(
        params=params,
        dims=dims,
        assignment=assignment,
        coding=CodingMatrix(matrix=c_mat, r=dims.r, n=dims.n),
        demand=DemandMatrix(f1=f1, f2=f2, f3=f3, matrix=f_mat),
        seed=seed,
        retries_used=retries,
    )


def artifact_from_json(text: str) -> SchemeArtifact:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("artifact must be a JSON object")
    return artifact_from_json_dict(obj)
