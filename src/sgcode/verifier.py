"""Machine checks for a built scheme: decodability over every responder
subset, encodability of the unassigned-data and unavailable-key pattern,
security (zero leakage by structure when F's fixed blocks hold, else the
exact rank-based conditional mutual information), counting and monotonicity
identities, and a brute-force entropy oracle that validates the rank method
on tiny instances."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactmat import FieldMatrix, first_singular_subset, pivot_columns, rank
from .field import TooLarge
from .keyspace import comb0, omega_closed
from .scheme import (
    SchemeArtifact,
    SchemeParams,
    broken_fixed_block,
    demand_pattern,
    derive_dims,
)

BRUTE_FORCE_LIMIT = 10**6


@dataclass(frozen=True)
class LinearObservable:
    """A linear function of the message variables (all gradient pieces, then
    all key pieces), one output per coefficient row."""

    coeff: FieldMatrix


def rank_entropy(obs: LinearObservable) -> Fraction:
    """Entropy of a linear function of iid uniform field variables, in log-q
    units per symbol column: exactly the coefficient rank."""
    return Fraction(rank(obs.coeff))


# ---- decodability and encodability ------------------------------------------


@dataclass(frozen=True)
class DecodabilityReport:
    subsets_checked: int
    passed: bool
    first_failure: Optional[Tuple[int, ...]]


def verify_decodability(scheme: SchemeArtifact) -> DecodabilityReport:
    """Every size-Nr responder subset must stack to an invertible C_U."""
    params = scheme.params
    checked, failure = first_singular_subset(
        scheme.c.data, params.q.q, scheme.dims.r, params.N, params.Nr
    )
    return DecodabilityReport(checked, failure is None, failure)


@dataclass(frozen=True)
class EncodabilityReport:
    violations: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_encodability(scheme: SchemeArtifact) -> EncodabilityReport:
    """Demand zeros of P = C F at every (server, column) pair the server must
    not touch: pieces of unassigned datasets and pieces of unavailable keys.
    Only those entries are formed: C's non-holder rows times F's gradient
    columns, one product per dataset, and C times F's key columns."""
    params, dims = scheme.params, scheme.dims
    c, f = scheme.c, scheme.f
    violations: List[str] = []
    for k in range(1, params.K + 1):
        servers = sorted(scheme.assignment.non_holders(k, params.N))
        if not servers:
            continue
        touched = c.take_rows(dims.server_rows(servers)) @ f.take_cols(dims.gradient_columns(k))
        for server, block in zip(servers, touched.data.reshape(len(servers), -1)):
            if np.any(block):
                violations.append(f"server {server} touches unassigned dataset {k}")
    keys = (c @ f.take_cols(range(dims.n * params.K, dims.f_cols))).data
    for server in range(1, params.N + 1):
        if np.any(keys[dims.server_rows([server])][:, dims.hidden_key_offsets(server)]):
            violations.append(f"server {server} touches an unavailable key")
    return EncodabilityReport(tuple(violations))


# ---- security ---------------------------------------------------------------


def _transcript_coeff(scheme: SchemeArtifact) -> np.ndarray:
    return (scheme.c @ scheme.f).data


def _sum_coeff(scheme: SchemeArtifact) -> np.ndarray:
    """[F1 | 0]: the piece sums as a function of the message variables."""
    return demand_pattern(scheme.dims, scheme.params.q)[: scheme.dims.n]


def _gradient_coeff(scheme: SchemeArtifact) -> np.ndarray:
    """[I | 0]: the gradient pieces themselves."""
    dims = scheme.dims
    nk = dims.n * scheme.params.K
    out = np.zeros((nk, dims.f_cols), dtype=scheme.params.q.dtype())
    np.fill_diagonal(out[:, :nk], 1)
    return out


def conditional_mi_rank(scheme: SchemeArtifact) -> Fraction:
    """I(all transcripts ; gradients | gradient sum), exactly, in log-q units
    per symbol column:

        [rank([A; Ssum]) - rank(Ssum)] - [rank([A; G]) - rank(G)]

    with A = C F, Ssum = [F1 | 0], G = [I | 0]. Both stacked ranks reduce
    structurally: G's identity block clears A's gradient columns, so
    rank([A; G]) = nK + rank(A_keys); Ssum's rows have disjoint supports
    (one per piece, covering its K dataset columns), so eliminating them
    replaces each piece's columns by differences against its first dataset
    column and rank([A; Ssum]) = n + rank([A_keys | A_diff]). The subtracted
    terms rank(Ssum) = n and rank(G) = nK cancel exactly. One column-ordered
    elimination of [A_keys | A_diff] gives both ranks: rank(A_keys) is the
    number of its pivots among the leading key columns."""
    a = _transcript_coeff(scheme)
    dims = scheme.dims
    params = scheme.params
    q = params.q.q
    nk = dims.n * params.K
    a_keys = a[:, nk:]
    blocks = a[:, :nk].reshape(a.shape[0], dims.n, params.K)
    diffs = (blocks[:, :, 1:] - blocks[:, :, :1]) % q
    diffs = diffs.reshape(a.shape[0], dims.n * (params.K - 1))
    given_sum = np.concatenate([a_keys, diffs], axis=1)
    pivots = pivot_columns(FieldMatrix.wrap(given_sum, params.q))
    key_rank = sum(1 for c in pivots if c < a_keys.shape[1])
    return Fraction(len(pivots) - key_rank)


def conditional_mi_direct(scheme: SchemeArtifact) -> Fraction:
    """Reference implementation of the same quantity with explicit stacked
    eliminations and no structural shortcuts."""
    a = _transcript_coeff(scheme)
    ssum = _sum_coeff(scheme)
    grad = _gradient_coeff(scheme)
    field = scheme.params.q

    def _rank(arr: np.ndarray) -> int:
        return rank(FieldMatrix.wrap(arr.copy(), field))

    h_x_given_sum = _rank(np.concatenate([a, ssum], axis=0)) - _rank(ssum)
    h_x_given_g = _rank(np.concatenate([a, grad], axis=0)) - _rank(grad)
    return Fraction(h_x_given_sum - h_x_given_g)


# ---- brute-force entropy oracle ---------------------------------------------


def _entropy_from_codes(codes: np.ndarray, q: int, var_count: int) -> Fraction:
    """Exact base-q entropy of the empirical distribution of codes over all
    q^var_count equiprobable assignments. Counts must be powers of q, which
    holds for linear observables (fibers are cosets). codes holds one code
    per assignment, or one row of chunk codes per assignment."""
    _, counts = np.unique(
        codes, axis=0 if codes.ndim > 1 else None, return_counts=True
    )
    total = q**var_count
    acc = Fraction(0)
    for c, times in zip(*np.unique(counts, return_counts=True)):
        c = int(c)
        e = 0
        while c % q == 0:
            c //= q
            e += 1
        if c != 1:
            raise ValueError("count is not a power of q; entropy not rational")
        acc += Fraction(int(times) * e * (q**e), total)
    return Fraction(var_count) - acc


@dataclass(frozen=True)
class BruteForceReport:
    entropies: Tuple[Fraction, ...]
    joint_entropy: Fraction
    pairwise_mi: Dict[Tuple[int, int], Fraction]


def entropy_bruteforce(
    observables: Sequence[LinearObservable], q: int, var_count: int
) -> BruteForceReport:
    """Enumerate all q^var_count assignments and measure exact entropies of
    each observable, the joint, and every pairwise mutual information."""
    if q**var_count > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"{q}^{var_count} exceeds {BRUTE_FORCE_LIMIT}")
    for obs in observables:
        if obs.coeff.cols != var_count:
            raise ValueError("coefficient width differs from var_count")
        if obs.coeff.modulus.q != q:
            raise ValueError("observable modulus differs from q")
    total = q**var_count
    idx = np.arange(total, dtype=np.int64)
    assign = np.empty((total, var_count), dtype=np.int64)
    for j in range(var_count):
        assign[:, j] = (idx // q**j) % q
    # Up to `per` output rows pack into one int64 code below q^per <= 2^63;
    # per <= 63 since q >= 2.
    per = 1
    while per < 63 and q ** (per + 1) <= 1 << 63:
        per += 1
    weights = q ** np.arange(per, dtype=np.int64)

    def _entropy(group: Sequence[LinearObservable]) -> Fraction:
        """Exact entropy of the group's stacked outputs."""
        coeff = np.concatenate([obs.coeff.data for obs in group], axis=0)
        vals = assign @ coeff.T.astype(np.int64) % q
        rows = vals.shape[1]
        if rows <= per:
            codes = vals @ weights[:rows]
        else:
            chunks = [vals[:, i : i + per] for i in range(0, rows, per)]
            codes = np.stack([c @ weights[: c.shape[1]] for c in chunks], axis=1)
        return _entropy_from_codes(codes, q, var_count)

    entropies = tuple(_entropy([obs]) for obs in observables)
    joint = _entropy(observables) if observables else Fraction(0)
    pairwise = {
        (i, j): entropies[i] + entropies[j] - _entropy([a, b])
        for (i, a), (j, b) in combinations(enumerate(observables), 2)
    }
    return BruteForceReport(
        entropies=entropies, joint_entropy=joint, pairwise_mi=pairwise
    )


# ---- monotonicity -----------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    f_values: Tuple[Fraction, ...]
    g_values: Tuple[Fraction, ...]
    f_strictly_decreasing: bool
    g_non_increasing: bool
    f_endpoint_is_r: bool
    g_endpoint_is_r: bool

    @property
    def passed(self) -> bool:
        return (
            self.f_strictly_decreasing
            and self.g_non_increasing
            and self.f_endpoint_is_r
            and self.g_endpoint_is_r
        )


def verify_monotonicity(params: SchemeParams) -> MonotonicityReport:
    """Evaluate f(x) = alpha*(C(N,S) - C(N-x,S))/x over x in [N-M] and
    g(x) = (n + alpha*(C(N,S) - C(N-x,S)))/x over x in [Nr], exactly."""
    dims = derive_dims(params)
    N, S = params.N, params.S
    f_vals = tuple(
        Fraction(dims.alpha * omega_closed(N, S, x), x)
        for x in range(1, N - params.M + 1)
    )
    g_vals = tuple(
        Fraction(dims.n + dims.alpha * omega_closed(N, S, x), x)
        for x in range(1, params.Nr + 1)
    )
    return MonotonicityReport(
        f_values=f_vals,
        g_values=g_vals,
        f_strictly_decreasing=all(
            a > b for a, b in zip(f_vals, f_vals[1:])
        ),
        g_non_increasing=all(a >= b for a, b in zip(g_vals, g_vals[1:])),
        f_endpoint_is_r=(not f_vals) or f_vals[-1] == dims.r,
        g_endpoint_is_r=(not g_vals) or g_vals[-1] == dims.r,
    )


# ---- certification ----------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    decodability: DecodabilityReport
    encodability: EncodabilityReport
    security_mi: Fraction
    dims_identity: bool
    broken_block: Optional[str]

    @property
    def passed(self) -> bool:
        return (
            self.decodability.passed
            and self.encodability.passed
            and self.security_mi == 0
            and self.dims_identity
            and self.broken_block is None
        )

    def to_json_dict(self) -> dict:
        return {
            "decodability": {
                "subsets_checked": self.decodability.subsets_checked,
                "pass": self.decodability.passed,
                "first_failure": (
                    list(self.decodability.first_failure)
                    if self.decodability.first_failure
                    else None
                ),
            },
            "encodability": {"violations": list(self.encodability.violations)},
            "security": {"mi_value": str(self.security_mi)},
            "dims": {"identity_holds": self.dims_identity},
            "fixed_blocks": {"first_broken": self.broken_block},
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _dims_identity(scheme: SchemeArtifact) -> bool:
    dims, params = scheme.dims, scheme.params
    groups = comb0(params.N, params.S)
    return (
        dims.r == groups - comb0(params.M, params.S)
        and dims.alpha == params.N - params.M
        and dims.n == dims.r * params.Nr - groups * dims.alpha
        and dims.f_rows == dims.n + dims.alpha * groups
        and dims.f_rows == dims.r * params.Nr
        and dims.f_cols == dims.n * params.K + dims.alpha * groups
        and scheme.c.shape == (dims.r * params.N, dims.f_rows)
        and scheme.f.shape == (dims.f_rows, dims.f_cols)
    )


def certify(scheme: SchemeArtifact) -> Certificate:
    """Run every certification check; all five must pass before an artifact
    may be called certified.

    When F's fixed blocks hold, the security MI is 0 by structure, for every
    C and F2. Split C at column n into C_sum and C_key; then the key columns
    of A = C F are C_key, and the gradient column of piece i, dataset k is
    C_sum[:, i] + C_key F2[:, (i, k)]. Its difference against dataset 1 is
    C_key (F2[:, (i, k)] - F2[:, (i, 1)]), which lies in the span of A's key
    columns, so conditional_mi_rank's two ranks agree: F3 = I adds an
    independent uniform key piece to every F2 mix. When a block is broken,
    the MI is measured by conditional_mi_rank."""
    broken = broken_fixed_block(scheme.f.data, scheme.dims, scheme.params.q)
    return Certificate(
        decodability=verify_decodability(scheme),
        encodability=verify_encodability(scheme),
        security_mi=Fraction(0) if broken is None else conditional_mi_rank(scheme),
        dims_identity=_dims_identity(scheme),
        broken_block=broken,
    )
