"""Checks on the program's outputs that share none of its arithmetic.

Everything here is computed from the paper's closed forms and from the
artifact text itself: the dimensions, the demand-matrix pattern, an exact
modular product, an exact GF(q) elimination, the encodability zero pattern
and the conditional mutual information from ranks. A check returns a list
of failure messages; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# Limb width of the modular product: a product of two 21-bit limbs summed
# over at most 2^11 terms stays below 2^53, so float64 sums are exact.
LIMB_BITS = 21
LIMB_MASK = (1 << LIMB_BITS) - 1
MAX_INNER = 1 << (53 - 2 * LIMB_BITS)

# Up to this modulus (q - 1)^2 < 2^62, so int64 elimination cannot overflow.
INT64_MODULUS = 2**31 - 1


# ---- closed forms -----------------------------------------------------------


def closed_dims(K: int, N: int, Nr: int, M: int, S: int) -> Dict[str, int]:
    """r = C(N,S) - C(M,S), alpha = N - M, n = r*Nr - C(N,S)*alpha, and the
    shapes of C (r*N x r*Nr) and F ((n + alpha*C(N,S)) x (n*K + alpha*C(N,S)))."""
    groups = comb(N, S)
    r = groups - comb(M, S)
    alpha = N - M
    n = r * Nr - groups * alpha
    return {
        "r": r,
        "n": n,
        "alpha": alpha,
        "groups": groups,
        "c_rows": r * N,
        "c_cols": n + alpha * groups,
        "f_cols": n * K + alpha * groups,
    }


# ---- exact GF(q) arithmetic -------------------------------------------------


def _dtype(q: int):
    return np.int64 if q <= INT64_MODULUS else object


def mod_matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """Exact (a @ b) mod q for int64 arrays with entries in [0, q).

    Both operands are split into 21-bit limbs and every limb product is a
    float64 matrix product whose sums stay exact; the limb products are
    then recombined with their weights 2^(21 t) mod q."""
    limbs = max(1, -(-(q - 1).bit_length() // LIMB_BITS))
    a_limbs = [((a >> (LIMB_BITS * i)) & LIMB_MASK).astype(np.float64) for i in range(limbs)]
    b_limbs = [((b >> (LIMB_BITS * i)) & LIMB_MASK).astype(np.float64) for i in range(limbs)]
    m, k = a.shape
    acc = np.zeros((m, b.shape[1]), dtype=_dtype(q))
    for t in range(2 * limbs - 1):
        part = np.zeros((m, b.shape[1]), dtype=np.int64)
        for i in range(max(0, t - limbs + 1), min(t, limbs - 1) + 1):
            for lo in range(0, k, MAX_INNER):
                s = a_limbs[i][:, lo : lo + MAX_INNER] @ b_limbs[t - i][lo : lo + MAX_INNER]
                part = (part + s.astype(np.int64) % q) % q
        acc = (acc + part.astype(acc.dtype) * pow(2, LIMB_BITS * t, q)) % q
    return acc.astype(np.int64)


def _forward(mat: np.ndarray, q: int, cols: int) -> List[int]:
    """Row-reduce mat in place to unit upper echelon form over its first
    cols columns; returns the pivot columns."""
    rows = mat.shape[0]
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(mat[r:, c])
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            mat[[r, p]] = mat[[p, r]]
        inverse = pow(int(mat[r, c]), q - 2, q)
        mat[r, c:] = mat[r, c:] * inverse % q
        lead = mat[r + 1 :, c].copy()
        mat[r + 1 :, c:] = (mat[r + 1 :, c:] - lead[:, None] * mat[r, c:]) % q
        pivots.append(c)
        r += 1
    return pivots


def mod_rank(a: np.ndarray, q: int) -> int:
    """Rank over GF(q)."""
    return len(_forward(a.astype(_dtype(q)), q, a.shape[1]))


def mod_solve_unique(a: np.ndarray, b: np.ndarray, q: int) -> Optional[np.ndarray]:
    """The unique Y with a Y = b over GF(q) for square a, or None when a is
    singular."""
    m = a.shape[0]
    aug = np.concatenate([a, b], axis=1).astype(_dtype(q))
    if len(_forward(aug, q, m)) < m:
        return None
    rhs = aug[:, m:]
    for c in range(m - 1, 0, -1):
        rhs[:c] = (rhs[:c] - aug[:c, c, None] * rhs[c]) % q
    return rhs.astype(np.int64)


# ---- the artifact as text ---------------------------------------------------


class ParsedArtifact:
    """Header, assignment, C and F read straight from the artifact JSON."""

    def __init__(self, text: str):
        obj = json.loads(text)
        self.K, self.N, self.Nr, self.M, self.S = (
            int(obj[k]) for k in ("K", "N", "Nr", "M", "S")
        )
        self.q = int(obj["q"])
        self.holders = [frozenset(int(s) for s in d) for d in obj["assignment"]["D"]]
        self.c = self._matrix(obj["C"])
        self.f = self._matrix(obj["F"])

    def _matrix(self, m: dict) -> np.ndarray:
        if int(m["q"]) != self.q:
            raise ValueError("matrix modulus differs from the header")
        values = [int(v) for v in m["data"]]
        if any(not 0 <= v < self.q for v in values):
            raise ValueError("entry outside [0, q)")
        return np.array(values, dtype=np.int64).reshape(int(m["rows"]), int(m["cols"]))

    @property
    def dims(self) -> Dict[str, int]:
        return closed_dims(self.K, self.N, self.Nr, self.M, self.S)


def tamper(text: str, parsed: ParsedArtifact) -> str:
    """The artifact with one entry of C changed so that a server touches a
    dataset it does not hold: column 0 of the first row of the first server
    lacking some dataset k. Row 0 of F is 1 at dataset k's first piece
    (column k - 1), so P at that row and column becomes 1."""
    server = next(
        s for d in parsed.holders for s in range(1, parsed.N + 1) if s not in d
    )
    row = (server - 1) * parsed.dims["r"]
    obj = json.loads(text)
    data = obj["C"]["data"]
    idx = row * int(obj["C"]["cols"])
    data[idx] = str((int(data[idx]) + 1) % parsed.q)
    return json.dumps(obj, indent=2) + "\n"


# ---- checks -----------------------------------------------------------------


def check_structure(
    art: ParsedArtifact,
    params: Tuple[int, int, int, int, int],
    q: int,
    holders: Sequence[Sequence[int]],
    reported_dims: Optional[Dict[str, int]] = None,
) -> List[str]:
    """Header, dims, shapes, the F pattern and the P = C F zero pattern."""
    errors: List[str] = []
    if (art.K, art.N, art.Nr, art.M, art.S) != tuple(params) or art.q != q:
        return [f"header {(art.K, art.N, art.Nr, art.M, art.S, art.q)} != input {params, q}"]
    if art.holders != [frozenset(d) for d in holders]:
        errors.append("assignment in the artifact differs from the input")
    d = art.dims
    for key, value in (reported_dims or {}).items():
        if d[key] != value:
            errors.append(f"{key} = {value}, closed form gives {d[key]}")
    if art.c.shape != (d["c_rows"], d["c_cols"]):
        errors.append(f"C shape {art.c.shape} != {(d['c_rows'], d['c_cols'])}")
    if art.f.shape != (d["c_cols"], d["f_cols"]):
        errors.append(f"F shape {art.f.shape} != {(d['c_cols'], d['f_cols'])}")
    if errors:
        return errors
    n, K, nk = d["n"], art.K, d["n"] * art.K
    f1 = np.zeros((n, nk), dtype=np.int64)
    for i in range(n):
        f1[i, i * K : (i + 1) * K] = 1
    if not np.array_equal(art.f[:n, :nk], f1):
        errors.append("F1 is not the piece-sum pattern")
    if np.any(art.f[:n, nk:]):
        errors.append("upper-right block of F is not zero")
    if not np.array_equal(art.f[n:, nk:], np.eye(d["c_cols"] - n, dtype=np.int64)):
        errors.append("F3 is not the identity")
    errors.extend(check_encodability(art, mod_matmul(art.c, art.f, q)))
    return errors


def check_encodability(art: ParsedArtifact, p: np.ndarray) -> List[str]:
    """P is zero at every unassigned-dataset column and every unavailable-key
    column of each server; key piece (group g, copy j) is column
    nK + j*C(N,S) + g over the lexicographic S-subsets."""
    d = art.dims
    r, n, K = d["r"], d["n"], art.K
    groups = list(combinations(range(1, art.N + 1), art.S))
    errors = []
    for s in range(1, art.N + 1):
        rows = p[(s - 1) * r : s * r]
        data_cols = [k + i * K for k, h in enumerate(art.holders) if s not in h for i in range(n)]
        key_cols = [
            n * K + j * d["groups"] + g
            for j in range(d["alpha"])
            for g, group in enumerate(groups)
            if s not in group
        ]
        if np.any(rows[:, data_cols]):
            errors.append(f"server {s} touches a dataset it does not hold")
        if np.any(rows[:, key_cols]):
            errors.append(f"server {s} touches a key it does not have")
    return errors


def check_decoding_and_security(art: ParsedArtifact, seed: int) -> List[str]:
    """For every responder subset U, solve C_U Y = C_U F W for a drawn W and
    compare the first n rows of Y with the per-piece gradient sums; then
    require I(transcripts; gradients | sum) = 0 from ranks of A = C F.

    The MI is [rank([A; Ssum]) - n] - [rank([A; G]) - nK] with G = [I | 0]
    and Ssum = [F1 | 0]. G's identity spans the gradient coordinates, so
    rank([A; G]) = nK + rank(A_keys); Ssum's rows have disjoint supports
    summing each piece's K columns, so rank([A; Ssum]) = n +
    rank([A_keys | A_diff]) with A_diff the differences against each
    piece's first dataset column."""
    d, q, K = art.dims, art.q, art.K
    r, n, nk = d["r"], d["n"], d["n"] * art.K
    rng = np.random.default_rng(seed)
    w = rng.integers(0, q, size=(d["f_cols"], 2), dtype=np.int64)
    cfw = mod_matmul(art.c, mod_matmul(art.f, w, q), q)
    sums = (w[:nk].reshape(n, K, 2).astype(object).sum(axis=1) % q).astype(np.int64)
    errors = []
    for subset in combinations(range(1, art.N + 1), art.Nr):
        rows = np.concatenate([np.arange((s - 1) * r, s * r) for s in subset])
        y = mod_solve_unique(art.c[rows], cfw[rows], q)
        if y is None:
            errors.append(f"C_U is singular for U = {subset}")
        elif not np.array_equal(y[:n], sums):
            errors.append(f"U = {subset} does not decode the gradient sum")
    a = mod_matmul(art.c, art.f, q)
    keys = a[:, nk:]
    pieces = a[:, :nk].reshape(a.shape[0], n, K)
    diffs = ((pieces[:, :, 1:] - pieces[:, :, :1]) % q).reshape(a.shape[0], -1)
    mi = mod_rank(np.concatenate([keys, diffs], axis=1), q) - mod_rank(keys, q)
    if mi != 0:
        errors.append(f"conditional MI from ranks is {mi}, not 0")
    return errors


def check_certificate(cert: dict, N: int, Nr: int) -> List[str]:
    """A passing certificate that checked exactly C(N, Nr) subsets."""
    errors = []
    if not cert.get("passed"):
        errors.append("certificate does not pass")
    checked = cert["decodability"]["subsets_checked"]
    if checked != comb(N, Nr):
        errors.append(f"certificate checked {checked} subsets, not C({N},{Nr})")
    return errors


def check_simulation(
    rounds: Sequence[dict], art: ParsedArtifact, requested: int, ell: int,
    realized_cost: Optional[Fraction],
) -> List[str]:
    """Requested round count, full coverage of the rotation, r*ell symbols
    per server, realized cost r/n and equal digests in every round."""
    d = art.dims
    errors = []
    if len(rounds) != requested:
        errors.append(f"{len(rounds)} rounds, {requested} requested")
    rotation = set(combinations(range(1, art.N + 1), art.Nr))
    if {tuple(r["responders"]) for r in rounds} != rotation:
        errors.append("rounds do not cover every responder subset")
    if realized_cost != Fraction(d["r"], d["n"]):
        errors.append(f"realized cost {realized_cost} != r/n = {d['r']}/{d['n']}")
    for r in rounds:
        if r["per_server_symbols"] != d["r"] * ell:
            errors.append(f"round {r['round']}: {r['per_server_symbols']} symbols per server")
        if r["decoded_digest"] is None or r["decoded_digest"] != r["direct_digest"]:
            errors.append(f"round {r['round']}: decoded digest differs from the direct sum")
    return errors
