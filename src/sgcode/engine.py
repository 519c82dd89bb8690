"""Round simulation: sample gradients and keys, lay out the message vector W,
encode per-server transmissions X_n = C_n F W, and decode the gradient sum
from any large-enough responder subset."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactmat import DimensionMismatch, FieldMatrix
from .field import SeededRng, TooLarge, sample_array
from .scheme import MAX_MATRIX_ENTRIES, SchemeArtifact, is_integer


class BadLength(ValueError):
    """Gradient length not divisible by the piece count."""


class WrongSubsetSize(ValueError):
    """Responder set is not a valid size-Nr subset of the servers."""


@dataclass(frozen=True)
class RoundState:
    """One round's raw randomness: row k is gradient k (length L), row v is
    key v (alpha pieces of ell = L/n symbols)."""

    gradients: FieldMatrix
    keys: FieldMatrix


def _check_length(scheme: SchemeArtifact, L: int) -> None:
    if L < 0 or L % scheme.dims.n:
        raise BadLength(f"L={L} is not a nonnegative multiple of n={scheme.dims.n}")


def sample_round(scheme: SchemeArtifact, L: int, rng: SeededRng) -> RoundState:
    """iid uniform gradients and keys; keys carry L*alpha/n symbols each."""
    _check_length(scheme, L)
    dims = scheme.dims
    ell = L // dims.n
    field = scheme.params.q
    grads = sample_array(rng, field, scheme.params.K * L).reshape(
        scheme.params.K, L
    )
    keys = sample_array(rng, field, dims.group_count * dims.alpha * ell).reshape(
        dims.group_count, dims.alpha * ell
    )
    return RoundState(
        gradients=FieldMatrix.wrap(grads, field), keys=FieldMatrix.wrap(keys, field)
    )


def default_length(scheme: SchemeArtifact) -> int:
    """Simulator default L = 4n: multi-symbol pieces, small transcripts."""
    return scheme.dims.n * 4


def build_W(round_state: RoundState, scheme: SchemeArtifact) -> FieldMatrix:
    """The message vector W, f_cols x ell, whose rows line up with F's
    columns as DerivedDims lays them out: gradient pieces first, interleaved
    by dataset, then the key pieces."""
    dims = scheme.dims
    K = scheme.params.K
    ell = round_state.gradients.cols // dims.n
    g = round_state.gradients.data.reshape(K, dims.n, ell)
    top = g.transpose(1, 0, 2).reshape(dims.n * K, ell)
    k = round_state.keys.data.reshape(dims.group_count, dims.alpha, ell)
    bottom = k.transpose(1, 0, 2).reshape(dims.alpha * dims.group_count, ell)
    w = np.concatenate([top, bottom], axis=0)
    return FieldMatrix.wrap(w, scheme.params.q)


def encode(scheme: SchemeArtifact, w: FieldMatrix) -> FieldMatrix:
    """The transcript: all servers' messages C (F W), stacked r rows per
    server as DerivedDims.server_rows lays them out."""
    return scheme.c @ (scheme.f @ w)


def _responder_subset(
    scheme: SchemeArtifact, responders: Sequence[int]
) -> Tuple[int, ...]:
    """The responders as a sorted tuple; raises unless they are integer ids
    (not bools, floats or strings) forming a size-Nr subset of [1, N]."""
    p = scheme.params
    ids = list(responders)
    if all(is_integer(s) for s in ids):
        subset = tuple(sorted(set(int(s) for s in ids)))
        if len(subset) == p.Nr and all(1 <= s <= p.N for s in subset):
            return subset
    raise WrongSubsetSize(
        f"responders {ids} is not a size-{p.Nr} subset of [1, {p.N}]"
    )


def decode(
    scheme: SchemeArtifact, transcript: FieldMatrix, responders: Sequence[int]
) -> FieldMatrix:
    """Recover the length-L gradient sum from the responder subset: the first
    n rows of C_U^-1 X_U are the piece sums. Uses the artifact's one decoder.
    Raises ValueError ("mixed moduli") for a transcript over another field
    and DimensionMismatch unless it has C's r*N rows, both before any work;
    raises exactmat.Singular naming the subset when C_U, or the first
    subset's C_U0, is singular."""
    scheme.c._check(transcript)
    if transcript.rows != scheme.c.rows:
        raise DimensionMismatch(
            f"transcript has {transcript.rows} rows, C has {scheme.c.rows}"
        )
    subset = _responder_subset(scheme, responders)
    x_u = transcript.data[scheme.dims.server_rows(subset)]
    y = scheme.decoder(subset, x_u)
    return FieldMatrix.wrap(y.reshape(1, y.size), scheme.params.q)


def direct_gradient_sum(round_state: RoundState) -> FieldMatrix:
    """Reference value: sum the gradients symbol-wise."""
    g = round_state.gradients
    return FieldMatrix.wrap(g.data.sum(axis=0, keepdims=True) % g.modulus.q, g.modulus)


# ---- multi-round simulation -------------------------------------------------


@dataclass(frozen=True)
class RoundReport:
    round_index: int
    responders: Tuple[int, ...]
    per_server_symbols: int
    match: bool
    decoded_digest: Optional[str] = None
    direct_digest: Optional[str] = None


@dataclass(frozen=True)
class SimulationReport:
    L: int
    piece_len: int
    realized_cost: Optional[Fraction]
    rounds: Tuple[RoundReport, ...]

    @property
    def all_match(self) -> bool:
        return all(r.match for r in self.rounds)


def _digest(mat: FieldMatrix) -> str:
    payload = ",".join(map(str, mat.data.reshape(-1).tolist()))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def rotating_responders(scheme: SchemeArtifact) -> List[Tuple[int, ...]]:
    """All size-Nr subsets in lexicographic order; rounds cycle through."""
    return list(combinations(range(1, scheme.params.N + 1), scheme.params.Nr))


def _round_rows(scheme: SchemeArtifact) -> int:
    """Rows per round of a simulation block's larger stacked matrix: the
    message vectors W have f_cols rows, the transcripts X = C F W r*N."""
    return max(scheme.dims.f_cols, scheme.dims.r * scheme.params.N)


def check_simulation_inputs(
    scheme: SchemeArtifact,
    L: Optional[int],
    rounds: int,
    responders: Optional[Sequence[int]] = None,
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Validate simulate_rounds' inputs before any work is done: returns L
    (default 4n) and the sorted responders, or raises BadLength,
    WrongSubsetSize, TooLarge or ValueError. TooLarge refuses an L whose
    smallest simulation block, min(rounds, C(N,Nr)) rounds, stacks more
    than MAX_MATRIX_ENTRIES symbols of W or of X, at _round_rows * L/n
    symbols a round."""
    if L is None:
        L = default_length(scheme)
    _check_length(scheme, L)
    if rounds < 0:
        raise ValueError(f"rounds={rounds} is negative")
    p = scheme.params
    rounds_per_block = min(rounds, comb(p.N, p.Nr))
    smallest = rounds_per_block * _round_rows(scheme) * (L // scheme.dims.n)
    if smallest > MAX_MATRIX_ENTRIES:
        raise TooLarge(
            f"L={L} needs {smallest} symbols of W or X per block, "
            f"above the cap of {MAX_MATRIX_ENTRIES}"
        )
    if responders is not None:
        responders = _responder_subset(scheme, responders)
    return L, responders


# A simulation block holds at most this many symbols of stacked message
# vectors W or transcripts X (8 MB of int64) unless one rotation alone
# needs more. Blocks of many short rounds keep the per-block calls few; the
# bound keeps long gradients from stacking every round at once.
_BLOCK_SYMBOLS = 1 << 20


def simulate_rounds(
    scheme: SchemeArtifact,
    L: Optional[int],
    rounds: int,
    rng: SeededRng,
    responders: Optional[Sequence[int]] = None,
    with_digests: bool = True,
) -> SimulationReport:
    """Run many rounds and check each decode against the direct sum.

    With responders=None, rounds rotate through all size-Nr subsets. Rounds
    run in blocks of whole rotations of C(N,Nr) rounds, as many rotations as
    keep a block's W and X each within _BLOCK_SYMBOLS symbols but at
    least one: a block is encoded in one stacked product and then dropped,
    so memory does not grow with the round count. Round t draws from
    rng.spawn(f"round-{t}"), so the blocking does not change any round.
    Decoding uses the artifact's one decoder, as decode does, and costs a
    small block solve per distinct responder subset in a block; it raises
    exactmat.Singular naming the first scheduled subset whose C_U is
    singular.
    """
    L, fixed = check_simulation_inputs(scheme, L, rounds, responders)
    dims, field = scheme.dims, scheme.params.q
    ell = L // dims.n
    rotation = rotating_responders(scheme)
    if fixed is not None:
        schedule = [fixed] * rounds
    else:
        schedule = [rotation[t % len(rotation)] for t in range(rounds)]

    per_rotation = len(rotation) * _round_rows(scheme) * ell
    block_len = len(rotation) * max(1, _BLOCK_SYMBOLS // max(1, per_rotation))
    reports: List[RoundReport] = []
    for start in range(0, rounds, block_len):
        block = range(start, min(start + block_len, rounds))
        states = [sample_round(scheme, L, rng.spawn(f"round-{t}")) for t in block]
        w_big = np.concatenate([build_W(s, scheme).data for s in states], axis=1)
        x_big = encode(scheme, FieldMatrix.wrap(w_big, field)).data
        by_subset: Dict[Tuple[int, ...], List[int]] = {}
        for pos, t in enumerate(block):
            by_subset.setdefault(schedule[t], []).append(pos)
        decoded: Dict[int, FieldMatrix] = {}
        for subset, positions in by_subset.items():
            cols = (np.array(positions)[:, None] * ell + np.arange(ell)).reshape(-1)
            y = scheme.decoder(subset, x_big[np.ix_(dims.server_rows(subset), cols)])
            sums = y.reshape(dims.n, len(positions), ell).transpose(1, 0, 2)
            for pos, piece_sums in zip(positions, sums):
                decoded[pos] = FieldMatrix.wrap(piece_sums.reshape(1, -1), field)
        for pos, (t, state) in enumerate(zip(block, states)):
            direct = direct_gradient_sum(state)
            reports.append(
                RoundReport(
                    round_index=t,
                    responders=schedule[t],
                    per_server_symbols=dims.r * ell,
                    match=bool(decoded[pos] == direct),
                    decoded_digest=_digest(decoded[pos]) if with_digests else None,
                    direct_digest=_digest(direct) if with_digests else None,
                )
            )
    return SimulationReport(
        L=L,
        piece_len=ell,
        realized_cost=Fraction(dims.r * ell, L) if L else None,
        rounds=tuple(reports),
    )
