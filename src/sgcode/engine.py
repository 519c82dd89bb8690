"""Round simulation: sample gradients and keys, lay out the message vector W,
encode per-server transmissions X_n = C_n F W, and decode the gradient sum
from any large-enough responder subset."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exactmat import FieldMatrix, SubsetDecoder
from .field import SeededRng, sample_array
from .scheme import SchemeArtifact


class BadLength(ValueError):
    """Gradient length not divisible by the piece count."""


class WrongSubsetSize(ValueError):
    """Responder set is not a valid size-Nr subset of the servers."""


@dataclass(frozen=True)
class RoundState:
    """One round's raw randomness: row k is gradient k (length L), row v is
    key v (length alpha * piece_len)."""

    gradients: FieldMatrix
    keys: FieldMatrix
    piece_len: int

    @property
    def L(self) -> int:
        return self.gradients.cols


@dataclass(frozen=True)
class MessageVector:
    """W, whose rows line up with F's columns as DerivedDims lays them out:
    gradient pieces first, interleaved by dataset, then the key pieces."""

    matrix: FieldMatrix
    piece_len: int


@dataclass(frozen=True)
class Transcript:
    """All servers' messages for one round, stacked r rows per server."""

    stacked: FieldMatrix
    scheme: SchemeArtifact

    def message(self, server: int) -> FieldMatrix:
        """The r x piece_len block X_n of a 1-based server."""
        return self.stacked.take_rows(self.scheme.dims.server_rows([server]))


def sample_round(scheme: SchemeArtifact, L: int, rng: SeededRng) -> RoundState:
    """iid uniform gradients and keys; keys carry L*alpha/n symbols each."""
    dims = scheme.dims
    if L < 0 or L % dims.n:
        raise BadLength(f"L={L} is not a nonnegative multiple of n={dims.n}")
    ell = L // dims.n
    field = scheme.params.q
    grads = sample_array(rng, field, scheme.params.K * L).reshape(
        scheme.params.K, L
    )
    keys = sample_array(rng, field, dims.group_count * dims.alpha * ell).reshape(
        dims.group_count, dims.alpha * ell
    )
    return RoundState(
        gradients=FieldMatrix.wrap(grads, field),
        keys=FieldMatrix.wrap(keys, field),
        piece_len=ell,
    )


def default_length(scheme: SchemeArtifact) -> int:
    """Simulator default L = 4n: multi-symbol pieces, small transcripts."""
    return scheme.dims.n * 4


def build_W(round_state: RoundState, scheme: SchemeArtifact) -> MessageVector:
    """Stack gradient pieces then key pieces in the fixed interleaved order."""
    dims = scheme.dims
    K = scheme.params.K
    ell = round_state.piece_len
    g = round_state.gradients.data.reshape(K, dims.n, ell)
    top = g.transpose(1, 0, 2).reshape(dims.n * K, ell)
    k = round_state.keys.data.reshape(dims.group_count, dims.alpha, ell)
    bottom = k.transpose(1, 0, 2).reshape(dims.alpha * dims.group_count, ell)
    w = np.concatenate([top, bottom], axis=0)
    return MessageVector(
        matrix=FieldMatrix.wrap(w, scheme.params.q), piece_len=ell
    )


def encode(scheme: SchemeArtifact, w: MessageVector) -> Transcript:
    """All servers' messages at once: C (F W)."""
    return Transcript(stacked=scheme.c @ (scheme.f @ w.matrix), scheme=scheme)


def _responder_subset(
    scheme: SchemeArtifact, responders: Sequence[int]
) -> Tuple[int, ...]:
    """The responders as a sorted tuple; raises unless they form a size-Nr
    subset of [1, N]."""
    subset = tuple(sorted(set(int(s) for s in responders)))
    if len(subset) != scheme.params.Nr or not all(
        1 <= s <= scheme.params.N for s in subset
    ):
        raise WrongSubsetSize(
            f"responders {sorted(responders)} is not a size-{scheme.params.Nr} "
            f"subset of [1, {scheme.params.N}]"
        )
    return subset


def _decoder(scheme: SchemeArtifact) -> SubsetDecoder:
    """Piece sums from any responder subset's stacked messages."""
    p = scheme.params
    return SubsetDecoder(scheme.c.data, p.q.q, scheme.dims.r, p.Nr, scheme.dims.n)


def decode(
    scheme: SchemeArtifact, transcript: Transcript, responders: Sequence[int]
) -> FieldMatrix:
    """Recover the length-L gradient sum from the responder subset: the first
    n rows of C_U^-1 X_U are the piece sums. Raises exactmat.Singular naming
    the subset when C_U, or the first subset's C_U0, is singular."""
    subset = _responder_subset(scheme, responders)
    x_u = transcript.stacked.data[scheme.dims.server_rows(subset)]
    y = _decoder(scheme)(subset, x_u)
    return FieldMatrix.wrap(y.reshape(1, y.size), scheme.params.q)


def direct_gradient_sum(round_state: RoundState) -> FieldMatrix:
    """Reference value: sum the gradients symbol-wise."""
    q = round_state.gradients.modulus.q
    total = round_state.gradients.data.sum(axis=0) % q
    return FieldMatrix.wrap(
        total.reshape(1, -1), round_state.gradients.modulus
    )


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
    payload = ",".join(str(int(v)) for v in mat.data.reshape(-1))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def rotating_responders(scheme: SchemeArtifact) -> List[Tuple[int, ...]]:
    """All size-Nr subsets in lexicographic order; rounds cycle through."""
    return list(combinations(range(1, scheme.params.N + 1), scheme.params.Nr))


def check_simulation_inputs(
    scheme: SchemeArtifact,
    L: Optional[int],
    rounds: int,
    responders: Optional[Sequence[int]] = None,
) -> Tuple[int, Optional[Tuple[int, ...]]]:
    """Validate simulate_rounds' inputs before any work is done: returns L
    (default 4n) and the sorted responders, or raises BadLength,
    WrongSubsetSize or ValueError."""
    if L is None:
        L = default_length(scheme)
    if L < 0 or L % scheme.dims.n:
        raise BadLength(f"L={L} is not a nonnegative multiple of n={scheme.dims.n}")
    if rounds < 0:
        raise ValueError(f"rounds={rounds} is negative")
    if responders is not None:
        responders = _responder_subset(scheme, responders)
    return L, responders


# A simulation block holds at most this many symbols of stacked message
# vectors W (8 MB of int64) unless one rotation alone needs more. Blocks of
# many short rounds keep the per-block calls few; the bound keeps long
# gradients from stacking every round at once.
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
    keep a block's message vectors within _BLOCK_SYMBOLS symbols but at
    least one: a block is encoded in one stacked product and then dropped,
    so memory does not grow with the round count. Round t draws from
    rng.spawn(f"round-{t}"), so the blocking does not change any round.
    Decoding eliminates the first subset's C_U0 once per call and then costs
    a small block solve per distinct responder subset in a block; it
    computes exactly what per-round decode calls would, and raises
    exactmat.Singular naming the first scheduled subset whose C_U is
    singular.
    """
    L, fixed = check_simulation_inputs(scheme, L, rounds, responders)
    dims = scheme.dims
    ell = L // dims.n
    rotation = rotating_responders(scheme)
    if fixed is not None:
        schedule = [fixed] * rounds
    else:
        schedule = [rotation[t % len(rotation)] for t in range(rounds)]

    per_rotation = len(rotation) * dims.f_cols * ell
    block_len = len(rotation) * max(1, _BLOCK_SYMBOLS // max(1, per_rotation))
    reports: List[RoundReport] = []
    decoder = _decoder(scheme) if rounds else None
    for start in range(0, rounds, block_len):
        block = range(start, min(start + block_len, rounds))
        states = [sample_round(scheme, L, rng.spawn(f"round-{t}")) for t in block]
        w_big = np.concatenate([build_W(s, scheme).matrix.data for s in states], axis=1)
        x_big = (
            scheme.c @ (scheme.f @ FieldMatrix.wrap(w_big, scheme.params.q))
        ).data
        by_subset: Dict[Tuple[int, ...], List[int]] = {}
        for pos, t in enumerate(block):
            by_subset.setdefault(schedule[t], []).append(pos)
        decoded: Dict[int, FieldMatrix] = {}
        for subset, positions in by_subset.items():
            cols = np.concatenate(
                [np.arange(pos * ell, (pos + 1) * ell) for pos in positions]
            )
            y = decoder(subset, x_big[np.ix_(dims.server_rows(subset), cols)])
            for i, pos in enumerate(positions):
                piece = y[:, i * ell : (i + 1) * ell]
                decoded[pos] = FieldMatrix.wrap(
                    piece.reshape(1, dims.n * ell), scheme.params.q
                )
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
