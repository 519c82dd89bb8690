"""Round mechanics: message layout, encoding locality, decoding from every
responder subset, and the batched multi-round simulator."""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sgcode.analysis import cost_R
from sgcode.engine import (
    BadLength,
    MessageVector,
    RoundState,
    WrongSubsetSize,
    _digest,
    build_W,
    decode,
    default_length,
    direct_gradient_sum,
    encode,
    rotating_responders,
    sample_round,
    simulate_rounds,
    split_W,
)
from sgcode.exactmat import FieldMatrix, Singular, solve_linear
from sgcode.field import SeededRng, make_field
from sgcode.keyspace import enumerate_groups, unavailable_key_columns
from sgcode.scheme import DataAssignment, SchemeParams, build_scheme, gradient_columns

Q = make_field(2147483647)
P31, P61 = 2147483647, (1 << 61) - 1


@pytest.fixture(scope="module")
def scheme():
    params = SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=Q)
    assignment = DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])
    return build_scheme(params, assignment=assignment, seed=0)


@pytest.fixture(scope="module")
def wide_scheme():
    # Nr < N so there are several responder subsets.
    params = SchemeParams(K=2, N=5, Nr=4, M=2, S=3, q=Q)
    return build_scheme(params, seed=0)


# ---- sampling and layout -----------------------------------------------------


def test_sample_round_shapes(scheme):
    state = sample_round(scheme, 6, SeededRng(1))
    assert state.gradients.shape == (3, 6)
    assert state.keys.shape == (3, 2)
    assert state.piece_len == 2
    assert state.L == 6


def test_sample_round_rejects_bad_lengths(scheme):
    with pytest.raises(BadLength):
        sample_round(scheme, 5, SeededRng(1))
    with pytest.raises(BadLength):
        sample_round(scheme, -3, SeededRng(1))


def test_default_length_is_four_pieces(scheme):
    assert default_length(scheme) == 12


def test_message_layout_interleaves_pieces(scheme):
    # K=3, n=3, piece_len=2: gradient k's piece i must land at
    # row k + (i-1)*K, keys at row n*K + v (single key piece each).
    grads = FieldMatrix.from_rows(
        [[11, 12, 13, 14, 15, 16],
         [21, 22, 23, 24, 25, 26],
         [31, 32, 33, 34, 35, 36]],
        Q,
    )
    keys = FieldMatrix.from_rows([[101, 102], [201, 202], [301, 302]], Q)
    w = build_W(RoundState(gradients=grads, keys=keys, piece_len=2), scheme)
    assert w.matrix.shape == (12, 2)
    rows = w.matrix.data.tolist()
    assert rows[0] == [11, 12]   # dataset 1, piece 1
    assert rows[1] == [21, 22]   # dataset 2, piece 1
    assert rows[4] == [23, 24]   # dataset 2, piece 2
    assert rows[7] == [25, 26]   # dataset 2, piece 3 at row 2 + 2*3
    assert rows[8] == [35, 36]
    assert rows[9] == [101, 102]    # key of group (1, 2)
    assert rows[11] == [301, 302]


def test_split_W_inverts_build_W(scheme):
    state = sample_round(scheme, 12, SeededRng(5))
    w = build_W(state, scheme)
    grads, keys = split_W(w, scheme)
    assert grads == state.gradients
    assert keys == state.keys


def test_split_W_inverts_with_multiple_key_pieces():
    params = SchemeParams(K=2, N=5, Nr=5, M=3, S=4, q=Q)
    scheme = build_scheme(params, seed=0)
    assert scheme.dims.alpha == 2
    state = sample_round(scheme, scheme.dims.n * 3, SeededRng(5))
    w = build_W(state, scheme)
    grads, keys = split_W(w, scheme)
    assert grads == state.gradients
    assert keys == state.keys


# ---- encoding ----------------------------------------------------------------


def test_encode_is_the_matrix_product(scheme):
    state = sample_round(scheme, 6, SeededRng(2))
    w = build_W(state, scheme)
    transcript = encode(scheme, w, round_seed=7)
    assert transcript.round_seed == 7
    want = scheme.c @ (scheme.f @ w.matrix)
    assert transcript.stacked == want
    r = scheme.dims.r
    for server in (1, 2, 3):
        block = transcript.message(server)
        assert block.shape == (r, 2)
        assert np.array_equal(
            block.data, want.data[(server - 1) * r : server * r]
        )
    assert len(transcript.messages) == 3


def test_encode_uses_only_local_data(scheme):
    # Operational encodability: zeroing everything a server must not see
    # leaves its own message unchanged.
    params, dims = scheme.params, scheme.dims
    state = sample_round(scheme, 6, SeededRng(3))
    w_full = build_W(state, scheme)
    index = enumerate_groups(params.N, params.S)
    for server in range(1, params.N + 1):
        masked = np.array(w_full.matrix.data)
        for k in range(1, params.K + 1):
            if server not in scheme.assignment.holders(k):
                masked[gradient_columns(dims, params, k)] = 0
        for col in unavailable_key_columns(params, index, server):
            masked[col - 1] = 0
        w_masked = MessageVector(
            matrix=FieldMatrix.wrap(masked, params.q), piece_len=2
        )
        full_msg = encode(scheme, w_full).message(server)
        local_msg = encode(scheme, w_masked).message(server)
        assert full_msg == local_msg


# ---- decoding ----------------------------------------------------------------


def test_decode_recovers_sum_from_every_subset(wide_scheme):
    state = sample_round(wide_scheme, wide_scheme.dims.n, SeededRng(4))
    transcript = encode(wide_scheme, build_W(state, wide_scheme))
    want = direct_gradient_sum(state)
    subsets = list(combinations(range(1, 6), 4))
    assert len(subsets) == 5
    for subset in subsets:
        assert decode(wide_scheme, transcript, subset) == want


def test_decode_sum_matches_manual_addition(scheme):
    state = sample_round(scheme, 6, SeededRng(6))
    transcript = encode(scheme, build_W(state, scheme))
    got = decode(scheme, transcript, (1, 2, 3))
    manual = state.gradients.data.sum(axis=0) % Q.q
    assert got.data.reshape(-1).tolist() == manual.tolist()


def test_decode_rejects_bad_subsets(wide_scheme):
    state = sample_round(wide_scheme, wide_scheme.dims.n, SeededRng(4))
    transcript = encode(wide_scheme, build_W(state, wide_scheme))
    with pytest.raises(WrongSubsetSize):
        decode(wide_scheme, transcript, (1, 2, 3))
    with pytest.raises(WrongSubsetSize):
        decode(wide_scheme, transcript, (1, 2, 3, 4, 5))
    with pytest.raises(WrongSubsetSize):
        decode(wide_scheme, transcript, (1, 2, 3, 9))
    with pytest.raises(WrongSubsetSize):
        decode(wide_scheme, transcript, (1, 2, 3, 3))


def with_server_block(scheme, server, source):
    """The scheme with server's block of C overwritten by source's."""
    r = scheme.dims.r
    data = scheme.c.data.copy()
    data[(server - 1) * r : server * r] = data[(source - 1) * r : source * r]
    matrix = FieldMatrix.wrap(data, scheme.params.q)
    return dataclasses.replace(
        scheme, coding=dataclasses.replace(scheme.coding, matrix=matrix)
    )


@pytest.mark.parametrize("pieces", [0, 2])
@pytest.mark.parametrize(
    "tup, q",
    [((3, 3, 3, 2, 2), q) for q in (7, P31, P61)]  # Nr = N
    + [((2, 4, 3, 3, 3), q) for q in (2, 7, P31, P61)]  # Nr = N - 1
    + [((2, 6, 3, 5, 5), q) for q in (7, P31, P61)],  # Nr <= N/2
)
def test_decoders_match_reference_solve_over_full_rotation(tup, q, pieces):
    K, N, Nr, M, S = tup
    params = SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=make_field(q))
    scheme = build_scheme(params, seed=1)
    L = scheme.dims.n * pieces
    rotation = rotating_responders(scheme)
    report = simulate_rounds(scheme, L=L, rounds=len(rotation), rng=SeededRng(3))
    assert report.all_match
    r = scheme.dims.r
    for t, subset in enumerate(rotation):
        state = sample_round(scheme, L, SeededRng(3).spawn(f"round-{t}"))
        transcript = encode(scheme, build_W(state, scheme))
        rows = [i for s in subset for i in range((s - 1) * r, s * r)]
        y = solve_linear(scheme.c.take_rows(rows), transcript.stacked.take_rows(rows))
        want = FieldMatrix.wrap(y.data[: scheme.dims.n].reshape(1, L), params.q)
        assert want == direct_gradient_sum(state)
        assert decode(scheme, transcript, subset) == want
        assert report.rounds[t].decoded_digest == _digest(want)


@pytest.mark.parametrize(
    "server, source, first", [(5, 4, (1, 2, 4, 5)), (2, 1, (1, 2, 3, 4))]
)
def test_singular_subset_is_named(wide_scheme, server, source, first):
    # A repeated server block makes every subset holding both copies
    # singular; the second case hits U0 itself.
    bad = with_server_block(wide_scheme, server, source)
    state = sample_round(bad, bad.dims.n, SeededRng(4))
    transcript = encode(bad, build_W(state, bad))
    with pytest.raises(Singular, match=re.escape(str(first))):
        decode(bad, transcript, first)
    with pytest.raises(Singular, match=re.escape(str(first))):
        simulate_rounds(bad, L=None, rounds=5, rng=SeededRng(0))
    if first != (1, 2, 3, 4):
        assert decode(bad, transcript, (1, 2, 3, 4)) == direct_gradient_sum(state)


def test_zero_length_round_is_vacuous(scheme):
    state = sample_round(scheme, 0, SeededRng(1))
    transcript = encode(scheme, build_W(state, scheme))
    decoded = decode(scheme, transcript, (1, 2, 3))
    assert decoded.shape == (1, 0)


# ---- multi-round simulation --------------------------------------------------


def test_simulation_rounds_all_match(wide_scheme):
    report = simulate_rounds(wide_scheme, L=None, rounds=7, rng=SeededRng(8))
    assert report.L == default_length(wide_scheme)
    assert report.all_match
    assert len(report.rounds) == 7
    rotation = rotating_responders(wide_scheme)
    for t, round_report in enumerate(report.rounds):
        assert round_report.round_index == t
        assert round_report.responders == rotation[t % len(rotation)]
        assert round_report.decoded_digest == round_report.direct_digest


def test_simulation_cost_equals_scheme_cost(wide_scheme):
    p = wide_scheme.params
    report = simulate_rounds(wide_scheme, L=None, rounds=1, rng=SeededRng(8))
    assert report.realized_cost == cost_R(p.N, p.Nr, p.M, p.S)
    assert report.rounds[0].per_server_symbols == wide_scheme.dims.r * report.piece_len


def test_simulation_matches_single_round_decode(wide_scheme):
    # The batched path must reproduce exactly what a lone decode computes.
    report = simulate_rounds(
        wide_scheme, L=wide_scheme.dims.n, rounds=3, rng=SeededRng(9)
    )
    rotation = rotating_responders(wide_scheme)
    for t in range(3):
        state = sample_round(
            wide_scheme, wide_scheme.dims.n, SeededRng(9).spawn(f"round-{t}")
        )
        transcript = encode(wide_scheme, build_W(state, wide_scheme))
        lone = decode(wide_scheme, transcript, rotation[t % len(rotation)])
        assert report.rounds[t].decoded_digest == _digest(lone)


def test_simulation_digests_are_pinned(wide_scheme):
    # Each C_U is invertible, so the decoded sums, and hence these digests,
    # do not depend on how the decoder computes them.
    report = simulate_rounds(wide_scheme, L=None, rounds=5, rng=SeededRng(8))
    assert [r.decoded_digest for r in report.rounds] == [
        "7058f978a1e865b5cabe5fb76599e74ae1df5afe24d8bd7cbaa39a17e6105c85",
        "7b12c9891e069ad0a51ceffce0e7f8c39d2390b6030645d08e166a0a7877f29d",
        "2a97714e19e6cfa82bcdd5c509538a01ef56d676d15610023ee9f1bc7dbc2225",
        "e992072c9f514f072171229aa612bb7ac433af4f35bbd79bb0a204d69c5ebeab",
        "c86ce24c0fbf7341353f9d92c343150bcbcddc1371a18f712917363729bb9640",
    ]


def test_simulation_with_fixed_responders(wide_scheme):
    report = simulate_rounds(
        wide_scheme, L=None, rounds=4, rng=SeededRng(10), responders=(5, 1, 3, 2)
    )
    assert report.all_match
    assert all(r.responders == (1, 2, 3, 5) for r in report.rounds)


def test_simulation_validates_inputs(wide_scheme):
    with pytest.raises(BadLength):
        simulate_rounds(wide_scheme, L=7, rounds=1, rng=SeededRng(0))
    with pytest.raises(WrongSubsetSize):
        simulate_rounds(
            wide_scheme, L=None, rounds=1, rng=SeededRng(0), responders=(1, 2)
        )
    with pytest.raises(ValueError, match="negative"):
        simulate_rounds(wide_scheme, L=None, rounds=-1, rng=SeededRng(0))


def test_simulation_zero_rounds(wide_scheme):
    report = simulate_rounds(wide_scheme, L=None, rounds=0, rng=SeededRng(0))
    assert report.rounds == ()
    assert report.all_match
    assert report.realized_cost == Fraction(
        wide_scheme.dims.r * report.piece_len, report.L
    )


def test_simulation_without_digests(wide_scheme):
    report = simulate_rounds(
        wide_scheme, L=None, rounds=2, rng=SeededRng(1), with_digests=False
    )
    assert report.all_match
    assert report.rounds[0].decoded_digest is None
