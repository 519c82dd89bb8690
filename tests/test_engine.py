"""Round mechanics: message layout, encoding locality, decoding from every
responder subset, and the batched multi-round simulator."""

from __future__ import annotations

import dataclasses
import hashlib
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from sgcode import engine
from sgcode.analysis import cost_R
from sgcode.engine import (
    BadLength,
    RoundState,
    WrongSubsetSize,
    _digest,
    build_W,
    check_simulation_inputs,
    decode,
    default_length,
    direct_gradient_sum,
    encode,
    rotating_responders,
    sample_round,
    simulate_rounds,
)
from sgcode.exactmat import (
    DimensionMismatch,
    FieldMatrix,
    Singular,
    SubsetDecoder,
    solve_linear,
)
from sgcode.field import SeededRng, TooLarge, make_field
from sgcode.keyspace import enumerate_groups
from sgcode.scheme import (
    MAX_MATRIX_ENTRIES,
    DataAssignment,
    SchemeParams,
    build_scheme,
    cyclic_assignment,
)
from sgcode.verifier import certify

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
    assert build_W(state, scheme).cols == 2


def test_sample_round_rejects_bad_lengths(scheme):
    with pytest.raises(BadLength):
        sample_round(scheme, 5, SeededRng(1))
    with pytest.raises(BadLength):
        sample_round(scheme, -3, SeededRng(1))


def test_default_length_is_four_pieces(scheme):
    assert default_length(scheme) == 12


def test_message_layout_interleaves_pieces(scheme):
    # K=3, n=3, ell=2: gradient k's piece i must land at
    # row k + (i-1)*K, keys at row n*K + v (single key piece each).
    grads = FieldMatrix.wrap(
        np.array([[11, 12, 13, 14, 15, 16],
                  [21, 22, 23, 24, 25, 26],
                  [31, 32, 33, 34, 35, 36]]),
        Q,
    )
    keys = FieldMatrix.wrap(np.array([[101, 102], [201, 202], [301, 302]]), Q)
    w = build_W(RoundState(gradients=grads, keys=keys), scheme)
    assert w.shape == (12, 2)
    rows = w.data.tolist()
    assert rows[0] == [11, 12]   # dataset 1, piece 1
    assert rows[1] == [21, 22]   # dataset 2, piece 1
    assert rows[4] == [23, 24]   # dataset 2, piece 2
    assert rows[7] == [25, 26]   # dataset 2, piece 3 at row 2 + 2*3
    assert rows[8] == [35, 36]
    assert rows[9] == [101, 102]    # key of group (1, 2)
    assert rows[11] == [301, 302]


def assert_W_follows_layout(w: FieldMatrix, state: RoundState, scheme):
    """Read gradients and keys back from W through the layout map: dataset
    k's rows are gradient_columns(k), and the rows nK + hidden_key_offsets(s)
    hold, in order, the key pieces of the groups that exclude server s."""
    dims = scheme.dims
    data, ell, nk = w.data, w.cols, dims.n * dims.K
    for k in range(1, dims.K + 1):
        got = data[dims.gradient_columns(k)].reshape(-1)
        assert np.array_equal(got, state.gradients.data[k - 1])
    groups = enumerate_groups(scheme.params.N, scheme.params.S).groups
    pieces = state.keys.data.reshape(len(groups), dims.alpha, ell)
    for server in range(1, scheme.params.N + 1):
        want = [
            pieces[g, j]
            for j in range(dims.alpha)
            for g, members in enumerate(groups)
            if server not in members
        ]
        got = data[nk + dims.hidden_key_offsets(server)]
        assert np.array_equal(got, np.array(want).reshape(-1, ell))


def test_split_W_inverts_build_W(scheme):
    state = sample_round(scheme, 12, SeededRng(5))
    assert_W_follows_layout(build_W(state, scheme), state, scheme)


def test_split_W_inverts_with_multiple_key_pieces():
    params = SchemeParams(K=2, N=5, Nr=5, M=3, S=4, q=Q)
    scheme = build_scheme(params, seed=0)
    assert scheme.dims.alpha == 2
    state = sample_round(scheme, scheme.dims.n * 3, SeededRng(5))
    assert_W_follows_layout(build_W(state, scheme), state, scheme)


# ---- encoding ----------------------------------------------------------------


def test_encode_is_the_matrix_product(scheme):
    state = sample_round(scheme, 6, SeededRng(2))
    w = build_W(state, scheme)
    transcript = encode(scheme, w)
    want = scheme.c @ (scheme.f @ w)
    assert transcript == want
    r = scheme.dims.r
    for server in (1, 2, 3):
        block = transcript.take_rows(scheme.dims.server_rows([server]))
        assert block.shape == (r, 2)
        assert np.array_equal(
            block.data, want.data[(server - 1) * r : server * r]
        )


def test_encode_uses_only_local_data(scheme):
    # Operational encodability: zeroing everything a server must not see
    # leaves its own message unchanged.
    params, dims = scheme.params, scheme.dims
    state = sample_round(scheme, 6, SeededRng(3))
    w_full = build_W(state, scheme)
    for server in range(1, params.N + 1):
        masked = np.array(w_full.data)
        for k in range(1, params.K + 1):
            if server not in scheme.assignment.holders(k):
                masked[dims.gradient_columns(k)] = 0
        masked[dims.n * params.K + dims.hidden_key_offsets(server)] = 0
        w_masked = FieldMatrix.wrap(masked, params.q)
        assert w_masked.cols == 2
        rows = dims.server_rows([server])
        full_msg = encode(scheme, w_full).take_rows(rows)
        local_msg = encode(scheme, w_masked).take_rows(rows)
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


def _refused_before_work(scheme, transcript, error, match):
    """decode raises error on a fresh copy of scheme without building its
    decoder."""
    fresh = dataclasses.replace(scheme)
    with pytest.raises(error, match=match):
        decode(fresh, transcript, (1, 2, 3))
    assert "decoder" not in fresh.__dict__


def _transcript_data(scheme):
    return encode(scheme, build_W(sample_round(scheme, 6, SeededRng(6)), scheme)).data


def test_decode_refuses_a_transcript_with_extra_rows(scheme):
    x = _transcript_data(scheme)
    extra = FieldMatrix.wrap(np.concatenate([x, x[:1]]), Q)
    _refused_before_work(scheme, extra, DimensionMismatch, "transcript has 7 rows, C has 6")


def test_decode_refuses_a_transcript_over_another_field(scheme):
    other = FieldMatrix.wrap(_transcript_data(scheme) % 7, make_field(7))
    _refused_before_work(scheme, other, ValueError, "mixed moduli")


def test_decode_refuses_a_short_transcript(scheme):
    short = FieldMatrix.wrap(_transcript_data(scheme)[:-1], Q)
    _refused_before_work(scheme, short, DimensionMismatch, "transcript has 5 rows, C has 6")


@pytest.mark.parametrize("responders", [[1.9, 2, 3, 4], [True, 2, 3, 4], ["1", 2, 3, 4]])
def test_decode_and_simulate_refuse_non_integer_ids(wide_scheme, responders):
    state = sample_round(wide_scheme, wide_scheme.dims.n, SeededRng(4))
    transcript = encode(wide_scheme, build_W(state, wide_scheme))
    with pytest.raises(WrongSubsetSize):
        decode(wide_scheme, transcript, responders)
    with pytest.raises(WrongSubsetSize):
        simulate_rounds(
            wide_scheme, L=None, rounds=1, rng=SeededRng(0), responders=responders
        )
    ids = [np.int64(s) for s in (1, 2, 3, 4)]
    assert decode(wide_scheme, transcript, ids) == direct_gradient_sum(state)


def test_decode_builds_one_decoder_per_artifact(wide_scheme, monkeypatch):
    built = []
    original = SubsetDecoder.__init__

    def counted(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(SubsetDecoder, "__init__", counted)
    fresh = dataclasses.replace(wide_scheme)
    state = sample_round(fresh, fresh.dims.n, SeededRng(4))
    transcript = encode(fresh, build_W(state, fresh))
    for subset in rotating_responders(fresh):
        assert decode(fresh, transcript, subset) == direct_gradient_sum(state)
    report = simulate_rounds(fresh, L=None, rounds=5, rng=SeededRng(8))
    assert report.all_match
    assert len(built) == 1


def with_server_block(scheme, server, source):
    """The scheme with server's block of C overwritten by source's."""
    r = scheme.dims.r
    data = scheme.c.data.copy()
    data[(server - 1) * r : server * r] = data[(source - 1) * r : source * r]
    return dataclasses.replace(scheme, c=FieldMatrix.wrap(data, scheme.params.q))


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
        y = solve_linear(scheme.c.take_rows(rows), transcript.take_rows(rows))
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


def test_replaced_artifact_gets_its_own_decoder(wide_scheme):
    # The copy's C differs, so the decoder cached on the original must not
    # carry over to it.
    state = sample_round(wide_scheme, wide_scheme.dims.n, SeededRng(4))
    transcript = encode(wide_scheme, build_W(state, wide_scheme))
    assert decode(wide_scheme, transcript, (1, 2, 4, 5)) == direct_gradient_sum(state)
    bad = with_server_block(wide_scheme, 5, 4)
    assert bad.decoder is not wide_scheme.decoder
    with pytest.raises(Singular, match=re.escape(str((1, 2, 4, 5)))):
        decode(bad, encode(bad, build_W(state, bad)), (1, 2, 4, 5))
    assert decode(wide_scheme, transcript, (1, 2, 4, 5)) == direct_gradient_sum(state)


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


def test_n8_certificate_and_rotation_are_pinned():
    # (8,8,7,5,3), K = 8, cyclic: the security matrix (368 x 1246), the U0
    # frame and the F2 solves all take the blocked eliminations. Digests
    # taken from the row-at-a-time eliminations.
    params = SchemeParams(K=8, N=8, Nr=7, M=5, S=3, q=Q)
    n8 = build_scheme(params, cyclic_assignment(params), seed=0)
    cert = certify(n8).to_json()
    assert hashlib.sha256(cert.encode()).hexdigest() == (
        "4c2c6f85fd85c607a779093c0b8105cfc99fd2ea77c523c37aea134fe351fc7f"
    )
    report = simulate_rounds(n8, L=n8.dims.n, rounds=8, rng=SeededRng(5))
    assert report.all_match
    for field in ("decoded_digest", "direct_digest"):
        joined = "".join(getattr(r, field) for r in report.rounds)
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "50b669cad30867b35c6c7f03f7fc305dba2488290dc4174d78d824a6cd8a9514"
        )


@pytest.mark.parametrize("block_symbols", [1 << 20, 1])
@pytest.mark.parametrize("responders", [None, (2, 3, 4, 5)])
def test_simulation_over_several_rotations_is_pinned(
    wide_scheme, monkeypatch, responders, block_symbols
):
    # 13 rounds are two and a half rotations of the 5 subsets. They run in
    # one block, or with the smallest budget in three blocks of one rotation;
    # the digests were taken before rounds ran in blocks.
    monkeypatch.setattr(engine, "_BLOCK_SYMBOLS", block_symbols)
    report = simulate_rounds(
        wide_scheme, L=None, rounds=13, rng=SeededRng(12), responders=responders
    )
    assert report.all_match
    assert [r.round_index for r in report.rounds] == list(range(13))
    for field in ("decoded_digest", "direct_digest"):
        joined = "".join(getattr(r, field) for r in report.rounds)
        assert hashlib.sha256(joined.encode()).hexdigest() == (
            "49f44c86348cee0d81844e47a1f82956c98960497440199aa15c9031df58d938"
        )


@pytest.mark.parametrize("rotations", [1, 2])
def test_simulation_blocks_hold_whole_rotations_within_budget(
    wide_scheme, monkeypatch, rotations
):
    # A rotation of the 5 subsets at ell = 2 stacks 5 * 2 * f_cols symbols.
    ell = 2
    per_rotation = 5 * ell * wide_scheme.dims.f_cols
    monkeypatch.setattr(engine, "_BLOCK_SYMBOLS", rotations * per_rotation + 1)
    widths = []
    original = FieldMatrix.__matmul__

    def recorded(a, b):
        widths.append(b.cols)
        return original(a, b)

    monkeypatch.setattr(FieldMatrix, "__matmul__", recorded)
    report = simulate_rounds(
        wide_scheme, L=ell * wide_scheme.dims.n, rounds=13, rng=SeededRng(3)
    )
    assert report.all_match
    assert len(report.rounds) == 13
    assert max(widths) == rotations * 5 * ell


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


def test_simulation_bounds_the_smallest_block(scheme, wide_scheme):
    # A round stacks f_cols * L/n symbols of W. The worked scheme has one
    # subset; wide_scheme's smallest block is min(rounds, 5) rounds.
    L = MAX_MATRIX_ENTRIES // scheme.dims.f_cols * scheme.dims.n
    assert check_simulation_inputs(scheme, L, 7) == (L, None)
    with pytest.raises(TooLarge):
        check_simulation_inputs(scheme, L + scheme.dims.n, 7)
    dims = wide_scheme.dims
    L = MAX_MATRIX_ENTRIES // (2 * dims.f_cols) * dims.n
    assert check_simulation_inputs(wide_scheme, L, 2)[0] == L
    with pytest.raises(TooLarge):
        check_simulation_inputs(wide_scheme, L, 3)
    with pytest.raises(TooLarge):
        simulate_rounds(wide_scheme, L=L, rounds=100, rng=SeededRng(0))


@pytest.fixture(scope="module")
def tall_scheme():
    # f_cols = 2 rows of W per round but r*N = 8 rows of X.
    params = SchemeParams(K=1, N=8, Nr=2, M=7, S=8, q=Q)
    return build_scheme(params, seed=0)


def test_simulation_cap_counts_transcript_rows(tall_scheme):
    dims = tall_scheme.dims
    assert (dims.n, dims.f_cols, dims.r * tall_scheme.params.N) == (1, 2, 8)
    L = MAX_MATRIX_ENTRIES // 8
    assert check_simulation_inputs(tall_scheme, L, 1) == (L, None)
    with pytest.raises(TooLarge, match="symbols of W or X per block"):
        check_simulation_inputs(tall_scheme, L + 1, 1)
    L = MAX_MATRIX_ENTRIES // (3 * 8)
    assert check_simulation_inputs(tall_scheme, L, 3)[0] == L
    with pytest.raises(TooLarge):
        check_simulation_inputs(tall_scheme, L + 1, 3)


def test_simulation_blocks_count_transcript_rows(tall_scheme, monkeypatch):
    # The budget holds two rotations of the 28 subsets' W (28 * 2 symbols
    # each) but only one of their X (28 * 8), so 56 rounds run in two blocks.
    monkeypatch.setattr(engine, "_BLOCK_SYMBOLS", 2 * 28 * 8 - 1)
    widths = []
    original = FieldMatrix.__matmul__

    def recorded(a, b):
        widths.append(b.cols)
        return original(a, b)

    monkeypatch.setattr(FieldMatrix, "__matmul__", recorded)
    report = simulate_rounds(tall_scheme, L=1, rounds=56, rng=SeededRng(4))
    assert report.all_match
    assert widths == [28, 28, 28, 28]


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
