"""Scheme construction: dimensions, assignments, the coding matrix zero
pattern, demand-matrix cancellation, and artifact serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from sgcode.analysis import Infeasible
from sgcode.exactmat import FieldMatrix, Unsolvable, rank, solve_linear
from sgcode.field import SeededRng, make_field
from sgcode.keyspace import comb0, enumerate_groups
from sgcode.scheme import (
    BadAssignment,
    ConstructionFailed,
    DataAssignment,
    ParseError,
    SchemeParams,
    artifact_from_json,
    artifact_to_json,
    artifact_to_json_dict,
    build_scheme,
    check_feasibility,
    cyclic_assignment,
    derive_dims,
    gradient_columns,
    random_assignment,
    recommended_min_q,
    validate_assignment,
    _coding_defect,
    _forbidden_key_cols,
    _nonholder_solution,
    _sample_coding,
)

Q = make_field(2147483647)


def small_params(K=3):
    return SchemeParams(K=K, N=3, Nr=3, M=2, S=2, q=Q)


def small_assignment():
    return DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])


@pytest.fixture(scope="module")
def small_scheme():
    return build_scheme(small_params(), assignment=small_assignment(), seed=0)


# ---- parameters and dimensions ----------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(K=0, N=3, Nr=3, M=2, S=2, q=Q)
    with pytest.raises(ValueError):
        SchemeParams(K=1, N=3, Nr=4, M=2, S=2, q=Q)
    with pytest.raises(ValueError):
        SchemeParams(K=1, N=3, Nr=3, M=0, S=2, q=Q)
    with pytest.raises(ValueError):
        SchemeParams(K=1, N=3, Nr=3, M=2, S=4, q=Q)


def test_derive_dims_small():
    dims = derive_dims(small_params())
    assert (dims.r, dims.n, dims.alpha) == (2, 3, 1)
    assert dims.f_rows == 6
    assert dims.f_cols == 12
    assert dims.key_cols == 3
    assert dims.group_count == 3


def test_derive_dims_medium():
    dims = derive_dims(SchemeParams(K=4, N=5, Nr=5, M=3, S=4, q=Q))
    assert (dims.r, dims.n, dims.alpha) == (5, 15, 2)
    assert dims.f_rows == 25
    assert dims.f_cols == 70


def test_derive_dims_rejects_infeasible():
    with pytest.raises(Infeasible):
        derive_dims(SchemeParams(K=1, N=3, Nr=2, M=1, S=2, q=Q))


def test_check_feasibility_reports():
    assert check_feasibility(small_params()).passed
    report = check_feasibility(SchemeParams(K=1, N=3, Nr=2, M=1, S=2, q=Q))
    assert not report.passed
    assert any("S >= N-Nr+2" in f for f in report.failures)
    degenerate = check_feasibility(SchemeParams(K=1, N=3, Nr=3, M=3, S=2, q=Q))
    assert any("not positive" in f for f in degenerate.failures)


# ---- assignments -------------------------------------------------------------


def test_cyclic_assignment_wraps_around():
    a = cyclic_assignment(small_params())
    assert a.dataset_servers == (
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({3, 1}),
    )
    assert a.server_datasets == (
        frozenset({1, 3}),
        frozenset({1, 2}),
        frozenset({2, 3}),
    )


def test_assignment_holders_and_non_holders():
    a = small_assignment()
    assert a.K == 3
    assert a.holders(1) == frozenset({2, 3})
    assert a.non_holders(1, 3) == frozenset({1})
    assert a.non_holders(2, 3) == frozenset({3})


@pytest.mark.parametrize("server", [1.7, 2.0, True, "1", None])
def test_assignment_rejects_non_integer_server_ids(small_scheme, server):
    with pytest.raises(BadAssignment, match="not an integer"):
        DataAssignment.from_datasets(3, [[server, 3], [1, 2], [1, 2]])
    obj = artifact_to_json_dict(small_scheme)
    obj["assignment"]["D"][0] = [server, 3]
    with pytest.raises(ParseError, match="not an integer"):
        artifact_from_json(json.dumps(obj))


def test_assignment_accepts_numpy_integer_ids():
    ids = np.array([2, 3], dtype=np.int64)
    a = DataAssignment.from_datasets(3, [ids, [1, 2], [1, 2]])
    assert a == small_assignment()
    assert all(type(s) is int for s in a.holders(1))


def test_random_assignment_is_valid_and_reproducible():
    params = SchemeParams(K=5, N=6, Nr=6, M=2, S=3, q=Q)
    a = random_assignment(params, SeededRng(42))
    b = random_assignment(params, SeededRng(42))
    assert a == b
    assert validate_assignment(params, a) == ()
    assert all(2 <= len(d) <= 6 for d in a.dataset_servers)


def test_validate_assignment_violations():
    params = small_params()
    wrong_k = DataAssignment.from_datasets(3, [[1, 2]])
    assert any("datasets" in v for v in validate_assignment(params, wrong_k))
    out_of_range = DataAssignment.from_datasets(3, [[1, 4], [1, 2], [1, 2]])
    assert any("outside" in v for v in validate_assignment(params, out_of_range))
    thin = DataAssignment.from_datasets(3, [[1], [1, 2], [1, 2]])
    assert any("replication" in v for v in validate_assignment(params, thin))
    with pytest.raises(BadAssignment):
        build_scheme(params, assignment=thin, seed=0)


# ---- coding matrix -----------------------------------------------------------


def test_coding_zero_pattern(small_scheme):
    # Server i's rows must vanish on the key column of the one group that
    # excludes it: group (2,3) for server 1, (1,3) for 2, (1,2) for 3.
    c = small_scheme.c.data
    n = small_scheme.dims.n
    for server, forbidden_group in ((1, 3), (2, 2), (3, 1)):
        rows = small_scheme.coding.server_rows(server)
        col = n + (forbidden_group - 1)
        assert not c[rows, col].any()
        # every other entry of the sampled block is untouched randomness;
        # the whole block must not be all zero
        assert c[rows].any()


def test_coding_blocks_and_shapes(small_scheme):
    assert small_scheme.c.shape == (6, 6)
    assert small_scheme.coding.free_block.shape == (6, 3)
    assert small_scheme.coding.key_block.shape == (6, 3)
    assert rank(small_scheme.c) == 6


def test_non_holder_key_rows_have_full_row_rank(small_scheme):
    dims = small_scheme.dims
    for k in range(1, 4):
        dbar = small_scheme.assignment.non_holders(k, 3)
        rows = np.concatenate(
            [small_scheme.coding.server_rows(s) for s in sorted(dbar)]
        )
        sub = small_scheme.c.data[rows][:, dims.n :]
        assert rank(FieldMatrix.wrap(sub.copy(), Q)) == len(dbar) * dims.r


@pytest.mark.parametrize("q", [2, 3])
def test_nonholder_check_is_the_f2_solve(q):
    # Over small fields the sampled key rows are often rank-deficient. The
    # one solve per non-holder set must flag exactly the first set whose key
    # rows lack full row rank, and otherwise yield the canonical F2 columns.
    params = SchemeParams(K=2, N=4, Nr=4, M=2, S=2, q=make_field(q))
    dims = derive_dims(params)
    assignment = cyclic_assignment(params)
    forbidden = _forbidden_key_cols(params, dims, enumerate_groups(4, 2))
    sets = sorted({assignment.non_holders(k, 4) for k in (1, 2)}, key=sorted)
    seen = set()
    for seed in range(200):
        arr = _sample_coding(params, dims, forbidden, SeededRng(seed))
        defect, solutions = _coding_defect(arr, params, dims, assignment, params.q)
        if defect is not None and defect.startswith("responder subset"):
            continue
        blocks = []
        for dbar in sets:
            rows = np.concatenate([np.arange((s - 1) * dims.r, s * dims.r) for s in sorted(dbar)])
            blocks.append((dbar, arr[rows]))
        full = [rank(FieldMatrix.wrap(b[:, dims.n :], params.q)) == b.shape[0] for _, b in blocks]
        if all(full):
            seen.add("solved")
            assert defect is None and set(solutions) == set(sets)
            for dbar, b in blocks:
                want = solve_linear(
                    FieldMatrix.wrap(b[:, dims.n :], params.q),
                    FieldMatrix.wrap((-b[:, : dims.n]) % q, params.q),
                )
                assert np.array_equal(solutions[dbar], want.data)
        else:
            seen.add("defect")
            first = sets[full.index(False)]
            assert defect == f"key rows of non-holders {sorted(first)} lack full row rank"
            assert solutions == {}
    assert seen == {"solved", "defect"}


def test_nonholder_check_flags_a_consistent_rank_deficient_system():
    # A repeated non-holder row keeps C_Q X = -C_G solvable while the key
    # rows lose full row rank; the check must still flag it.
    scheme = build_scheme(SchemeParams(K=2, N=4, Nr=4, M=2, S=2, q=Q), seed=0)
    dims = scheme.dims
    dbar = scheme.assignment.non_holders(1, 4)
    arr = scheme.c.data.copy()
    first = (min(dbar) - 1) * dims.r
    arr[first + 1] = arr[first]
    rows = np.concatenate([np.arange((s - 1) * dims.r, s * dims.r) for s in sorted(dbar)])
    solve_linear(
        FieldMatrix.wrap(arr[rows][:, dims.n :], Q),
        FieldMatrix.wrap((-arr[rows][:, : dims.n]) % Q.q, Q),
    )
    with pytest.raises(Unsolvable):
        _nonholder_solution(arr, dims, dbar, Q)


def test_construction_failure_when_field_too_small():
    params = SchemeParams(K=1, N=6, Nr=4, M=3, S=4, q=make_field(2))
    with pytest.raises(ConstructionFailed) as err:
        build_scheme(params, seed=0)
    assert "recommended minimum" in str(err.value)


def test_construction_retries_are_counted():
    # Over GF(2) this tuple needs several resamples before certification.
    params = SchemeParams(K=2, N=5, Nr=5, M=2, S=2, q=make_field(2))
    scheme = build_scheme(params, seed=0)
    assert scheme.retries_used > 0


def test_recommended_min_q_formula(small_scheme):
    params, dims = small_scheme.params, small_scheme.dims
    got = recommended_min_q(params, dims, small_scheme.assignment)
    assert got == 2 * 1 * 3 + 2 * 3 * comb0(3, 3) + 1 == 13


# ---- demand matrix -----------------------------------------------------------


def test_gradient_columns_interleaving():
    dims = derive_dims(small_params())
    assert gradient_columns(dims, small_params(), 1) == [0, 3, 6]
    assert gradient_columns(dims, small_params(), 2) == [1, 4, 7]
    assert gradient_columns(dims, small_params(), 3) == [2, 5, 8]


def test_demand_structure(small_scheme):
    demand = small_scheme.demand
    dims = small_scheme.dims
    assert demand.f1.shape == (3, 9)
    assert demand.f2.shape == (3, 9)
    assert demand.f3 == FieldMatrix.identity(3, Q)
    # the assembled matrix keeps the zero corner
    corner = demand.matrix.take_rows(range(dims.n)).take_cols(
        range(dims.n * 3, dims.f_cols)
    )
    assert corner.is_zero()
    # row i of F1 is the indicator of piece i across the K datasets
    for i in range(dims.n):
        row = demand.f1.data[i]
        assert row[i * 3 : (i + 1) * 3].tolist() == [1, 1, 1]
        assert row.sum() == 3


def test_demand_restricted_to_one_dataset_is_identity(small_scheme):
    dims = small_scheme.dims
    cols = gradient_columns(dims, small_scheme.params, 1)
    assert small_scheme.demand.f1.take_cols(cols) == FieldMatrix.identity(3, Q)


def test_demand_cancels_non_holders(small_scheme):
    # For every dataset, the coded rows of servers that lack it must be
    # zero on that dataset's columns of C F.
    p = (small_scheme.c @ small_scheme.f).data
    dims = small_scheme.dims
    for k in range(1, 4):
        cols = gradient_columns(dims, small_scheme.params, k)
        for server in sorted(small_scheme.assignment.non_holders(k, 3)):
            rows = small_scheme.coding.server_rows(server)
            assert not p[rows][:, cols].any()


def test_key_availability_respected_in_product(small_scheme):
    # Server 1 never uses the key of group (2, 3): column 12, 1-based.
    p = (small_scheme.c @ small_scheme.f).data
    rows = small_scheme.coding.server_rows(1)
    assert not p[rows, 11].any()


# ---- determinism and serialization -------------------------------------------


def test_build_is_deterministic_in_seed():
    a = build_scheme(small_params(), assignment=small_assignment(), seed=0)
    b = build_scheme(small_params(), assignment=small_assignment(), seed=0)
    other = build_scheme(small_params(), assignment=small_assignment(), seed=1)
    assert artifact_to_json(a) == artifact_to_json(b)
    assert a.c == b.c
    assert other.c != a.c


def test_artifact_json_roundtrip(small_scheme):
    text = artifact_to_json(small_scheme)
    again = artifact_from_json(text)
    assert again.params == small_scheme.params
    assert again.assignment == small_scheme.assignment
    assert again.c == small_scheme.c
    assert again.f == small_scheme.f
    assert again.demand.f2 == small_scheme.demand.f2
    assert again.seed == small_scheme.seed
    assert again.retries_used == small_scheme.retries_used
    assert artifact_to_json(again) == text


def test_artifact_header_fields(small_scheme):
    obj = artifact_to_json_dict(small_scheme)
    assert obj["format_version"] == 1
    assert (obj["K"], obj["N"], obj["Nr"], obj["M"], obj["S"]) == (3, 3, 3, 2, 2)
    assert obj["q"] == "2147483647"
    assert obj["assignment"]["D"] == [[2, 3], [1, 2], [1, 2]]
    assert obj["seed"] == 0


def test_artifact_parse_rejections(small_scheme):
    good = artifact_to_json_dict(small_scheme)

    bad_version = json.loads(json.dumps(good))
    bad_version["format_version"] = 99
    with pytest.raises(ParseError):
        artifact_from_json(json.dumps(bad_version))

    q_mismatch = json.loads(json.dumps(good))
    q_mismatch["q"] = "7"
    with pytest.raises(ParseError):
        artifact_from_json(json.dumps(q_mismatch))

    wrong_shape = json.loads(json.dumps(good))
    wrong_shape["C"]["rows"] = 4
    with pytest.raises(ParseError):
        artifact_from_json(json.dumps(wrong_shape))

    with pytest.raises(ParseError):
        artifact_from_json("not json at all")
    with pytest.raises(ParseError):
        artifact_from_json("[1, 2, 3]")
    with pytest.raises(ParseError):
        artifact_from_json("{}")
