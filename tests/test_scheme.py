"""Scheme construction: dimensions, assignments, the coding matrix zero
pattern, demand-matrix cancellation, and artifact serialization."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import time
from pathlib import Path

import numpy as np
import pytest

from sgcode.analysis import Infeasible, feasibility_violation, feasible_tuples
from sgcode.exactmat import FieldMatrix, rank, solve_linear
from sgcode.field import SeededRng, TooLarge, make_field
from sgcode.keyspace import comb0
from sgcode.scheme import (
    MAX_MATRIX_ENTRIES,
    BadAssignment,
    ConstructionFailed,
    DataAssignment,
    ParseError,
    SchemeParams,
    artifact_from_json,
    artifact_to_json,
    build_scheme,
    cyclic_assignment,
    derive_dims,
    random_assignment,
    recommended_min_q,
    validate_assignment,
    _attempt,
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


def artifact_obj(scheme) -> dict:
    return json.loads(artifact_to_json(scheme))


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
    assert feasibility_violation(3, 3, 2, 2) is None
    assert "S >= N-Nr+2" in feasibility_violation(3, 2, 1, 2)
    assert "not positive" in feasibility_violation(3, 3, 3, 2)


# ---- assignments -------------------------------------------------------------


def test_cyclic_assignment_wraps_around():
    a = cyclic_assignment(small_params())
    assert a.dataset_servers == (
        frozenset({1, 2}),
        frozenset({2, 3}),
        frozenset({3, 1}),
    )
    assert tuple(
        frozenset(k for k in range(1, 4) if server in a.holders(k))
        for server in range(1, 4)
    ) == (
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
    obj = artifact_obj(small_scheme)
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
        rows = small_scheme.dims.server_rows([server])
        col = n + (forbidden_group - 1)
        assert not c[rows, col].any()
        # every other entry of the sampled block is untouched randomness;
        # the whole block must not be all zero
        assert c[rows].any()


def test_coding_blocks_and_shapes(small_scheme):
    # C = [C_G | C_Q]: n = 3 free columns, then 3 key columns.
    assert small_scheme.c.shape == (6, 6)
    assert (small_scheme.dims.n, small_scheme.dims.key_cols) == (3, 3)
    assert rank(small_scheme.c) == 6


def test_non_holder_key_rows_have_full_row_rank(small_scheme):
    dims = small_scheme.dims
    for k in range(1, 4):
        dbar = small_scheme.assignment.non_holders(k, 3)
        rows = dims.server_rows(sorted(dbar))
        sub = small_scheme.c.data[rows][:, dims.n :]
        assert rank(FieldMatrix.wrap(sub.copy(), Q)) == len(dbar) * dims.r


@pytest.mark.parametrize("q", [2, 3])
def test_nonholder_check_is_the_f2_solve(q):
    # Over small fields the sampled key rows are often rank-deficient. The
    # one solve per non-holder set must flag exactly the first set whose key
    # rows lack full row rank, and otherwise write the canonical F2 columns.
    params = SchemeParams(K=2, N=4, Nr=4, M=2, S=2, q=make_field(q))
    dims = derive_dims(params)
    assignment = cyclic_assignment(params)
    sets = sorted({assignment.non_holders(k, 4) for k in (1, 2)}, key=sorted)
    seen = set()
    for seed in range(200):
        arr = _sample_coding(params, dims, SeededRng(seed))
        defect, f, _ = _attempt(arr, params, dims, assignment)
        if defect is not None and defect.startswith("responder subset"):
            continue
        blocks = {dbar: arr[dims.server_rows(sorted(dbar))] for dbar in sets}
        full = [
            rank(FieldMatrix.wrap(blocks[dbar][:, dims.n :], params.q)) == blocks[dbar].shape[0]
            for dbar in sets
        ]
        if all(full):
            seen.add("solved")
            assert defect is None
            for k in (1, 2):
                b = blocks[assignment.non_holders(k, 4)]
                want = solve_linear(
                    FieldMatrix.wrap(b[:, dims.n :], params.q),
                    FieldMatrix.wrap((-b[:, : dims.n]) % q, params.q),
                )
                assert np.array_equal(f[dims.n :, dims.gradient_columns(k)], want.data)
        else:
            seen.add("defect")
            first = sets[full.index(False)]
            assert defect == f"key rows of non-holders {sorted(first)} lack full row rank"
            assert f is None
    assert seen == {"solved", "defect"}


def test_nonholder_check_flags_a_consistent_rank_deficient_system():
    # A repeated non-holder row keeps C_Q X = -C_G solvable while the key
    # rows lose full row rank. The repeat also makes every C_U holding that
    # server singular, and N - M <= Nr - 1 puts the non-holders inside a
    # responder subset, so the subset scan flags the defect before any solve.
    scheme = build_scheme(SchemeParams(K=2, N=4, Nr=4, M=2, S=2, q=Q), seed=0)
    dims = scheme.dims
    dbar = scheme.assignment.non_holders(1, 4)
    arr = scheme.c.data.copy()
    first = (min(dbar) - 1) * dims.r
    arr[first + 1] = arr[first]
    rows = dims.server_rows(sorted(dbar))
    solve_linear(
        FieldMatrix.wrap(arr[rows][:, dims.n :], Q),
        FieldMatrix.wrap((-arr[rows][:, : dims.n]) % Q.q, Q),
    )
    defect, f, scan = _attempt(arr, scheme.params, dims, scheme.assignment)
    assert defect == "responder subset (1, 2, 3, 4) is not invertible"
    assert f is None
    assert scan == (1, (1, 2, 3, 4))


def test_construction_failures_are_pinned():
    # Every failing GF(2) and GF(3) build with N <= 4, K <= 3 and seeds 0
    # and 1 (cyclic assignment): both defect kinds occur, and a change to the
    # defect order or wording changes the digest.
    digest = hashlib.sha256()
    failed = 0
    for N, Nr, M, S in feasible_tuples(4):
        for K in (1, 2, 3):
            for q in (2, 3):
                for seed in (0, 1):
                    params = SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=make_field(q))
                    try:
                        build_scheme(params, seed=seed)
                    except ConstructionFailed as err:
                        failed += 1
                        digest.update(f"{(K, N, Nr, M, S, q, seed)}: {err}\n".encode())
    assert failed == 63
    assert digest.hexdigest() == (
        "ec326eb7b4732bfae946957d989c07ab8b0d5a586b6571cd795dcbec03732401"
    )


def test_construction_failure_when_field_too_small():
    # Each of the 32 attempts is accepted or rejected by the subset scan
    # and the F2 solves' rank decisions; the messages pin the last defect.
    params = SchemeParams(K=1, N=6, Nr=4, M=3, S=4, q=make_field(2))
    with pytest.raises(ConstructionFailed) as err:
        build_scheme(params, seed=0)
    assert "recommended minimum" in str(err.value)
    assert str(err.value) == (
        "32 attempts failed (last: responder subset (1, 2, 3, 4) is not "
        "invertible); q=2 is below the recommended minimum 946"
    )
    params = SchemeParams(K=2, N=4, Nr=4, M=1, S=2, q=make_field(2))
    with pytest.raises(ConstructionFailed) as err:
        build_scheme(params, seed=0)
    assert str(err.value) == (
        "32 attempts failed (last: key rows of non-holders [1, 3, 4] lack full "
        "row rank); q=2 is below the recommended minimum 61"
    )


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
    assert dims.gradient_columns(1) == [0, 3, 6]
    assert dims.gradient_columns(2) == [1, 4, 7]
    assert dims.gradient_columns(3) == [2, 5, 8]


def f_blocks(scheme):
    """(F1, upper-right block, F2, F3) sliced out of the scheme's F."""
    n, nk, f = scheme.dims.n, scheme.dims.n * scheme.params.K, scheme.f.data
    return f[:n, :nk], f[:n, nk:], f[n:, :nk], f[n:, nk:]


def test_demand_structure(small_scheme):
    f1, corner, f2, f3 = f_blocks(small_scheme)
    dims = small_scheme.dims
    assert f1.shape == (3, 9)
    assert f2.shape == (3, 9)
    assert np.array_equal(f3, np.eye(3, dtype=np.int64))
    # F keeps the zero corner
    assert not corner.any()
    # row i of F1 is the indicator of piece i across the K datasets
    for i in range(dims.n):
        row = f1[i]
        assert row[i * 3 : (i + 1) * 3].tolist() == [1, 1, 1]
        assert row.sum() == 3


def test_demand_restricted_to_one_dataset_is_identity(small_scheme):
    dims = small_scheme.dims
    cols = dims.gradient_columns(1)
    assert np.array_equal(f_blocks(small_scheme)[0][:, cols], np.eye(3, dtype=np.int64))


def test_demand_cancels_non_holders(small_scheme):
    # For every dataset, the coded rows of servers that lack it must be
    # zero on that dataset's columns of C F.
    p = (small_scheme.c @ small_scheme.f).data
    dims = small_scheme.dims
    for k in range(1, 4):
        cols = dims.gradient_columns(k)
        for server in sorted(small_scheme.assignment.non_holders(k, 3)):
            rows = dims.server_rows([server])
            assert not p[rows][:, cols].any()


def test_key_availability_respected_in_product(small_scheme):
    # Server 1 never uses the key of group (2, 3): column 12, 1-based.
    p = (small_scheme.c @ small_scheme.f).data
    rows = small_scheme.dims.server_rows([1])
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
    assert np.array_equal(f_blocks(again)[2], f_blocks(small_scheme)[2])
    assert again.seed == small_scheme.seed
    assert again.retries_used == small_scheme.retries_used
    assert artifact_to_json(again) == text


def test_artifact_header_fields(small_scheme):
    obj = artifact_obj(small_scheme)
    assert obj["format_version"] == 1
    assert (obj["K"], obj["N"], obj["Nr"], obj["M"], obj["S"]) == (3, 3, 3, 2, 2)
    assert obj["q"] == "2147483647"
    assert obj["assignment"]["D"] == [[2, 3], [1, 2], [1, 2]]
    assert obj["seed"] == 0


def test_artifact_parse_rejections(small_scheme):
    good = artifact_obj(small_scheme)

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


def test_artifact_rejects_invalid_assignment(small_scheme):
    # A dataset count other than K, or a server outside [1, N], is refused at
    # parse time; with too few datasets certify would index past the list.
    for bad in ([[2, 3], [1, 2]], [[2, 3], [1, 2], [1, 2], [1, 3]], [[2, 9], [1, 2], [1, 2]]):
        obj = artifact_obj(small_scheme)
        obj["assignment"]["D"] = bad
        with pytest.raises(ParseError):
            artifact_from_json(json.dumps(obj))


def test_artifact_matrices_are_decimal_string_lists(small_scheme):
    obj = artifact_obj(small_scheme)
    for name, mat in (("C", small_scheme.c), ("F", small_scheme.f)):
        assert (obj[name]["rows"], obj[name]["cols"]) == mat.shape
        assert obj[name]["q"] == str(Q.q)
        assert obj[name]["data"] == [str(v) for v in mat.data.reshape(-1).tolist()]


def test_artifact_json_roundtrip_big_modulus():
    big = make_field((1 << 61) - 1)
    scheme = build_scheme(SchemeParams(K=2, N=4, Nr=3, M=2, S=3, q=big), seed=0)
    text = artifact_to_json(scheme)
    again = artifact_from_json(text)
    assert again.c.data.dtype == object and again.f.data.dtype == object
    assert again.c == scheme.c and again.f == scheme.f
    assert artifact_to_json(again) == text


def test_artifact_rejects_bad_matrix_payloads(small_scheme):
    short = artifact_obj(small_scheme)
    short["C"]["data"].pop()
    at_q = artifact_obj(small_scheme)
    at_q["F"]["data"][0] = str(Q.q)
    composite = artifact_obj(small_scheme)
    composite["C"]["q"] = "6"
    for bad, message in (
        (short, "C data does not hold rows\\*cols entries"),
        (at_q, r"entry outside \[0, q\)"),
        (composite, "matrix C modulus differs from header q"),
    ):
        with pytest.raises(ParseError, match=message):
            artifact_from_json(json.dumps(bad))


@pytest.mark.parametrize(
    "where, key, value, message",
    [
        (None, "K", 3.9, "not a JSON integer"),
        (None, "seed", 0.5, "not a JSON integer"),
        (None, "format_version", True, "not a JSON integer"),
        (None, "format_version", 1.0, "not a JSON integer"),
        (None, "N", "3", "not a JSON integer"),
        (None, "Nr", None, "not a JSON integer"),
        (None, "M", 2.0, "not a JSON integer"),
        (None, "S", True, "not a JSON integer"),
        (None, "retries_used", [0], "not a JSON integer"),
        (None, "q", 7.5, "not a decimal string"),
        (None, "q", 2147483647, "not a decimal string"),
        (None, "q", "+2147483647", "not a decimal string"),
        ("C", "rows", 6.0, "not a JSON integer"),
        ("F", "cols", True, "not a JSON integer"),
        ("C", "q", 2147483647, "not a decimal string"),
        ("F", "q", "2147483647.0", "not a decimal string"),
    ],
)
def test_parser_reads_header_integers_strictly(small_scheme, where, key, value, message):
    obj = artifact_obj(small_scheme)
    (obj if where is None else obj[where])[key] = value
    with pytest.raises(ParseError, match=message):
        artifact_from_json(json.dumps(obj))


HOSTILE_ENTRIES = [
    2.5, True, None, 7, "1_0", " 12", "+1", "-1", "\u0663", "", str(Q.q),
    "12345678901234567890",
]


@pytest.mark.parametrize("entry", HOSTILE_ENTRIES, ids=repr)
@pytest.mark.parametrize("name", ["C", "F"])
def test_parser_refuses_hostile_entries(small_scheme, name, entry):
    obj = artifact_obj(small_scheme)
    obj[name]["data"][1] = entry
    with pytest.raises(ParseError):
        artifact_from_json(json.dumps(obj))


def oversized_header(obj):
    obj.update(K=24, N=20, Nr=18, M=10, S=8)


def short_c_rows(obj):
    obj["C"]["rows"] = 4


def short_f_data(obj):
    obj["F"]["data"].pop()


def wide_f(obj):
    obj["F"]["cols"] += 1
    obj["F"]["data"] += obj["F"]["data"][: obj["F"]["rows"]]


@pytest.mark.parametrize(
    "change, message",
    [
        (oversized_header, "above the cap"),
        (short_c_rows, r"C shape \(4, 6\) does not match parameters"),
        (short_f_data, "F data does not hold"),
        (wide_f, r"F shape \(6, 13\) does not match parameters"),
    ],
)
def test_parser_checks_shapes_before_converting_entries(
    monkeypatch, small_scheme, change, message
):
    def never(*args, **kwargs):
        raise AssertionError("converted entries before every shape was checked")

    monkeypatch.setattr("sgcode.scheme._entries", never)
    obj = artifact_obj(small_scheme)
    change(obj)
    with pytest.raises(ParseError, match=message):
        artifact_from_json(json.dumps(obj))


N8_HOLDERS = [sorted((k + j) % 8 + 1 for j in range(5)) for k in range(8)]

# SHA-256 of artifact_to_json for each build, taken from the dict-based
# writer that the single-pass writer replaced; the n8 entry was taken from
# the row-at-a-time eliminations that the blocked path replaced.
PINNED_ARTIFACTS = [
    ((3, 3, 3, 2, 2), 2147483647, [[2, 3], [1, 2], [1, 2]],
     "ddefc26eaee9b7547b78f977d76dad8ec7cb334771f67e1c817b4ba74ba1d2e4"),
    ((8, 8, 8, 7, 2), 2147483647, None,
     "305cf5273e0419edac8c1778771050facc524785d7938b2d2557c8aeff2b04a1"),
    ((2, 4, 3, 2, 3), (1 << 61) - 1, None,
     "f6af62eb92cb87273762f376e6baec66d36555f6a329c98c715b2dc4df3675a6"),
    ((3, 3, 3, 2, 2), 7, [[2, 3], [1, 2], [1, 2]],
     "1de5a3217da2b5c8f7452ca726d16647cc7a521713da9d6937a36560c87b91c9"),
    # The n8 benchmark tuple with its cyclic assignment, whose 322-column
    # subset scan and F2 solves take the blocked eliminations.
    ((8, 8, 7, 5, 3), 2147483647, N8_HOLDERS,
     "b3e41cff26d5484fb5d79fa442b10394dfa144faf4282068bda2c3919a93019d"),
    # Over GF(2) two of its five rejected attempts fail the F2 solve's rank
    # decision (retries_used = 5), so this pins which samples it accepts.
    ((2, 5, 5, 2, 2), 2, None,
     "1b92cefbba6abc082e37e042efbad3f210abefbee99c62e48087c91fdeba0250"),
]


def test_artifact_bytes_are_pinned():
    for (K, N, Nr, M, S), q, holders, digest in PINNED_ARTIFACTS:
        params = SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=make_field(q))
        assignment = None if holders is None else DataAssignment.from_datasets(N, holders)
        text = artifact_to_json(build_scheme(params, assignment, seed=0))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (K, N, Nr, M, S, q)


def reference_artifact_json(scheme) -> str:
    """The v1 text through the standard library's indenting encoder."""
    p = scheme.params
    obj = {
        "format_version": 1, "K": p.K, "N": p.N, "Nr": p.Nr, "M": p.M, "S": p.S,
        "q": str(p.q.q), "seed": scheme.seed, "retries_used": scheme.retries_used,
        "assignment": {"D": [sorted(d) for d in scheme.assignment.dataset_servers]},
    }
    for name, mat in (("C", scheme.c), ("F", scheme.f)):
        obj[name] = {
            "rows": mat.rows, "cols": mat.cols, "q": str(p.q.q),
            "data": [str(int(v)) for v in mat.data.reshape(-1)],
        }
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("q", [2, 13, 2147483647, (1 << 61) - 1])
def test_writer_matches_the_indenting_encoder(q):
    field = make_field(q)
    for N, Nr, M, S in feasible_tuples(4):
        params = SchemeParams(K=2, N=N, Nr=Nr, M=M, S=S, q=field)
        try:
            scheme = build_scheme(params, seed=3)
        except ConstructionFailed:
            continue
        assert artifact_to_json(scheme) == reference_artifact_json(scheme)


def load_bench_checks():
    path = Path(__file__).resolve().parents[1] / "bench" / "checks.py"
    spec = importlib.util.spec_from_file_location("bench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tup", [(3, 3, 3, 2, 2), (2, 5, 4, 2, 3), (4, 6, 5, 3, 3)])
def test_bench_checks_read_a_fresh_artifact(tup):
    # The benchmark parses artifact text on its own; a format drift would
    # make it report correct: false.
    checks = load_bench_checks()
    K, N, Nr, M, S = tup
    scheme = build_scheme(SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=Q), seed=0)
    parsed = checks.ParsedArtifact(artifact_to_json(scheme))
    holders = [sorted(d) for d in scheme.assignment.dataset_servers]
    assert checks.check_structure(parsed, tup, Q.q, holders) == []


# ---- the layout map ----------------------------------------------------------


@pytest.mark.parametrize("K", [1, 3])
def test_layout_is_one_map(K):
    # For every feasible tuple with N <= 6: the dataset columns and the key
    # block partition F's columns, the server row blocks partition C's rows,
    # each server lacks alpha*(C(N,S) - C(N-1,S-1)) key pieces, and a built C
    # is zero on exactly those key columns of the server's rows.
    for N, Nr, M, S in feasible_tuples(6):
        params = SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=Q)
        dims = derive_dims(params)
        nk = dims.n * K
        f_cols = [c for k in range(1, K + 1) for c in dims.gradient_columns(k)]
        f_cols += range(nk, nk + dims.key_cols)
        assert sorted(f_cols) == list(range(dims.f_cols))
        c_rows = np.concatenate([dims.server_rows([s]) for s in range(1, N + 1)])
        assert c_rows.tolist() == list(range(dims.r * N))
        assert np.array_equal(dims.server_rows(range(1, N + 1)), c_rows)
        c = build_scheme(params, seed=0).c.data
        for server in range(1, N + 1):
            hidden = dims.hidden_key_offsets(server)
            assert hidden.size == dims.alpha * (comb0(N, S) - comb0(N - 1, S - 1))
            assert np.all(np.diff(hidden) > 0)
            assert hidden.size == 0 or 0 <= hidden[0] <= hidden[-1] < dims.key_cols
            zero = np.flatnonzero(~c[dims.server_rows([server])].any(axis=0))
            assert np.array_equal(zero, dims.n + hidden)


# ---- the fixed blocks of F ---------------------------------------------------


def tampered_f(scheme, change) -> str:
    """The artifact JSON with change(F) applied to a copy of F."""
    obj = artifact_obj(scheme)
    f = scheme.f.data.copy()
    change(f, scheme.dims)
    obj["F"]["data"] = [str(int(v) % Q.q) for v in f.reshape(-1)]
    return json.dumps(obj)


def scale_f1_f2(f, dims):
    f[:, : dims.n * dims.K] *= 2


def weight_datasets(f, dims):
    # F1's dataset-k columns weighted by k; scaling F2's columns the same way
    # re-solves C_Q X = -C_G F1 for the new F1, so encodability still holds.
    for k in range(1, dims.K + 1):
        f[:, dims.gradient_columns(k)] *= k


def set_corner(f, dims):
    f[0, dims.n * dims.K] = 1


def break_f3(f, dims):
    f[dims.n, dims.n * dims.K] = 0


@pytest.mark.parametrize(
    "change, message",
    [
        (scale_f1_f2, "F1 is not the piece-sum pattern"),
        (weight_datasets, "F1 is not the piece-sum pattern"),
        (set_corner, "upper-right block of F is not zero"),
        (break_f3, "F3 is not the identity"),
    ],
    ids=["f1-f2-doubled", "f1-weights-1-2-3", "corner", "f3"],
)
def test_parser_rejects_f_that_breaks_the_pattern(small_scheme, change, message):
    with pytest.raises(ParseError, match=message):
        artifact_from_json(tampered_f(small_scheme, change))


# ---- size cap ----------------------------------------------------------------


@pytest.mark.parametrize(
    "tup",
    [
        (24, 20, 18, 10, 8),  # C would hold 5.7e12 entries
        (1, 12, 11, 10, 6),  # C would hold 67293072 entries, just above 2^26
    ],
)
def test_build_refuses_oversized_tuples_before_sampling(monkeypatch, tup):
    def never(*args, **kwargs):
        raise AssertionError("sampled a matrix above the cap")

    monkeypatch.setattr("sgcode.scheme.sample_array", never)
    K, N, Nr, M, S = tup
    params = SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=Q)
    with pytest.raises(TooLarge, match=f"above the cap of {MAX_MATRIX_ENTRIES}"):
        build_scheme(params, seed=0)


class ReachedDeriveDims(Exception):
    pass


@pytest.mark.parametrize(
    "N, Nr, M, S, reaches",
    [
        (1 << 13, 1 << 13, 1 << 12, 1 << 12, True),  # N*Nr = 2^26, the cap itself
        (13421773, 5, 2, 2, False),  # N*Nr = 5 * 13421773 = 2^26 + 1
        (2 * 10**5, 2 * 10**5, 10**5, 10**5, False),  # C(N, S) alone takes seconds
    ],
)
def test_size_cap_refuses_n_times_nr_before_derive_dims(
    monkeypatch, small_scheme, N, Nr, M, S, reaches
):
    # C is r*N x r*Nr with r >= 1, so N*Nr above the cap is refused before
    # derive_dims computes any binomial, by build_scheme and by the parser.
    def reached(params):
        raise ReachedDeriveDims

    obj = artifact_obj(small_scheme)
    obj.update(K=1, N=N, Nr=Nr, M=M, S=S)
    params = SchemeParams(K=1, N=N, Nr=Nr, M=M, S=S, q=Q)
    monkeypatch.setattr("sgcode.scheme.derive_dims", reached)
    cases = [
        (lambda: build_scheme(params, seed=0), TooLarge),
        (lambda: artifact_from_json(json.dumps(obj)), ParseError),
    ]
    for call, error in cases:
        t0 = time.perf_counter()
        if reaches:
            with pytest.raises(ReachedDeriveDims):
                call()
        else:
            with pytest.raises(error, match=f"above the cap of {MAX_MATRIX_ENTRIES}"):
                call()
        assert time.perf_counter() - t0 < 1.0


def test_size_cap_message_survives_counts_too_long_to_print():
    # N*Nr is below the cap, but C(11000, 5500) has 3310 digits and C's
    # entry count twice that, beyond Python's int-to-string limit.
    params = SchemeParams(K=1, N=11000, Nr=6000, M=10999, S=5500, q=Q)
    with pytest.raises(TooLarge, match=r"at least 2\^\d+ entries, above the cap"):
        build_scheme(params, seed=0)
