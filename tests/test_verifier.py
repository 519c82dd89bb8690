"""Certification checks: decodability, encodability, the rank-based security
measure against a direct oracle and a brute-force enumeration oracle, F's
fixed blocks, monotonicity, and the certificate report format."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

import sgcode.verifier
from sgcode.analysis import feasible_tuples
from sgcode.engine import simulate_rounds
from sgcode.exactmat import FieldMatrix
from sgcode.field import SeededRng, TooLarge, make_field
from sgcode.scheme import (
    DataAssignment,
    SchemeArtifact,
    SchemeParams,
    build_scheme,
    cyclic_assignment,
    demand_pattern,
    derive_dims,
)
from sgcode.verifier import (
    Certificate,
    EncodabilityReport,
    certify,
    conditional_mi_direct,
    conditional_mi_rank,
    entropy_bruteforce,
    rank_entropy,
    verify_decodability,
    verify_encodability,
    verify_monotonicity,
)

Q = make_field(2147483647)


def fm(rows, field):
    """A matrix from nested int lists, reduced into [0, q)."""
    return FieldMatrix.wrap(np.array(rows, dtype=field.dtype()) % field.q, field)


# ---- fixtures ---------------------------------------------------------------


@pytest.fixture(scope="module")
def worked() -> SchemeArtifact:
    params = SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=Q)
    assignment = DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])
    return build_scheme(params, assignment, seed=0)


@pytest.fixture(scope="module")
def wide() -> SchemeArtifact:
    return build_scheme(SchemeParams(K=2, N=5, Nr=4, M=2, S=3, q=Q), seed=0)


@pytest.fixture(scope="module")
def tiny3() -> SchemeArtifact:
    # Small enough that all 3^9 variable assignments can be enumerated.
    return build_scheme(SchemeParams(K=2, N=3, Nr=3, M=2, S=2, q=make_field(3)), seed=0)


def corrupt_coding(scheme: SchemeArtifact, row: int, col: int) -> SchemeArtifact:
    field = scheme.params.q
    data = scheme.c.data.copy()
    data[row, col] = (int(data[row, col]) + 1) % field.q
    return dataclasses.replace(scheme, c=FieldMatrix.wrap(data, field))


def corrupt_demand(
    scheme: SchemeArtifact, row: int, col: int, value: int
) -> SchemeArtifact:
    data = scheme.f.data.copy()
    data[row, col] = value
    return dataclasses.replace(scheme, f=FieldMatrix.wrap(data, scheme.params.q))


# ---- decodability and encodability ------------------------------------------


def test_decodability_worked_example(worked):
    report = verify_decodability(worked)
    assert report.passed
    assert report.subsets_checked == 1
    assert report.first_failure is None


def test_decodability_checks_every_responder_subset(wide):
    report = verify_decodability(wide)
    assert report.passed
    assert report.subsets_checked == 5  # C(5, 4)


def test_decodability_names_first_singular_subset(wide):
    # Server 5 repeats server 4's block, so every subset holding both is
    # singular; in lexicographic order (1,2,3,4), (1,2,3,5), (1,2,4,5), ...
    # the first of them is the third.
    r = wide.dims.r
    data = wide.c.data.copy()
    data[4 * r : 5 * r] = data[3 * r : 4 * r]
    bad = dataclasses.replace(wide, c=FieldMatrix.wrap(data, Q))
    report = verify_decodability(bad)
    assert not report.passed
    assert report.first_failure == (1, 2, 4, 5)
    assert report.subsets_checked == 3
    cert = certify(bad)
    assert not cert.passed
    assert cert.to_json_dict()["decodability"] == {
        "subsets_checked": 3,
        "pass": False,
        "first_failure": [1, 2, 4, 5],
    }


def test_encodability_worked_example(worked):
    report = verify_encodability(worked)
    assert report.passed
    assert report.violations == ()


def test_corrupted_coding_entry_breaks_encodability(worked):
    bad = corrupt_coding(worked, 0, 0)
    report = verify_encodability(bad)
    assert not report.passed
    # Row 0 belongs to server 1; free column 0 feeds the piece sums that
    # include dataset 1, which server 1 does not hold.
    assert any("server 1" in v and "dataset 1" in v for v in report.violations)


def test_corrupted_key_coefficient_breaks_encodability(worked):
    n = worked.dims.n
    old = int(worked.f.data[n, 0])
    bad = corrupt_demand(worked, n, 0, (old + 1) % Q.q)
    assert not verify_encodability(bad).passed


# ---- security measure -------------------------------------------------------


def test_security_zero_for_certified_schemes(worked, wide):
    assert conditional_mi_rank(worked) == 0
    assert conditional_mi_rank(wide) == 0


def test_rank_measure_matches_direct_oracle(worked, wide):
    assert conditional_mi_rank(worked) == conditional_mi_direct(worked)
    assert conditional_mi_rank(wide) == conditional_mi_direct(wide)


def test_rank_measure_matches_direct_oracle_on_corrupted_schemes(worked):
    n, nk = worked.dims.n, worked.dims.n * worked.params.K
    variants = [
        corrupt_coding(worked, 0, 0),
        corrupt_demand(worked, n, 0, (int(worked.f.data[n, 0]) + 1) % Q.q),
        corrupt_demand(worked, n, nk, 0),
    ]
    for bad in variants:
        assert conditional_mi_rank(bad) == conditional_mi_direct(bad)


def test_unmasked_key_column_leaks_information(worked):
    # Zeroing a diagonal entry of the key identity block removes one key from
    # the transcript, so the piece differences are no longer fully masked.
    n, nk = worked.dims.n, worked.dims.n * worked.params.K
    bad = corrupt_demand(worked, n, nk, 0)
    assert conditional_mi_rank(bad) == 1


def random_artifact(params: SchemeParams, rng: np.random.Generator) -> SchemeArtifact:
    """A uniformly random C and F2 under F's fixed blocks."""
    dims, field = derive_dims(params), params.q
    nk = dims.n * params.K

    def uniform(rows, cols):
        return rng.integers(0, field.q, size=(rows, cols)).astype(field.dtype())

    f = demand_pattern(dims, field)
    f[dims.n :, :nk] = uniform(dims.f_rows - dims.n, nk)
    return SchemeArtifact(
        params=params,
        dims=dims,
        assignment=cyclic_assignment(params),
        c=FieldMatrix.wrap(uniform(dims.r * params.N, dims.f_rows), field),
        f=FieldMatrix.wrap(f, field),
        seed=0,
        retries_used=0,
    )


def test_fixed_blocks_leak_nothing_for_any_c_and_f2():
    # certify reads MI = 0 off F's structure; the rank identity and the
    # direct oracle must agree for random C and F2. With F3 zeroed, certify
    # measures the leak by the rank identity.
    rng = np.random.default_rng(12)
    cells = [
        (q, K, t)
        for q in (2, 3, 7, 2147483647)
        for K in (1, 2, 3)
        for t in feasible_tuples(5)
    ]
    cells += [(2**61 - 1, 1, (3, 3, 2, 2)), (2**61 - 1, 3, (4, 4, 2, 3)), (2**61 - 1, 2, (5, 4, 2, 3))]
    leaks = 0
    for q, K, (N, Nr, M, S) in cells:
        params = SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=make_field(q))
        art = random_artifact(params, rng)
        assert certify(art).security_mi == 0
        assert conditional_mi_rank(art) == conditional_mi_direct(art) == 0, (q, K, N, Nr, M, S)
        f = art.f.data.copy()
        f[art.dims.n :, art.dims.n * K :] = 0
        unmasked = dataclasses.replace(art, f=FieldMatrix.wrap(f, params.q))
        mi = certify(unmasked).security_mi
        assert mi == conditional_mi_rank(unmasked) == conditional_mi_direct(unmasked)
        leaks += K > 1 and mi > 0
    assert leaks > 0


def test_security_matches_bruteforce_enumeration(tiny3):
    # I(transcript; gradients | sum) from exhaustive enumeration over GF(3).
    field = tiny3.params.q
    dims, params = tiny3.dims, tiny3.params
    nk = dims.n * params.K
    var_count = dims.f_cols

    transcript = FieldMatrix.wrap((tiny3.c @ tiny3.f).data.copy(), field)
    sum_rows = np.zeros((dims.n, var_count), dtype=np.int64)
    sum_rows[:, :nk] = tiny3.f.data[: dims.n, :nk]
    gradient_rows = np.zeros((nk, var_count), dtype=np.int64)
    np.fill_diagonal(gradient_rows[:, :nk], 1)
    the_sum = FieldMatrix.wrap(sum_rows, field)
    gradients = FieldMatrix.wrap(gradient_rows, field)

    singles = entropy_bruteforce([transcript, the_sum, gradients], 3, var_count)
    h_x, h_s, h_g = singles.entropies
    h_xs = entropy_bruteforce([transcript, the_sum], 3, var_count).joint_entropy
    h_xg = entropy_bruteforce([transcript, gradients], 3, var_count).joint_entropy

    # The sum is a deterministic function of the gradients, so
    # I(X; G | S) = H(X, S) + H(G) - H(S) - H(X, G).
    mi = h_xs + h_g - h_s - h_xg
    assert mi == 0
    assert mi == conditional_mi_rank(tiny3)
    assert h_x == rank_entropy(transcript)
    assert h_s == rank_entropy(the_sum) == dims.n
    assert h_g == rank_entropy(gradients) == nk


# ---- brute-force oracle behavior --------------------------------------------


def test_rank_entropy_known_values():
    f3 = make_field(3)
    assert rank_entropy(fm(np.eye(4), f3)) == 4
    assert rank_entropy(fm(np.zeros((2, 5)), f3)) == 0


def test_bruteforce_agrees_with_rank_entropy_on_random_observables():
    field = make_field(3)
    rng = np.random.default_rng(7)
    for _ in range(25):
        rows = int(rng.integers(1, 4))
        coeff = FieldMatrix.wrap(
            rng.integers(0, 3, size=(rows, 5)).astype(np.int64), field
        )
        report = entropy_bruteforce([coeff], 3, 5)
        assert report.entropies[0] == rank_entropy(coeff)


@pytest.mark.parametrize("height", [65, 130])
def test_bruteforce_counts_tall_observables_exactly(height):
    # The last row weighs 2^(height-1) in a packed code, past any single
    # int64; it must still count.
    coeff = np.zeros((height, 3), dtype=np.int64)
    coeff[height - 1, 0] = 1
    obs = FieldMatrix.wrap(coeff, make_field(2))
    report = entropy_bruteforce([obs, obs], 2, 3)
    assert report.entropies == (1, 1)
    assert report.entropies[0] == rank_entropy(obs)
    assert report.joint_entropy == 1
    assert report.pairwise_mi[(0, 1)] == 1


def test_bruteforce_pairwise_mi():
    field = make_field(3)
    e1 = fm([[1, 0]], field)
    e2 = fm([[0, 1]], field)
    same = fm([[2, 0]], field)
    report = entropy_bruteforce([e1, e2, same], 3, 2)
    assert report.entropies == (1, 1, 1)
    assert report.joint_entropy == 2
    assert report.pairwise_mi[(0, 1)] == 0  # independent coordinates
    assert report.pairwise_mi[(0, 2)] == 1  # scalar multiples determine each other
    assert report.pairwise_mi[(1, 2)] == 0


def test_bruteforce_empty_observable_list():
    report = entropy_bruteforce([], 5, 3)
    assert report.entropies == ()
    assert report.joint_entropy == 0
    assert report.pairwise_mi == {}


def test_bruteforce_refuses_oversized_enumeration():
    field = make_field(2)
    obs = fm(np.zeros((1, 20)), field)
    with pytest.raises(TooLarge):
        entropy_bruteforce([obs], 2, 20)


def test_bruteforce_validates_width_and_modulus():
    f3 = make_field(3)
    with pytest.raises(ValueError, match="width"):
        entropy_bruteforce([fm(np.zeros((1, 4)), f3)], 3, 5)
    with pytest.raises(ValueError, match="modulus"):
        entropy_bruteforce([fm(np.zeros((1, 5)), f3)], 5, 5)


# ---- monotonicity -----------------------------------------------------------


def test_monotonicity_worked_example(worked):
    report = verify_monotonicity(worked.params)
    assert report.f_values == (Fraction(2),)
    assert report.g_values == (Fraction(5), Fraction(3), Fraction(2))
    assert report.f_strictly_decreasing
    assert report.g_non_increasing
    assert report.f_endpoint_is_r
    assert report.g_endpoint_is_r
    assert report.passed


def test_monotonicity_values_recomputed_independently():
    # N=6, Nr=5, M=3, S=3: r = 20 - 1 = 19, alpha = 3, n = 95 - 60 = 35.
    report = verify_monotonicity(SchemeParams(K=1, N=6, Nr=5, M=3, S=3, q=Q))
    assert report.f_values == (Fraction(30), Fraction(24), Fraction(19))
    assert report.g_values == (
        Fraction(65),
        Fraction(83, 2),
        Fraction(92, 3),
        Fraction(95, 4),
        Fraction(19),
    )
    assert report.passed


# ---- certificates -----------------------------------------------------------


def test_certificate_passes_on_worked_example(worked):
    cert = certify(worked)
    assert isinstance(cert, Certificate)
    assert cert.passed
    assert cert.decodability.passed
    assert cert.encodability.passed
    assert cert.security_mi == 0
    assert cert.dims_identity
    assert cert.broken_block is None


def test_certificate_json_shape(worked):
    payload = json.loads(certify(worked).to_json())
    assert set(payload) == {
        "decodability",
        "encodability",
        "security",
        "dims",
        "fixed_blocks",
        "passed",
    }
    assert payload["decodability"] == {
        "subsets_checked": 1,
        "pass": True,
        "first_failure": None,
    }
    assert payload["encodability"] == {"violations": []}
    assert payload["security"] == {"mi_value": "0"}
    assert payload["dims"] == {"identity_holds": True}
    assert payload["fixed_blocks"] == {"first_broken": None}
    assert payload["passed"] is True
    assert certify(worked).to_json().endswith("\n")


def test_certificate_fails_on_each_corruption(worked):
    n, nk = worked.dims.n, worked.dims.n * worked.params.K
    coding_bad = certify(corrupt_coding(worked, 0, 0))
    assert not coding_bad.passed and not coding_bad.encodability.passed

    key_bad = certify(
        corrupt_demand(worked, n, 0, (int(worked.f.data[n, 0]) + 1) % Q.q)
    )
    assert not key_bad.passed and not key_bad.encodability.passed

    mask_bad = certify(corrupt_demand(worked, n, nk, 0))
    assert not mask_bad.passed and mask_bad.security_mi > 0
    assert mask_bad.broken_block == "F3"

    corner_bad = certify(corrupt_demand(worked, 0, nk, 1))
    assert not corner_bad.passed and corner_bad.broken_block == "upper-right"


def test_certificate_refuses_doubled_f1_and_f2(worked):
    # Doubling F's gradient columns doubles F1 and F2 together. C F keeps
    # its zero pattern and leaks nothing, yet every responder subset then
    # decodes twice the gradient sum.
    nk = worked.dims.n * worked.params.K
    data = worked.f.data.copy()
    data[:, :nk] = data[:, :nk] * 2 % Q.q
    doubled = dataclasses.replace(worked, f=FieldMatrix.wrap(data, Q))
    cert = certify(doubled)
    assert cert.decodability.passed and cert.encodability.passed
    assert cert.security_mi == 0 and cert.dims_identity
    assert cert.broken_block == "F1"
    assert not cert.passed
    assert cert.to_json_dict()["fixed_blocks"] == {"first_broken": "F1"}
    assert not simulate_rounds(doubled, None, 2, SeededRng(0)).all_match


def full_product_certificate(scheme: SchemeArtifact) -> str:
    """certify's JSON with encodability read off the whole P = C F, per
    (server, columns), and the rank-based MI on every artifact."""
    params, dims = scheme.params, scheme.dims
    p = (scheme.c @ scheme.f).data
    violations = []
    for k in range(1, params.K + 1):
        for server in sorted(scheme.assignment.non_holders(k, params.N)):
            if np.any(p[dims.server_rows([server])][:, dims.gradient_columns(k)]):
                violations.append(f"server {server} touches unassigned dataset {k}")
    for server in range(1, params.N + 1):
        cols = dims.n * params.K + dims.hidden_key_offsets(server)
        if np.any(p[dims.server_rows([server])][:, cols]):
            violations.append(f"server {server} touches an unavailable key")
    return dataclasses.replace(
        certify(scheme),
        encodability=EncodabilityReport(tuple(violations)),
        security_mi=conditional_mi_rank(scheme),
    ).to_json()


def test_certificate_matches_full_product_reference(worked, wide):
    rng = np.random.default_rng(5)
    schemes = [worked, wide] + [
        build_scheme(SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=make_field(q)), seed=1)
        for q, K, (N, Nr, M, S) in (
            (7, 3, (4, 4, 2, 3)), (2147483647, 1, (5, 4, 3, 3)), (2**61 - 1, 2, (4, 3, 2, 3)),
        )
    ]
    seen = set()
    for scheme in schemes:
        field, dims = scheme.params.q, scheme.dims
        n, nk = dims.n, dims.n * scheme.params.K
        variants = [scheme]
        for name, rows, cols in (
            ("c", (0, dims.r * dims.N), (0, dims.f_rows)),
            ("f", (n, dims.f_rows), (0, nk)),  # F2
            ("f", (0, n), (0, nk)),  # F1
            ("f", (0, n), (nk, dims.f_cols)),  # upper-right
            ("f", (n, dims.f_rows), (nk, dims.f_cols)),  # F3
        ):
            for bumps in (1, 3):
                data = getattr(scheme, name).data.copy()
                for _ in range(bumps):
                    i, j = rng.integers(*rows), rng.integers(*cols)
                    data[i, j] = (int(data[i, j]) + 1) % field.q
                variants.append(dataclasses.replace(scheme, **{name: FieldMatrix.wrap(data, field)}))
        for variant in variants:
            text = certify(variant).to_json()
            assert text == full_product_certificate(variant)
            payload = json.loads(text)
            seen.add(("violations", bool(payload["encodability"]["violations"])))
            seen.add(("broken", payload["fixed_blocks"]["first_broken"]))
            seen.add(("leaks", payload["security"]["mi_value"] != "0"))
    assert {("violations", True), ("leaks", True), ("broken", None)} <= seen
    assert {("broken", "F1"), ("broken", "upper-right"), ("broken", "F3")} <= seen


def test_passing_certify_forms_only_the_checked_entries(wide, monkeypatch):
    # A passing artifact takes no security elimination and no product with
    # all of F's columns; a broken F3 takes both, through the rank identity.
    product_cols, pivots = [], []
    matmul = FieldMatrix.__matmul__
    pivot_columns = sgcode.verifier.pivot_columns

    def recording_matmul(a, b):
        product_cols.append(b.cols)
        return matmul(a, b)

    def recording_pivots(a):
        pivots.append(a.shape)
        return pivot_columns(a)

    monkeypatch.setattr(FieldMatrix, "__matmul__", recording_matmul)
    monkeypatch.setattr(sgcode.verifier, "pivot_columns", recording_pivots)
    f_cols = wide.dims.f_cols
    assert certify(wide).passed
    assert product_cols and f_cols not in product_cols
    assert pivots == []
    n, nk = wide.dims.n, wide.dims.n * wide.params.K
    assert certify(corrupt_demand(wide, n, nk, 0)).broken_block == "F3"
    assert f_cols in product_cols and pivots
