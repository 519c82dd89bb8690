"""Acceptance suite: one test per shipped guarantee, each printing a single
pass/fail line under pytest -v and enforcing its own wall-clock budget.

The sweep shared by the security and decodability criteria builds, certifies,
and simulates every feasible tuple with N <= 6 and K <= 4 under a cyclic plus
20 random assignments and 3 construction seeds, 26460 schemes in total. Build
and certification time is charged to the security criterion, simulation time
to the decodability criterion."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import List, Tuple

import numpy as np
import pytest

from sgcode.analysis import (
    cost_R,
    cost_Rn,
    feasible_tuples,
    order_optimality_check,
    sweep,
    sweep_csv,
)
from sgcode.engine import rotating_responders, simulate_rounds
from sgcode.exactmat import FieldMatrix
from sgcode.field import SeededRng, derive_seed, make_field
from sgcode.keyspace import (
    enumerate_groups,
    omega_bruteforce,
    omega_closed,
    omega_split,
)
from sgcode.scheme import (
    DataAssignment,
    SchemeArtifact,
    SchemeParams,
    build_scheme,
    cyclic_assignment,
    gradient_columns,
    random_assignment,
)
from sgcode.verifier import (
    LinearObservable,
    certify,
    entropy_bruteforce,
    rank_entropy,
    verify_monotonicity,
)

SWEEP_MODULUS = make_field(2147483647)
SWEEP_SEEDS = (0, 1, 2)
SWEEP_MAX_N = 6
SWEEP_MAX_K = 4
SWEEP_RANDOM_ASSIGNMENTS = 20
SIM_ROUNDS = 100


# ---- shared sweep (criteria 2 and 3) ----------------------------------------


@dataclass
class SweepOutcome:
    scheme_count: int = 0
    build_certify_seconds: float = 0.0
    simulate_seconds: float = 0.0
    certification_failures: List[tuple] = field(default_factory=list)
    security_failures: List[tuple] = field(default_factory=list)
    decode_failures: List[tuple] = field(default_factory=list)
    coverage_failures: List[tuple] = field(default_factory=list)


@pytest.fixture(scope="module")
def sweep_outcome() -> SweepOutcome:
    out = SweepOutcome()
    for (N, Nr, M, S) in feasible_tuples(SWEEP_MAX_N):
        for K in range(1, SWEEP_MAX_K + 1):
            params = SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=SWEEP_MODULUS)
            assignment_rng = SeededRng(
                derive_seed(2024, f"assign-{N}-{Nr}-{M}-{S}-{K}")
            )
            assignments = [cyclic_assignment(params)] + [
                random_assignment(params, assignment_rng)
                for _ in range(SWEEP_RANDOM_ASSIGNMENTS)
            ]
            for a_index, assignment in enumerate(assignments):
                for seed in SWEEP_SEEDS:
                    where = (N, Nr, M, S, K, a_index, seed)
                    t0 = time.perf_counter()
                    scheme = build_scheme(params, assignment, seed=seed)
                    cert = certify(scheme)
                    t1 = time.perf_counter()
                    if not cert.passed:
                        out.certification_failures.append(where)
                    if cert.security_mi != 0:
                        out.security_failures.append(where)
                    report = simulate_rounds(
                        scheme,
                        L=scheme.dims.n,
                        rounds=SIM_ROUNDS,
                        rng=SeededRng(derive_seed(seed, "acceptance-sim")),
                        with_digests=False,
                    )
                    t2 = time.perf_counter()
                    if not report.all_match:
                        out.decode_failures.append(where)
                    covered = {r.responders for r in report.rounds}
                    if covered != set(rotating_responders(scheme)):
                        out.coverage_failures.append(where)
                    out.build_certify_seconds += t1 - t0
                    out.simulate_seconds += t2 - t1
                    out.scheme_count += 1
    return out


# ---- helpers ----------------------------------------------------------------


def twelve_digits(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def corrupt_coding_entry(scheme: SchemeArtifact) -> SchemeArtifact:
    data = scheme.c.data.copy()
    data[0, 0] = (int(data[0, 0]) + 1) % scheme.params.q.q
    return dataclasses.replace(scheme, c=FieldMatrix.wrap(data, scheme.params.q))


def corrupt_demand_entry(
    scheme: SchemeArtifact, row: int, col: int, value: int
) -> SchemeArtifact:
    data = scheme.f.data.copy()
    data[row, col] = value
    return dataclasses.replace(scheme, f=FieldMatrix.wrap(data, scheme.params.q))


# ---- criteria ---------------------------------------------------------------


def test_criterion_1_worked_example_reproduction():
    t0 = time.perf_counter()
    params = SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=SWEEP_MODULUS)
    assignment = DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])
    scheme = build_scheme(params, assignment, seed=0)

    assert scheme.dims.r == 2
    assert scheme.dims.n == 3
    assert scheme.dims.alpha == 1
    assert scheme.f.shape == (6, 12)
    assert scheme.c.shape == (6, 6)
    assert Fraction(scheme.dims.r, scheme.dims.n) == Fraction(2, 3)
    assert cost_R(3, 3, 2, 2) == Fraction(2, 3)

    # Key columns of groups that exclude a server are zero in that server's
    # block: group {2,3} for server 1, {1,3} for server 2, {1,2} for server 3.
    index = enumerate_groups(3, 2)
    expected_cols = {1: 5, 2: 4, 3: 3}
    for server in (1, 2, 3):
        cols = [
            scheme.dims.n + j * len(index) + gi
            for j in range(scheme.dims.alpha)
            for gi, group in enumerate(index.groups)
            if server not in group
        ]
        assert cols == [expected_cols[server]]
        block = scheme.c.data[scheme.dims.server_rows([server])][:, cols]
        assert not np.any(block)

    # Server 1 must not touch dataset 1: C_1 F(:, G_1) is the 2x3 zero block.
    c1 = scheme.c.take_rows(range(2))
    g1 = scheme.f.take_cols(gradient_columns(scheme.dims, params, 1))
    assert (c1 @ g1).is_zero()

    assert time.perf_counter() - t0 < 1.0


@pytest.mark.slow
def test_criterion_2_security_measure_zero_across_sweep(sweep_outcome):
    assert sweep_outcome.scheme_count == 26460
    assert sweep_outcome.certification_failures == []
    assert sweep_outcome.security_failures == []
    assert sweep_outcome.build_certify_seconds < 300.0


@pytest.mark.slow
def test_criterion_3_every_subset_decodes_across_sweep(sweep_outcome):
    assert sweep_outcome.decode_failures == []
    assert sweep_outcome.coverage_failures == []
    assert sweep_outcome.simulate_seconds < 600.0


def test_criterion_4_cost_tables_match_independent_rationals():
    t0 = time.perf_counter()
    N, Nr = 14, 12

    def expected_point(M: int, S: int) -> Tuple[Fraction, Fraction]:
        r = comb(N, S) - comb(M, S)
        n = r * Nr - comb(N, S) * (N - M)
        return Fraction(r, n), Fraction(1, Nr - N + M)

    m_values = range(3, 14)
    m_rows = sweep("M", m_values, {"N": N, "Nr": Nr, "S": 6})
    m_lines = sweep_csv("M", m_rows).splitlines()
    assert len(m_lines) == len(m_rows) + 1
    m_costs = []
    for M, line in zip(m_values, m_lines[1:]):
        cells = line.split(",")
        R, Rn = expected_point(M, 6)
        assert cells[0] == "M" and cells[1] == str(M)
        assert cells[2] == str(R) and cells[3] == twelve_digits(R)
        assert cells[4] == str(Rn) and cells[5] == twelve_digits(Rn)
        assert cells[6] == str(R / Rn)
        assert cells[8] == ("S>M" if 6 > M else "S<=M")
        m_costs.append(R)
    assert all(a >= b for a, b in zip(m_costs, m_costs[1:]))

    s_values = range(4, 14)
    s_rows = sweep("S", s_values, {"N": N, "Nr": Nr, "M": 8})
    s_lines = sweep_csv("S", s_rows).splitlines()
    s_costs = []
    for S, line in zip(s_values, s_lines[1:]):
        cells = line.split(",")
        R, Rn = expected_point(8, S)
        assert cells[1] == str(S)
        assert cells[2] == str(R) and cells[4] == str(Rn)
        if S >= 9:
            assert R == Rn == Fraction(1, 6)
        s_costs.append(R)
    assert all(a >= b for a, b in zip(s_costs, s_costs[1:]))

    assert time.perf_counter() - t0 < 1.0


def test_criterion_5_cost_is_order_optimal_exhaustively():
    t0 = time.perf_counter()
    report = order_optimality_check(12)
    assert report.tuples_checked == len(feasible_tuples(12))
    assert report.equality_failures == ()  # S > M gives R = Rn exactly
    assert report.bound_failures == ()  # S <= M gives Rn < R <= 2 Rn
    assert report.argmax_at_S2_full_responders
    assert report.max_ratio == Fraction(11, 6)
    assert report.argmax == ((12, 12, 11, 2),)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_group_coverage_counts_agree():
    t0 = time.perf_counter()
    for N in range(1, 13):
        for S in range(1, N + 1):
            index = enumerate_groups(N, S)
            for x in range(N + 1):
                servers = frozenset(range(1, x + 1))
                closed = omega_closed(N, S, x)
                assert closed == omega_split(N, S, x)
                assert closed == omega_bruteforce(index, servers)
    assert time.perf_counter() - t0 < 30.0


def test_criterion_7_rank_entropy_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240822)
    for _ in range(200):
        q = int(rng.choice((2, 3)))
        var_count = int(rng.integers(1, 6))
        rows = int(rng.integers(1, 5))
        coeff = FieldMatrix.wrap(
            rng.integers(0, q, size=(rows, var_count)).astype(np.int64),
            make_field(q),
        )
        observable = LinearObservable(coeff)
        report = entropy_bruteforce([observable], q, var_count)
        assert report.entropies[0] == rank_entropy(observable)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_8_coverage_profiles_are_monotone():
    t0 = time.perf_counter()
    two = make_field(2)
    for (N, Nr, M, S) in feasible_tuples(12):
        params = SchemeParams(K=1, N=N, Nr=Nr, M=M, S=S, q=two)
        report = verify_monotonicity(params)
        assert report.passed, (N, Nr, M, S)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_9_negative_controls_fail_certification():
    t0 = time.perf_counter()
    params = SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=SWEEP_MODULUS)
    assignment = DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])
    scheme = build_scheme(params, assignment, seed=0)
    assert certify(scheme).passed
    n = scheme.dims.n
    nk = n * params.K

    assert not certify(corrupt_coding_entry(scheme)).passed

    key_coefficient = (int(scheme.f.data[n, 0]) + 1) % params.q.q
    assert not certify(corrupt_demand_entry(scheme, n, 0, key_coefficient)).passed

    rank_deficient = certify(corrupt_demand_entry(scheme, n, nk, 0))
    assert not rank_deficient.passed
    assert rank_deficient.security_mi > 0

    assert time.perf_counter() - t0 < 10.0
