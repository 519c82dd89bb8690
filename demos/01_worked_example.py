"""Walk through the smallest interesting configuration end to end.

Three servers each compute gradients over their assigned datasets, any
N_r = 3 of them respond, and the decoder recovers the exact gradient sum
while learning nothing about individual gradients beyond that sum. This
script builds the scheme, inspects both matrices, certifies the result,
and runs one simulated round.
"""

from __future__ import annotations

from fractions import Fraction

from sgcode import build_scheme, certify, make_field, simulate_rounds
from sgcode.field import SeededRng
from sgcode.scheme import DataAssignment, SchemeParams


def main() -> None:
    params = SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=make_field(2147483647))
    assignment = DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])
    scheme = build_scheme(params, assignment, seed=0)
    dims = scheme.dims

    print("parameters:", params.K, "datasets,", params.N, "servers,")
    print("  any", params.Nr, "responders suffice, replication", params.M,
          ", key group size", params.S)
    print("assignment:", [sorted(d) for d in assignment.dataset_servers])
    print()
    print(f"message rows per server r = {dims.r}")
    print(f"gradient pieces          n = {dims.n}")
    print(f"key pieces per group     alpha = {dims.alpha}")
    print(f"coding matrix C: {scheme.c.rows}x{scheme.c.cols}")
    print(f"demand matrix F: {scheme.f.rows}x{scheme.f.cols}")
    print(f"communication cost R = {Fraction(dims.r, dims.n)}")
    print()

    print("key-column zero pattern in C (server, zero column):")
    for server in range(1, params.N + 1):
        rows = dims.server_rows([server])
        zero_cols = [
            c
            for c in range(dims.n, scheme.c.cols)
            if not scheme.c.data[rows][:, c].any()
        ]
        print(f"  server {server}: columns {zero_cols}")
    print()

    cert = certify(scheme)
    print("certificate:")
    print(f"  decodability: {cert.decodability.subsets_checked} responder "
          f"subsets, pass = {cert.decodability.passed}")
    print(f"  encodability violations: {len(cert.encodability.violations)}")
    print(f"  conditional mutual information: {cert.security_mi}")
    print(f"  dimension identities hold: {cert.dims_identity}")
    print(f"  certified: {cert.passed}")
    print()

    report = simulate_rounds(scheme, L=6, rounds=3, rng=SeededRng(42))
    for entry in report.rounds:
        print(f"round {entry.round_index}: responders {entry.responders}, "
              f"decoded == direct sum: {entry.match}")
    print(f"realized cost {report.realized_cost} "
          f"({report.rounds[0].per_server_symbols} symbols per server, L = {report.L})")


if __name__ == "__main__":
    main()
