"""Audit the privacy guarantee three independent ways.

The transmissions, taken together, must reveal nothing about individual
gradients beyond their sum. This script measures that leakage exactly via
the rank identity, cross-checks it against a direct conditional-entropy
computation, confirms both against brute-force enumeration on a field
small enough to enumerate, and shows the measure catching a sabotaged
scheme.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from sgcode import build_scheme, certify, conditional_mi_rank, make_field
from sgcode.exactmat import FieldMatrix
from sgcode.scheme import SchemeParams, demand_pattern
from sgcode.verifier import (
    LinearObservable,
    conditional_mi_direct,
    entropy_bruteforce,
)


def main() -> None:
    scheme = build_scheme(
        SchemeParams(K=2, N=5, Nr=4, M=2, S=3, q=make_field(2147483647)), seed=0
    )
    print("five-server scheme over GF(2147483647):")
    print(f"  leakage by rank identity:  {conditional_mi_rank(scheme)}")
    print(f"  leakage by direct entropy: {conditional_mi_direct(scheme)}")
    print()

    tiny = build_scheme(
        SchemeParams(K=2, N=3, Nr=3, M=2, S=2, q=make_field(3)), seed=0
    )
    dims, params = tiny.dims, tiny.params
    nk = dims.n * params.K
    field = params.q
    print(f"tiny scheme over GF(3): {dims.f_cols} source variables, "
          f"3^{dims.f_cols} = {3 ** dims.f_cols} assignments enumerated")

    transcript = LinearObservable(
        FieldMatrix.wrap((tiny.c @ tiny.f).data.copy(), field)
    )
    sum_rows = demand_pattern(dims, field)[: dims.n]
    gradient_rows = np.zeros((nk, dims.f_cols), dtype=np.int64)
    np.fill_diagonal(gradient_rows[:, :nk], 1)
    the_sum = LinearObservable(FieldMatrix.wrap(sum_rows, field))
    gradients = LinearObservable(FieldMatrix.wrap(gradient_rows, field))

    h = entropy_bruteforce([transcript, the_sum, gradients], 3, dims.f_cols)
    h_xs = entropy_bruteforce([transcript, the_sum], 3, dims.f_cols).joint_entropy
    h_xg = entropy_bruteforce([transcript, gradients], 3, dims.f_cols).joint_entropy
    leakage = h_xs + h.entropies[2] - h.entropies[1] - h_xg
    print(f"  H(transcript) = {h.entropies[0]}, H(sum) = {h.entropies[1]}, "
          f"H(gradients) = {h.entropies[2]}")
    print(f"  enumerated leakage I(transcript; gradients | sum) = {leakage}")
    print(f"  rank identity on the same scheme:                   "
          f"{conditional_mi_rank(tiny)}")
    print()

    # Sabotage: drop one key from the transcript by zeroing its anchor in F3.
    n = scheme.dims.n
    nk = n * scheme.params.K
    data = scheme.f.data.copy()
    data[n, nk] = 0
    sabotaged = dataclasses.replace(scheme, f=FieldMatrix.wrap(data, scheme.params.q))
    cert = certify(sabotaged)
    print("after zeroing one key anchor in F3:")
    print(f"  leakage: {cert.security_mi} symbol(s) per column")
    print(f"  certificate passed: {cert.passed}")


if __name__ == "__main__":
    main()
