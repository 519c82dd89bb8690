"""Secure gradient coding over prime fields with groupwise uncoded keys.

The package builds linear coding schemes that let a subset of compute
servers deliver an exact gradient sum to an aggregator while the
aggregator learns nothing about individual gradients beyond that sum.
Everything is exact arithmetic over GF(q): scheme construction,
round simulation, and the machine-checked certificates.

Top-level surface:

* :mod:`sgcode.field` - prime moduli, deterministic RNG, sampling.
* :mod:`sgcode.exactmat` - exact dense matrices over GF(q).
* :mod:`sgcode.keyspace` - piece counts, key groups, coverage counts.
* :mod:`sgcode.analysis` - communication cost, sweeps, optimality.
* :mod:`sgcode.scheme` - scheme construction and serialization.
* :mod:`sgcode.engine` - encoding, decoding, multi-round simulation.
* :mod:`sgcode.verifier` - certificates and entropy checks.
* :mod:`sgcode.cli` - command line front end.
"""

from __future__ import annotations

from .analysis import cost_point, cost_R, cost_Rn, sweep, sweep_csv
from .engine import decode, encode, sample_round, simulate_rounds
from .field import DEFAULT_MODULUS, FieldModulus, SeededRng, make_field
from .scheme import (
    DataAssignment,
    SchemeArtifact,
    SchemeParams,
    artifact_from_json,
    artifact_to_json,
    build_scheme,
    cyclic_assignment,
    random_assignment,
)
from .verifier import Certificate, certify, conditional_mi_rank, entropy_bruteforce

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DataAssignment",
    "DEFAULT_MODULUS",
    "FieldModulus",
    "SchemeArtifact",
    "SchemeParams",
    "SeededRng",
    "artifact_from_json",
    "artifact_to_json",
    "build_scheme",
    "certify",
    "conditional_mi_rank",
    "cost_R",
    "cost_Rn",
    "cost_point",
    "cyclic_assignment",
    "decode",
    "encode",
    "entropy_bruteforce",
    "make_field",
    "random_assignment",
    "sample_round",
    "simulate_rounds",
    "sweep",
    "sweep_csv",
    "__version__",
]
