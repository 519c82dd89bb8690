"""The two workloads: their seeded inputs and one round of operations.

A round runs every operation of the workload once, in order, with one
caller and no worker threads. Each workload's inputs depend only on the
seed, and every round of a run repeats the same inputs, so every round's
outputs must be identical to the first round's. The first round keeps its
outputs on disk; `check` then examines them, after the round's peak
memory has been read.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple

import sgcode.cli
import sgcode.engine
import sgcode.scheme
import sgcode.verifier
from sgcode.analysis import feasible_tuples
from sgcode.field import SeededRng, make_field

import checks
from spans import Tracer

INT64_Q = 2**31 - 1

# The acceptance sweep: every feasible tuple with N <= 6, K <= 4.
SWEEP_MAX_N = 6
SWEEP_MAX_K = 4
# Cells whose every responder subset is solved by the independent checks.
SWEEP_SAMPLE_STRIDE = 20

N8_TUPLE = (8, 8, 7, 5, 3)  # (K, N, Nr, M, S): C_U 322 x 322, 8 subsets
N8_ELL = 16


@dataclass
class Round:
    """Totals of one round; digest covers every output of the round."""

    # Per operation group (a cell, or the n8 scheme): the seconds of its
    # build, verify and simulate operations.
    times: Dict[int, Tuple[float, float, float]] = field(default_factory=dict)
    artifact_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    # Why operations failed; failures are counted, not checked.
    failures: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(sum(t) for t in self.times.values())

    def close(self) -> "Round":
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return self


def _random_holders(rng: random.Random, N: int, M: int, K: int) -> List[List[int]]:
    """Each dataset on a uniform subset of a uniform size in [M, N]."""
    return [sorted(rng.sample(range(1, N + 1), rng.randint(M, N))) for _ in range(K)]


def _cyclic_holders(N: int, M: int, K: int) -> List[List[int]]:
    return [sorted(((k + j) % N) + 1 for j in range(M)) for k in range(K)]


def _negative_control(text: str, q: int, program_rejects) -> List[str]:
    """One entry of C changed: both the program and the independent
    encodability check must reject it."""
    bad = checks.tamper(text, checks.ParsedArtifact(text))
    errors = []
    if not program_rejects(bad):
        errors.append("negative control: the program accepts a changed C")
    tampered = checks.ParsedArtifact(bad)
    if not checks.check_encodability(tampered, checks.mod_matmul(tampered.c, tampered.f, q)):
        errors.append("negative control: the independent checks accept a changed C")
    return errors


@dataclass(frozen=True)
class Cell:
    tup: Tuple[int, int, int, int, int]  # (K, N, Nr, M, S)
    holders: Tuple[Tuple[int, ...], ...]
    seed: int
    sim_seed: int
    sampled: bool


class SweepWorkload:
    """The sweep cells driven through the library: build_scheme + certify +
    artifact_to_json, then artifact_from_json + certify, then one rotation
    of simulate_rounds at L = n on the parsed artifact."""

    def __init__(self, seed: int, workdir: str):
        self.q = INT64_Q
        self.workdir = workdir
        field_q = make_field(self.q)
        rng = random.Random(seed)
        tuples = [
            (K, N, Nr, M, S)
            for (N, Nr, M, S) in feasible_tuples(SWEEP_MAX_N)
            for K in range(1, SWEEP_MAX_K + 1)
        ]
        self.cells, self.inputs = [], []
        for i, (K, N, Nr, M, S) in enumerate(tuples):
            cyclic = (i + seed) % 4 == 0
            holders = _cyclic_holders(N, M, K) if cyclic else _random_holders(rng, N, M, K)
            self.cells.append(Cell(
                tup=(K, N, Nr, M, S),
                holders=tuple(tuple(h) for h in holders),
                seed=rng.randrange(1000),
                sim_seed=rng.randrange(2**32),
                sampled=i % SWEEP_SAMPLE_STRIDE == 0,
            ))
            self.inputs.append((
                sgcode.scheme.SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=field_q),
                sgcode.scheme.DataAssignment.from_datasets(N, holders),
            ))

    def _kept(self, i: int) -> str:
        return os.path.join(self.workdir, f"cell-{i}.json")

    def run_round(self, tracer: Optional[Tracer], keep: bool) -> Round:
        """Every cell's three operations. An operation fails when it raises
        or its result does not pass (certificate, decoded sums); the cell's
        later operations then count as failed too."""
        out = Round()
        for i, (cell, (params, assignment)) in enumerate(zip(self.cells, self.inputs)):
            out.attempted += 3
            done = 0  # operations of this cell that completed
            try:
                t0 = time.perf_counter()
                art = sgcode.scheme.build_scheme(params, assignment, seed=cell.seed)
                cert = sgcode.verifier.certify(art)
                text = sgcode.scheme.artifact_to_json(art)
                t1 = time.perf_counter()
                done = 1
                parsed = sgcode.scheme.artifact_from_json(text)
                cert2 = sgcode.verifier.certify(parsed)
                t2 = time.perf_counter()
                done = 2
                report = sgcode.engine.simulate_rounds(
                    parsed, L=parsed.dims.n, rounds=comb(params.N, params.Nr),
                    rng=SeededRng(cell.sim_seed).spawn("simulate"),
                )
                t3 = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                out.failed += 3 - done
                out.failures.append(f"cell {cell.tup} raised {exc!r}")
                continue
            out.times[i] = (t1 - t0, t2 - t1, t3 - t2)
            out.artifact_bytes += len(text)
            ok = (cert.passed, cert2.passed, report.all_match)
            if not all(ok):
                out.failed += 3 - ok.index(False)
                out.failures.append(f"cell {cell.tup}: (build, verify, simulate) passed {ok}")
                continue
            kept = {
                "artifact": text,
                "build_cert": cert.to_json(),
                "verify_cert": cert2.to_json(),
                "dims": {"r": art.dims.r, "n": art.dims.n, "alpha": art.dims.alpha},
                "realized_cost": str(report.realized_cost),
                "rounds": [
                    {
                        "round": r.round_index,
                        "responders": list(r.responders),
                        "per_server_symbols": r.per_server_symbols,
                        "decoded_digest": r.decoded_digest,
                        "direct_digest": r.direct_digest,
                    }
                    for r in report.rounds
                ],
            }
            line = json.dumps(kept)
            out.digest.update(line.encode())
            if keep:
                with open(self._kept(i), "w", encoding="utf-8") as handle:
                    handle.write(line)
        return out.close()

    def check(self) -> List[str]:
        """Independent checks on the kept first round, then the contract on
        one cell: a byte-identical rebuild and a rejected negative control."""
        errors = []
        for i, cell in enumerate(self.cells):
            if not os.path.exists(self._kept(i)):
                continue  # a failed operation, counted in `failed`
            with open(self._kept(i), encoding="utf-8") as handle:
                kept = json.load(handle)
            errors.extend(f"cell {cell.tup}: {e}" for e in self._check_cell(cell, kept))
        # The first kept cell where some server lacks a dataset, so that
        # the negative control has an entry to change.
        i = next(i for i, c in enumerate(self.cells)
                 if any(len(h) < c.tup[1] for h in c.holders) and os.path.exists(self._kept(i)))
        with open(self._kept(i), encoding="utf-8") as handle:
            text = json.load(handle)["artifact"]
        params, assignment = self.inputs[i]
        again = sgcode.scheme.artifact_to_json(
            sgcode.scheme.build_scheme(params, assignment, seed=self.cells[i].seed)
        )
        if again != text:
            errors.append(f"rebuilding cell {self.cells[i].tup} gives other artifact bytes")
        return errors + _negative_control(text, self.q, lambda t: not sgcode.verifier.certify(
            sgcode.scheme.artifact_from_json(t)).passed)

    def _check_cell(self, cell: Cell, kept: dict) -> List[str]:
        N, Nr = cell.tup[1], cell.tup[2]
        parsed = checks.ParsedArtifact(kept["artifact"])
        errors = checks.check_structure(parsed, cell.tup, self.q, cell.holders, kept["dims"])
        errors += checks.check_certificate(json.loads(kept["build_cert"]), N, Nr)
        if kept["verify_cert"] != kept["build_cert"]:
            errors.append("verify gives another certificate than build")
        errors += checks.check_simulation(
            kept["rounds"], parsed, comb(N, Nr), 1, Fraction(kept["realized_cost"])
        )
        if cell.sampled and not errors:
            errors += checks.check_decoding_and_security(parsed, cell.sim_seed)
        return errors


class N8Workload:
    """One N = 8 scheme driven through sgcode.cli.main: build (with an
    assignment file), verify, and simulate one rotation of the responder
    subsets with pieces of N8_ELL symbols."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        K, N, Nr, M, S = self.tup = N8_TUPLE
        self.holders = _cyclic_holders(N, M, K)
        self.seed = rng.randrange(1000)
        self.sim_seed = rng.randrange(2**32)
        self.dims = checks.closed_dims(*self.tup)
        self.rotation = comb(N, Nr)
        self.L = N8_ELL * self.dims["n"]
        self.paths = {
            name: os.path.join(workdir, f"n8-{name}.json")
            for name in ("assignment", "artifact", "artifact.cert", "verify-cert", "sim",
                         "tampered")
        }
        with open(self.paths["assignment"], "w", encoding="utf-8") as handle:
            json.dump({"D": self.holders}, handle)
        self.argv = [
            ["build", "--K", str(K), "--N", str(N), "--Nr", str(Nr), "--M", str(M),
             "--S", str(S), "--q", str(INT64_Q), "--seed", str(self.seed),
             "--assignment", self.paths["assignment"], "--out", self.paths["artifact"]],
            ["verify", self.paths["artifact"], "--out", self.paths["verify-cert"]],
            ["simulate", self.paths["artifact"], "--L", str(self.L),
             "--rounds", str(self.rotation), "--seed", str(self.sim_seed),
             "--out", self.paths["sim"]],
        ]
        self.build_stdout = ""

    def _cli(self, tracer: Optional[Tracer], argv: List[str]) -> Tuple[int, str, float]:
        """sgcode.cli.main with its output captured, so that the result line
        stays the last line this process prints."""
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                if tracer is None:
                    code = sgcode.cli.main(argv)
                else:
                    code = tracer.call(f"cli.{argv[0]}", sgcode.cli.main, argv)
            except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
                code = -1
                print(repr(exc))
        return code, sink.getvalue(), time.perf_counter() - t0

    def run_round(self, tracer: Optional[Tracer], keep: bool) -> Round:
        out = Round(attempted=3)
        times = []
        for argv in self.argv:
            code, text, seconds = self._cli(tracer, argv)
            times.append(seconds)
            if code != 0:
                out.failed = 3 - len(times) + 1
                out.failures.append(f"sgcode {argv[0]} exited {code}: {text.strip()[-300:]}")
                break
            if argv[0] == "build":
                self.build_stdout = text
        out.times[0] = tuple((times + [0.0, 0.0])[:3])
        if not out.failed:
            out.artifact_bytes = os.path.getsize(self.paths["artifact"])
            for name in ("artifact", "artifact.cert", "verify-cert", "sim"):
                with open(self.paths[name], "rb") as handle:
                    out.digest.update(handle.read())
        return out.close()

    def _read(self, name: str) -> str:
        with open(self.paths[name], encoding="utf-8") as handle:
            return handle.read()

    def check(self) -> List[str]:
        """Independent checks on the files of the last round, a byte-identical
        rebuild through the library, and a negative control that
        `sgcode verify` must reject with a nonzero exit."""
        K, N, Nr, M, S = self.tup
        if not all(os.path.exists(self.paths[n]) for n in ("artifact", "verify-cert", "sim")):
            return []  # a failed operation, counted in `failed`
        text = self._read("artifact")
        parsed = checks.ParsedArtifact(text)
        d = self.dims
        shapes = (f"C {d['c_rows']}x{d['c_cols']}, F {d['c_cols']}x{d['f_cols']}, "
                  f"R = {d['r']}/{d['n']}")
        errors = [] if shapes in self.build_stdout else [
            f"build reports other dims: {self.build_stdout.strip()}"]
        errors += checks.check_structure(parsed, self.tup, INT64_Q, self.holders)
        build_cert = self._read("artifact.cert")
        errors += checks.check_certificate(json.loads(build_cert), N, Nr)
        if self._read("verify-cert") != build_cert:
            errors.append("verify gives another certificate than build")
        sim = json.loads(self._read("sim"))
        if sim["piece_len"] != N8_ELL or sim["L"] != self.L:
            errors.append(f"simulation ran L={sim['L']}, piece_len={sim['piece_len']}")
        cost = Fraction(sim["realized_cost"]) if sim["realized_cost"] else None
        errors += checks.check_simulation(sim["rounds"], parsed, self.rotation, N8_ELL, cost)
        if not errors:
            errors += checks.check_decoding_and_security(parsed, self.sim_seed)

        params = sgcode.scheme.SchemeParams(K=K, N=N, Nr=Nr, M=M, S=S, q=make_field(INT64_Q))
        assignment = sgcode.scheme.DataAssignment.from_datasets(N, self.holders)
        again = sgcode.scheme.artifact_to_json(
            sgcode.scheme.build_scheme(params, assignment, seed=self.seed)
        )
        if again != text:
            errors.append("rebuilding the n8 scheme gives other artifact bytes")

        def cli_rejects(bad: str) -> bool:
            with open(self.paths["tampered"], "w", encoding="utf-8") as handle:
                handle.write(bad)
            return self._cli(None, ["verify", self.paths["tampered"]])[0] != 0

        return errors + _negative_control(text, INT64_Q, cli_rejects)


def make_workload(name: str, seed: int, workdir: str):
    if name == "sweep":
        return SweepWorkload(seed, workdir)
    if name == "n8":
        return N8Workload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
