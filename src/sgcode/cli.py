"""Command-line front end: cost evaluation, scheme construction, artifact
verification, round simulation, and CSV parameter sweeps.

Exit codes: 0 success, 2 infeasible or invalid parameters, 3 construction
failed, 4 verification failed, 5 I/O or parse error."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .analysis import (
    AXES,
    Infeasible,
    cost_point,
    decimal12,
    feasibility_violation,
    sweep,
    sweep_csv,
)
from .engine import check_simulation_inputs, simulate_rounds
from .field import DEFAULT_MODULUS, SeededRng, make_field
from .scheme import (
    ConstructionFailed,
    DataAssignment,
    ParseError,
    SchemeArtifact,
    SchemeParams,
    artifact_from_json,
    artifact_to_json,
    build_scheme,
)
from .verifier import certify

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONSTRUCTION = 3
EXIT_VERIFY = 4
EXIT_IO = 5


def _decimal(value: Fraction) -> str:
    return decimal12(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgcode",
        description=(
            "Exact construction, simulation, and verification of secure "
            "gradient coding schemes with groupwise keys."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cost = sub.add_parser("cost", help="evaluate the communication cost point")
    for name in ("--N", "--Nr", "--M", "--S"):
        cost.add_argument(name, type=int, required=True)
    cost.add_argument("--out", help="write the point as JSON here")

    build = sub.add_parser("build", help="construct and certify a scheme")
    for name in ("--K", "--N", "--Nr", "--M", "--S"):
        build.add_argument(name, type=int, required=True)
    build.add_argument("--q", type=int, default=DEFAULT_MODULUS)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--assignment", help="JSON file {\"D\": [[...], ...]}")
    build.add_argument("--out", required=True, help="artifact output path")

    verify = sub.add_parser("verify", help="re-check a serialized artifact")
    verify.add_argument("artifact", help="artifact JSON path")
    verify.add_argument("--out", help="write the certificate JSON here")

    simulate = sub.add_parser("simulate", help="run decode rounds")
    simulate.add_argument("artifact", help="artifact JSON path")
    simulate.add_argument("--L", type=int, help="gradient length (default 4n)")
    simulate.add_argument("--rounds", type=int, default=1)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--responders",
        help="comma-separated server list; default rotates over all subsets",
    )
    simulate.add_argument("--out", help="write the round report JSON here")

    swp = sub.add_parser("sweep", help="CSV sweep along one parameter axis")
    swp.add_argument("--axis", choices=list(AXES), required=True)
    swp.add_argument("--from", dest="axis_from", type=int, required=True)
    swp.add_argument("--to", dest="axis_to", type=int, required=True)
    for name in ("--N", "--Nr", "--M", "--S"):
        swp.add_argument(name, type=int)
    swp.add_argument("--out", help="CSV output path (default stdout)")
    return parser


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _cert_path(artifact_path: str) -> str:
    stem = artifact_path[:-5] if artifact_path.endswith(".json") else artifact_path
    return stem + ".cert.json"


def _cmd_cost(args: argparse.Namespace) -> int:
    violation = feasibility_violation(args.N, args.Nr, args.M, args.S)
    if violation is not None:
        print(f"infeasible: {violation}", file=sys.stderr)
        return EXIT_INFEASIBLE
    pt = cost_point(args.N, args.Nr, args.M, args.S)
    assert pt.R is not None and pt.Rn is not None
    assert pt.ratio is not None and pt.beta is not None
    print(
        f"R = {pt.R} ({_decimal(pt.R)}), Rn = {pt.Rn} ({_decimal(pt.Rn)}), "
        f"ratio = {pt.ratio} ({_decimal(pt.ratio)}), beta = {pt.beta}, "
        f"regime {pt.regime}"
    )
    if args.out:
        payload = {
            "N": pt.N,
            "Nr": pt.Nr,
            "M": pt.M,
            "S": pt.S,
            "R_frac": str(pt.R),
            "R_dec": _decimal(pt.R),
            "Rn_frac": str(pt.Rn),
            "Rn_dec": _decimal(pt.Rn),
            "ratio_frac": str(pt.ratio),
            "ratio_dec": _decimal(pt.ratio),
            "beta_frac": str(pt.beta),
            "regime": pt.regime,
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _load_assignment(path: str, n_servers: int) -> DataAssignment:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
        datasets = obj["D"]
        return DataAssignment.from_datasets(n_servers, datasets)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad assignment file {path}: {exc}") from exc


def _cmd_build(args: argparse.Namespace) -> int:
    params = SchemeParams(
        K=args.K, N=args.N, Nr=args.Nr, M=args.M, S=args.S, q=make_field(args.q)
    )
    assignment = (
        _load_assignment(args.assignment, args.N) if args.assignment else None
    )
    artifact = build_scheme(params, assignment, seed=args.seed)
    cert = certify(artifact)
    if not cert.passed:
        print("certification failed; refusing to write", file=sys.stderr)
        sys.stderr.write(cert.to_json())
        return EXIT_VERIFY
    _write_text(args.out, artifact_to_json(artifact))
    _write_text(_cert_path(args.out), cert.to_json())
    dims = artifact.dims
    print(
        f"certified scheme written to {args.out}: "
        f"C {artifact.c.rows}x{artifact.c.cols}, "
        f"F {artifact.f.rows}x{artifact.f.cols}, "
        f"R = {dims.r}/{dims.n}, retries {artifact.retries_used}"
    )
    return EXIT_OK


def _load_artifact(path: str) -> SchemeArtifact:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return artifact_from_json(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    artifact = _load_artifact(args.artifact)
    cert = certify(artifact)
    for line in (
        f"decodability: {cert.decodability.subsets_checked} subsets, "
        f"{'pass' if cert.decodability.passed else 'FAIL'}",
        f"encodability: {len(cert.encodability.violations)} violations",
        f"security: conditional MI = {cert.security_mi}",
        f"dimension identities: {'hold' if cert.dims_identity else 'FAIL'}",
    ):
        print(line)
    if args.out:
        _write_text(args.out, cert.to_json())
    return EXIT_OK if cert.passed else EXIT_VERIFY


def _cmd_simulate(args: argparse.Namespace) -> int:
    artifact = _load_artifact(args.artifact)
    responders = None
    if args.responders:
        responders = [int(tok) for tok in args.responders.split(",") if tok]
    # Refuse bad round inputs before paying for certification.
    L, responders = check_simulation_inputs(
        artifact, args.L, args.rounds, responders
    )
    cert = certify(artifact)
    if not cert.passed:
        print("artifact fails certification; not simulating", file=sys.stderr)
        return EXIT_VERIFY
    report = simulate_rounds(
        artifact,
        L=L,
        rounds=args.rounds,
        rng=SeededRng(args.seed).spawn("simulate"),
        responders=responders,
    )
    matched = sum(1 for r in report.rounds if r.match)
    cost_text = (
        str(report.realized_cost) if report.realized_cost is not None else "n/a"
    )
    print(
        f"{matched}/{len(report.rounds)} rounds decoded the gradient sum "
        f"exactly; per-server symbols {report.rounds[0].per_server_symbols if report.rounds else 0}, "
        f"realized cost {cost_text}"
    )
    if args.out:
        payload = {
            "L": report.L,
            "piece_len": report.piece_len,
            "realized_cost": cost_text if report.realized_cost else None,
            "rounds": [
                {
                    "round": r.round_index,
                    "responders": list(r.responders),
                    "per_server_symbols": r.per_server_symbols,
                    "decoded_digest": r.decoded_digest,
                    "direct_digest": r.direct_digest,
                    "match": r.match,
                }
                for r in report.rounds
            ],
        }
        _write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.all_match else EXIT_VERIFY


def _cmd_sweep(args: argparse.Namespace) -> int:
    fixed = {}
    for name in AXES:
        value = getattr(args, name, None)
        if name == args.axis:
            if value is not None:
                print(
                    f"--{name} conflicts with --axis {args.axis}", file=sys.stderr
                )
                return EXIT_INFEASIBLE
            continue
        if value is None:
            print(f"--{name} is required for axis {args.axis}", file=sys.stderr)
            return EXIT_INFEASIBLE
        fixed[name] = value
    values = range(args.axis_from, args.axis_to + 1)
    table = sweep(args.axis, values, fixed)
    _write_text(args.out, sweep_csv(args.axis, table))
    if args.out:
        print(f"{len(table)} rows written to {args.out}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "cost": _cmd_cost,
        "build": _cmd_build,
        "verify": _cmd_verify,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
    }
    # Infeasible, ParseError, and the parameter errors (NotPrime, TooLarge,
    # BadAssignment, BadLength, WrongSubsetSize, InvalidParams) all derive
    # from ValueError, so clause order decides the exit code.
    try:
        return handlers[args.command](args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConstructionFailed as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
