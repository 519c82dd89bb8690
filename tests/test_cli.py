"""Command-line behavior: argument handling, exit codes, file outputs, and
the byte-level determinism of artifacts written through the CLI."""

from __future__ import annotations

import json
import time

import pytest

import sgcode.cli
from sgcode.cli import (
    EXIT_CONSTRUCTION,
    EXIT_INFEASIBLE,
    EXIT_IO,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)
from sgcode.field import make_field
from sgcode.scheme import (
    DataAssignment,
    SchemeParams,
    artifact_to_json,
    build_scheme,
)

WORKED = ["--K", "3", "--N", "3", "--Nr", "3", "--M", "2", "--S", "2"]


def build_artifact(tmp_path, name="scheme.json", extra=()):
    path = tmp_path / name
    code = main(["build", *WORKED, *extra, "--out", str(path)])
    assert code == EXIT_OK
    return path


# ---- cost -------------------------------------------------------------------


def test_cost_prints_both_costs(capsys):
    assert main(["cost", "--N", "3", "--Nr", "3", "--M", "2", "--S", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "R = 2/3 (0.666666666667)" in out
    assert "Rn = 1/2 (0.5)" in out
    assert "ratio = 4/3" in out
    assert "regime S<=M" in out


def test_cost_writes_json_point(tmp_path, capsys):
    out_path = tmp_path / "point.json"
    args = ["cost", "--N", "14", "--Nr", "12", "--M", "8", "--S", "6",
            "--out", str(out_path)]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == (
        "R = 425/2526 (0.168250197941), Rn = 1/6 (0.166666666667), "
        "ratio = 425/421 (1.00950118765), beta = 429/425, regime S<=M\n"
    )
    payload = json.loads(out_path.read_text())
    # r = C(14,6) - C(8,6) = 2975, n = 2975*12 - 3003*6 = 17682.
    assert payload["R_frac"] == "425/2526"
    assert payload["Rn_frac"] == "1/6"
    assert payload["regime"] == "S<=M"
    assert out_path.read_text() == (
        "{\n"
        '  "N": 14,\n'
        '  "Nr": 12,\n'
        '  "M": 8,\n'
        '  "S": 6,\n'
        '  "R_frac": "425/2526",\n'
        '  "R_dec": "0.168250197941",\n'
        '  "Rn_frac": "1/6",\n'
        '  "Rn_dec": "0.166666666667",\n'
        '  "ratio_frac": "425/421",\n'
        '  "ratio_dec": "1.00950118765",\n'
        '  "beta_frac": "429/425",\n'
        '  "regime": "S<=M"\n'
        "}\n"
    )


def test_cost_rejects_infeasible_parameters(capsys):
    code = main(["cost", "--N", "3", "--Nr", "2", "--M", "1", "--S", "2"])
    assert code == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert captured.err == "infeasible: feasibility S >= N-Nr+2 violated\n"
    assert captured.out == ""


def test_cost_and_sweep_refuse_n_times_nr_above_the_cap(capsys):
    # N*Nr above the 2^26-entry cap is refused before any binomial is
    # computed, as build refuses it.
    t0 = time.perf_counter()
    args = ["cost", "--N", "1000000", "--Nr", "1000000", "--M", "1",
            "--S", "500000"]
    assert main(args) == EXIT_INFEASIBLE
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert "above the cap" in captured.err and captured.out == ""

    # At the cap itself the point is evaluated.
    args = ["cost", "--N", "8192", "--Nr", "8192", "--M", "1", "--S", "4096"]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out.startswith("R = 1 (1),")

    # A sweep is refused before its first point when any point is above it.
    args = ["sweep", "--axis", "N", "--from", "8192", "--to", "8193",
            "--Nr", "8192", "--M", "1", "--S", "4096"]
    assert main(args) == EXIT_INFEASIBLE
    captured = capsys.readouterr()
    assert "above the cap" in captured.err and captured.out == ""


def test_cost_unwritable_output_is_io_error(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "point.json"
    args = ["cost", "--N", "3", "--Nr", "3", "--M", "2", "--S", "2",
            "--out", str(target)]
    assert main(args) == EXIT_IO


# ---- build ------------------------------------------------------------------


def test_build_writes_artifact_and_certificate(tmp_path, capsys):
    path = build_artifact(tmp_path)
    out = capsys.readouterr().out
    assert "certified scheme written" in out
    assert "C 6x6" in out and "F 6x12" in out and "R = 2/3" in out

    artifact = json.loads(path.read_text())
    assert artifact["format_version"] == 1
    assert artifact["q"] == "2147483647"

    cert = json.loads((tmp_path / "scheme.cert.json").read_text())
    assert cert["passed"] is True
    assert cert["security"] == {"mi_value": "0"}


def test_build_is_byte_deterministic(tmp_path):
    first = build_artifact(tmp_path, "a.json")
    second = build_artifact(tmp_path, "b.json")
    assert first.read_bytes() == second.read_bytes()


def test_build_with_assignment_file(tmp_path):
    source = tmp_path / "assign.json"
    source.write_text(json.dumps({"D": [[2, 3], [1, 2], [1, 2]]}))
    path = build_artifact(tmp_path, extra=["--assignment", str(source)])

    params = SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=make_field(2147483647))
    assignment = DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])
    expected = artifact_to_json(build_scheme(params, assignment, seed=0))
    assert path.read_text() == expected


def test_build_rejects_malformed_assignment_file(tmp_path, capsys):
    source = tmp_path / "assign.json"
    source.write_text("{not json")
    code = main(["build", *WORKED, "--assignment", str(source),
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_IO
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("server", [1.7, True, "2"])
def test_build_rejects_non_integer_server_id(tmp_path, capsys, server):
    source = tmp_path / "assign.json"
    source.write_text(json.dumps({"D": [[server, 3], [1, 2], [1, 2]]}))
    code = main(["build", *WORKED, "--assignment", str(source),
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_IO
    assert "not an integer" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_build_rejects_underreplicated_assignment(tmp_path, capsys):
    source = tmp_path / "assign.json"
    source.write_text(json.dumps({"D": [[1], [1, 2], [1, 2]]}))
    code = main(["build", *WORKED, "--assignment", str(source),
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INFEASIBLE


def test_build_rejects_composite_modulus(tmp_path, capsys):
    code = main(["build", *WORKED, "--q", "10", "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INFEASIBLE
    assert "invalid parameters" in capsys.readouterr().err


def test_build_rejects_infeasible_parameters(tmp_path, capsys):
    args = ["build", "--K", "1", "--N", "3", "--Nr", "2", "--M", "1", "--S", "2",
            "--out", str(tmp_path / "x.json")]
    assert main(args) == EXIT_INFEASIBLE


def test_build_refuses_oversized_tuple(tmp_path, capsys):
    args = ["build", "--K", "24", "--N", "20", "--Nr", "18", "--M", "10", "--S", "8",
            "--out", str(tmp_path / "x.json")]
    assert main(args) == EXIT_INFEASIBLE
    assert "above the cap" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_build_refuses_n_times_nr_above_the_cap_fast(tmp_path, capsys):
    args = ["build", "--K", "1", "--N", "200000", "--Nr", "200000", "--M", "100000",
            "--S", "100000", "--out", str(tmp_path / "x.json")]
    t0 = time.perf_counter()
    assert main(args) == EXIT_INFEASIBLE
    assert time.perf_counter() - t0 < 1.0
    assert "above the cap" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_build_reports_construction_failure(tmp_path, capsys):
    # Over GF(2) with seed 0 every retry produces a singular responder stack.
    args = ["build", "--K", "1", "--N", "5", "--Nr", "5", "--M", "1", "--S", "2",
            "--q", "2", "--out", str(tmp_path / "x.json")]
    assert main(args) == EXIT_CONSTRUCTION
    assert "construction failed" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


# ---- verify -----------------------------------------------------------------


def test_verify_passes_on_fresh_artifact(tmp_path, capsys):
    path = build_artifact(tmp_path)
    capsys.readouterr()
    cert_out = tmp_path / "check.cert.json"
    assert main(["verify", str(path), "--out", str(cert_out)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "decodability: 1 subsets, pass" in out
    assert "encodability: 0 violations" in out
    assert "security: conditional MI = 0" in out
    assert "dimension identities: hold" in out
    assert json.loads(cert_out.read_text())["passed"] is True


def test_verify_detects_tampered_artifact(tmp_path, capsys):
    path = build_artifact(tmp_path)
    payload = json.loads(path.read_text())
    entry = int(payload["C"]["data"][0])
    payload["C"]["data"][0] = str((entry + 1) % 2147483647)
    path.write_text(json.dumps(payload))

    cert_out = tmp_path / "tampered.cert.json"
    assert main(["verify", str(path), "--out", str(cert_out)]) == EXIT_VERIFY
    assert json.loads(cert_out.read_text())["passed"] is False


@pytest.mark.parametrize("weights", [(2, 2, 2), (1, 2, 3)])
def test_verify_rejects_f_outside_the_pattern(tmp_path, capsys, weights):
    # Scaling dataset k's columns of F by weights[k-1] changes F1 and F2
    # together; both are negative controls for the fixed F1 pattern.
    path = build_artifact(tmp_path)
    payload = json.loads(path.read_text())
    cols = payload["F"]["cols"]
    data = payload["F"]["data"]
    for i, entry in enumerate(data):
        col = i % cols
        if col < 9:  # n*K = 3*3 gradient columns; dataset of col is col % K + 1
            data[i] = str(int(entry) * weights[col % 3] % 2147483647)
    path.write_text(json.dumps(payload))
    assert main(["verify", str(path)]) == EXIT_IO
    assert "parse error: F1 is not the piece-sum pattern" in capsys.readouterr().err


def test_verify_refuses_n_times_nr_above_the_cap_fast(tmp_path, capsys):
    path = build_artifact(tmp_path)
    capsys.readouterr()
    payload = json.loads(path.read_text())
    payload.update(N=10**6, Nr=10**6, M=5 * 10**5, S=5 * 10**5)
    path.write_text(json.dumps(payload))
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == EXIT_IO
    assert time.perf_counter() - t0 < 1.0
    assert "above the cap" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/no/such/file.json"]) == EXIT_IO
    assert "parse error" in capsys.readouterr().err


def test_verify_invalid_json(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("]]]")
    assert main(["verify", str(path)]) == EXIT_IO


@pytest.mark.parametrize(
    "key, value",
    [("K", 3.9), ("seed", 0.5), ("format_version", True), ("q", 7.5), ("q", 2147483647)],
)
def test_verify_refuses_non_integer_header(tmp_path, capsys, key, value):
    path = build_artifact(tmp_path)
    payload = json.loads(path.read_text())
    payload[key] = value
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_IO
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [2.5, True, None, "1_0", " 12", "+1", "-1", "\u0663", "", "2147483647",
     "12345678901234567890"],
    ids=repr,
)
def test_verify_refuses_hostile_entries(tmp_path, capsys, entry):
    path = build_artifact(tmp_path)
    payload = json.loads(path.read_text())
    payload["C"]["data"][0] = entry
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_IO
    assert "parse error" in capsys.readouterr().err


# ---- simulate ---------------------------------------------------------------


def test_simulate_decodes_every_round(tmp_path, capsys):
    path = build_artifact(tmp_path)
    capsys.readouterr()
    report_path = tmp_path / "rounds.json"
    args = ["simulate", str(path), "--rounds", "3", "--out", str(report_path)]
    assert main(args) == EXIT_OK
    assert "3/3 rounds decoded the gradient sum exactly" in capsys.readouterr().out

    payload = json.loads(report_path.read_text())
    assert payload["L"] == 12  # default 4n
    assert payload["realized_cost"] == "2/3"
    assert len(payload["rounds"]) == 3
    for entry in payload["rounds"]:
        assert entry["match"] is True
        assert entry["decoded_digest"] == entry["direct_digest"]
        assert entry["responders"] == [1, 2, 3]


def test_simulate_fixed_responders(tmp_path, capsys):
    path = build_artifact(tmp_path)
    capsys.readouterr()
    report_path = tmp_path / "rounds.json"
    args = ["simulate", str(path), "--responders", "3,1,2", "--L", "6",
            "--out", str(report_path)]
    assert main(args) == EXIT_OK
    payload = json.loads(report_path.read_text())
    assert payload["rounds"][0]["responders"] == [1, 2, 3]
    assert payload["L"] == 6


def test_simulate_rejects_wrong_subset_size(tmp_path, capsys):
    path = build_artifact(tmp_path)
    code = main(["simulate", str(path), "--responders", "1,2"])
    assert code == EXIT_INFEASIBLE


def test_simulate_rejects_bad_length(tmp_path, capsys):
    path = build_artifact(tmp_path)
    assert main(["simulate", str(path), "--L", "7"]) == EXIT_INFEASIBLE


@pytest.mark.parametrize(
    "extra",
    [["--L", "1"], ["--L", "-3"], ["--responders", "1,2"],
     ["--responders", "1,2,4"], ["--responders", "1,2,x"], ["--rounds", "-1"],
     ["--responders", "1,1,2,3"]],
)
def test_simulate_refuses_bad_inputs_before_certifying(
    tmp_path, capsys, monkeypatch, extra
):
    path = build_artifact(tmp_path)

    def no_certify(artifact):
        raise AssertionError("certify ran before the inputs were checked")

    monkeypatch.setattr(sgcode.cli, "certify", no_certify)
    assert main(["simulate", str(path), *extra]) == EXIT_INFEASIBLE
    assert "invalid parameters" in capsys.readouterr().err


def test_simulate_refuses_huge_L_before_certifying(tmp_path, capsys, monkeypatch):
    # One round of the worked scheme stacks f_cols * L/n = 4L symbols of W.
    path = build_artifact(tmp_path)

    def no_certify(artifact):
        raise AssertionError("certify ran before L was bounded")

    monkeypatch.setattr(sgcode.cli, "certify", no_certify)
    huge = str(3 << 40)
    assert main(["simulate", str(path), "--L", huge]) == EXIT_INFEASIBLE
    assert "above the cap" in capsys.readouterr().err


class Certifying(Exception):
    """Raised in place of certify: the inputs were admitted."""


@pytest.mark.parametrize("L, admitted", [(1 << 23, True), ((1 << 23) + 1, False)])
def test_simulate_cap_counts_transcript_rows_before_certifying(
    tmp_path, capsys, monkeypatch, L, admitted
):
    # (1,8,2,7,8) has n = 1 and f_cols = 2, but a round's transcript X has
    # r*N = 8 rows, so the cap of 2^26 symbols admits L up to 2^23.
    path = tmp_path / "tall.json"
    argv = ["build", "--K", "1", "--N", "8", "--Nr", "2", "--M", "7", "--S", "8"]
    assert main([*argv, "--out", str(path)]) == EXIT_OK

    def certifying(artifact):
        raise Certifying

    monkeypatch.setattr(sgcode.cli, "certify", certifying)
    simulate = ["simulate", str(path), "--L", str(L)]
    if admitted:
        with pytest.raises(Certifying):
            main(simulate)
    else:
        assert main(simulate) == EXIT_INFEASIBLE
        assert "above the cap" in capsys.readouterr().err


def test_simulate_refuses_uncertified_artifact(tmp_path, capsys):
    path = build_artifact(tmp_path)
    payload = json.loads(path.read_text())
    entry = int(payload["C"]["data"][0])
    payload["C"]["data"][0] = str((entry + 1) % 2147483647)
    path.write_text(json.dumps(payload))
    assert main(["simulate", str(path)]) == EXIT_VERIFY
    assert "not simulating" in capsys.readouterr().err


# ---- sweep ------------------------------------------------------------------


def test_sweep_to_stdout(capsys):
    args = ["sweep", "--axis", "M", "--from", "2", "--to", "3",
            "--N", "4", "--Nr", "4", "--S", "2"]
    assert main(args) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "axis,value,R_frac,R_dec,Rn_frac,Rn_dec,ratio_frac,ratio_dec,regime"
    assert len(lines) == 3
    assert lines[1].startswith("M,2,")
    assert lines[2].startswith("M,3,")

    # The README example, byte for byte.
    args = ["sweep", "--axis", "M", "--from", "3", "--to", "13",
            "--N", "14", "--Nr", "12", "--S", "6"]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == (
        "axis,value,R_frac,R_dec,Rn_frac,Rn_dec,ratio_frac,ratio_dec,regime\n"
        "M,3,1,1,1,1,1,1,S>M\n"
        "M,4,1/2,0.5,1/2,0.5,1,1,S>M\n"
        "M,5,1/3,0.333333333333,1/3,0.333333333333,1,1,S>M\n"
        "M,6,1501/6000,0.250166666667,1/4,0.25,1501/1500,1.00066666667,S<=M\n"
        "M,7,428/2133,0.200656352555,1/5,0.2,2140/2133,1.00328176278,S<=M\n"
        "M,8,425/2526,0.168250197941,1/6,0.166666666667,425/421,1.00950118765,S<=M\n"
        "M,9,139/953,0.145855194124,1/7,0.142857142857,973/953,1.02098635887,S<=M\n"
        "M,10,133/1024,0.1298828125,1/8,0.125,133/128,1.0390625,S<=M\n"
        "M,11,11/93,0.118279569892,1/9,0.111111111111,33/31,1.06451612903,S<=M\n"
        "M,12,9/82,0.109756097561,1/10,0.1,45/41,1.09756097561,S<=M\n"
        "M,13,3/29,0.103448275862,1/11,0.0909090909091,33/29,1.13793103448,S<=M\n"
    )


def test_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    args = ["sweep", "--axis", "S", "--from", "2", "--to", "4",
            "--N", "4", "--Nr", "4", "--M", "2", "--out", str(out_path)]
    assert main(args) == EXIT_OK
    assert "3 rows written" in capsys.readouterr().out
    text = out_path.read_text()
    assert text.endswith("\n")
    assert len(text.splitlines()) == 4


def test_sweep_requires_all_fixed_parameters(capsys):
    args = ["sweep", "--axis", "M", "--from", "2", "--to", "3",
            "--N", "4", "--Nr", "4"]
    assert main(args) == EXIT_INFEASIBLE
    assert "--S is required" in capsys.readouterr().err


def test_sweep_rejects_axis_conflict(capsys):
    args = ["sweep", "--axis", "M", "--from", "2", "--to", "3",
            "--N", "4", "--Nr", "4", "--S", "2", "--M", "3"]
    assert main(args) == EXIT_INFEASIBLE
    assert "conflicts" in capsys.readouterr().err


# ---- argument parsing -------------------------------------------------------


def test_unknown_command_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
