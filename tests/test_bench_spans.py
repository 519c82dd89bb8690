"""The benchmark's per-layer metrics wrap functions at their import sites in
the program (bench/spans.py). A site that the program no longer has is
skipped and its metrics read 0, so these tests fail when a refactor moves a
site away instead."""

from __future__ import annotations

import dataclasses
import importlib.util
from collections import defaultdict
from pathlib import Path

import sgcode.engine
import sgcode.scheme
import sgcode.verifier
from sgcode.exactmat import FieldMatrix
from sgcode.field import SeededRng, make_field

# Sites that bench/spans.py lists but the program had already dropped when
# this test was written; their metrics read 0.
DEAD_SITES = {
    ("sgcode.scheme", "rank"),
    ("sgcode.verifier", "enumerate_groups"),
    ("sgcode.engine", "solve_linear"),
}


def load_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves():
    spans = load_spans()
    unresolved = {
        (owner.__name__, attr)
        for owner, attr, _, _ in spans.SITES
        if attr not in owner.__dict__
    }
    assert unresolved <= DEAD_SITES


def test_traced_worked_example_records_work_at_each_layer():
    spans = load_spans()
    params = sgcode.scheme.SchemeParams(K=3, N=3, Nr=3, M=2, S=2, q=make_field(2147483647))
    assignment = sgcode.scheme.DataAssignment.from_datasets(3, [[2, 3], [1, 2], [1, 2]])
    tracer = spans.Tracer()
    tracer.install()
    try:
        scheme = sgcode.scheme.build_scheme(params, assignment, seed=0)
        assert sgcode.verifier.certify(scheme).passed
        report = sgcode.engine.simulate_rounds(scheme, None, 3, SeededRng(0))
        assert report.all_match
        passing = spans.layer_metrics(tracer.spans, 0)
        # certify reads the built artifact's scan memo; a parsed copy, which
        # has none, scans its own C at the verifier's site.
        built_scans = [s for s in tracer.spans if s[0] == "verifier.subset_scan"]
        parsed = sgcode.scheme.artifact_from_json(sgcode.scheme.artifact_to_json(scheme))
        mark = len(tracer.spans)
        assert sgcode.verifier.certify(parsed).passed
        parsed_scans = [s for s in tracer.spans[mark:] if s[0] == "verifier.subset_scan"]
        # A passing certify reads its MI off F's structure; the rank-based
        # security measure (verifier.security) runs on a broken F3 only.
        f = scheme.f.data.copy()
        f[scheme.dims.n, scheme.dims.n * params.K] = 0
        broken = dataclasses.replace(scheme, f=FieldMatrix.wrap(f, params.q))
        assert not sgcode.verifier.certify(broken).passed
    finally:
        tracer.uninstall()
    work = defaultdict(int)
    for name, _, _, _, count in tracer.spans:
        work[name] += count
    for name in ("exactmat.matmul", "scheme.f2_solve", "scheme.subset_checks"):
        assert work[name] > 0, name
    assert "verifier.security" in work
    assert passing["verifier.certify.calls"] == 1
    assert passing["verifier.security.s"] == 0
    assert len(built_scans) == 0
    assert len(parsed_scans) == 1
    assert spans.layer_metrics(tracer.spans, 0)["verifier.certify.calls"] == 3
