"""Spans around the program's layers, recorded from outside the program.

A Tracer replaces a public function at each of its import sites (and two
methods on their classes) with a wrapper that records a span: a name, the
index of the enclosing span, start, end and a count of the work the call
did. Spans stay in memory until the run ends. A site that a later version
of the program no longer has is skipped, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import sgcode.cli
import sgcode.engine
import sgcode.exactmat
import sgcode.field
import sgcode.scheme
import sgcode.verifier

Work = Optional[Callable[[tuple, dict, object], int]]


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _mac(args, kwargs, result) -> int:
    a, b = args
    return a.rows * a.cols * b.cols


def _cells(args, kwargs, result) -> int:
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return a.rows * (a.cols + b.cols)


def _values(args, kwargs, result) -> int:
    return int(_arg(args, kwargs, 2, "count"))


def _subsets(args, kwargs, result) -> int:
    return int(result[0])


# (owner, attribute, span name, work count). Each site gets its own span
# name so that, for example, the subset scan of a build is told apart from
# the one inside certify.
SITES = [
    (sgcode.scheme, "build_scheme", "scheme.build", None),
    (sgcode.cli, "build_scheme", "scheme.build", None),
    (sgcode.scheme, "sample_array", "scheme.sampling", _values),
    (sgcode.scheme, "first_singular_subset", "scheme.subset_checks", _subsets),
    (sgcode.scheme, "rank", "scheme.nonholder_checks", None),
    (sgcode.scheme, "solve_linear", "scheme.f2_solve", _cells),
    (sgcode.scheme, "enumerate_groups", "keyspace.enumerate_groups", None),
    (sgcode.scheme, "artifact_to_json", "scheme.to_json", None),
    (sgcode.cli, "artifact_to_json", "scheme.to_json", None),
    (sgcode.scheme, "artifact_from_json", "scheme.from_json", None),
    (sgcode.cli, "artifact_from_json", "scheme.from_json", None),
    (sgcode.verifier, "certify", "verifier.certify", None),
    (sgcode.cli, "certify", "verifier.certify", None),
    (sgcode.verifier, "verify_decodability", "verifier.decodability",
     lambda a, k, res: res.subsets_checked),
    (sgcode.verifier, "first_singular_subset", "verifier.subset_scan", _subsets),
    (sgcode.verifier, "pivot_columns", "verifier.security", None),
    (sgcode.verifier, "rank", "verifier.rank", None),
    (sgcode.verifier, "enumerate_groups", "keyspace.enumerate_groups", None),
    (sgcode.engine, "simulate_rounds", "engine.simulate",
     lambda a, k, res: len(res.rounds)),
    (sgcode.cli, "simulate_rounds", "engine.simulate",
     lambda a, k, res: len(res.rounds)),
    (sgcode.engine, "sample_round", "engine.sample_round", None),
    (sgcode.engine, "sample_array", "engine.sample_array", _values),
    (sgcode.engine, "build_W", "engine.build_W", None),
    (sgcode.engine, "direct_gradient_sum", "engine.direct_sum", None),
    (sgcode.engine, "solve_linear", "engine.decode_solve", _cells),
    (sgcode.exactmat.FieldMatrix, "__matmul__", "exactmat.matmul", _mac),
    (sgcode.field.SeededRng, "spawn", "field.spawn", None),
]

# Per-layer metric -> (span names it sums, what it sums). "calls" counts
# spans, "s" sums their durations, "self" sums durations minus children,
# "work" sums the work counts.
GROUPS = {
    "exactmat.rank": ("scheme.nonholder_checks", "verifier.security", "verifier.rank"),
    "exactmat.solve": ("scheme.f2_solve", "engine.decode_solve"),
    "exactmat.matmul": ("exactmat.matmul",),
    "exactmat.subset_scan": ("scheme.subset_checks", "verifier.subset_scan"),
    "field.sample_array": ("scheme.sampling", "engine.sample_array"),
}
METRICS = [
    ("exactmat.rank.calls", "exactmat.rank", "calls", "count"),
    ("exactmat.rank.s", "exactmat.rank", "s", "s"),
    ("exactmat.solve.calls", "exactmat.solve", "calls", "count"),
    ("exactmat.solve.s", "exactmat.solve", "s", "s"),
    ("exactmat.solve.cells", "exactmat.solve", "work", "count"),
    ("exactmat.matmul.calls", "exactmat.matmul", "calls", "count"),
    ("exactmat.matmul.s", "exactmat.matmul", "s", "s"),
    ("exactmat.matmul.mac", "exactmat.matmul", "work", "count"),
    ("exactmat.subset_scan.calls", "exactmat.subset_scan", "calls", "count"),
    ("exactmat.subset_scan.s", "exactmat.subset_scan", "s", "s"),
    ("exactmat.subset_scan.subsets", "exactmat.subset_scan", "work", "count"),
    ("scheme.build.calls", "scheme.build", "calls", "count"),
    ("scheme.build.s", "scheme.build", "s", "s"),
    ("scheme.attempts", "scheme.sampling", "calls", "count"),
    ("scheme.sampling.s", "scheme.sampling", "s", "s"),
    ("scheme.subset_checks.s", "scheme.subset_checks", "s", "s"),
    ("scheme.nonholder_checks.calls", "scheme.nonholder_checks", "calls", "count"),
    ("scheme.nonholder_checks.s", "scheme.nonholder_checks", "s", "s"),
    ("scheme.f2_solve.calls", "scheme.f2_solve", "calls", "count"),
    ("scheme.f2_solve.s", "scheme.f2_solve", "s", "s"),
    ("scheme.to_json.s", "scheme.to_json", "s", "s"),
    ("scheme.from_json.s", "scheme.from_json", "s", "s"),
    ("verifier.certify.calls", "verifier.certify", "calls", "count"),
    ("verifier.certify.s", "verifier.certify", "s", "s"),
    ("verifier.decodability.s", "verifier.decodability", "s", "s"),
    ("verifier.decodability.subsets", "verifier.decodability", "work", "count"),
    ("verifier.security.s", "verifier.security", "s", "s"),
    ("engine.simulate.calls", "engine.simulate", "calls", "count"),
    ("engine.simulate.s", "engine.simulate", "s", "s"),
    ("engine.rounds", "engine.simulate", "work", "count"),
    ("engine.sample_round.s", "engine.sample_round", "s", "s"),
    ("engine.build_W.s", "engine.build_W", "s", "s"),
    ("engine.direct_sum.s", "engine.direct_sum", "s", "s"),
    ("engine.decode_solve.calls", "engine.decode_solve", "calls", "count"),
    ("engine.decode_solve.s", "engine.decode_solve", "s", "s"),
    ("field.sample_array.s", "field.sample_array", "s", "s"),
    ("field.sample_array.values", "field.sample_array", "work", "count"),
    ("field.spawn.calls", "field.spawn", "calls", "count"),
    ("keyspace.enumerate_groups.calls", "keyspace.enumerate_groups", "calls", "count"),
    ("keyspace.enumerate_groups.s", "keyspace.enumerate_groups", "s", "s"),
    ("cli.build.s", "cli.build", "self", "s"),
    ("cli.verify.s", "cli.verify", "self", "s"),
    ("cli.simulate.s", "cli.simulate", "self", "s"),
]
# Matmul spans split by their direct parent: the C F product inside
# certify, and the encode products inside simulate_rounds.
CHILD_METRICS = [
    ("verifier.transcript_product.s", "exactmat.matmul", "verifier.certify"),
    ("engine.encode.s", "exactmat.matmul", "engine.simulate"),
]


class Tracer:
    """In-memory spans: [name, parent index, start, end, work]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span of the benchmark's own."""
        return self._wrap(fn, name, None)(*args, **kwargs)

    def install(self) -> None:
        for owner, attr, name, work in SITES:
            original = owner.__dict__.get(attr)
            if original is None:
                continue
            setattr(owner, attr, self._wrap(original, name, work))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, original: Callable, name: str, work: Work) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "parent", "start", "end", "work"],
                       "spans": self.spans}, handle)


# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    [(metric, unit) for metric, _, _, unit in METRICS]
    + [(metric, "s") for metric, _, _ in CHILD_METRICS]
    + [("scheme.attempt_yield", "ratio"), ("trace.spans", "count")]
)
# The tracing overhead: a traced round's wall time against an untraced
# round's, medians over the run's rounds of each kind.
OVERHEAD = [
    ("trace.untraced_round_s", "s"),
    ("trace.traced_round_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
]


def layer_metrics(spans: List[list], first: int) -> Dict[str, float]:
    """Per-layer metrics of the spans from index first on (one round)."""
    own = spans[first:]
    child_time: Dict[int, float] = defaultdict(float)
    for name, parent, start, end, _ in own:
        if parent >= first:
            child_time[parent] += end - start
    agg: Dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self": 0.0, "work": 0})
    for i, (name, parent, start, end, work) in enumerate(own, start=first):
        for key in [name] + [g for g, names in GROUPS.items() if name in names]:
            agg[key]["calls"] += 1
            agg[key]["s"] += end - start
            agg[key]["self"] += end - start - child_time[i]
            agg[key]["work"] += work
    out = {metric: agg[key][field] for metric, key, field, _ in METRICS}
    for metric, name, parent_name in CHILD_METRICS:
        out[metric] = sum(
            end - start
            for n, parent, start, end, _ in own
            if n == name and parent >= first and spans[parent][0] == parent_name
        )
    attempts = out["scheme.attempts"]
    out["scheme.attempt_yield"] = out["scheme.build.calls"] / attempts if attempts else 0.0
    out["trace.spans"] = len(own)
    return out
