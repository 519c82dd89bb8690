"""Benchmark of sgcode's build, verify and simulate, end to end and by layer.

    python3 bench/run.py --workload {sweep,n8} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
One process, one caller, no worker threads: pairs of rounds of the
workload run one after the other until the next pair would end more than
half a pair after --seconds. The last line printed is one JSON object
with correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1. See
bench/README.md.
"""

from __future__ import annotations

import os
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")


def seconds_since_start(script_start: float) -> float:
    """Time since the process started, from the kernel's start time; falls
    back to the time since this script began when /proc is unreadable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        since = time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
        if since > 0:
            return since
    except (OSError, ValueError, IndexError):
        pass
    return time.perf_counter() - script_start


def import_program() -> None:
    """Import sgcode from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sgcode", "__init__.py")):
        sys.exit(f"bench: no program at {SRC}/sgcode; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import sgcode

    if os.path.dirname(os.path.dirname(os.path.abspath(sgcode.__file__))) != SRC:
        sys.exit(f"bench: sgcode was imported from {sgcode.__file__}, not {SRC}")


def run_rounds(workload, seconds: float, traced: bool):
    """Pairs of rounds until the next pair would end more than half a pair
    after `seconds` of timed work; at least one pair. The first round's
    outputs are checked after it ends. In a traced run the second round of
    each pair is traced, so each pair also gives the tracing overhead."""
    from spans import Tracer

    tracer = Tracer() if traced else None
    plain, with_trace, firsts, errors = [], [], [], []
    spent = 0.0
    while True:
        # Each round starts from a collected heap, so that no round pays
        # for the garbage of the checks or of an earlier round.
        gc.collect()
        first = workload.run_round(None, keep=not plain)
        if not plain:
            try:
                errors = workload.check()
            except Exception as exc:  # noqa: BLE001 - an output the checks cannot read is wrong
                errors = [f"checks raised {exc!r}"]
        plain.append(first)
        gc.collect()
        if tracer is None:
            second = workload.run_round(None, keep=False)
            plain.append(second)
        else:
            firsts.append(len(tracer.spans))
            tracer.install()
            try:
                second = workload.run_round(tracer, keep=False)
            finally:
                tracer.uninstall()
            with_trace.append(second)
        step = first.wall_s + second.wall_s
        spent += step
        if spent + step / 2 > seconds:
            return plain, with_trace, tracer, firsts, errors


# The times take each operation's fastest of this many repeats.
REPEATS = 4


def best_time(rounds, step: int) -> float:
    """One round's time with each operation at its fastest repeat among
    the run's first REPEATS rounds (step 0 build, 1 verify, 2 simulate),
    summed over the operation groups. Other load on the machine slows the
    program in stretches of a fraction of a second to seconds, while the
    fastest of repeats spread over the run barely moves; summing over many
    small operations averages out what is left. A fixed number of repeats
    keeps the figure from depending on how many rounds fit in a run."""
    rounds = rounds[:REPEATS]
    groups = set.intersection(*(set(r.times) for r in rounds))
    return sum(min(r.times[k][step] for r in rounds) for k in groups)


def main() -> int:
    script_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "n8"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from spans import OVERHEAD, PER_LAYER, layer_metrics

    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir)
        setup_s = seconds_since_start(script_start)
        plain, traced, tracer, firsts, errors = run_rounds(
            workload, args.seconds, bool(args.trace))
        failures = [f for r in plain + traced for f in r.failures]
        digests = {r.digest.hexdigest() for r in plain + traced if not r.failed}
        if len(digests) > 1:
            errors.append("rounds with the same inputs gave different outputs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def metric(value: float, unit: str) -> dict:
        return {"value": value, "unit": unit}

    if tracer is None:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "build_s": metric(best_time(plain, 0), "s"),
            "verify_s": metric(best_time(plain, 1), "s"),
            "simulate_s": metric(best_time(plain, 2), "s"),
            "peak_rss_mb": metric(plain[0].peak_rss_mb, "MB"),
            "artifact_bytes": metric(plain[0].artifact_bytes, "bytes"),
        }
    else:
        ends = firsts[1:] + [len(tracer.spans)]
        per_round = [layer_metrics(tracer.spans[:end], first) for first, end in zip(firsts, ends)]
        metrics = {}
        for name, unit in PER_LAYER:
            # Counts come from the first traced round, so they repeat
            # exactly between traced runs with the same seed; times are
            # medians over the traced rounds.
            values = [m[name] for m in per_round]
            metrics[name] = metric(statistics.median(values) if unit == "s" else values[0], unit)
        plain_s = statistics.median(r.wall_s for r in plain)
        traced_s = statistics.median(r.wall_s for r in traced)
        overhead = (plain_s, traced_s, traced_s - plain_s, (traced_s - plain_s) / plain_s)
        for (name, unit), value in zip(OVERHEAD, overhead):
            metrics[name] = metric(value, unit)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))

    for f in failures[:20]:
        print(f"operation failed: {f}", file=sys.stderr)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    runs = plain + traced
    result = {
        "correct": not errors,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
