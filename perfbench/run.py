"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lfr_p1_kernel --seed 1 --seconds 30 --trace 0

``--trace 0`` measures untraced and prints the end-to-end metrics;
``--trace 1`` installs the outside-in layer wrappers on every other
detection (or service segment), prints the per-layer metrics, and writes
a Chrome/Perfetto trace to ``perfbench/out/``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from collections import Counter, defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: (name, unit) of the end-to-end metrics, printed untraced.  Their
#: better-direction and bound live in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),
    ("detect_wall_s.p50", "s"),
    ("detect_wall_s.tail", "s"),
    ("modelled_s", "virtual_s"),
    ("modularity", "Q"),
    ("jobs_per_s", "1/s"),
    ("job_latency_s.p50", "s"),
    ("job_latency_s.tail", "s"),
    ("success_fraction", "fraction"),
    ("peak_rss_mb", "MB"),
)

COMM_CATEGORIES = (
    "ghost_comm", "community_comm", "allreduce", "rebuild", "partition",
    "checkpoint", "other",
)
PERFMODEL_CATEGORIES = ("compute",) + COMM_CATEGORIES[:-1] + ("io", "other")

#: Span-derived layer metrics: (span name, fields).  ``wall_s`` and
#: ``self_s`` are seconds summed over threads, ``calls`` a count, all
#: per traced detection (batch) or per traced job (service).
SPAN_METRICS = (
    ("core.sweep.propose_moves", ("wall_s", "self_s", "calls")),
    ("core.sweep.lookup", ("wall_s", "calls")),
    ("core.coarsen.rebuild_distributed", ("wall_s", "self_s", "calls")),
    ("core.dynamic.warm_start_assignment", ("wall_s", "calls")),
    ("core.distlouvain.distributed_louvain", ("wall_s", "self_s")),
    ("graph.distgraph.distribute", ("wall_s", "calls")),
    ("graph.distgraph.exchange_ghost_values", ("wall_s", "calls")),
    *((f"runtime.comm.{c}", ("wall_s", "calls")) for c in COMM_CATEGORIES),
    ("runtime.comm.total", ("wall_s", "calls")),
    ("runtime.executor.run_spmd", ("wall_s",)),
    ("service.engine.submit", ("wall_s", "calls")),
    ("service.engine.run_job", ("wall_s",)),
    ("service.store.get", ("wall_s", "calls")),
    ("service.store.put", ("wall_s", "calls")),
    ("resilience.checkpoint.save", ("wall_s", "calls")),
    ("obs.events.emit", ("wall_s", "calls")),
)
FIELD_UNITS = {"wall_s": "s", "self_s": "s", "calls": "count"}

#: (name, unit) of the per-layer metrics, printed traced.
PER_LAYER = (
    *(
        (f"{span}.{f}", FIELD_UNITS[f])
        for span, fields in SPAN_METRICS
        for f in fields
    ),
    ("runtime.executor.overhead_s", "s"),
    ("core.sweep.propose_moves.self_share", "fraction"),
    ("runtime.comm.total.share", "fraction"),
    ("core.distlouvain.phases", "count"),
    ("core.distlouvain.iterations", "count"),
    ("core.distlouvain.moves", "count"),
    ("runtime.comm.collectives", "count"),
    ("runtime.comm.messages", "count"),
    ("runtime.comm.bytes", "B"),
    *((f"runtime.perfmodel.{c}_s", "virtual_s") for c in PERFMODEL_CATEGORIES),
    ("service.scheduler.queue_s.p50", "s"),
    ("service.scheduler.queue_s.tail", "s"),
    ("service.engine.run_s.p50", "s"),
    ("service.engine.run_s.tail", "s"),
    ("service.incremental.run_s.p50", "s"),
    ("service.store.hit_fraction", "fraction"),
    ("service.admission_rejects", "count"),
    ("trace.unit_wall_s", "s"),
    ("trace.overhead_fraction", "fraction"),
    ("host.probe_s", "s"),
)

#: Tail percentiles tried, highest first; the tail is the highest one
#: with at least TAIL_BEYOND samples beyond it, else the median.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the tail of ``values``."""
    n = len(values)
    for q in TAIL_LADDER:
        if n * (1.0 - q / 100.0) >= TAIL_BEYOND:
            return float(np.percentile(values, q)), q
    return float(np.percentile(values, 50.0)), 50.0


def source_digest() -> str:
    """Digest of the program and benchmark sources: the exactness ledger
    only compares runs of identical code."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def check_ledger(workload: str, seed: int, signatures: dict) -> list[str]:
    """Compare this run's exact signatures with earlier runs of the same
    code, workload and seed; any difference is nondeterminism."""
    path = os.path.join(OUT, f"exact-{source_digest()}.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    seen = ledger.setdefault(f"{workload}/{seed}", {})
    problems = []
    for label, sig in signatures.items():
        old = seen.setdefault(label, {})
        for key in sig.keys() & old.keys():
            if sig[key] != old[key]:
                problems.append(
                    f"nondeterminism: {label}.{key} = {sig[key]!r}, "
                    f"an earlier run gave {old[key]!r}"
                )
        old.update(sig)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, sort_keys=True)
    os.replace(tmp, path)
    return problems


def end_to_end_metrics(out) -> tuple[dict, dict]:
    notes = {}
    m = {"setup_s": float(np.median(out.setup_s))}
    for name, values in (
        ("detect_wall_s", out.detect_wall),
        ("job_latency_s", out.job_latency),
    ):
        m[f"{name}.p50"] = float(np.percentile(values, 50.0))
        m[f"{name}.tail"], q = tail(values)
        notes[f"{name}.tail"] = f"p{q:g} of n={len(values)}"
    # Geometric mean: every input weighs the same, however long it runs.
    m["modelled_s"] = float(
        np.exp(np.mean(np.log([r.elapsed for r in out.references])))
    )
    m["modularity"] = float(np.mean([r.modularity for r in out.references]))
    m["jobs_per_s"] = out.jobs_done / out.window_s
    m["success_fraction"] = (out.attempted - out.failed) / out.attempted
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m, notes


def per_layer_metrics(out, tracer) -> dict:
    from workloads import result_signature

    units = max(len(out.traced_tags), 1)
    traced = [s for s in tracer.spans if s.detection in out.traced_tags]
    self_ns = tracer.self_times()
    wall: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for s in traced:
        names = [s.name]
        if s.name.startswith("runtime.comm."):
            names.append("runtime.comm.total")
        for name in names:
            wall[name] += s.end - s.start
            own[name] += self_ns[s.id]
            calls[name] += 1
    m = {}
    for span, fields in SPAN_METRICS:
        for f in fields:
            value = {"wall_s": wall, "self_s": own, "calls": calls}[f][span]
            m[f"{span}.{f}"] = value / units / (1.0 if f == "calls" else 1e9)
    m["runtime.executor.overhead_s"] = own["runtime.executor.run_spmd"] / units / 1e9
    unit_wall = float(np.mean(out.traced_wall)) if out.traced_wall else 0.0
    m["trace.unit_wall_s"] = unit_wall
    for share, part in (
        ("core.sweep.propose_moves.self_share", "core.sweep.propose_moves.self_s"),
        ("runtime.comm.total.share", "runtime.comm.total.wall_s"),
    ):
        m[share] = m[part] / unit_wall if unit_wall else 0.0

    refs = out.references
    sigs = [result_signature(r) for r in refs]
    for key in ("phases", "iterations", "moves"):
        m[f"core.distlouvain.{key}"] = float(np.mean([s[key] for s in sigs]))
    for key in ("collectives", "messages", "bytes"):
        m[f"runtime.comm.{key}"] = float(np.mean([s[key] for s in sigs]))
    for c in PERFMODEL_CATEGORIES:
        m[f"runtime.perfmodel.{c}_s"] = float(
            np.mean([r.trace.seconds_by_category().get(c, 0.0) for r in refs])
        )
    for name, values in (
        ("service.scheduler.queue_s", out.queue_s),
        ("service.engine.run_s", out.run_s),
        ("service.incremental.run_s", out.incremental_run_s),
    ):
        m[f"{name}.p50"] = float(np.percentile(values, 50.0)) if values else 0.0
        m[f"{name}.tail"] = tail(values)[0] if values else 0.0
    m["service.store.hit_fraction"] = out.hit_fraction
    m["service.admission_rejects"] = float(out.admission_rejects)
    m["trace.overhead_fraction"] = out.trace_overhead
    m["host.probe_s"] = float(np.median(out.probe_s))
    return m


def traced_call_signatures(out, tracer) -> list[str]:
    """Per-input counts of exact layer calls; every traced detection of
    one input must make the same calls.  Adds them to the signatures."""
    from workloads import EXACT_SPAN_PREFIXES

    per_tag: dict[str, Counter] = defaultdict(Counter)
    for s in tracer.spans:
        if s.detection in out.computed_traced and s.name.startswith(
            EXACT_SPAN_PREFIXES
        ):
            per_tag[s.detection][s.name] += 1
    problems = []
    for tag in sorted(out.computed_traced):
        label = out.label_of[tag]
        counts = dict(sorted(per_tag[tag].items()))
        sig = out.signatures.setdefault(label, {})
        if sig.setdefault("calls", counts) != counts:
            problems.append(f"nondeterminism: {label} layer calls differ")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tracer = Tracer() if args.trace else None
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    out = workloads.run_workload(
        args.workload, args.seed, args.seconds, tracer, workdir
    )

    problems = list(out.problems)
    if tracer is not None:
        problems += traced_call_signatures(out, tracer)
        if tracer.missing:
            print(f"warning: hooks not found: {tracer.missing}", file=sys.stderr)
    problems += check_ledger(args.workload, args.seed, out.signatures)
    correct = out.failed == 0 and not problems and bool(out.references)

    notes = {}
    if not (out.references and out.detect_wall and out.job_latency):
        metrics = {}
    elif tracer is None:
        values, notes = end_to_end_metrics(out)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    else:
        values = per_layer_metrics(out, tracer)
        metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER}
        trace_path = os.path.join(
            OUT, f"trace-{args.workload}-seed{args.seed}.json"
        )
        tracer.write_chrome_trace(trace_path)
        notes["trace"] = os.path.relpath(trace_path, ROOT)

    for problem in problems:
        print(f"check failed: {problem}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}{note}")
    if tracer is None and out.probe_s:
        print(f"host.probe_s {np.median(out.probe_s):.6g} s"
              " (host speed, not gated)")
    if "trace" in notes:
        print(f"trace: {notes['trace']}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed + (len(problems) - len(out.problems)),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
