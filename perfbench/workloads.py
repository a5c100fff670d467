"""The benchmark's three workloads and the output checks they run.

Every input is derived from the run's ``--seed``; the program only sees
the generated graphs and requests.  Why each workload exists, and which
layer metric should move which end-to-end metric on it, is written down
in ``perfbench/README.md``.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import shutil
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import (
    CORI_HASWELL,
    AdmissionError,
    DetectionRequest,
    Engine,
    LouvainConfig,
    ResultStore,
    Variant,
    detect,
    make_graph,
    modularity,
)
from repro.generators.lfr import generate_lfr
from repro.generators.registry import dataset
from repro.obs import DriftMonitor, EventLog

#: A recomputed modularity may differ from the distributed one only by
#: floating-point summation order.
MODULARITY_TOLERANCE = 1e-9

#: Span names whose per-detection counts are exact and enter the
#: determinism signature (store, event and submit counts depend on
#: timing in the service loop, so they stay out).
EXACT_SPAN_PREFIXES = ("core.", "graph.", "runtime.", "resilience.")


def host_probe() -> float:
    """Median seconds of a fixed numpy work unit.  Taken between
    detections and recorded ungated, it tells host drift apart from a
    program change.  No BLAS call: its spinning worker threads would
    compete with the detection that follows."""
    rng = np.random.default_rng(0)
    x = rng.random(300_000)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.cumsum(np.sort(x) * 1.5)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def subseed(seed: int, *path: int) -> int:
    """Independent generator seed for input ``path`` of run ``seed``."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def result_signature(result: Any) -> dict:
    """Exact, deterministic facts of one detection (both clocks' inputs)."""
    trace = result.trace
    return {
        "modelled_s": result.elapsed,
        "modularity": result.modularity,
        "phases": len(result.phases),
        "iterations": len(result.iterations),
        "moves": int(sum(it.moves for it in result.iterations)),
        "collectives": int(sum(trace.collective_counts().values())),
        "messages": int(trace.total_messages),
        "bytes": int(trace.total_bytes),
    }


@dataclass
class Outcome:
    """Everything one workload run measured, before it becomes metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    #: Untraced wall seconds of each batch detection (service: of each
    #: fresh detection; incremental ones have their own latency mode).
    detect_wall: list[float] = field(default_factory=list)
    incremental_run_s: list[float] = field(default_factory=list)
    #: Untraced submit -> done seconds of each job.
    job_latency: list[float] = field(default_factory=list)
    #: Jobs done, and seconds spent, while untraced.
    jobs_done: int = 0
    window_s: float = 0.0
    #: One result per distinct reference input (modelled_s, Q, counts).
    references: list[Any] = field(default_factory=list)
    #: Input label -> exact signature (results and, traced, span counts).
    signatures: dict[str, dict] = field(default_factory=dict)
    #: Detection/job tag -> input label, for traced span counts.
    label_of: dict[str, str] = field(default_factory=dict)
    #: Tags of the detections/jobs that ran traced, and of those among
    #: them that computed (not served from the store).
    traced_tags: set[str] = field(default_factory=set)
    computed_traced: set[str] = field(default_factory=set)
    #: Wall seconds of each traced detection/job.
    traced_wall: list[float] = field(default_factory=list)
    #: Tracing overhead on this workload's end-to-end metric.
    trace_overhead: float = 0.0
    #: Service only: per non-hit job queue and run seconds, hit share.
    queue_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    hit_fraction: float = 0.0
    admission_rejects: int = 0
    #: Host-speed probe readings taken during the run.
    probe_s: list[float] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


class Checker:
    """Output checks shared by the workloads; thread-safe.

    * a computed result's modularity equals ``repro.core.modularity``
      recomputed from its assignment;
    * every later result for an input already seen (a repeat detection,
      or a store hit) is bit-identical to the first.
    """

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self._first: dict[str, Any] = {}
        self._lock = threading.Lock()

    def check(self, label: str, graph: Any, result: Any, computed: bool) -> bool:
        problem = None
        if computed:
            q = modularity(graph, result.assignment)
            if abs(q - result.modularity) > MODULARITY_TOLERANCE:
                problem = (
                    f"{label}: recomputed Q={q!r} != reported "
                    f"{result.modularity!r}"
                )
        with self._lock:
            first = self._first.setdefault(label, result)
            if problem is None and first is not result:
                if not (
                    np.array_equal(first.assignment, result.assignment)
                    and first.modularity == result.modularity
                    and first.elapsed == result.elapsed
                ):
                    problem = f"{label}: result differs from its first run"
            if problem is None and computed:
                sig = result_signature(result)
                old = self.outcome.signatures.setdefault(label, sig)
                if old != sig:
                    problem = f"{label}: signature {sig} != {old}"
            if problem is not None:
                self.outcome.fail(problem)
        return problem is None


# ----------------------------------------------------------------------
# Batch workloads: repeated detections through repro.detect
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BatchSpec:
    nranks: int
    config: LouvainConfig
    #: Distinct inputs per run; more inputs average out graph-to-graph
    #: variation between seeds.
    inputs: int
    make: Callable[[int], tuple[Any, Any]]


def _lfr_input(seed: int) -> tuple[Any, Any]:
    return generate_lfr(20000, seed=seed).edges.to_csr(), CORI_HASWELL


def _social_input(seed: int) -> tuple[Any, Any]:
    g = make_graph("soc-friendster", "small", seed)
    spec = dataset("soc-friendster")
    return g, CORI_HASWELL.scaled(spec.edge_scale_factor(g))


BATCH = {
    "lfr_p1_kernel": BatchSpec(
        nranks=1, config=LouvainConfig(), inputs=5, make=_lfr_input
    ),
    "social_p8_comm": BatchSpec(
        nranks=8,
        config=LouvainConfig(variant=Variant.ETC, alpha=0.25),
        inputs=8,
        make=_social_input,
    ),
}


def run_batch(spec: BatchSpec, seed: int, seconds: float, tracer: Any) -> Outcome:
    """Round-robin detections over the inputs for ``seconds`` (at least
    two rounds, so every input is detected twice).  Traced runs trace
    odd rounds only; even rounds give the untraced comparison."""
    out = Outcome()
    checker = Checker(out)
    inputs = []
    for k in range(spec.inputs):
        t0 = time.perf_counter()
        inputs.append(spec.make(subseed(seed, k)))
        out.setup_s.append(time.perf_counter() - t0)

    walls: dict[tuple[int, bool], list[float]] = {}
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        rnd, k = divmod(n, len(inputs))
        if rnd >= 2 and time.perf_counter() >= deadline:
            break
        g, machine = inputs[k]
        traced = tracer is not None and rnd % 2 == 1
        tag = f"d{n}"
        label = f"input{k}"
        out.label_of[tag] = label
        out.attempted += 1
        out.probe_s.append(host_probe())
        request = DetectionRequest(
            graph=g,
            nranks=spec.nranks,
            config=spec.config,
            machine=machine,
            max_retries=0,
            use_cache=False,
            tag=tag,
        )
        if traced:
            tracer.install()
            out.traced_tags.add(tag)
            out.computed_traced.add(tag)
        t0 = time.perf_counter()
        try:
            result = detect(request).result
        except Exception as exc:  # counted, reported, run continues
            out.fail(f"{tag}: {exc!r}")
            continue
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        walls.setdefault((k, traced), []).append(wall)
        if traced:
            out.traced_wall.append(wall)
        else:
            out.detect_wall.append(wall)
            out.job_latency.append(wall)
            out.jobs_done += 1
            out.window_s += wall
        if checker.check(label, g, result, computed=True) and rnd == 0:
            out.references.append(result)
    if tracer is not None:
        ratios = [
            np.mean(walls[(k, True)]) / np.mean(walls[(k, False)])
            for k in range(spec.inputs)
            if (k, True) in walls and (k, False) in walls
        ]
        out.trace_overhead = float(np.median(ratios)) - 1.0 if ratios else 0.0
    return out


# ----------------------------------------------------------------------
# Service workload: closed loop against an in-process Engine
# ----------------------------------------------------------------------
SERVICE_DATASETS = ("channel", "com-orkut", "soc-friendster")
#: Graphs per dataset: tiny graphs vary a lot from seed to seed, and
#: twelve inputs average that out of the deterministic metrics.
SERVICE_GRAPHS_PER_DATASET = 4
SERVICE_CONFIG = LouvainConfig(variant=Variant.ETC, alpha=0.25)
SERVICE_RANKS = 2
SERVICE_CLIENTS = 2
SERVICE_SETUPS = 3
#: Script mix: repeat reads (store hits), fresh detections at unseen
#: alpha (misses that run, checkpoint and put), incremental re-detections.
READ_SHARE = 0.70
FRESH_SHARE = 0.18
RESET_VERTICES = 8
#: Segments per run; traced runs trace every other segment.
SEGMENTS = 10


@dataclass
class _Service:
    graphs: list[tuple[Any, Any]]
    engine: Engine
    log: EventLog
    warm: list[Any]


def _start_service(seed: int, workdir: str) -> _Service:
    graphs = []
    for i, name in enumerate(SERVICE_DATASETS * SERVICE_GRAPHS_PER_DATASET):
        g = make_graph(name, "tiny", subseed(seed, i))
        graphs.append((g, CORI_HASWELL.scaled(dataset(name).edge_scale_factor(g))))
    os.makedirs(workdir, exist_ok=True)
    log = EventLog(os.path.join(workdir, "events.jsonl"), origin="perfbench")
    engine = Engine(
        workers=2,
        store=ResultStore(),
        workdir=workdir,
        event_log=log,
        drift=DriftMonitor(),
    )
    jobs = [
        engine.submit(_read_request(graphs, i, f"warm{i}"))
        for i in range(len(graphs))
    ]
    warm = [engine.wait(j, timeout=120.0) for j in jobs]
    return _Service(graphs=graphs, engine=engine, log=log, warm=warm)


def _stop_service(service: _Service) -> None:
    service.engine.shutdown(wait=True)
    service.log.close()


def _read_request(graphs: list, i: int, tag: str, **kw: Any) -> DetectionRequest:
    g, machine = graphs[i]
    return DetectionRequest(
        graph=g,
        nranks=SERVICE_RANKS,
        config=kw.pop("config", SERVICE_CONFIG),
        machine=machine,
        tag=tag,
        **kw,
    )


def _script(seed: int, client: int, service: _Service):
    """Client ``client``'s endless, seeded request script:
    yields (kind, input label, graph, request)."""
    rng = np.random.default_rng([seed, 1 + client])
    n = 0
    while True:
        u = rng.random()
        i = int(rng.integers(len(service.graphs)))
        tag = f"c{client}-{n}"
        g = service.graphs[i][0]
        if u < READ_SHARE:
            yield "read", f"warm{i}", g, _read_request(service.graphs, i, tag)
        elif u < READ_SHARE + FRESH_SHARE:
            alpha = float(rng.uniform(0.3, 0.95))
            config = dataclasses.replace(SERVICE_CONFIG, alpha=alpha)
            yield "fresh", f"fresh{i}:{alpha!r}", g, _read_request(
                service.graphs, i, tag, config=config
            )
        else:
            reset = np.sort(
                rng.choice(g.num_vertices, RESET_VERTICES, replace=False)
            )
            yield "incremental", f"inc{client}:{n}", g, _read_request(
                service.graphs,
                i,
                tag,
                mode="incremental",
                previous_assignment=service.warm[i].result.assignment,
                reset_touched=reset,
            )
        n += 1


def run_service(seed: int, seconds: float, tracer: Any, workdir: str) -> Outcome:
    out = Outcome()
    checker = Checker(out)
    service = None
    try:
        for k in range(SERVICE_SETUPS):
            if service is not None:
                _stop_service(service)
            t0 = time.perf_counter()
            service = _start_service(seed, os.path.join(workdir, f"setup{k}"))
            out.setup_s.append(time.perf_counter() - t0)
            for i, resp in enumerate(service.warm):
                out.attempted += 1
                if resp.result is None:
                    out.fail(f"warm{i}: {resp.state.value} {resp.error}")
                else:
                    checker.check(
                        f"warm{i}", service.graphs[i][0], resp.result, True
                    )
        assert service is not None
        if out.failed:
            return out
        out.references = [r.result for r in service.warm]
        _closed_loop(seed, seconds, tracer, service, out, checker)
    finally:
        if service is not None:
            _stop_service(service)
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def _closed_loop(
    seed: int,
    seconds: float,
    tracer: Any,
    service: _Service,
    out: Outcome,
    checker: Checker,
) -> None:
    scripts = [_script(seed, c, service) for c in range(SERVICE_CLIENTS)]
    lock = threading.Lock()
    done = {True: 0, False: 0}
    spent = {True: 0.0, False: 0.0}
    fresh: dict[bool, list[float]] = {True: [], False: []}
    hits = 0

    def client(c: int, until: float, traced: bool) -> None:
        nonlocal hits
        engine = service.engine
        while time.perf_counter() < until:
            kind, label, g, request = next(scripts[c])
            t0 = time.perf_counter()
            try:
                job = engine.submit(request)
                resp = engine.wait(job, timeout=120.0)
            except AdmissionError as exc:
                with lock:
                    out.attempted += 1
                    out.admission_rejects += 1
                    out.fail(f"{request.tag}: refused ({exc.reason})")
                continue
            except Exception as exc:  # counted, reported, loop continues
                with lock:
                    out.attempted += 1
                    out.fail(f"{request.tag}: {exc!r}")
                continue
            latency = time.perf_counter() - t0
            with lock:
                out.attempted += 1
                out.label_of[request.tag] = label
                if traced:
                    out.traced_tags.add(request.tag)
                done[traced] += 1
            if resp.result is None:
                with lock:
                    out.fail(f"{request.tag}: {resp.state.value} {resp.error}")
                continue
            checker.check(label, g, resp.result, computed=not resp.cache_hit)
            with lock:
                hits += resp.cache_hit
                if kind == "fresh" and not resp.cache_hit:
                    fresh[traced].append(resp.run_seconds)
                if traced:
                    out.traced_wall.append(latency)
                    if not resp.cache_hit:
                        out.computed_traced.add(request.tag)
                    continue
                out.job_latency.append(latency)
                if not resp.cache_hit:
                    out.queue_s.append(resp.queue_seconds)
                    out.run_s.append(resp.run_seconds)
                    if kind == "incremental":
                        out.incremental_run_s.append(resp.run_seconds)

    segment = seconds / SEGMENTS
    for s in range(SEGMENTS):
        out.probe_s.append(host_probe())
        traced = tracer is not None and s % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=client, args=(c, t0 + segment, traced))
            for c in range(SERVICE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spent[traced] += time.perf_counter() - t0
        if traced:
            tracer.uninstall()
    out.jobs_done = done[False]
    out.window_s = spent[False]
    total = done[True] + done[False]
    out.hit_fraction = hits / total if total else 0.0
    out.detect_wall = fresh[False]
    # Fresh detections carry almost all spans; the segments' job mixes
    # differ too much for a jobs/s comparison to resolve the overhead.
    if tracer is not None and fresh[True] and fresh[False]:
        out.trace_overhead = (
            float(np.median(fresh[True]) / np.median(fresh[False])) - 1.0
        )


WORKLOADS = ("lfr_p1_kernel", "social_p8_comm", "service_closed_loop")


def run_workload(
    name: str, seed: int, seconds: float, tracer: Any, workdir: str
) -> Outcome:
    if name == "service_closed_loop":
        return run_service(seed, seconds, tracer, workdir)
    return run_batch(BATCH[name], seed, seconds, tracer)
