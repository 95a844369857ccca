"""The benchmark's workloads, built from a seed.

Each workload function takes a :class:`Run` and fills ``run.metrics``
(end-to-end metrics, or per-layer metrics when ``run.trace`` is set) and
``run.detail``; every answer the program gives is checked against its
reference in ``run.tally``.

* ``sweep-cold`` — the paper's evaluation: the ``sweep`` CLI over an empty
  store (FFT, BHK, matmul, Strassen, both normalizations, convex min-cut up
  to ~1k vertices, dense and sparse sides of the ``auto`` cutoff, one
  ``spectral-coarse`` point above 10k vertices, ``solve -p 4``), then the
  swept store served over HTTP.
* ``serve-hot`` — one ``serve`` process whose working set fits every
  memory tier, warmed before timing.
* ``serve-spill`` — the same server over a pre-populated store with ~300
  graphs, more than the engine, spectrum and graph-registry LRUs hold.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from repro.graphs.generators.random_graphs import erdos_renyi_dag
from repro.runtime.families import GraphSpec
from repro.server.client import BoundsClient, ServerError

import harness
import layers
import loadgen
import oracle

#: Connections (and threads) of the closed- and open-loop phases: nproc.
NPROC = os.cpu_count() or 1


class Run:
    """One benchmark invocation: seed, budget, scratch space and results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.rng = np.random.default_rng(seed)
        self.work = harness.ROOT / ".perfbench_work" / f"run-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.refs = oracle.References()
        self.tally = loadgen.Tally()
        self.metrics: Dict[str, float] = {}
        self.detail: Dict[str, object] = {}
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        path = self.work / f"{name}-{self._dirs}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# ----------------------------------------------------------------------
# query items and their references
# ----------------------------------------------------------------------
class Catalog:
    """Graphs by key, built once, with their wire refs."""

    def __init__(self) -> None:
        self.graphs: Dict[str, object] = {}
        self.service_refs: Dict[str, object] = {}
        self.wire: Dict[str, dict] = {}

    def family(self, family: str, size: int) -> str:
        key = f"{family}:{size}"
        if key not in self.graphs:
            spec = GraphSpec(family=family, size_param=size)
            self.graphs[key] = spec.build()
            self.service_refs[key] = spec
            self.wire[key] = {"family": family, "size": size}
        return key

    def inline(self, graph) -> str:
        key = graph.fingerprint()
        self.graphs[key] = graph
        self.service_refs[key] = graph
        self.wire[key] = {"num_vertices": graph.num_vertices,
                          "edges": [[int(u), int(v)] for u, v in graph.edges()]}
        return key


def make_item(run: Run, catalog: Catalog, key: str, memory_size: int, processors: int = 1,
              normalization: str = "normalized", method: str = "spectral") -> dict:
    query = {"graph": catalog.wire[key], "memory_size": int(memory_size)}
    if processors != 1:
        query["num_processors"] = int(processors)
    if normalization != "normalized":
        query["normalization"] = normalization
    if method != "spectral":
        query["method"] = method
    expected = run.refs.expected(key, catalog.graphs[key], catalog.service_refs[key],
                                 int(memory_size), processors, normalization, method)
    return {"query": query, "key": key, "method": method, "expected": expected}


def check(item: dict, answer) -> Optional[str]:
    error = oracle.check_answer(answer, item["expected"], item["method"])
    return None if error is None else f"{item['key']} M={item['query']['memory_size']}: {error}"


# ----------------------------------------------------------------------
# shared serving phases
# ----------------------------------------------------------------------
CLOSED_JOB_REQUESTS = 100


def closed_job_items(run: Run, items: List[dict]) -> List[dict]:
    """The closed-loop job: equal shares of inline and family graph refs.

    A fixed composition keeps the job's cost from depending on how many
    large inline bodies a seed happens to draw.
    """
    kinds: Dict[bool, List[dict]] = {}
    for item in items:
        kinds.setdefault("edges" in item["query"]["graph"], []).append(item)
    share = CLOSED_JOB_REQUESTS // len(kinds)
    job = [group[i] for group in kinds.values()
           for i in run.rng.integers(0, len(group), size=share)]
    return [job[i] for i in run.rng.permutation(len(job))]


def _solve_counts(server: harness.Server) -> Dict[str, float]:
    text = server.metrics()
    return {
        "eigensolves": harness.metric(text, "repro_eigensolves_total"),
        "flow_calls": harness.metric(text, "repro_flow_calls_total"),
    }


def serve_phases(run: Run, server: harness.Server, items: List[dict], sequence: List[dict],
                 solve_free: bool) -> None:
    """Closed-loop latency, the closed-loop job and the open-loop ladder.

    ``solve_free`` makes any eigensolve or flow call seen on ``/metrics``
    during the phases invalidate the run.
    """
    before = _solve_counts(server)
    seq_seconds = 0.6 * run.seconds
    latencies = loadgen.sequential(server.url, sequence, seq_seconds, check, run.tally)
    stats = loadgen.tail(latencies)
    job = closed_job_items(run, items)
    closed = loadgen.closed_job(server.url, job, NPROC, check, run.tally)
    ladder = loadgen.ladder(server.url, sequence, NPROC, check, run.tally)
    after = _solve_counts(server)
    run.metrics.setdefault("query_p50_ms", 1e3 * stats["p50"])
    run.metrics.setdefault("query_p99_ms", 1e3 * stats["tail"])
    run.metrics.setdefault("makespan_s", closed["wall"])
    run.metrics["closed_rps"] = len(job) / closed["wall"]
    run.metrics["slo_rps"] = ladder["slo_rps"]
    run.detail["sequential"] = {"loop": "closed", "connections": 1, **stats}
    run.detail["closed_job"] = {"loop": "closed", "connections": NPROC,
                                "requests": len(job), "wall_s": closed["wall"]}
    run.detail["ladder"] = {"loop": "open", "connections": NPROC,
                            "limit_ms": 1e3 * loadgen.LADDER_LIMIT_SECONDS, **ladder}
    run.detail["gen_lag_ms"] = ladder["gen_lag_ms"]
    solves = {name: after[name] - before[name] for name in after}
    run.detail["timed_solves"] = solves
    if solve_free and (solves["eigensolves"] or solves["flow_calls"]):
        run.tally.add(f"timed serving phase ran {solves} (must be 0)")


def warm(url: str, items: List[dict], tally: loadgen.Tally, batch: int = 32) -> None:
    """Send every item once in batches (cold solves fill the store)."""
    with BoundsClient(url) as client:
        for start in range(0, len(items), batch):
            chunk = items[start:start + batch]
            try:
                answers = client.bounds([item["query"] for item in chunk])
            except ServerError as exc:
                for _ in chunk:
                    tally.add(f"warm-up error {exc}")
                continue
            for item, answer in zip(chunk, answers):
                tally.add(check(item, answer))


# ----------------------------------------------------------------------
# traced phases: per-layer metrics
# ----------------------------------------------------------------------
BACKENDS = ("dense", "sparse", "amg")


def _children(spans: List[dict]) -> Dict[str, List[dict]]:
    children: Dict[str, List[dict]] = {}
    for span in spans:
        if span.get("parent"):
            children.setdefault(span["parent"], []).append(span)
    return children


def layer_metrics(spans: List[dict], counters: Dict[str, float]):
    """The per-layer metrics of one traced phase, and the per-layer table."""
    table = layers.aggregate(spans)
    children = _children(spans)

    def row(layer: str) -> Dict[str, float]:
        return table.get(layer, {"count": 0, "busy_s": 0.0, "self_s": 0.0})

    def per_call(layer: str, field: str = "busy_s", scale: float = 1e3) -> float:
        entry = row(layer)
        return scale * entry[field] / entry["count"] if entry["count"] else 0.0

    requests = row("server.app")["count"]

    def per_request(layer: str, field: str = "self_s") -> float:
        return 1e3 * row(layer)[field] / requests if requests else 0.0

    lookups = [s for s in spans if s["layer"] == "solvers.cache.lookup"]
    store_hits = sum(
        1 for s in lookups if s.get("hit") and any(
            c["layer"] == "runtime.store.get" and c.get("hit") for c in children.get(s["id"], [])
        )
    )
    memory_hits = sum(1 for s in lookups if s.get("hit")) - store_hits
    solves = sum(row(f"solvers.eigensolve.{b}")["count"] for b in BACKENDS)
    solved_keys = {s.get("key") for s in lookups if not s.get("hit")}
    metrics = {
        "server.transport.self_ms": per_call("server.client", "self_s"),
        "server.app.self_ms": per_call("server.app", "self_s"),
        "server.protocol.decode_ms": per_request("server.protocol.decode"),
        "server.protocol.encode_ms": per_request("server.protocol.encode"),
        "server.protocol.request_bytes": (
            sum(s.get("bytes", 0) for s in spans if s["layer"] == "server.app") / requests
            if requests else 0.0),
        "server.runner.admission_wait_ms": per_request("server.runner.admission_wait",
                                                       "busy_s"),
        "server.runner.rejected": counters.get("rejected", 0.0),
        "server.runner.coalesced": counters.get("coalesced", 0.0),
        "runtime.service.submit_self_ms": per_call("runtime.service", "self_s"),
        "runtime.service.engine_builds": row("runtime.service.engine_build")["count"],
        "graphs.build_count": row("graphs.build")["count"],
        "graphs.build_ms": per_call("graphs.build"),
        "graphs.fingerprint_ms": per_call("graphs.fingerprint"),
        "graphs.laplacian.assemble_count": row("graphs.laplacian.assemble")["count"],
        "graphs.laplacian.assemble_ms": per_call("graphs.laplacian.assemble"),
        "solvers.cache.lookups": len(lookups),
        "solvers.cache.memory_hit_ratio": memory_hits / len(lookups) if lookups else 0.0,
        "solvers.cache.store_hit_ratio": store_hits / len(lookups) if lookups else 0.0,
        "solvers.cache.lookup_ms": per_call("solvers.cache.lookup"),
        "solvers.eigensolve.useful_ratio": len(solved_keys) / solves if solves else 1.0,
        "solvers.coarsen.busy_s": row("solvers.coarsen")["busy_s"],
        "runtime.store.get_count": row("runtime.store.get")["count"],
        "runtime.store.get_ms": per_call("runtime.store.get"),
        "runtime.store.put_count": row("runtime.store.put")["count"],
        "runtime.store.put_ms": per_call("runtime.store.put"),
        "runtime.store.bytes_written": counters.get("bytes_written", 0.0),
        "runtime.store.lease_leaders": sum(
            1 for s in spans if s["layer"] == "runtime.store.lease_acquire" and s.get("leader")),
        "runtime.store.lease_followers": row("runtime.store.lease_wait")["count"],
        "runtime.store.lease_wait_s": row("runtime.store.lease_wait")["busy_s"],
        "core.formula.eval_count": row("core.formula")["count"],
        "core.formula.eval_us": per_call("core.formula", scale=1e6),
        "baselines.mincut.flow_calls": counters.get("flow_calls", 0.0),
        "baselines.mincut.busy_s": row("baselines.mincut")["busy_s"],
        "runtime.orchestrator.self_s": row("runtime.orchestrator")["self_s"],
        "runtime.cli.boot_s": row("runtime.cli.boot")["busy_s"],
        "runtime.cli.self_s": row("runtime.cli")["self_s"],
    }
    for backend in BACKENDS:
        metrics[f"solvers.eigensolve.count.{backend}"] = row(
            f"solvers.eigensolve.{backend}")["count"]
        metrics[f"solvers.eigensolve.busy_s.{backend}"] = row(
            f"solvers.eigensolve.{backend}")["busy_s"]
    return metrics, table


def finish_trace(run: Run, spans: List[dict], counters: Dict[str, float],
                 covered_s: float, wall_s: float, untraced: float, traced: float) -> None:
    """Per-layer metrics plus ``unattributed_share`` and ``trace_overhead_pct``."""
    metrics, table = layer_metrics(spans, counters)
    metrics["unattributed_share"] = max(0.0, 1.0 - covered_s / wall_s) if wall_s else 0.0
    metrics["trace_overhead_pct"] = 100.0 * (traced / untraced - 1.0) if untraced else 0.0
    run.metrics.update(metrics)
    run.detail["layer_table"] = layers.render_table(table)
    print(f"per-layer self time and wait, {run.workload} (traced wall {wall_s:.3f} s):")
    print(run.detail["layer_table"], flush=True)


def _metric_counters(server: harness.Server) -> Dict[str, float]:
    text = server.metrics()
    return {
        "rejected": harness.metric(text, "repro_admission_rejections_total"),
        "coalesced": harness.metric(text, "repro_coalesced_queries_total"),
        "flow_calls": harness.metric(text, "repro_flow_calls_total"),
    }


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {name: after[name] - before.get(name, 0.0) for name in after}


#: Spans of the serving process itself rather than of a request.
_PROCESS_LAYERS = ("runtime.cli", "runtime.cli.boot")


def _request_spans(trace_dir: Path) -> List[dict]:
    return [s for s in layers.load(trace_dir)
            if s.get("request") and s["layer"] not in _PROCESS_LAYERS]


def traced_serving(run: Run, store: Path, items: List[dict], warm_items: List[dict],
                   sequence: List[dict]) -> None:
    """Sequential phase on a plain server, then on an instrumented one.

    The instrumented server's spans are linked to the client round trips
    that caused them; the plain server's mean latency is the untraced
    reference for ``trace_overhead_pct``.
    """
    seconds = 0.3 * run.seconds
    plain = harness.Server(store, run.work)
    try:
        warm(plain.url, warm_items, run.tally)
        untraced = loadgen.sequential(plain.url, sequence, seconds, check, run.tally)
    finally:
        plain.stop()
    trace_dir = run.fresh_dir("spans")
    layers.install_client_layer()
    layers.set_recording(False)
    server = harness.Server(store, run.work, trace_dir=trace_dir)
    try:
        warm(server.url, warm_items, run.tally)
        before = _metric_counters(server)
        bytes_before = harness.dir_bytes(store)
        layers.reset()
        layers.set_recording(True)
        start = time.perf_counter()
        traced = loadgen.sequential(server.url, sequence, seconds, check, run.tally)
        wall = time.perf_counter() - start
        loadgen.closed_job(server.url, closed_job_items(run, items), NPROC, check, run.tally)
        layers.set_recording(False)
        counters = _delta(_metric_counters(server), before)
        counters["bytes_written"] = harness.dir_bytes(store) - bytes_before
    finally:
        server.stop()
    client_spans = layers.spans()
    sequential_ids = {s["id"] for s in client_spans if s["start"] <= start + wall}
    spans = client_spans + _request_spans(trace_dir)
    covered = sum(s["end"] - s["start"] for s in client_spans if s["id"] in sequential_ids)
    finish_trace(run, spans, counters, covered, wall,
                 statistics.fmean(untraced), statistics.fmean(traced))


# ----------------------------------------------------------------------
# setup helpers
# ----------------------------------------------------------------------
def boot_and_warm(run: Run, warm_items: List[dict], repeats: int,
                  store_fn: Callable[[], Path]) -> harness.Server:
    """Set up ``repeats`` times; keep the last server; ``setup_s`` is the median."""
    samples = []
    for attempt in range(repeats):
        start = time.perf_counter()
        server = harness.Server(store_fn(), run.work)
        try:
            warm(server.url, warm_items, run.tally)
        except BaseException:
            server.stop()
            raise
        samples.append(time.perf_counter() - start)
        if attempt < repeats - 1:
            server.stop()
    run.metrics["setup_s"] = statistics.median(samples)
    run.detail["setup_samples_s"] = samples
    return server


def seeded_memory(run: Run, low: int, high: int) -> int:
    return int(run.rng.integers(low, high + 1))


# ----------------------------------------------------------------------
# serve-hot
# ----------------------------------------------------------------------
def _hot_items(run: Run, catalog: Catalog) -> List[dict]:
    paper = [("fft", 5), ("fft", 6), ("fft", 7), ("matmul", 4), ("matmul", 5),
             ("matmul", 6), ("strassen", 4), ("bhk", 8), ("bhk", 9)]
    items = []
    for family, size in (paper[:3] if run.smoke else paper):
        key = catalog.family(family, size)
        for normalization in ("normalized", "unnormalized"):
            for _ in range(2):
                items.append(make_item(run, catalog, key, seeded_memory(run, 2, 64),
                                       normalization=normalization))
        items.append(make_item(run, catalog, key, seeded_memory(run, 2, 32),
                               processors=int(run.rng.choice([2, 4]))))
    for family, size in (("fft", 7), ("matmul", 6)):
        key = catalog.family(family, size)
        items.append(make_item(run, catalog, key, seeded_memory(run, 2, 32),
                               method="spectral-coarse"))
    for family, size in (("fft", 5), ("matmul", 4)):
        key = catalog.family(family, size)
        items.append(make_item(run, catalog, key, seeded_memory(run, 2, 16),
                               method="convex-min-cut"))
    return items


def serve_hot(run: Run) -> None:
    catalog = Catalog()
    items = _hot_items(run, catalog)
    sequence = [items[i] for i in run.rng.integers(0, len(items), size=2000)]
    if run.trace:
        store = run.fresh_dir("store")
        traced_serving(run, store, items, items + items, sequence)
        return
    server = boot_and_warm(run, items + items, 3, lambda: run.fresh_dir("store"))
    try:
        serve_phases(run, server, items, sequence, solve_free=True)
        run.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()


# ----------------------------------------------------------------------
# serve-spill
# ----------------------------------------------------------------------
def _spill_items(run: Run, catalog: Catalog) -> List[dict]:
    keys = []
    for family, sizes in (("fft", range(4, 8)), ("matmul", range(2, 7)),
                          ("bhk", range(4, 10)), ("hypercube", range(3, 9))):
        keys.extend(catalog.family(family, size) for size in sizes)
    # Sizes are fixed so every seed builds a working set of the same cost;
    # the seed draws edges, memory sizes, normalizations and request order.
    small = ("chain", "prefix-sum", "binary-tree", "inner-product", "diamond")
    for family in small:
        sizes = np.linspace(24, 159, 3 if run.smoke else 15).astype(int)
        keys.extend(catalog.family(family, int(size)) for size in sizes)
    items = []
    for key in dict.fromkeys(keys):
        for normalization in ("normalized", "unnormalized"):
            items.append(make_item(run, catalog, key, seeded_memory(run, 2, 48),
                                   normalization=normalization))
    # Inline graphs: one seeded normalization each, which keeps the store
    # pre-population affordable while the spectra still outnumber the
    # 256-entry memory tier.
    for n in np.linspace(80, 220, 8 if run.smoke else 200).astype(int):
        graph = erdos_renyi_dag(int(n), 8.0 / n, seed=int(run.rng.integers(2**31)))
        normalization = str(run.rng.choice(["normalized", "unnormalized"]))
        items.append(make_item(run, catalog, catalog.inline(graph),
                               seeded_memory(run, 2, 48), normalization=normalization))
    return items


def serve_spill(run: Run) -> None:
    catalog = Catalog()
    items = _spill_items(run, catalog)
    order = run.rng.permutation(len(items))
    prepop = [items[i] for i in order]
    sequence = [items[i] for i in run.rng.integers(0, len(items), size=2000)]
    run.detail["working_set"] = {"graphs": len(catalog.graphs), "queries": len(items)}
    if run.trace:
        store = run.fresh_dir("store")
        traced_serving(run, store, items, prepop, sequence)
        return
    server = boot_and_warm(run, prepop, 2, lambda: run.fresh_dir("store"))
    try:
        serve_phases(run, server, items, sequence, solve_free=True)
        run.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def _sweep_plan(run: Run) -> List[Tuple[str, List[int], List[str]]]:
    """``(family, sizes, methods)`` of each ``sweep`` invocation, in order."""
    both = ["spectral", "spectral-unnormalized"]
    if run.smoke:
        return [("fft", [5, 6], both), ("matmul", [4], ["convex-min-cut"]),
                ("chain", [200], ["spectral-coarse"])]
    return [
        ("fft", [6, 7, 8], both),
        ("bhk", [8, 10, 11], both),
        ("matmul", [4, 6, 8], both + ["convex-min-cut"]),
        ("strassen", [2, 4, 8], both),
        ("fft", [5, 6, 7], ["convex-min-cut"]),
        ("fft", [10], ["spectral"]),
        ("chain", [20001], ["spectral-coarse"]),
    ]


#: Sweep method -> (wire method, normalization) of the equivalent query.
_SWEEP_QUERY = {
    "spectral": ("spectral", "normalized"),
    "spectral-unnormalized": ("spectral", "unnormalized"),
    "spectral-coarse": ("spectral-coarse", "normalized"),
    "convex-min-cut": ("convex-min-cut", "normalized"),
}


def _sweep_item(run: Run, catalog: Catalog, key: str, method: str, memory_size: int,
                processors: int = 1) -> dict:
    wire_method, normalization = _SWEEP_QUERY[method]
    return make_item(run, catalog, key, memory_size, processors=processors,
                     normalization=normalization, method=wire_method)


class _RowAnswer:
    """A sweep row or CLI answer seen through the served-answer interface."""

    def __init__(self, bound: float) -> None:
        self.bound = float(bound)
        self.bound_lo = None
        self.bound_hi = None


def _sweep_job(run: Run, catalog: Catalog, plan, memory_sizes: List[int], solve_key: str,
               trace_dir: Optional[Path]) -> dict:
    """One sweep job over a fresh store: every invocation's wall, peak RSS, rows checked."""
    store = run.fresh_dir("store")
    job_dir = run.fresh_dir("job")
    ladder = [str(M) for M in memory_sizes]
    walls, rss, flow_calls = [], [], 0
    for index, (family, sizes, methods) in enumerate(plan):
        report_path = job_dir / f"sweep-{index}.json"
        result = harness.run_cli(
            ["sweep", "--family", family, "--sizes", *map(str, sizes), "--methods", *methods,
             "--memory-sizes", *ladder, "--processes", "1", "--json", str(report_path),
             "--store", str(store)], job_dir, trace_dir)
        walls.append(result["wall"])
        rss.append(result["rss_mb"])
        report = json.loads(report_path.read_text())
        flow_calls += int(report["num_flow_calls"])
        expected_rows = sum(
            len(methods) * sum(1 for M in memory_sizes
                               if M > catalog.graphs[f"{family}:{size}"].max_in_degree)
            for size in sizes)
        if len(report["rows"]) != expected_rows:
            run.tally.add(f"sweep {family} {sizes}: {len(report['rows'])} rows, "
                          f"expected {expected_rows}")
        for row in report["rows"]:
            key = catalog.family(row["family"], int(row["size_param"]))
            item = _sweep_item(run, catalog, key, row["method"], int(row["memory_size"]))
            run.tally.add(check(item, _RowAnswer(row["bound"])))
    family, size = solve_key.split(":")
    result = harness.run_cli(
        ["solve", "--family", family, "--size", size, "-M", *ladder, "-p", "4", "--json",
         "--store", str(store)], job_dir, trace_dir)
    walls.append(result["wall"])
    rss.append(result["rss_mb"])
    for answer in json.loads(result["stdout"]):
        item = make_item(run, catalog, solve_key, int(answer["memory_size"]), processors=4)
        run.tally.add(check(item, _RowAnswer(answer["bound"])))
    return {"wall": sum(walls), "walls": walls, "rss": max(rss), "store": store,
            "flow_calls": flow_calls, "bytes_written": harness.dir_bytes(store)}


def sweep_cold(run: Run) -> None:
    base = [12, 16, 24, 32, 48]
    memory_sizes = sorted({int(M * run.rng.uniform(0.85, 1.15)) for M in base})
    plan = _sweep_plan(run)
    catalog = Catalog()
    solve_key = catalog.family("fft", 6 if run.smoke else 8)
    run.detail["memory_sizes"] = memory_sizes
    # References for every row come first, so the job is timed without them.
    items = []
    for family, sizes, methods in plan:
        for size in sizes:
            key = catalog.family(family, size)
            for method in methods:
                items.extend(_sweep_item(run, catalog, key, method, M) for M in memory_sizes)
    for M in memory_sizes:
        make_item(run, catalog, solve_key, M, processors=4)

    boots = []
    for _ in range(3):
        empty = run.fresh_dir("store")
        boots.append(harness.run_cli(["cache", "stats", "--store", str(empty)],
                                     run.work)["wall"])
    if run.trace:
        untraced = _sweep_job(run, catalog, plan, memory_sizes, solve_key, None)
        trace_dir = run.fresh_dir("spans")
        traced = _sweep_job(run, catalog, plan, memory_sizes, solve_key, trace_dir)
        spans = layers.load(trace_dir)
        covered = sum(s["end"] - s["start"] for s in spans
                      if s["layer"] in ("runtime.cli.boot", "runtime.cli"))
        counters = {"flow_calls": traced["flow_calls"],
                    "bytes_written": traced["bytes_written"]}
        finish_trace(run, spans, counters, covered, traced["wall"], untraced["wall"],
                     traced["wall"])
        return
    run.metrics["setup_s"] = statistics.median(boots)
    run.detail["setup_samples_s"] = boots
    job = _sweep_job(run, catalog, plan, memory_sizes, solve_key, None)
    run.metrics["makespan_s"] = job["wall"]
    run.metrics["peak_rss_mb"] = job["rss"]
    run.detail["sweep"] = {"invocation_walls_s": job["walls"], "wall_s": job["wall"],
                           "flow_calls": job["flow_calls"]}

    # The swept store served over HTTP: every query must hit a cache tier.
    sequence = [items[i] for i in run.rng.integers(0, len(items), size=2000)]
    server = harness.Server(job["store"], run.work)
    try:
        start = time.perf_counter()
        warm(server.url, items, run.tally)
        run.detail["serve_warm_s"] = server.ready_seconds + time.perf_counter() - start
        serve_phases(run, server, items, sequence, solve_free=True)
        run.detail["serve_peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()


WORKLOADS = {
    "sweep-cold": sweep_cold,
    "serve-hot": serve_hot,
    "serve-spill": serve_spill,
}
