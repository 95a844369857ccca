"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``: :func:`install_program_layers` and
:func:`install_client_layer` replace public
functions and methods of the program's layers with thin wrappers that
record one span per call (layer name, span id, parent span id, request id,
start, end, attributes).  Spans stay in memory and :func:`dump` writes them
out once, when the process ends.  :func:`aggregate` folds the span files of
every process of a run into per-layer counts, busy and self times.

A layer calling itself again (a family generator building through
``add_edges_array``) is folded into the outer span, so counts are counts of
layer entries, not of internal recursion.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Header carrying the load generator's client span id to the server, so a
#: server request span links to the client round trip that caused it.
REQUEST_HEADER = "X-Bench-Request"
_REQUEST_ENVIRON_KEY = "HTTP_X_BENCH_REQUEST"

_SPANS: List[dict] = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_STATE = {"recording": True}


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def set_recording(flag: bool) -> None:
    """Start or stop recording new spans in this process."""
    _STATE["recording"] = bool(flag)


def current_span_id() -> Optional[str]:
    stack = _stack()
    return stack[-1]["id"] if stack else None


def _wrap(owner, name: str, layer, attrs: Optional[Callable] = None, remote=None):
    """Replace ``owner.name`` by a span-recording wrapper (see :func:`_traced`)."""
    setattr(owner, name, _traced(getattr(owner, name), layer, attrs, remote))


def _traced(original, layer, attrs: Optional[Callable] = None, remote=None):
    """``original`` wrapped to record one span per call.

    ``layer`` is a name or a callable of the call arguments returning one;
    ``attrs(args, kwargs, result)`` adds attributes once the call returned;
    ``remote(args)`` returns a ``(parent_id, request_id)`` pair from outside
    the process (the client span a server request belongs to).
    """

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not _STATE["recording"]:
            return original(*args, **kwargs)
        stack = _stack()
        layer_name = layer(args) if callable(layer) else layer
        if stack and stack[-1]["layer"] == layer_name:
            return original(*args, **kwargs)
        if stack:
            parent, request = stack[-1]["id"], stack[-1]["request"]
        elif remote is not None:
            parent, request = remote(args)
        else:
            parent = request = None
        span = {
            "layer": layer_name,
            "id": f"{os.getpid()}.{next(_IDS)}",
            "parent": parent,
            "request": request,
        }
        if request is None and parent is None and remote is None:
            span["request"] = span["id"]
        stack.append(span)
        result = None
        span["start"] = time.perf_counter()
        try:
            result = original(*args, **kwargs)
            return result
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if attrs is not None:
                try:
                    span.update(attrs(args, kwargs, result))
                except Exception as exc:  # noqa: BLE001 - never break the program
                    span["attr_error"] = repr(exc)
            _SPANS.append(span)

    return wrapper


def _server_request(args):
    environ = args[1]
    parent = environ.get(_REQUEST_ENVIRON_KEY)
    return parent, parent


def _request_bytes(args, kwargs, result):
    try:
        return {"bytes": int(args[1].get("CONTENT_LENGTH") or 0)}
    except ValueError:
        return {"bytes": 0}


def _lookup_attrs(args, kwargs, result):
    graph = args[1]
    normalized = kwargs.get("normalized", args[3] if len(args) > 3 else True)
    kind = "interval" if hasattr(result, "lower") else "exact"
    return {
        "key": f"{graph.freeze().fingerprint}:{bool(normalized)}:{kind}",
        "hit": bool(getattr(result, "cache_hit", False)),
    }


def install_program_layers() -> None:
    """Wrap the program's public layer entry points in this process."""
    from repro.baselines import convex_mincut
    from repro.core import engine
    from repro.graphs.compgraph import ComputationGraph
    from repro.runtime import families, orchestrator, service, store
    from repro.server import app, runner
    from repro.solvers import backends, spectrum_cache

    _wrap(app.BoundsApp, "__call__", "server.app", _request_bytes, remote=_server_request)
    # The app parses request bodies and serializes answers with ``json``.
    app.json = types.SimpleNamespace(
        loads=_traced(json.loads, "server.protocol.decode"),
        dumps=_traced(json.dumps, "server.protocol.encode"),
        JSONDecodeError=json.JSONDecodeError,
    )
    _wrap(app, "decode_bounds_request", "server.protocol.decode")
    _wrap(app, "encode_answers", "server.protocol.encode")
    _wrap(runner.AdmissionController, "acquire", "server.runner.admission_wait")
    _wrap(service.BoundService, "submit", "runtime.service")
    _wrap(engine.BoundEngine, "__init__", "runtime.service.engine_build")
    for family, builder in list(families.FAMILY_BUILDERS.items()):
        families.FAMILY_BUILDERS[family] = _traced(builder, "graphs.build")
    _wrap(ComputationGraph, "add_edges_array", "graphs.build")
    _wrap(ComputationGraph, "fingerprint", "graphs.fingerprint")
    _wrap(spectrum_cache, "laplacian", "graphs.laplacian.assemble")
    _wrap(spectrum_cache, "laplacian_operator", "graphs.laplacian.assemble")
    _wrap(spectrum_cache.SpectrumCache, "spectrum", "solvers.cache.lookup", _lookup_attrs)
    _wrap(spectrum_cache.SpectrumCache, "interval_spectrum", "solvers.cache.lookup",
          _lookup_attrs)
    _wrap(spectrum_cache, "certified_interval_spectrum", "solvers.coarsen")
    pending = [backends.SpectralBackend]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "solve" in vars(cls) and cls.id:
            _wrap(cls, "solve", lambda args: f"solvers.eigensolve.{args[0].id}")
    _wrap(store.SpectrumStore, "get", "runtime.store.get",
          lambda a, k, r: {"hit": r is not None})
    _wrap(store.SpectrumStore, "put", "runtime.store.put")
    _wrap(store.CutStore, "get", "runtime.store.get",
          lambda a, k, r: {"hit": r is not None})
    _wrap(store.CutStore, "merge", "runtime.store.put")
    _wrap(store.SpectrumStore, "acquire_lease", "runtime.store.lease_acquire",
          lambda a, k, r: {"leader": r is not None})
    _wrap(store.SpectrumStore, "wait_for_lease", "runtime.store.lease_wait")
    _wrap(engine, "evaluate_bound_formula", "core.formula")
    _wrap(convex_mincut.MinCutEngine, "max_cut", "baselines.mincut")
    _wrap(orchestrator.SweepOrchestrator, "run", "runtime.orchestrator")


def install_client_layer() -> None:
    """Wrap ``BoundsClient.bounds`` and tag each request with its span id."""
    import http.client

    from repro.server.client import BoundsClient

    if _STATE.get("client_installed"):
        return
    _STATE["client_installed"] = True
    _wrap(BoundsClient, "bounds", "server.client")
    request = http.client.HTTPConnection.request

    @functools.wraps(request)
    def tagged_request(self, method, url, body=None, headers=None, **kwargs):
        headers = dict(headers or {})
        span_id = current_span_id() if _STATE["recording"] else None
        if span_id is not None:
            headers[REQUEST_HEADER] = span_id
        return request(self, method, url, body, headers, **kwargs)

    http.client.HTTPConnection.request = tagged_request


def record(layer: str, start: float, end: float, **attrs) -> None:
    """Record a span measured by hand (the launcher's process boot)."""
    span_id = f"{os.getpid()}.{next(_IDS)}"
    _SPANS.append(dict(layer=layer, id=span_id, parent=None, request=span_id,
                       start=start, end=end, **attrs))


def spans() -> List[dict]:
    return list(_SPANS)


def reset() -> None:
    """Forget this process's recorded spans."""
    _SPANS.clear()


def dump(directory: Optional[str] = None) -> None:
    """Write this process's spans to ``<dir>/spans-<pid>.jsonl``."""
    directory = directory or os.environ.get("PERFBENCH_TRACE_DIR")
    if not directory or not _SPANS:
        return
    path = Path(directory) / f"spans-{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        for span in _SPANS:
            handle.write(json.dumps(span) + "\n")
    _SPANS.clear()


def load(directory: Path) -> List[dict]:
    loaded: List[dict] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            loaded.extend(json.loads(line) for line in handle if line.strip())
    return loaded


def aggregate(all_spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per layer: ``count``, ``busy_s`` (span time) and ``self_s``.

    A span's self time is its duration minus the durations of its direct
    children, which may live in another process (a server request span is
    the child of the client round trip that sent it).
    """
    child_time: Dict[str, float] = defaultdict(float)
    for span in all_spans:
        if span.get("parent"):
            child_time[span["parent"]] += span["end"] - span["start"]
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"count": 0, "busy_s": 0.0, "self_s": 0.0}
    )
    for span in all_spans:
        duration = span["end"] - span["start"]
        row = table[span["layer"]]
        row["count"] += 1
        row["busy_s"] += duration
        row["self_s"] += duration - child_time.get(span["id"], 0.0)
    return dict(table)


def render_table(table: Dict[str, Dict[str, float]]) -> str:
    """The per-layer self-time and wait table printed by traced runs.

    ``self%`` is each layer's share of all self time, which sums to the
    time the spans cover.
    """
    total_s = sum(row["self_s"] for row in table.values())
    waits = {"server.runner.admission_wait", "runtime.store.lease_wait"}
    lines = [f"{'layer':40s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s} "
             f"{'self%':>7s} {'kind':>5s}"]
    for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        share = 100.0 * row["self_s"] / total_s if total_s > 0 else 0.0
        kind = "wait" if layer in waits else "work"
        lines.append(f"{layer:40s} {row['count']:8d} {row['busy_s']:10.4f} "
                     f"{row['self_s']:10.4f} {share:7.2f} {kind:>5s}")
    return "\n".join(lines)
