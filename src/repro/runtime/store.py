"""Persistent on-disk archive of Laplacian spectra and convex min-cut tables.

The in-memory :class:`~repro.solvers.spectrum_cache.SpectrumCache` makes an
eigensolve happen at most once *per process*; :class:`SpectrumStore` extends
that guarantee across processes and runs, and :class:`CutStore` does the same
for the max-flow calls of the convex min-cut baseline.  Both are key
derivation plus a codec over one private engine (:class:`_Engine`), and one
store directory holds both namespaces::

    <root>/index.json       <root>/blobs/<entry-id>.npz     <root>/.lock
    <root>/cuts-index.json  <root>/cuts/<fingerprint>.npz   <root>/.cuts.lock

A spectrum entry id hashes the graph fingerprint, normalisation, assembly,
solver options and variant, plus the truncation ``h``; a cut table is keyed
by the fingerprint alone (cut values depend on neither ``M`` nor the flow
backend).  Each index entry records metadata and the **sha256 of its blob**;
each index keeps a persistent work counter (``solves_recorded`` /
``flows_recorded``) that ``python -m repro cache stats`` reports.

Guarantees:

* **Atomic, durable writes** — blobs and indexes go to a temp file that is
  fsynced, ``os.replace``d into place, then the directory is fsynced.
  Advisory lease files skip the fsyncs.
* **Consistent reads** — writers replace a blob and its index entry together
  under the namespace's exclusive ``flock``, recording the digest of the
  bytes they wrote; readers hold the shared lock from the index lookup
  through the blob read.  A digest mismatch can only mean corruption.
* **One decode path** — lookups, a cut merge's read of the stored table and
  ``verify`` all check digest, ``np.load`` and the codec's invariants.  Any
  failure is a **loud miss**: a WARNING naming the entry, the entry dropped
  (only if the index still records the digest that failed), and a re-solve.
* **Failed writes never fail a query** — an ``OSError`` (``ENOSPC``,
  ``EROFS``, ...) while publishing is logged and the answer still served.
* An index of another format version reads as empty: a re-solve.

Cold spectrum solves can be *coalesced* across processes with a solve lease
(:meth:`SpectrumStore.acquire_lease`): one JSON file per spectrum base id
under ``<root>/leases/``, guarded by ``.leases.lock``.  Followers poll
:meth:`SpectrumStore.wait_for_lease` and re-read the published spectrum.  A
lease is advisory: a follower whose wait times out solves anyway, and a
leader killed mid-solve hands over via ttl expiry or dead-pid detection.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import socket
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import global_registry
from repro.solvers.backend import EigenSolverOptions
from repro.utils.logging import get_logger

_STORE_IO_SECONDS = global_registry().histogram(
    "repro_store_io_seconds",
    "Wall-clock latency of persistent store operations.",
    labelnames=("store", "op"),
)

_LOG = get_logger("runtime.store")

__all__ = [
    "StoredSpectrum",
    "StoredCutTable",
    "SpectrumStore",
    "SolveLease",
    "CutStore",
    "STORE_ENV_VAR",
    "STORE_MAX_BYTES_ENV_VAR",
    "LEASE_TTL_ENV_VAR",
    "default_store_root",
    "default_store_max_bytes",
    "default_lease_ttl",
]

#: Environment variable overriding the default store location.
STORE_ENV_VAR = "REPRO_SPECTRUM_STORE"

#: Environment variable giving the default size cap (bytes) of the store;
#: unset/empty/0 means unbounded.
STORE_MAX_BYTES_ENV_VAR = "REPRO_SPECTRUM_STORE_MAX_BYTES"

#: Environment variable giving the default solve-lease ttl (seconds);
#: ``0`` (or negative) disables cross-process solve leasing entirely.
LEASE_TTL_ENV_VAR = "REPRO_LEASE_TTL_SECONDS"

#: Default solve-lease ttl: long enough that a heartbeating leader never
#: loses a lease mid-eigensolve, short enough that a machine that lost
#: power hands over within half a minute.
DEFAULT_LEASE_TTL_SECONDS = 30.0

#: Version 2 added the per-entry sha256; version 3 keys spectra on the
#: two-field ``EigenSolverOptions`` (method, dtype).  Older indexes read as
#: empty, so an old store costs one re-solve, never a wrong answer.
_FORMAT_VERSION = 3
_LEASE_DIR = "leases"
_LEASE_LOCK_NAME = ".leases.lock"
#: ``verify(fix=True)`` leaves unindexed blob files younger than this alone.
_ORPHAN_GRACE_SECONDS = 60.0

_HOSTNAME = socket.gethostname()


def default_store_root() -> Path:
    """The store directory used when none is given.

    ``$REPRO_SPECTRUM_STORE`` if set, else ``~/.cache/repro/spectra``.
    """
    env = os.environ.get(STORE_ENV_VAR)
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "spectra"


def default_store_max_bytes() -> Optional[int]:
    """The size cap from ``$REPRO_SPECTRUM_STORE_MAX_BYTES`` (None = none)."""
    env = os.environ.get(STORE_MAX_BYTES_ENV_VAR, "").strip()
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        return None
    return value if value > 0 else None


def default_lease_ttl() -> float:
    """The solve-lease ttl from ``$REPRO_LEASE_TTL_SECONDS``.

    Unset or unparsable means :data:`DEFAULT_LEASE_TTL_SECONDS`; zero or
    negative disables leasing (returned as ``0.0``).
    """
    env = os.environ.get(LEASE_TTL_ENV_VAR, "").strip()
    if not env:
        return DEFAULT_LEASE_TTL_SECONDS
    try:
        value = float(env)
    except ValueError:
        return DEFAULT_LEASE_TTL_SECONDS
    return max(0.0, value)


@dataclass(frozen=True)
class StoredSpectrum:
    """One spectrum loaded from disk.

    ``eigenvalues`` is the *full* stored vector (``num_eigenvalues`` long,
    possibly more than the caller asked for — callers slice); read-only.
    For interval variants (``variant != "exact"``) it holds the certified
    *upper* interval ends and ``eigenvalues_lo`` the lower ends; exact
    entries leave ``eigenvalues_lo`` as ``None``.
    """

    eigenvalues: np.ndarray
    solve_seconds: float
    num_eigenvalues: int
    backend: str = "unknown"
    dtype: str = "float64"
    eigenvalues_lo: Optional[np.ndarray] = None
    variant: str = "exact"


@dataclass(frozen=True)
class StoredCutTable:
    """One graph's per-vertex convex min-cut table loaded from disk.

    ``vertices``/``values`` are aligned int64 arrays (read-only): entry ``i``
    says ``C(vertices[i], G) == values[i]``.  The table may be partial — a
    capped or pruned sweep only ever pays for the cuts it needed — and
    :meth:`CutStore.merge` unions new entries in.
    """

    vertices: np.ndarray
    values: np.ndarray

    def as_dict(self) -> Dict[int, int]:
        return dict(zip(self.vertices.tolist(), self.values.tolist()))

    def __len__(self) -> int:
        return int(self.vertices.shape[0])


def _canonical_options(options: Optional[EigenSolverOptions]) -> Dict[str, object]:
    return dataclasses.asdict(options or EigenSolverOptions())


def _base_id(
    fingerprint: str,
    normalized: bool,
    sparse: bool,
    options: Optional[EigenSolverOptions],
    variant: str = "exact",
) -> str:
    payload = [fingerprint, bool(normalized), bool(sparse), _canonical_options(options)]
    if variant != "exact":
        # Appended only for non-exact variants, so exact entry ids keep the
        # key they had before variants existed.
        payload.append(str(variant))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:40]


def _entry_id(base_id: str, num_eigenvalues: int) -> str:
    return f"{base_id}-h{int(num_eigenvalues):06d}"


# ----------------------------------------------------------------------
# on-disk primitives
# ----------------------------------------------------------------------
def _atomic_write(path: Path, data: bytes, durable: bool = True) -> None:
    """Replace ``path`` with ``data`` atomically; fsynced unless not ``durable``."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    if durable:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


@contextlib.contextmanager
def _flocked(root: Path, lock_name: str, exclusive: bool):
    """Hold an advisory file lock under ``root`` (no-op where unsupported).

    A store directory that does not exist yet has nothing to lock (and no
    index to protect); readers simply see the empty state.
    """
    if not root.exists():
        yield
        return
    fd = os.open(root / lock_name, os.O_RDWR | os.O_CREAT, 0o644)
    try:
        try:
            import fcntl

            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
        except ImportError:  # pragma: no cover - non-POSIX fallback
            pass
        yield
    finally:
        os.close(fd)  # closing the descriptor releases the flock


# ----------------------------------------------------------------------
# codecs: what one namespace stores in a blob and what it must satisfy
# ----------------------------------------------------------------------
Arrays = Dict[str, np.ndarray]


class _Codec:
    """Layout, fields and invariants of one store namespace's blobs.

    Subclasses name their ``index_name``/``lock_name``/``blob_dir``, the
    index's persistent work ``counter``, the ``store`` label ``name`` of
    ``repro_store_io_seconds`` and the blob ``fields`` (name -> dtype), and
    define ``check(arrays)`` (raise ``ValueError`` unless the invariants
    hold), ``summary(arrays)`` (index metadata derived from the content),
    ``aggregate(entries)`` (their ``stats`` fields) and ``row(entry_id,
    meta, nbytes)`` (one ``entries`` row).  A codec that ``merges`` unions
    each publish with the stored blob through ``merge(old, new)``.
    """

    put_op = "put"  # ``op`` label of a publish
    merges = False

    def merge(self, old: Optional[Arrays], new: Arrays) -> Arrays:
        return new

    def encode(self, arrays: Arrays) -> bytes:
        self.check(arrays)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        return buffer.getvalue()

    def decode(self, data: bytes) -> Arrays:
        with np.load(io.BytesIO(data)) as npz:
            arrays = {name: np.array(npz[name], dtype=self.fields[name]) for name in npz.files}
        self.check(arrays)
        for array in arrays.values():
            array.flags.writeable = False
        return arrays


def _finite_ascending(vector: np.ndarray) -> bool:
    return (
        vector.ndim == 1
        and bool(np.all(np.isfinite(vector)))
        and bool(np.all(np.diff(vector) >= -1e-9))
    )


class _SpectrumCodec(_Codec):
    name = "spectrum"
    index_name = "index.json"
    lock_name = ".lock"
    blob_dir = "blobs"
    counter = "solves_recorded"
    fields = {"eigenvalues": np.float64, "eigenvalues_lo": np.float64, "solve_seconds": np.float64}

    def check(self, arrays: Arrays) -> None:
        values = arrays["eigenvalues"]
        lo = arrays.get("eigenvalues_lo")
        if arrays["solve_seconds"].shape != () or not _finite_ascending(values):
            raise ValueError("eigenvalues must be a finite ascending vector")
        if lo is not None and not (
            lo.shape == values.shape and _finite_ascending(lo) and bool(np.all(lo <= values + 1e-9))
        ):
            raise ValueError("eigenvalues_lo must be finite, ascending and <= eigenvalues")

    def summary(self, arrays: Arrays) -> Dict[str, object]:
        return {
            "h": int(arrays["eigenvalues"].shape[0]),
            "solve_seconds": float(arrays["solve_seconds"]),
        }

    def aggregate(self, entries: Dict[str, Dict]) -> Dict[str, object]:
        return {
            "num_entries": len(entries),
            "num_graphs": len({meta["fingerprint"] for meta in entries.values()}),
        }

    def row(self, entry_id: str, meta: Dict, nbytes: int) -> Dict[str, object]:
        return {
            "entry": entry_id,
            "fingerprint": str(meta["fingerprint"])[:12],
            "lineage": meta.get("lineage") or "-",
            "variant": str(meta.get("variant", "exact")),
            "normalized": meta["normalized"],
            "sparse": meta["sparse"],
            "backend": str(meta.get("backend") or "unknown"),
            "dtype": str((meta.get("options") or {}).get("dtype", "float64")),
            "num_eigenvalues": int(meta["h"]),
            "solve_seconds": float(meta["solve_seconds"]),
            "bytes": nbytes,
        }


class _CutCodec(_Codec):
    name = "cut"
    put_op = "merge"
    index_name = "cuts-index.json"
    lock_name = ".cuts.lock"
    blob_dir = "cuts"
    counter = "flows_recorded"
    fields = {"vertices": np.int64, "values": np.int64}
    merges = True

    def check(self, arrays: Arrays) -> None:
        vertices, values = arrays["vertices"], arrays["values"]
        if vertices.ndim != 1 or vertices.shape != values.shape or bool(np.any(values < 0)):
            raise ValueError("cut tables need equal-length vertices and non-negative values")

    def summary(self, arrays: Arrays) -> Dict[str, object]:
        return {"num_cuts": int(arrays["vertices"].shape[0])}

    def merge(self, old: Optional[Arrays], new: Arrays) -> Arrays:
        vertices, values = new["vertices"], new["values"]
        if old is not None:
            vertices = np.concatenate([old["vertices"], vertices])
            values = np.concatenate([old["values"], values])
        # Later entries win on duplicates (they are identical anyway: the
        # cut value of a vertex is a graph invariant).
        order = np.arange(vertices.shape[0] - 1, -1, -1)
        unique, first = np.unique(vertices[order], return_index=True)
        return {"vertices": unique, "values": values[order][first]}

    def aggregate(self, entries: Dict[str, Dict]) -> Dict[str, object]:
        return {
            "num_graphs": len(entries),
            "num_cuts": sum(int(meta.get("num_cuts", 0)) for meta in entries.values()),
        }

    def row(self, entry_id: str, meta: Dict, nbytes: int) -> Dict[str, object]:
        return {
            "fingerprint": entry_id[:12],
            "lineage": meta.get("lineage") or "-",
            "backend": str(meta.get("backend") or "unknown"),
            "num_cuts": int(meta.get("num_cuts", 0)),
            "bytes": nbytes,
        }


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class _Engine:
    """One namespace of a store directory: index, blobs, lock, counters.

    Owns everything the spectrum and cut namespaces share: the index (with
    a parse cache keyed by the index file's ``(mtime_ns, size, inode)``),
    the shared/exclusive ``flock``, atomic durable writes, the digest-checked
    decode path, ``entries``/``stats``/``clear``/``verify``, the optional
    LRU byte budget, the per-handle hit/miss/put counters and
    ``repro_store_io_seconds``.  Counter updates take a thread lock: one
    handle may be shared by many engine threads.
    """

    def __init__(self, root: Path, codec: _Codec, max_bytes: Optional[int] = None) -> None:
        self.root = root
        self.codec = codec
        self.max_bytes = max_bytes
        self.blob_dir = root / codec.blob_dir
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._index_cache: Optional[tuple] = None

    # -- index --------------------------------------------------------
    def blob_path(self, entry_id: str) -> Path:
        return self.blob_dir / f"{entry_id}.npz"

    def locked(self, exclusive: bool):
        return _flocked(self.root, self.codec.lock_name, exclusive)

    def empty_index(self) -> Dict[str, object]:
        return {"format_version": _FORMAT_VERSION, self.codec.counter: 0, "entries": {}}

    def read_index(self, allow_cached: bool = False) -> Dict[str, object]:
        """Parse the index file (an unreadable or foreign one reads as empty).

        ``allow_cached=True`` (read-only paths) reuses the last parsed index
        while the file's stat is unchanged; write paths always parse fresh
        and never publish their about-to-be-mutated dict into the cache.
        """
        path = self.root / self.codec.index_name
        stat_key = None
        if allow_cached:
            with contextlib.suppress(OSError):
                stat = path.stat()
                stat_key = (stat.st_mtime_ns, stat.st_size, stat.st_ino)
            with self._lock:
                cached = self._index_cache
            if stat_key is not None and cached is not None and cached[0] == stat_key:
                return cached[1]
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return self.empty_index()
        if not isinstance(data, dict) or data.get("format_version") != _FORMAT_VERSION:
            return self.empty_index()
        data.setdefault("entries", {})
        if stat_key is not None:
            with self._lock:
                self._index_cache = (stat_key, data)
        return data

    def write_index(self, index: Dict[str, object]) -> None:
        data = json.dumps(index, separators=(",", ":")).encode()  # compact: rewritten per put
        _atomic_write(self.root / self.codec.index_name, data)
        with self._lock:
            self._index_cache = None

    def snapshot(self) -> Dict[str, object]:
        with self.locked(exclusive=False):
            return self.read_index(allow_cached=True)

    def blob_bytes(self, entry_id: str) -> int:
        with contextlib.suppress(OSError):
            return self.blob_path(entry_id).stat().st_size
        return 0

    # -- the one decode path -------------------------------------------
    def load(self, entry_id: str, meta: Dict) -> Arrays:
        """Read, digest-check and decode one blob; raises if it is corrupt."""
        data = self.blob_path(entry_id).read_bytes()
        if hashlib.sha256(data).hexdigest() != meta.get("sha256"):
            raise ValueError("sha256 mismatch")
        return self.codec.decode(data)

    @contextlib.contextmanager
    def _timed(self, op: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            _STORE_IO_SECONDS.observe(time.perf_counter() - start, store=self.codec.name, op=op)

    def get(self, select: Callable) -> Optional[Tuple[str, Dict, Arrays]]:
        """The first sound entry among ``select(index entries)`` (a list of
        entry ids, best first) as ``(id, meta, arrays)``; ``None`` on a miss.

        Candidates that fail to read, digest-check or decode are loud
        misses: logged, dropped, and the next candidate is tried.  A
        mismatch seen through the parse cache is re-checked against a fresh
        parse first, so an index rewritten within one timestamp tick (same
        size, recycled inode) never yields a false corrupt verdict.
        """
        found = None
        corrupt: List[Tuple[str, Optional[str], Exception]] = []
        with self._timed("get"):
            try:
                with self.locked(exclusive=False):
                    for allow_cached in (True, False):
                        entries = self.read_index(allow_cached)["entries"]
                        found, corrupt = None, []
                        for entry_id in select(entries):
                            meta = entries[entry_id]
                            try:
                                found = (entry_id, meta, self.load(entry_id, meta))
                                break
                            except Exception as exc:  # any failure means corrupt
                                corrupt.append((entry_id, meta.get("sha256"), exc))
                        if not corrupt:
                            break
            except OSError as exc:  # e.g. an unopenable lock file
                _LOG.warning("%s store %s unreadable (%s); treating as a miss",
                             self.codec.name, self.root, exc)
            for entry_id, _, exc in corrupt:
                self._warn_corrupt(entry_id, exc, "dropping it")
            if corrupt:
                self._guarded_write(self.drop, {e: d for e, d, _ in corrupt})
            if found is not None and self.max_bytes is not None:
                # LRU bookkeeping only matters under a size cap; unbounded
                # stores skip the index rewrite per hit.
                self._guarded_write(self._touch, found[0])
        with self._lock:
            if found is None:
                self.misses += 1
            else:
                self.hits += 1
        return found

    def _warn_corrupt(self, entry_id: str, exc: Exception, action: str) -> None:
        _LOG.warning("%s store %s: entry %s is corrupt (%s: %s); %s", self.codec.name,
                     self.root, entry_id, type(exc).__name__, exc, action)

    # -- writes ------------------------------------------------------
    def _guarded_write(self, write: Callable, *args):
        """Run one write; an ``OSError`` (full or read-only disk) is logged."""
        try:
            return write(*args)
        except OSError as exc:
            _LOG.warning("%s store %s: write failed (%s); continuing without it",
                         self.codec.name, self.root, exc)
            return None

    def put(self, entry_id: str, arrays: Arrays, meta: Dict[str, object], work: int) -> Arrays:
        """Publish one blob and its index entry; returns the arrays stored.

        ``work`` accumulates into the persistent counter.  ``None`` values
        in ``meta`` keep the existing entry's value.  A failed write is
        logged and skipped: the caller already holds its answer.
        """
        with self._timed(self.codec.put_op):
            data = None if self.codec.merges else self.codec.encode(arrays)
            stored = self._guarded_write(self._publish, entry_id, arrays, data, meta, work)
        if stored is None:
            return self.codec.merge(None, arrays)
        with self._lock:
            self.puts += 1
        return stored

    def _publish(self, entry_id, arrays, data, meta, work) -> Arrays:
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        with self.locked(exclusive=True):
            index = self.read_index()
            old = index["entries"].get(entry_id)
            if self.codec.merges:
                existing = None
                if old is not None:
                    try:
                        existing = self.load(entry_id, old)
                    except Exception as exc:  # any failure means corrupt
                        self._warn_corrupt(entry_id, exc, "replacing it")
                arrays = self.codec.merge(existing, arrays)
                data = self.codec.encode(arrays)
            _atomic_write(self.blob_path(entry_id), data)
            now = time.time()
            index[self.codec.counter] = int(index.get(self.codec.counter, 0)) + int(work)
            index["entries"][entry_id] = {
                "created_at": now,
                **(old or {}),
                **{key: value for key, value in meta.items() if value is not None},
                **self.codec.summary(arrays),
                "sha256": hashlib.sha256(data).hexdigest(),
                "last_used": now,
            }
            if self.max_bytes is not None:
                self._evict_over_budget(index)
            self.write_index(index)
        return arrays

    def drop(self, doomed: Dict[str, Optional[str]]) -> int:
        """Remove entries (index and blob) still indexed with the digest in
        ``doomed`` (entry id -> digest that failed); rewritten ones stay."""
        removed = 0
        with self.locked(exclusive=True):
            index = self.read_index()
            for entry_id, digest in doomed.items():
                meta = index["entries"].get(entry_id)
                if meta is None or meta.get("sha256") != digest:
                    continue
                del index["entries"][entry_id]
                with contextlib.suppress(OSError):
                    self.blob_path(entry_id).unlink()
                removed += 1
            if removed:
                self.write_index(index)
        return removed

    def _touch(self, entry_id: str) -> None:
        """Refresh an entry's ``last_used`` stamp (LRU bookkeeping)."""
        with self.locked(exclusive=True):
            index = self.read_index()
            meta = index["entries"].get(entry_id)
            if meta is not None:
                meta["last_used"] = time.time()
                self.write_index(index)

    def _evict_over_budget(self, index: Dict[str, object]) -> None:
        """Evict least-recently-used entries until blobs fit ``max_bytes``.

        Called with the exclusive lock held and the (mutable) index dict;
        the caller writes the index afterwards.  The newest entry is never
        evicted — a single over-budget spectrum is better than an empty
        store that re-solves forever.
        """
        entries: Dict[str, Dict] = index["entries"]
        sizes = {entry_id: self.blob_bytes(entry_id) for entry_id in entries}
        total = sum(sizes.values())
        if total <= self.max_bytes:
            return
        by_age = sorted(entries, key=lambda e: float(entries[e].get("last_used", 0.0)))
        for entry_id in by_age[:-1]:  # keep at least the most recent entry
            if total <= self.max_bytes:
                break
            with contextlib.suppress(OSError):
                self.blob_path(entry_id).unlink()
            total -= sizes[entry_id]
            del entries[entry_id]

    # -- management ----------------------------------------------------
    def entries(self) -> List[Dict[str, object]]:
        index = self.snapshot()
        return [
            self.codec.row(entry_id, meta, self.blob_bytes(entry_id))
            for entry_id, meta in sorted(index["entries"].items())
        ]

    def stats(self) -> Dict[str, object]:
        index = self.snapshot()
        entries = index["entries"]
        return {
            "root": str(self.root),
            **self.codec.aggregate(entries),
            "total_bytes": sum(self.blob_bytes(entry_id) for entry_id in entries),
            self.codec.counter: int(index.get(self.codec.counter, 0)),
            "handle_hits": self.hits,
            "handle_misses": self.misses,
            "handle_puts": self.puts,
        }

    def clear(self, lineage: Optional[str], fingerprint_prefix: Optional[str]) -> int:
        if not self.root.exists():
            return 0
        with self.locked(exclusive=True):
            index = self.read_index()
            doomed = [
                entry_id
                for entry_id, meta in index["entries"].items()
                if (lineage is None or meta.get("lineage") == lineage)
                and str(meta.get("fingerprint", "")).startswith(fingerprint_prefix or "")
            ]
            for entry_id in doomed:
                with contextlib.suppress(OSError):
                    self.blob_path(entry_id).unlink()
                del index["entries"][entry_id]
            if lineage is None and fingerprint_prefix is None:
                self.write_index(self.empty_index())
            elif doomed:
                self.write_index(index)
        return len(doomed)

    def verify(self, fix: bool) -> Dict[str, object]:
        """Report (and with ``fix`` repair) missing, corrupt and orphaned blobs.

        The scan holds the shared lock throughout, so every verdict comes
        from a consistent (index, blob) pair.  Repairs drop an entry only if
        its digest is still the one that failed; orphans are re-derived
        under the exclusive lock and left alone while younger than the
        grace period.
        """
        missing: List[str] = []
        corrupt: List[str] = []
        with self.locked(exclusive=False):
            index = self.read_index()
            for entry_id, meta in sorted(index["entries"].items()):
                try:
                    self.load(entry_id, meta)
                except FileNotFoundError:
                    missing.append(entry_id)
                except Exception:  # any failure means corrupt
                    corrupt.append(entry_id)
            orphaned = self._orphans(index)
        removed = 0
        if fix and (missing or corrupt):
            removed = self.drop({e: index["entries"][e].get("sha256") for e in missing + corrupt})
        if fix and orphaned:
            cutoff = time.time() - _ORPHAN_GRACE_SECONDS
            with self.locked(exclusive=True):
                for name in set(orphaned) & set(self._orphans(self.read_index())):
                    path = self.blob_dir / name
                    with contextlib.suppress(OSError):
                        if path.stat().st_mtime <= cutoff:
                            path.unlink()
        return {
            "root": str(self.root),
            "entries_checked": len(index["entries"]),
            "missing": missing,
            "corrupt": corrupt,
            "orphaned_blobs": orphaned,
            "ok": not (missing or corrupt or orphaned),
            "fixed": bool(fix),
            "entries_removed": removed,
        }

    def _orphans(self, index: Dict[str, object]) -> List[str]:
        """Files in the blob directory no index entry references."""
        if not self.blob_dir.exists():
            return []
        known = {self.blob_path(entry_id).name for entry_id in index["entries"]}
        return sorted(path.name for path in self.blob_dir.iterdir() if path.name not in known)


_SPECTRA = _SpectrumCodec()
_CUTS = _CutCodec()


# ----------------------------------------------------------------------
# cross-process solve leases (spectra only)
# ----------------------------------------------------------------------
def _read_lease_file(path: Path) -> Optional[Dict[str, object]]:
    """Parse one lease file; ``None`` if absent, a corrupt marker if broken.

    A lease that fails to parse is indistinguishable from a crashed writer,
    so it reads as a dict that :func:`_lease_is_stale` always rejects —
    the next acquirer simply takes over.
    """
    try:
        data = json.loads(path.read_text())
    except OSError:
        return None
    except json.JSONDecodeError:
        return {"corrupt": True}
    if not isinstance(data, dict):
        return {"corrupt": True}
    return data


def _lease_is_stale(meta: Dict[str, object], now: float) -> bool:
    """Whether a lease's holder should be presumed dead.

    Stale iff the heartbeat is older than the ttl, or the holder lives on
    *this* host and its pid no longer exists (``os.kill(pid, 0)``) — the
    fast path that hands over a SIGKILLed leader's lease without waiting
    out the ttl.  A live pid (or one we may not signal) defers to the ttl.
    """
    if meta.get("corrupt"):
        return True
    try:
        heartbeat = float(meta.get("heartbeat_at", 0.0))
        ttl = float(meta.get("ttl", 0.0))
    except (TypeError, ValueError):
        return True
    if ttl <= 0 or now - heartbeat > ttl:
        return True
    pid = meta.get("pid")
    if meta.get("host") == _HOSTNAME and isinstance(pid, int) and pid > 0:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:  # pragma: no cover - e.g. EPERM: pid exists
            pass
    return False


class SolveLease:
    """A held cross-process solve lease (returned by ``acquire_lease``).

    A daemon thread refreshes the on-disk heartbeat every ``ttl / 4``
    seconds, so a live leader keeps the lease through an arbitrarily long
    eigensolve while a dead one expires within one ttl.  :meth:`release`
    (idempotent; also the context-manager exit) stops the heartbeat and
    deletes the lease file — but only while it still carries this lease's
    token, so a takeover after a stale verdict is never clobbered.
    """

    def __init__(self, store: "SpectrumStore", path: Path, token: str, ttl: float) -> None:
        self._store = store
        self.path = path
        self.token = token
        self.ttl = float(ttl)
        self._stop = threading.Event()
        self._released = False
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop,
            name=f"repro-lease-{path.stem[:12]}",
            daemon=True,
        )
        self._heartbeat.start()

    def _heartbeat_loop(self) -> None:
        interval = max(self.ttl / 4.0, 0.02)
        while not self._stop.wait(interval):
            self._store._refresh_lease(self.path, self.token)

    def release(self) -> None:
        """Drop the lease (idempotent)."""
        if self._released:
            return
        self._released = True
        self._stop.set()
        self._heartbeat.join(timeout=2.0)
        self._store._drop_lease(self.path, self.token)

    def __enter__(self) -> "SolveLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SolveLease(path={str(self.path)!r}, released={self._released})"


# ----------------------------------------------------------------------
# public stores
# ----------------------------------------------------------------------
class _StoreHandle:
    """What both public stores serve straight from their engine."""

    _engine: _Engine

    @property
    def root(self) -> Path:
        return self._engine.root

    @property
    def hits(self) -> int:
        """Lookups this handle served from disk."""
        return self._engine.hits

    @property
    def misses(self) -> int:
        """Lookups this handle could not serve."""
        return self._engine.misses

    @property
    def puts(self) -> int:
        """Publishes this handle wrote."""
        return self._engine.puts

    def __len__(self) -> int:
        return len(self._engine.snapshot()["entries"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(root={str(self.root)!r}, entries={len(self)})"

    def entries(self) -> List[Dict[str, object]]:
        """Metadata of every stored entry (graph, size, cost, bytes)."""
        return self._engine.entries()

    def stats(self) -> Dict[str, object]:
        """Aggregate statistics (persisted counters + this handle's traffic)."""
        return self._engine.stats()

    def clear(self, lineage: Optional[str] = None, fingerprint_prefix: Optional[str] = None) -> int:
        """Delete entries; returns the count removed.

        Without filters everything goes (the work counter included).  With
        ``lineage`` only entries recorded under that family name are removed;
        with ``fingerprint_prefix`` only entries whose graph fingerprint
        starts with the prefix.  Filters compose (AND); a filtered clear
        keeps the work counter (the work was still done).
        """
        return self._engine.clear(lineage, fingerprint_prefix)

    def verify(self, fix: bool = False) -> Dict[str, object]:
        """Integrity-check this namespace; optionally repair it (see
        :meth:`SpectrumStore.verify` for the failure classes).
        """
        return self._engine.verify(fix)


class SpectrumStore(_StoreHandle):
    """File-system backed, fingerprint-keyed spectrum archive.

    Parameters
    ----------
    root:
        Store directory (created on first write).  ``None`` uses
        :func:`default_store_root`.
    max_bytes:
        Size budget for the spectrum blob directory.  When the total blob
        size exceeds it after a :meth:`put`, least-recently-used entries are
        evicted until the store fits.  ``None`` (default) reads
        ``$REPRO_SPECTRUM_STORE_MAX_BYTES``; unset means unbounded.
    lease_ttl:
        Heartbeat ttl (seconds) of cross-process solve leases.  ``None``
        (default) reads ``$REPRO_LEASE_TTL_SECONDS`` (default 30);
        ``<= 0`` disables leasing (``acquire_lease`` then raises).

    :attr:`cuts` is the :class:`CutStore` handle on the same directory.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        max_bytes: Optional[int] = None,
        lease_ttl: Optional[float] = None,
    ) -> None:
        root = Path(root) if root is not None else default_store_root()
        self._lease_dir = root / _LEASE_DIR
        max_bytes = max_bytes if max_bytes is not None else default_store_max_bytes()
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self._lease_ttl = max(0.0, float(lease_ttl)) if lease_ttl is not None else default_lease_ttl()
        self._engine = _Engine(root, _SPECTRA, max_bytes)
        self._cuts = CutStore(root)

    @property
    def cuts(self) -> "CutStore":
        """The convex min-cut table namespace of this store directory."""
        return self._cuts

    @property
    def max_bytes(self) -> Optional[int]:
        """Size cap of the blob directory (None = unbounded)."""
        return self._engine.max_bytes

    @property
    def lease_ttl(self) -> float:
        """Solve-lease heartbeat ttl in seconds (0 = leasing disabled)."""
        return self._lease_ttl

    # ------------------------------------------------------------------
    # lookup / publish
    # ------------------------------------------------------------------
    def get(
        self,
        fingerprint: str,
        num_eigenvalues: int,
        normalized: bool = True,
        sparse: bool = False,
        eig_options: Optional[EigenSolverOptions] = None,
        variant: str = "exact",
    ) -> Optional[StoredSpectrum]:
        """Load a stored spectrum covering ``num_eigenvalues``, or ``None``.

        Any entry with the same (fingerprint, normalisation, assembly,
        options, variant) and a truncation ``h' >= num_eigenvalues``
        qualifies (eigenvalues are ascending, so a longer vector contains
        the answer); the largest such entry is returned so in-memory tiers
        can cache the most reusable vector, and shorter ones are fallbacks
        should it be corrupt.  Non-exact variants (e.g. ``"coarse-r50-s0"``
        interval spectra) live under distinct ids, so an exact refresh of
        the same graph lands next to — never on top of — the certified entry.
        """
        h = int(num_eigenvalues)
        if h <= 0:
            return None
        base = _base_id(fingerprint, normalized, sparse, eig_options, variant)

        def longest_first(entries: Dict[str, Dict]) -> List[str]:
            fits = [(int(meta["h"]), entry_id) for entry_id, meta in entries.items()
                    if meta["base"] == base and int(meta["h"]) >= h]
            return [entry_id for _, entry_id in sorted(fits, reverse=True)]

        found = self._engine.get(longest_first)
        if found is None:
            return None
        _, meta, arrays = found
        return StoredSpectrum(
            arrays["eigenvalues"],
            float(arrays["solve_seconds"]),
            int(meta["h"]),
            backend=str(meta.get("backend") or "unknown"),
            dtype=str((meta.get("options") or {}).get("dtype", "float64")),
            eigenvalues_lo=arrays.get("eigenvalues_lo"),
            variant=str(meta.get("variant", "exact")),
        )

    def put(
        self,
        fingerprint: str,
        eigenvalues: np.ndarray,
        solve_seconds: float,
        normalized: bool = True,
        sparse: bool = False,
        eig_options: Optional[EigenSolverOptions] = None,
        backend: Optional[str] = None,
        lineage: Optional[str] = None,
        variant: str = "exact",
        eigenvalues_lo: Optional[np.ndarray] = None,
    ) -> str:
        """Publish one solved spectrum; returns the entry id.

        Records the solve in the persistent ``solves_recorded`` counter even
        when another process raced the same entry in first (both paid for an
        eigensolve; the counter tracks work done, not entries).  ``backend``
        records the resolved backend id and ``lineage`` the family name of
        the producing sweep (``cache clear --family`` filters on it); both
        are metadata only and never part of the content key.  ``variant``
        *is* part of the key (non-exact spectra must never be served as
        exact); interval variants pass the certified lower ends as
        ``eigenvalues_lo`` with ``eigenvalues`` holding the upper ends.
        A malformed spectrum raises ``ValueError``; a failed disk write is
        logged and skipped.
        """
        arrays = {
            "eigenvalues": np.ascontiguousarray(eigenvalues, dtype=np.float64),
            "solve_seconds": np.float64(solve_seconds),
        }
        if eigenvalues_lo is not None:
            arrays["eigenvalues_lo"] = np.ascontiguousarray(eigenvalues_lo, dtype=np.float64)
        base = _base_id(fingerprint, normalized, sparse, eig_options, variant)
        entry_id = _entry_id(base, arrays["eigenvalues"].shape[0])
        meta = {
            "base": base,
            "fingerprint": fingerprint,
            "normalized": bool(normalized),
            "sparse": bool(sparse),
            "options": _canonical_options(eig_options),
            "variant": str(variant),
            "backend": backend,
            "lineage": lineage,
        }
        self._engine.put(entry_id, arrays, meta, work=1)
        return entry_id

    # ------------------------------------------------------------------
    # cross-process solve leases
    # ------------------------------------------------------------------
    def acquire_lease(
        self,
        fingerprint: str,
        normalized: bool = True,
        sparse: bool = False,
        eig_options: Optional[EigenSolverOptions] = None,
        variant: str = "exact",
        ttl: Optional[float] = None,
    ) -> Optional[SolveLease]:
        """Try to become the solve leader for one spectrum; ``None`` if held.

        The lease is keyed by the same base id as the stored entries —
        fingerprint, normalisation, assembly, solver options, variant, but
        *not* the truncation ``h`` — so every query shape needing one cold
        spectrum contends for a single lease.  A held-but-stale lease
        (expired heartbeat, or a dead pid on this host) is taken over in
        place.  The winner gets a heartbeating :class:`SolveLease` it must
        :meth:`~SolveLease.release` after publishing via :meth:`put`.
        """
        effective_ttl = max(0.0, float(ttl)) if ttl is not None else self._lease_ttl
        if effective_ttl <= 0:
            raise ValueError("solve leasing is disabled (lease_ttl <= 0)")
        path = self._lease_path(fingerprint, normalized, sparse, eig_options, variant)
        self._lease_dir.mkdir(parents=True, exist_ok=True)
        now = time.time()
        token = f"{_HOSTNAME}:{os.getpid()}:{time.monotonic_ns():x}"
        with self._lease_locked():
            current = _read_lease_file(path)
            if current is not None and not _lease_is_stale(current, now):
                return None
            lease = {
                "pid": os.getpid(),
                "host": _HOSTNAME,
                "token": token,
                "fingerprint": fingerprint,
                "variant": str(variant),
                "created_at": now,
                "heartbeat_at": now,
                "ttl": effective_ttl,
            }
            _atomic_write(path, json.dumps(lease).encode(), durable=False)
        return SolveLease(self, path, token, effective_ttl)

    def wait_for_lease(
        self,
        fingerprint: str,
        normalized: bool = True,
        sparse: bool = False,
        eig_options: Optional[EigenSolverOptions] = None,
        variant: str = "exact",
        timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> str:
        """Block while another process holds the solve lease.

        Returns ``"released"`` once the lease file is gone (the leader
        published and released — re-read the store), ``"stale"`` if the
        leader died (try :meth:`acquire_lease` again), or ``"timeout"``
        after ``timeout`` seconds (default: twice the ttl, at least 10 s)
        — at which point the caller should just solve; wasteful, never
        wrong.
        """
        path = self._lease_path(fingerprint, normalized, sparse, eig_options, variant)
        if timeout is None:
            timeout = max(10.0, 2.0 * max(self._lease_ttl, 1.0))
        deadline = time.monotonic() + timeout
        while True:
            meta = _read_lease_file(path)
            if meta is None:
                return "released"
            if _lease_is_stale(meta, time.time()):
                return "stale"
            if time.monotonic() >= deadline:
                return "timeout"
            time.sleep(poll_interval)

    def leases(self) -> List[Dict[str, object]]:
        """Metadata of every lease file (holder, age, staleness)."""
        if not self._lease_dir.exists():
            return []
        now = time.time()
        rows: List[Dict[str, object]] = []
        for path in sorted(self._lease_dir.glob("*.json")):
            meta = _read_lease_file(path)
            if meta is None:  # deleted between glob and read
                continue
            rows.append(
                {
                    "lease": path.stem,
                    "fingerprint": str(meta.get("fingerprint", "?"))[:12],
                    "variant": str(meta.get("variant", "?")),
                    "pid": meta.get("pid"),
                    "host": meta.get("host"),
                    "age_seconds": now - float(meta.get("created_at", now) or now),
                    "ttl": meta.get("ttl"),
                    "stale": _lease_is_stale(meta, now),
                }
            )
        return rows

    def _lease_path(
        self,
        fingerprint: str,
        normalized: bool,
        sparse: bool,
        eig_options: Optional[EigenSolverOptions],
        variant: str,
    ) -> Path:
        base = _base_id(fingerprint, normalized, sparse, eig_options, variant)
        return self._lease_dir / f"{base}.json"

    def _refresh_lease(self, path: Path, token: str) -> None:
        """Rewrite a held lease's heartbeat (heartbeat-thread callback)."""
        with self._lease_locked():
            meta = _read_lease_file(path)
            if meta is not None and meta.get("token") == token:
                meta["heartbeat_at"] = time.time()
                with contextlib.suppress(OSError):
                    _atomic_write(path, json.dumps(meta).encode(), durable=False)

    def _drop_lease(self, path: Path, token: str) -> None:
        with self._lease_locked():
            meta = _read_lease_file(path)
            if meta is not None and meta.get("token") == token:
                with contextlib.suppress(OSError):
                    path.unlink()

    def _lease_locked(self):
        return _flocked(self.root, _LEASE_LOCK_NAME, exclusive=True)

    # ------------------------------------------------------------------
    # management
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Aggregate store statistics (persisted + this handle's traffic)."""
        leases = self.leases()
        return {
            **super().stats(),
            "max_bytes": self.max_bytes,
            "lease_ttl": self._lease_ttl,
            "active_leases": sum(1 for lease in leases if not lease["stale"]),
            "stale_leases": sum(1 for lease in leases if lease["stale"]),
        }

    def verify(self, fix: bool = False) -> Dict[str, object]:
        """Integrity-check the store; optionally repair it.

        Reports **missing** blobs, **corrupt** ones (bytes that disagree with
        the indexed sha256, fail to load, or break the codec's invariants),
        **orphaned** files no index entry references (e.g. from a writer
        killed mid-put) and **stale leases** (dead holder; live leases are
        counted, never flagged).  ``fix=True`` drops missing/corrupt entries,
        deletes orphans older than a minute, and deletes stale lease files
        after a re-check under the lease lock (a waiter may have taken one
        over since the scan).  Returns a report dict.
        """
        report = super().verify(fix)
        lease_rows = self.leases()
        stale_leases = sorted(row["lease"] for row in lease_rows if row["stale"])
        leases_removed = 0
        if fix and stale_leases:
            with self._lease_locked():
                now = time.time()
                for name in stale_leases:
                    path = self._lease_dir / f"{name}.json"
                    meta = _read_lease_file(path)
                    if meta is not None and _lease_is_stale(meta, now):
                        with contextlib.suppress(OSError):
                            path.unlink()
                            leases_removed += 1
        report.update(
            active_leases=sum(1 for row in lease_rows if not row["stale"]),
            stale_leases=stale_leases,
            ok=bool(report["ok"] and not stale_leases),
            leases_removed=leases_removed,
        )
        return report


class CutStore(_StoreHandle):
    """Persistent, fingerprint-keyed archive of convex min-cut tables.

    The cut values ``C(v, G)`` of the convex min-cut baseline are independent
    of the memory size ``M`` *and* of the max-flow backend (all backends are
    exact), so one on-disk table per graph fingerprint makes every warm
    re-run — across processes, pool workers, and sessions — perform zero
    max-flow calls.  It is the cut namespace of a store directory (reach it
    as :attr:`SpectrumStore.cuts`); ``flows_recorded`` sums the max-flow
    calls somebody actually paid for, which the CI warm-run smoke asserts on.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self._engine = _Engine(Path(root) if root is not None else default_store_root(), _CUTS)

    def get(self, fingerprint: str) -> Optional[StoredCutTable]:
        """Load the stored cut table for a graph fingerprint, or ``None``."""
        found = self._engine.get(lambda entries: [fingerprint] if fingerprint in entries else [])
        if found is None:
            return None
        return StoredCutTable(found[2]["vertices"], found[2]["values"])

    def merge(
        self,
        fingerprint: str,
        vertices,
        values,
        flow_calls: int = 0,
        backend: Optional[str] = None,
        lineage: Optional[str] = None,
    ) -> int:
        """Union new ``vertex -> cut`` entries into a graph's table.

        Returns the table size after the merge.  ``flow_calls`` counts the
        max-flow solves paid to produce the new entries; it accumulates into
        the persistent ``flows_recorded`` counter even when a racing writer
        published the same cuts first (the counter tracks work done, not
        entries, exactly like ``solves_recorded``).  A corrupt stored table
        is replaced by the new entries; a failed disk write is logged and
        skipped.
        """
        new_vertices = np.asarray(vertices, dtype=np.int64).reshape(-1)
        new_values = np.asarray(values, dtype=np.int64).reshape(-1)
        if new_vertices.shape != new_values.shape:
            raise ValueError("vertices and values must have equal length")
        table = self._engine.put(
            fingerprint,
            {"vertices": new_vertices, "values": new_values},
            {"fingerprint": fingerprint, "backend": backend, "lineage": lineage},
            work=flow_calls,
        )
        return int(table["vertices"].shape[0])
