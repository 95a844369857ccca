"""Fault injection on the persistent store, through the public API.

Every fault — a flipped, truncated, zeroed or swapped blob, a writer killed
mid-put, a full or read-only disk — must end in a miss and a re-solve (or
re-flow) that gives the clean store's bound: never an exception, never a
wrong bound.  Racing writers must never produce a false corrupt verdict.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.runtime import store as store_module
from repro.runtime.cli import main
from repro.runtime.families import GraphSpec
from repro.runtime.service import BoundQuery, BoundService
from repro.runtime.store import CutStore, SpectrumStore
from repro.solvers.backend import EigenSolverOptions

# Small graphs with non-zero bounds at M=1 keep each re-solve cheap.
GRAPH = GraphSpec(family="hypercube", size_param=4)
CUT_GRAPH = GraphSpec(family="diamond", size_param=4)
QUERIES = (
    BoundQuery(GRAPH, 1),
    BoundQuery(CUT_GRAPH, 1, method="convex-min-cut"),
)


def serve(root, queries=QUERIES):
    """Bounds from a fresh service (cold memory tiers) over ``root``."""
    service = BoundService(store=root)
    bounds = [answer.bound for answer in service.submit(list(queries))]
    counters = service.counters()
    return bounds, counters["cache_misses"], counters["flow_calls"]


def blob_of(root, namespace):
    (blob,) = (root / namespace).glob("*.npz")
    return blob


def snapshot(root):
    return {
        path: path.read_bytes()
        for path in root.rglob("*")
        if path.is_file() and path.parent.name != "leases"
    }


def restore(files):
    for path, data in files.items():
        path.write_bytes(data)


def verify_cli(root, capsys, *extra):
    code = main(["cache", "verify", "--store", str(root), *extra])
    return code, json.loads(capsys.readouterr().out)


@pytest.fixture
def warm(tmp_path):
    """A store warmed by one service, the clean bounds, and its files."""
    root = tmp_path / "store"
    bounds, solves, flows = serve(root)
    assert solves == 1 and flows > 0 and bounds[0] > 0 and bounds[1] > 0
    return root, bounds, snapshot(root)


class TestCorruptBlobs:
    def test_every_flipped_byte_is_a_miss_then_a_resolve(self, warm, caplog):
        root, clean, files = warm
        spectrum, cut = blob_of(root, "blobs"), blob_of(root, "cuts")
        spectrum_bytes, cut_bytes = files[spectrum], files[cut]
        for i in range(max(len(spectrum_bytes), len(cut_bytes))):
            restore(files)
            for blob, data in ((spectrum, spectrum_bytes), (cut, cut_bytes)):
                flipped = bytearray(data)
                flipped[i % len(data)] ^= 0xFF
                blob.write_bytes(bytes(flipped))
            bounds, solves, flows = serve(root)
            assert bounds == clean, i
            assert solves == 1 and flows > 0, i
        # The last re-solve and re-flow republished sound entries.
        assert serve(root) == (clean, 0, 0)
        assert "is corrupt" in caplog.text

    @pytest.mark.parametrize(
        "damage",
        [lambda data: data[: len(data) // 2], lambda data: b"", lambda data: bytes(len(data))],
        ids=["truncated", "empty", "zeroed"],
    )
    def test_truncated_and_zeroed_blobs(self, warm, damage, capsys):
        root, clean, files = warm
        spectrum, cut = blob_of(root, "blobs"), blob_of(root, "cuts")
        for blob in (spectrum, cut):
            blob.write_bytes(damage(files[blob]))
        code, report = verify_cli(root, capsys)
        assert code == 1
        assert report["corrupt"] == [spectrum.stem]
        assert report["cuts"]["corrupt"] == [cut.stem]
        bounds, solves, flows = serve(root)
        assert bounds == clean and solves == 1 and flows > 0
        assert verify_cli(root, capsys)[0] == 0

    def test_swapped_blobs_are_corrupt_never_served(self, tmp_path, capsys):
        root = tmp_path / "store"
        other = GraphSpec(family="fft", size_param=3)
        queries = QUERIES + (
            BoundQuery(GRAPH, 1, normalization="unnormalized"),
            BoundQuery(other, 1, method="convex-min-cut"),
        )
        clean, _, _ = serve(root, queries)
        # Copy one valid blob over another entry's blob in each namespace.
        first, second = sorted((root / "blobs").glob("*.npz"))
        second.write_bytes(first.read_bytes())
        cut_a, cut_b = sorted((root / "cuts").glob("*.npz"))
        cut_b.write_bytes(cut_a.read_bytes())
        code, report = verify_cli(root, capsys)
        assert code == 1
        assert report["corrupt"] == [second.stem]
        assert report["cuts"]["corrupt"] == [cut_b.stem]
        bounds, solves, flows = serve(root, queries)
        assert bounds == clean and solves == 1 and flows > 0

    def test_verify_fix_repairs_then_resolve(self, warm, capsys):
        root, clean, files = warm
        for blob in (blob_of(root, "blobs"), blob_of(root, "cuts")):
            flipped = bytearray(files[blob])
            flipped[28] ^= 0x01
            blob.write_bytes(bytes(flipped))
        assert verify_cli(root, capsys, "--fix")[0] == 0
        code, report = verify_cli(root, capsys)
        assert code == 0 and report["entries_checked"] == 0
        bounds, solves, flows = serve(root)
        assert bounds == clean and solves == 1 and flows > 0

    def test_index_of_an_older_format_reads_as_empty(self, warm):
        root, clean, _ = warm
        for name in ("index.json", "cuts-index.json"):
            index = json.loads((root / name).read_text())
            index["format_version"] = 1
            (root / name).write_text(json.dumps(index))
        bounds, solves, flows = serve(root)
        assert bounds == clean and solves == 1 and flows > 0


def _republish_and_die(root, stage, ready_fd):
    """Child body: re-publish the stored spectrum, stopping at ``stage``."""
    real_replace = os.replace

    def replace(src, dst):
        if stage == "before-replace":
            os.write(ready_fd, b"x")
            time.sleep(60)
        real_replace(src, dst)
        if stage == "after-blob":
            os.write(ready_fd, b"x")
            time.sleep(60)

    ((_, meta),) = json.loads((root / "index.json").read_text())["entries"].items()
    store = SpectrumStore(root, lease_ttl=0)
    options = EigenSolverOptions(**meta["options"])
    stored = store.get(meta["fingerprint"], meta["h"], meta["normalized"], meta["sparse"], options)
    os.replace = replace
    store.put(meta["fingerprint"], stored.eigenvalues, 99.0, meta["normalized"],
              meta["sparse"], options)


class TestKilledWriter:
    @pytest.mark.parametrize("stage", ["before-replace", "after-blob"])
    def test_sigkill_mid_put(self, warm, stage, capsys):
        root, clean, _ = warm
        ready_read, ready_write = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the child
            try:
                _republish_and_die(root, stage, ready_write)
            finally:
                os._exit(1)
        os.close(ready_write)
        try:
            assert os.read(ready_read, 1) == b"x"
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(ready_read)
        bounds, solves, flows = serve(root)
        assert bounds == clean and flows == 0
        # Killed before its blob landed, the writer left the entry intact
        # (and a temp file that verify reports as an orphan); killed after,
        # it left a blob the index digest rejects: a miss and a re-solve.
        assert solves == (1 if stage == "after-blob" else 0)
        _, report = verify_cli(root, capsys)
        assert not report["corrupt"] and not report["missing"]
        assert len(report["orphaned_blobs"]) == (1 if stage == "before-replace" else 0)


class TestFailedWrites:
    @pytest.mark.parametrize("code", [errno.ENOSPC, errno.EROFS])
    def test_failed_publish_never_fails_a_query(self, tmp_path, monkeypatch, caplog, code):
        clean, _, _ = serve(tmp_path / "clean")

        def full_disk(path, data, durable=True):
            raise OSError(code, os.strerror(code), str(path))

        monkeypatch.setattr(store_module, "_atomic_write", full_disk)
        root = tmp_path / "store"
        with caplog.at_level(logging.WARNING, logger="repro.runtime.store"):
            bounds, solves, flows = serve(root)
        assert bounds == clean and solves == 1 and flows > 0
        assert "write failed" in caplog.text
        monkeypatch.undo()
        # Nothing was published, so the next service solves and flows again.
        bounds, solves, flows = serve(root)
        assert bounds == clean and solves == 1 and flows > 0

    def test_failed_drop_of_a_corrupt_blob_is_still_a_miss(self, warm, monkeypatch):
        root, clean, _ = warm
        blob_of(root, "blobs").write_bytes(b"garbage")

        def read_only(path, data, durable=True):
            raise OSError(errno.EROFS, "read-only file system", str(path))

        monkeypatch.setattr(store_module, "_atomic_write", read_only)
        bounds, solves, flows = serve(root)
        assert bounds == clean and solves == 1 and flows == 0


class TestRaces:
    def test_duplicate_puts_never_read_as_corrupt(self, tmp_path, caplog):
        root = tmp_path / "store"
        values = np.linspace(0.0, 1.0, 16)
        SpectrumStore(root).put("fp", values, 0.5)
        stop = threading.Event()
        failures = []

        def writer(solve_seconds):
            handle = SpectrumStore(root)
            while not stop.is_set():
                handle.put("fp", values, solve_seconds)

        def reader(handle):
            while not stop.is_set():
                got = handle.get("fp", 16)
                if got is None or not np.array_equal(got.eigenvalues, values):
                    failures.append(got)

        shared = SpectrumStore(root)  # exercises the index parse cache
        threads = [threading.Thread(target=writer, args=(s,)) for s in (1.0, 2.0)]
        threads += [threading.Thread(target=reader, args=(h,)) for h in (shared, shared, SpectrumStore(root))]
        with caplog.at_level(logging.WARNING, logger="repro.runtime.store"):
            for thread in threads:
                thread.start()
            time.sleep(1.0)
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures
        assert "corrupt" not in caplog.text
        assert SpectrumStore(root).verify()["ok"]

    def test_cut_merge_racing_gets_never_reads_as_corrupt(self, tmp_path, caplog):
        root = tmp_path / "store"
        CutStore(root).merge("fp", [0], [1])
        done = threading.Event()
        failures = []

        def writer():
            handle = CutStore(root)
            for vertex in range(1, 120):
                handle.merge("fp", [vertex], [vertex + 1], flow_calls=1)
            done.set()

        def reader():
            handle = CutStore(root)
            while not done.is_set():
                table = handle.get("fp")
                if table is None or table.as_dict().get(0) != 1:
                    failures.append(table)

        threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(2)]
        with caplog.at_level(logging.WARNING, logger="repro.runtime.store"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures
        assert "corrupt" not in caplog.text
        cuts = CutStore(root)
        assert len(cuts.get("fp")) == 120 and cuts.verify()["ok"]
