"""Load generation over keep-alive ``BoundsClient`` connections.

Every phase runs in this one process with at most ``nproc`` threads, one
pooled keep-alive connection per thread.  Each request carries one query;
the answer is checked against its reference before it counts as done.

* ``sequential`` — closed loop, one connection, for a fixed time.
* ``closed_job`` — closed loop, ``nproc`` connections, a fixed number of
  requests (the makespan and ``closed_rps`` job).
* ``ladder`` — open loop: a fixed rate ladder; each request is timed from
  the moment it was due, so a stall also charges the requests queued
  behind it.  ``max_lag`` is how long a due request waited for a free
  connection (a growing backlog); ``gen_lag`` is how late the generator
  itself sent once a connection was free (its own sleep overshoot).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.server.client import BoundsClient, ServerError

#: Open-loop ladder: 14 req/s doubling up to 1792 req/s, one second a rung;
#: a rung passes while p99 latency from the due time stays under 100 ms and
#: no request waits more than 100 ms for a connection (the backlog does not
#: grow).  Rungs start at 14 rather than 10 so that none sits within 10% of
#: the 42-46 req/s the serving workloads sustain while every request pays
#: the ~44 ms transport stall; a rung that close to capacity flips its
#: verdict from run to run.
LADDER_RATES = tuple(14 * 2**i for i in range(8))
LADDER_RUNG_SECONDS = 1.0
LADDER_LIMIT_SECONDS = 0.100


@dataclass
class Tally:
    """Requests attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def add(self, error: Optional[str]) -> bool:
        with self.lock:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(error)
        return error is None


def send(client, item, check: Callable) -> Optional[str]:
    """One request; ``None`` when it was answered correctly."""
    try:
        [answer] = client.bounds([item["query"]])
    except ServerError as exc:
        return f"server error {exc}"
    return check(item, answer)


def percentile_index(count: int, q: float = 0.99) -> int:
    """Sorted index of the highest percentile <= q with >= 10 samples beyond it."""
    nearest = max(0, math.ceil(q * count) - 1)
    return max(0, min(nearest, count - 11))


def tail(latencies: Sequence[float]) -> dict:
    ordered = sorted(latencies)
    index = percentile_index(len(ordered))
    return {
        "p50": ordered[len(ordered) // 2],
        "tail": ordered[index],
        "tail_percentile": round(100.0 * (index + 1) / len(ordered), 2),
        "samples": len(ordered),
    }


def sequential(url: str, items: Sequence[dict], seconds: float, check, tally: Tally) -> List[float]:
    latencies: List[float] = []
    with BoundsClient(url) as client:
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline or len(latencies) < 20:
            item = items[index % len(items)]
            index += 1
            start = time.perf_counter()
            error = send(client, item, check)
            latencies.append(time.perf_counter() - start)
            tally.add(error)
    return latencies


def _run_threads(count: int, target) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_job(url: str, items: Sequence[dict], connections: int, check, tally: Tally) -> dict:
    """Send every item once over ``connections`` closed-loop connections."""
    cursor = iter(range(len(items)))
    lock = threading.Lock()
    latencies: List[float] = []
    client = BoundsClient(url)

    def worker(_: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            start = time.perf_counter()
            error = send(client, items[index], check)
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
            tally.add(error)

    start = time.perf_counter()
    _run_threads(connections, worker)
    wall = time.perf_counter() - start
    client.close()
    return {"wall": wall, "latencies": latencies}


def _rung(url: str, items: Sequence[dict], rate: float, connections: int, check,
          tally: Tally) -> dict:
    count = max(1, int(rate * LADDER_RUNG_SECONDS))
    first_due = time.perf_counter() + 0.02
    cursor = iter(range(count))
    lock = threading.Lock()
    delays: List[float] = []
    lags: List[float] = []
    oversleeps: List[float] = []
    errors = []
    client = BoundsClient(url)

    def worker(_: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = first_due + index / rate
            ready = time.perf_counter()
            if due > ready:
                time.sleep(due - ready)
            sent = time.perf_counter()
            error = send(client, items[index % len(items)], check)
            done = time.perf_counter()
            with lock:
                delays.append(done - due)
                lags.append(sent - due)
                oversleeps.append(sent - max(due, ready))
                if error is not None:
                    errors.append(error)
            tally.add(error)

    _run_threads(connections, worker)
    finished = time.perf_counter()
    client.close()
    ordered = sorted(delays)
    p99 = ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]
    return {
        "rate": rate,
        "requests": count,
        "achieved_rps": (count - 1) / (finished - first_due) if count > 1 else 0.0,
        "p99_ms": 1e3 * p99,
        "max_lag_ms": 1e3 * max(lags),
        "gen_lag_ms": 1e3 * max(oversleeps),
        "passed": not errors and p99 <= LADDER_LIMIT_SECONDS
        and max(lags) <= LADDER_LIMIT_SECONDS,
    }


def ladder(url: str, items: Sequence[dict], connections: int, check, tally: Tally) -> dict:
    """Climb the rate ladder until a rung fails.

    The SLO rate is the rate achieved on the highest passing rung: the
    request intervals served between the first due time and the last
    answer, so it reads the measured rate rather than the nominal one.
    """
    rungs = []
    slo_rate = 0.0
    offset = 0
    for rate in LADDER_RATES:
        rotated = list(items[offset:]) + list(items[:offset])
        offset = (offset + int(rate * LADDER_RUNG_SECONDS)) % len(items)
        rung = _rung(url, rotated, rate, connections, check, tally)
        rungs.append(rung)
        if not rung["passed"]:
            break
        slo_rate = rung["achieved_rps"]
    return {
        "slo_rps": slo_rate,
        "rungs": rungs,
        "gen_lag_ms": max(rung["gen_lag_ms"] for rung in rungs),
    }
