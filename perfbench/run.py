"""The spectral-bound system's benchmark: one command, every metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the same workload with the program's layers wrapped from
outside (``layers.py``) and prints every per-layer metric plus a per-layer
self-time table.  The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it records
the environment (``nproc``, BLAS threads, git sha, versions) and the
run's details (sample counts, loop kinds, ladder rungs, ``gen_lag_ms``).

Metric definitions that differ by workload:

* ``setup_s`` — median of several set-ups: ``sweep-cold`` a CLI start on an
  empty store; ``serve-*`` server boot plus warm-up, which on an empty
  store is also the store pre-population.
* ``makespan_s`` — the sweep job, or on ``serve-*`` the closed-loop job of
  100 requests over ``nproc`` connections.
* ``query_p50_ms`` / ``query_p99_ms`` — one-query requests on one keep-alive
  connection; the tail is the highest percentile up to p99 with at least
  10 samples beyond it.
* ``slo_rps`` — the open-loop ladder of ``loadgen.py``: the rate achieved on
  the highest rung whose p99, timed from each request's due time, stays
  under 100 ms.
* ``sweep-cold`` serves its swept store after the sweep for the request
  metrics; every served query must hit a cache tier.

Per-layer metrics cover the traced phase: on ``serve-*`` the one-connection
phase plus the closed-loop job against an instrumented server, on
``sweep-cold`` the whole sweep job.  ``_ms``/``_us`` metrics are means per
call (server layers: per request), ``_s`` metrics are totals, the rest are
counts or ratios; a layer the workload does not use reads 0.

``--smoke`` runs every workload at toy scale, checks that every metric is
emitted with its unit, and that a deliberately perturbed reference bound
trips the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
         perturb: Optional[str] = None) -> dict:
    import harness
    import workloads

    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    run = workloads.Run(workload, seed, seconds, trace, smoke=smoke)
    run.refs.perturb = perturb
    try:
        workloads.WORKLOADS[workload](run)
    finally:
        run.close()
    attempted = max(1, run.tally.attempted)
    run.metrics["error_rate"] = run.tally.failed / attempted
    missing = [m["name"] for m in wanted if m["name"] not in run.metrics]
    if missing:
        raise RuntimeError(f"{workload} did not measure {missing}")
    detail = {"environment": harness.environment(), "workload": workload, "seed": seed,
              "trace": int(trace), "failures": run.tally.reasons,
              **{k: v for k, v in run.detail.items() if k != "layer_table"}}
    harness.print_json_line({"detail": detail})
    return {
        "correct": run.tally.failed == 0,
        "attempted": attempted,
        "failed": run.tally.failed,
        "metrics": {m["name"]: {"value": float(run.metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }


def smoke() -> int:
    """Every workload at toy scale; every metric present; the gate trips."""
    spec = _spec()
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            result = _run(workload, 7, 1.0, trace, smoke=True)
            names = spec["per_layer"] if trace else spec["end_to_end"]
            for metric in names:
                emitted = result["metrics"].get(metric["name"])
                if emitted is None or emitted["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={int(trace)}: {metric['name']}")
            if not result["correct"]:
                problems.append(f"{workload} trace={int(trace)} answered wrongly")
    result = _run("serve-hot", 7, 1.0, False, smoke=True, perturb="fft:5")
    if result["correct"] or result["failed"] == 0:
        problems.append("a perturbed reference bound did not trip the correctness gate")
    for problem in problems:
        print(f"SMOKE FAIL: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # A SIGTERM unwinds through the workloads' cleanup, which stops every
    # program process this run started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.smoke:
        return smoke()
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    try:
        result = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - report, exit non-zero, print no result
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
