"""Program processes: CLI runs and ``serve`` processes, with their peak RSS.

Every program process is started through ``launch.py`` from this
checkout's ``src/``, writes only under the run's work directory, and is
stopped and reaped before the run ends.
"""

from __future__ import annotations

import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

from repro.server.client import parse_metric

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = ROOT / "perfbench" / "launch.py"


def _env(trace_dir: Optional[Path]) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PERFBENCH_TRACE_DIR", None)
    for name in ("REPRO_SPECTRUM_STORE", "REPRO_SOLVER_BACKEND", "REPRO_SERVE_WORKERS",
                 "REPRO_TRACE_SAMPLE", "REPRO_PROFILE"):
        env.pop(name, None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    return env


def run_cli(args: List[str], cwd: Path, trace_dir: Optional[Path] = None) -> dict:
    """Run ``python -m repro <args>`` to completion: wall, stdout, peak RSS."""
    out_path, err_path = cwd / "cli.stdout", cwd / "cli.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCHER), *args], cwd=cwd,
                                env=_env(trace_dir), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"repro {' '.join(args)} exited {proc.returncode}: "
                           f"{err_path.read_text(errors='replace')[-2000:]}")
    return {"wall": wall, "stdout": out_path.read_text(), "rss_mb": usage.ru_maxrss / 1024.0}


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        match = re.search(r"^VmHWM:\s+(\d+) kB", handle.read(), re.M)
    return int(match.group(1)) / 1024.0


class Server:
    """A ``python -m repro serve`` process on an ephemeral port."""

    def __init__(self, store: Path, cwd: Path, trace_dir: Optional[Path] = None) -> None:
        started = time.perf_counter()
        args = ["serve", "--port", "0", "--store", str(store)]
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *args], cwd=cwd, env=_env(trace_dir),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.url = ""
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.ready_seconds = time.perf_counter() - started

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        for line in self.proc.stdout:
            match = re.search(r"serving bounds on (http://\S+)", line)
            if match:
                self.url = match.group(1)
            if line.startswith("endpoints:"):
                break
            if time.monotonic() > deadline:
                break
        if not self.url:
            raise RuntimeError("serve did not report its URL")
        while True:
            try:
                with urllib.request.urlopen(f"{self.url}/healthz", timeout=5) as response:
                    if response.status == 200:
                        return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.url} never became healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def metrics(self) -> str:
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=10) as response:
            return response.read().decode()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def metric(text: str, name: str, **labels: str) -> float:
    """Sum of a metric's samples in an exposition (0 when absent)."""
    try:
        return parse_metric(text, name, **labels)
    except KeyError:
        return 0.0


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _git_sha() -> str:
    try:
        # The ceiling keeps git from looking above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas_threads() -> str:
    """OpenBLAS thread count of this process, read through its C API."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS library

    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return str(function())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") \
        or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def print_json_line(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), flush=True)
