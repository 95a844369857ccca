"""Run ``python -m repro <args>`` from this checkout's ``src/``.

With ``PERFBENCH_TRACE_DIR`` set, the program's layer entry points are
wrapped first (see ``layers.py``) and the spans are written to that
directory when the command returns; a ``serve`` process returns after
SIGTERM, which the CLI turns into a graceful shutdown.
"""

import os
import sys
import time

_START = time.perf_counter()
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))
sys.path.insert(0, os.path.join(_ROOT, "perfbench"))

from repro.runtime import cli  # noqa: E402

_BOOTED = time.perf_counter()


def main() -> int:
    if not os.environ.get("PERFBENCH_TRACE_DIR"):
        return cli.main(sys.argv[1:])
    import layers

    # The program's own start-up ends before the layers are wrapped; the
    # wrapping itself shows up as trace overhead, not as boot time.
    layers.install_program_layers()
    layers.record("runtime.cli.boot", _START, _BOOTED)
    layers._wrap(cli, "main", "runtime.cli")
    try:
        return cli.main(sys.argv[1:])
    finally:
        layers.dump()


if __name__ == "__main__":
    sys.exit(main())
