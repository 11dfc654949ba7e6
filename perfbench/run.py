"""Benchmark of p2plreg.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; p2plreg is imported from ``src/``.
Workloads: icp-register, diff-step, soft-step, gradcheck (see workloads.py).
Each is a closed loop with one client: the next op starts only after the
previous one completed and was checked. The program is pinned to one
worker and one BLAS thread before numpy is imported.

``--trace 0`` sets up the named workload several times (``setup_s`` is the
median), measures one op's tracemalloc peak in an untimed pass, then times
ops for ``--seconds``. ``--trace 1`` is the layer run: it covers every
workload, running each op both untraced and traced so the tracing overhead
is measured, plus a forward/backward size sweep, and prints the per-layer
metrics; spans are written to ``.perfbench_out/``.

Times are reported at the speed of a reference machine: a fixed calibration
kernel is timed around every op and each op's time is scaled by it (see
``harness.Reference``). The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it, prefixed with ``#``, give the environment, the speed factor, the raw
figures and the scaled ones.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("P2PL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import p2plreg from the checkout's src/, failing if it is not there."""
    src = ROOT / "src"
    if not (src / "p2plreg" / "__init__.py").is_file():
        raise SystemExit(f"error: no p2plreg sources under {src}")
    sys.path.insert(0, str(src))
    import p2plreg

    if Path(p2plreg.__file__).resolve().parent != (src / "p2plreg").resolve():
        raise SystemExit(f"error: p2plreg was imported from {p2plreg.__file__}, not {src}")
    return p2plreg


def main(argv=None, sizes=None, scratch: Path = ROOT) -> int:
    """Run one benchmark invocation; ``sizes`` and ``scratch`` serve the tests."""
    pin_threads()
    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    return harness.main(argv, sizes, scratch)


if __name__ == "__main__":
    sys.exit(main())
