"""Set-up probe for one workload, run in a fresh interpreter by ``run.py``.

    python3 perfbench/probe.py <workload> <seed>

Imports ``dqdcycle.cli``, builds the workload's inputs exactly as a run does,
and prints one JSON line: ``ready`` (``time.monotonic()`` once the inputs are
built, comparable with the parent's clock) and ``import_s`` (seconds spent
importing ``dqdcycle.cli``).
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import dqdcycle.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    import harness

    harness.build(sys.argv[1], int(sys.argv[2]), harness.load_reference())
    print(json.dumps({"ready": time.monotonic(), "import_s": import_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
