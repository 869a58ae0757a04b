"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/cold_setup.py WORKLOAD WORK_DIR

Times ``import arcgate``, fixture synthesis, the IDX write into WORK_DIR,
the ``idx.load_idx`` read-back and the workload's warm-up, then checks
that the IDX round trip reproduced the fixture exactly (untimed).  Prints
one JSON object: ``seconds``, the IDX ``paths`` and a list of ``problems``.
``run.py`` starts this once per set-up repeat, so every repeat pays the
first-call costs and the measuring process never holds the synthesized
fixture.
"""

import time

START = time.perf_counter()

import json  # noqa: E402 - the clock starts before any import
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    name, work_dir = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    paths, data = workloads.set_up(work_dir)
    workloads.WORKLOADS[name].warm_up(data)
    seconds = time.perf_counter() - START
    print(json.dumps({"seconds": seconds, "paths": paths,
                      "problems": workloads.fixture_check(data)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
