"""One cold set-up sample, taken in the fresh interpreter this script is.

    python3 perfbench/probe.py <workload> <seed>

Prints one JSON line with four fields:

* ``import_s`` - importing the library;
* ``ready_s`` - from the end of the import until the workload is ready
  to step: tuning, the first scenario build, simulator construction
  and, for the campaign, the first pool start;
* ``tuning_s`` - the cold gain-schedule tuning inside ``ready_s``;
* ``cal_s`` - the host-speed calibration taken right after.

``run.py`` starts it several times per run and reports the median of
``import_s + ready_s``, in reference-host seconds, as ``setup_s``.
"""

import json
import statistics
import sys
import time
from pathlib import Path

from harness import calibrate


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    sample = {"import_s": import_s, **workload.probe()}
    # Host speed just after the set-up (calibrating before it would
    # import NumPy ahead of the library and hide that from import_s).
    sample["cal_s"] = statistics.median(calibrate() for _ in range(3))
    print(json.dumps(sample))


if __name__ == "__main__":
    main()
