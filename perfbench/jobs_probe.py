"""One-off measurement of ``explore(..., jobs=2)`` against ``jobs=1`` on the
relay-b4 input; not a workload.  Run from the repository root:

    python3 perfbench/jobs_probe.py

Prints the median explore seconds for each ``jobs`` value over three
repeats, alternating the two, with a full collection before every
exploration.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time

import run


REPEATS = 3


def main() -> None:
    run.import_program()
    from cfsmkit import explore
    from workloads import NoTrace, build_system, load_cases

    [case] = load_cases("relay-b4", seed=0)
    system = build_system(NoTrace(), case, None)
    times: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(REPEATS):
        for jobs in times:
            gc.collect()
            started = time.perf_counter()
            explore(system, case.bound, jobs=jobs)
            times[jobs].append(time.perf_counter() - started)
    for jobs, seconds in times.items():
        print(f"jobs={jobs}: median {statistics.median(seconds):.2f} s over {len(seconds)} "
              f"({', '.join(f'{s:.2f}' for s in seconds)})")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
