"""One set-up sample for the benchmark: a fresh interpreter up to its first task.

    python3 benchmarks/setup_probe.py <workload> <seed>

Imports the package, builds the workload's sprays and lifts, draws its
inputs, and prints CLOCK_MONOTONIC; the caller subtracts its spawn time.
Then it times the reference kernel in this process, on the core that ran
the set-up, and prints the fastest of five calls (a call that another
process interrupts reads several times too long).
"""

import sys
import time

import run  # pins the thread pools before numpy loads
import reference
import workloads


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.build(run.load_sprayjets(), workload, seed)
    print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    print(repr(min(reference.timed() for _ in range(5))))


if __name__ == "__main__":
    main()
