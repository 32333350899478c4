"""Print one workload's set-up time, measured in this fresh interpreter.

Set-up is `import thompson_sigma`, the import of every layer module the
workload calls (this includes `thompson_sigma.cli` for cli_mix), and the
workload's warm-up round: one tiny op of each kind, which also fills caches
such as `plrep.generator_map`.  Importing the benchmark's own code is kept
off the clock.  The time printed is stated at the reference speed of
`meter.calibration_kernel`, measured right after the set-up.

    python3 perfbench/setup_probe.py <workload>
"""

import statistics
import sys
from time import perf_counter

import meter
import program


def main() -> None:
    program.put_on_path()
    t0 = perf_counter()
    import thompson_sigma  # noqa: F401

    t1 = perf_counter()
    import workloads

    workload = workloads.WORKLOADS[sys.argv[1]]()
    t2 = perf_counter()
    lib = program.Layers(workload.layers)
    program.check_loaded()
    workload.warm_up(lib)
    elapsed = (t1 - t0) + (perf_counter() - t2)
    speed = statistics.median(meter.calibration_kernel() for _ in range(21)) / meter.CAL_REF_S
    print(elapsed / speed)


if __name__ == "__main__":
    main()
