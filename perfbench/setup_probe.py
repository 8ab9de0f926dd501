"""Measure one cold set-up of a workload in this fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the set-up seconds as its only output line.
"""

import sys

import workloads


def main(argv):
    name, seed = argv[1], int(argv[2])
    workloads.use_checkout_source()
    _, seconds = workloads.cold_setup(workloads.WORKLOADS[name], seed)
    print(repr(seconds))


if __name__ == "__main__":
    main(sys.argv)
