"""One cold set-up of the benchmark: start an interpreter, import conesurf
from the checkout's sources and generate the workload's inputs, then print
`ready`.  run.py times this from process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import workloads


def main(argv):
    workload, seed = argv[0], int(argv[1])
    workloads.import_cli()
    workloads.make_config(workload, seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
