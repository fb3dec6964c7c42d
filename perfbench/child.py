"""Compute one workload's seeded inputs and oracle answers and print them
as one JSON object:

    python3 perfbench/child.py WORKLOAD SEED

run.py starts it during set-up (``Workload.child_inputs``), so the
generator's and the oracle's data never live in the measured process.
"""

import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def main(argv):
    name, seed = argv
    sys.path.insert(0, SRC)
    import rwc
    from workloads import WORKLOADS

    wl = WORKLOADS[name](rwc, int(seed), None, None)
    json.dump(wl.make_inputs(), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
