"""Set-up probe: a fresh interpreter imports progchan and runs one op of a workload.

Usage: python3 perfbench/probe.py <closed-form|oracle-scan> <seed> <full|tiny> <index>
with progchan's ``src/`` on PYTHONPATH.  The op is the index-th of the
seeded stream.  Exits 1 if the op fails its check.
"""

import importlib
import sys

import workloads

MODULES = ("minimax", "pauli", "channels", "oracle")


def main() -> int:
    name, seed, size, index = sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
    pc = {m: importlib.import_module(f"progchan.{m}") for m in MODULES}
    workload = workloads.WORKLOADS[name](pc, seed, size, None, None)
    ops = workload.ops()
    for _ in range(index):
        next(ops)
    op = next(ops)
    return 0 if workload.check(op, workload.run(op)) else 1


if __name__ == "__main__":
    sys.exit(main())
