"""Time one stress family at chosen sizes through the four algorithms.

    python3 perfbench/sizes.py wide 256 1024
    python3 perfbench/sizes.py shared 10 12 14 --repeat 3

Builds each case with the ``stress`` workload's own builders (seed 0) and
prints the median wall time of ``--repeat`` calls per algorithm, or the
exception a call died of.  A one-off probe for sizes outside the
workload's rounds, such as the ROADMAP's wide 1024 and shared 16; it
reports nothing to the benchmark's result.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter as clock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from run import fresh_engine  # noqa: E402
from workloads import ALGORITHMS, Stress  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("family", choices=("wide", "shared", "deep"))
    parser.add_argument("sizes", nargs="+", type=int)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)

    stress = Stress(fresh_engine(False))
    stress.setup(random.Random(0))
    unify, oracle = stress.m.unify, stress.m.oracle
    calls = {
        "classic": unify.classic_unify,
        "robinson": unify.robinson_unify,
        "efficient": unify.robinson_unify_efficient,
        "mm": lambda s, t: oracle.solve_equations(oracle.EquationSet(((s, t),))),
    }
    for size in args.sizes:
        rng = random.Random(0)
        case = stress.deep(rng, size, size) if args.family == "deep" else getattr(stress, args.family)(rng, size)
        cells = []
        for name in ALGORITHMS:
            times = []
            try:
                for _ in range(args.repeat):
                    start = clock()
                    calls[name](case.s, case.t)
                    times.append(clock() - start)
                cells.append(f"{name} {statistics.median(times) * 1e3:9.2f} ms")
            except RecursionError:
                cells.append(f"{name} RecursionError")
        print(f"{args.family} {size:>6}: " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
