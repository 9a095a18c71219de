"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workloads sweep stress --seeds 1 2 3 4 5 [--out FILE]

Runs are sequential, one process at a time.  For every end-to-end metric
of every workload it prints the median, the quartiles and the spread
(interquartile distance as a share of the median, from
``statistics.quantiles(values, n=4)``) next to the metric's bound from
BENCHMARK.json.  ``--out`` also writes the per-run values and the summary
as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    record = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        summary = {}
        print(f"{workload}: attempted {sum(r['attempted'] for r in runs)}, failed {sum(r['failed'] for r in runs)}, "
              f"correct {all(r['correct'] for r in runs)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = "" if spread < metric["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {name:<18} median {median:>12.6g} {metric['unit']:<5} q1 {q1:>12.6g} q3 {q3:>12.6g} "
                  f"spread {spread:6.3f} bound {metric['bound']}{flag}")
        record["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": [r["correct"] for r in runs],
            "metrics": summary,
        }
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
