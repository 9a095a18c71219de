"""Run one workload of the mgu benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads: ``sweep``, ``certify``, ``stress`` and ``cli`` (see README.md).
The engine is imported from ``src/`` of the checkout this file sits in;
without it the run fails with exit code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds,
with every timing scaled to the host's quiet speed (see ``end_to_end``).
``--trace 1`` runs a fixed, seeded list of operations with every public
engine function wrapped (see layers.py) and reports per-layer counts and
times; it then restores the engine, checks that every wrapped name is bound
to its original again, and reruns the same operations untraced to give
the tracing overhead.

Every run pins ``PYTHONHASHSEED`` (to the seed), so that two runs with the
same seed iterate sets in the same order and count exactly the same work.
The recursion limit is the interpreter's default.  Human-readable lines
come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from itertools import islice
from pathlib import Path
from time import perf_counter as clock
from types import SimpleNamespace

from layers import Tracer
from workloads import ERROR, Certify, Cli, Run, Stress, Sweep, Verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SEGMENT_S = 0.025  # operations are grouped into segments of at least this long, a probe after each
SETUPS = 20  # set-ups spread evenly over the run, besides the first
# The probe's time on a quiet core of the host the benchmark was tuned on
# (2 vCPUs of an Intel Xeon, CPython 3.11.7): the speed that every timing
# is scaled to.
PROBE_QUIET_S = 73e-6
MAX_SPANS = 50_000
# Tail percentiles stop at p95.  Beyond it, the operations of a millisecond
# or so that the host preempted outnumber the costly ones: over five runs,
# p99 spread by 0.25 on certify and p99.9 by 0.54.
TAIL_LADDER = (50, 90, 95)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "certify", "stress", "cli"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def hash_seed(seed: int) -> str:
    return str(seed % 2**32)


def fresh_engine(with_cli: bool) -> SimpleNamespace:
    """Import ``mgu`` anew from the checkout, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "mgu" or n.startswith("mgu.")]:
        del sys.modules[name]
    package = importlib.import_module("mgu")
    if Path(package.__file__).resolve().parent != SRC / "mgu":
        raise RuntimeError(f"imported mgu from {package.__file__}, not from {SRC}")
    return SimpleNamespace(
        package=package,
        **{name: importlib.import_module(f"mgu.{name}") for name in ("terms", "substitution", "unify", "oracle")},
        cli=importlib.import_module("mgu.cli") if with_cli else None,
    )


def make_workload(name: str, m):
    if name == "cli":
        return Cli(m, ROOT)
    return {"sweep": Sweep, "certify": Certify, "stress": Stress}[name](m)


def set_up(args):
    """Import the engine afresh and build the workload's inputs; returns it and the time taken."""
    gc.collect()
    start = clock()
    workload = make_workload(args.workload, fresh_engine(args.workload == "cli"))
    workload.setup(random.Random(f"{args.seed}:setup"))
    return workload, clock() - start


# -- operations ------------------------------------------------------------------


def judge(workload, item, run) -> Verdict:
    try:
        return workload.check(item, run)
    except Exception as err:  # noqa: BLE001 - counted, never dropped
        return Verdict(ERROR, detail=f"{type(err).__name__} in check")


def execute(workload, item):
    """One operation and its verdict; a crash of either is a failed operation."""
    start = clock()
    try:
        run = workload.run(item)
    except Exception as err:  # noqa: BLE001 - counted, never dropped
        return Run(seconds=clock() - start), Verdict(ERROR, detail=f"{type(err).__name__} in run")
    return run, judge(workload, item, run)


class Tally:
    """Verdicts and time of a sequence of operations."""

    def __init__(self):
        self.attempted = 0
        self.statuses = Counter()
        self.seconds = 0.0
        self.part_seconds = defaultdict(float)
        self.part_ok = Counter()
        self.family_calls = defaultdict(list)  # stress family -> successful call times
        self.details: list[str] = []

    def add(self, item, run, verdict) -> None:
        self.attempted += 1
        self.statuses[verdict.status] += 1
        self.seconds += run.seconds
        if verdict.status != "ok" and len(self.details) < 5:
            self.details.append(f"{verdict.status}: {verdict.detail}")
        family = getattr(item, "family", None)
        for part, seconds in run.parts.items():
            self.part_seconds[part] += seconds
            if verdict.parts_ok.get(part):
                self.part_ok[part] += 1
                if family is not None:
                    self.family_calls[family].append(seconds)

    @property
    def rate(self) -> float:
        """Correct operations per second of operation time."""
        return self.ok / self.seconds

    @property
    def ok(self) -> int:
        return self.statuses["ok"]

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def wrong(self) -> int:
        return self.statuses["wrong"]


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the two kinds of run ----------------------------------------------------------


class _Node:
    __slots__ = ("name", "args")

    def __init__(self, name, args):
        self.name = name
        self.args = args


def probe() -> float:
    """The host's speed right now: the fastest of three timings of a fixed piece of pure Python.

    The piece never touches the engine: integer arithmetic, then small
    objects, tuples, a dict and strings, as in the engine's own mix of
    work.  The fastest of three, so that one preemption of the process
    does not pass for a slow host.
    """
    best = math.inf
    for _ in range(3):
        start = clock()
        total = 0
        for i in range(500):
            total += i * i % 7
        table = {}
        for i in range(75):
            node = _Node("f", (i, ("x", i % 7)))
            key = (node.name, node.args[1])
            table[key] = table.get(key, 0) + len(str(i))
        best = min(best, clock() - start)
    return best


class Samples:
    """Every timed operation of a run, in order, grouped into segments.

    An operation's time is kept single-precision and unboxed, negated if
    the operation failed: 4 bytes each, so that the harness's own memory
    barely moves peak_rss_mb with throughput.
    """

    def __init__(self):
        self.seconds = array("f")
        self.starts = array("I")  # each segment's first operation
        self.scale = array("d")  # each segment's factor to the quiet host speed

    def open_segment(self) -> None:
        self.starts.append(len(self.seconds))

    def close_segment(self, scale: float) -> None:
        self.scale.append(scale)

    def add(self, seconds: float, ok: bool) -> None:
        self.seconds.append(seconds if ok else -seconds)

    def timings(self, scaled: bool):
        """ops_per_s, p50 and the tail (p, value, beyond, successful) over all operations."""
        busy, done, ok = 0.0, 0, []
        ends = list(self.starts[1:]) + [len(self.seconds)]
        for k, (first, end) in enumerate(zip(self.starts, ends)):
            scale = self.scale[k] if scaled else 1.0
            for seconds in self.seconds[first:end]:
                busy += abs(seconds) * scale
                if math.copysign(1.0, seconds) > 0:
                    ok.append(seconds * scale)
        ok.sort()
        n = len(ok)
        p = max(q for q in TAIL_LADDER if q == 50 or n - math.ceil(q / 100 * n) >= 10)
        return n / busy, percentile(ok, 50), (p, percentile(ok, p), n - math.ceil(p / 100 * n), n)


def to_quiet(before: float, after: float) -> float:
    """The factor that takes a time measured between two probes to the quiet host's speed."""
    return PROBE_QUIET_S / ((before + after) / 2)


def end_to_end(args, workload, setup_s):
    """Measure for ``args.seconds``; return the metrics and the run's counts.

    The host this was tuned on has fast and slow states, because of its
    other tenants: fixed work runs up to 1.5 times as long in a slow state,
    a state lasts from a fraction of a second to over a minute, and the
    share of slow time swings from run to run.  So the operations are
    grouped into segments of SEGMENT_S with a ``probe`` between each two,
    and every operation's time is scaled by the factor that takes the
    probes on either side of it to PROBE_QUIET_S (see ``to_quiet``).  The
    engine's own times follow the probe's closely in either state (see
    README.md).  The unscaled whole-run figures are printed beside them.

    SETUPS more set-ups are spread over the run outside the operation
    timers, each between two probes and scaled likewise; setup_s is their
    median.  The cli workload makes its cold calls the same way.  A run
    that has a round size measures whole rounds only.
    """
    items = workload.items(random.Random(f"{args.seed}:ops"))
    for _ in range(workload.warm_ops):
        execute(workload, next(items))
    round_size = getattr(workload, "round_size", 1)
    whole = Tally()
    samples = Samples()
    setups, cold_times, cold_failures = [], [], []
    colds = workload.cold_commands if args.workload == "cli" else []
    chores = [command for _, command in sorted(
        [((i + 0.5) / SETUPS, None) for i in range(SETUPS)]
        + [((i + 0.25) / len(colds), command) for i, command in enumerate(colds)], key=lambda c: c[0])]
    chore_every = args.seconds / (len(chores) + 1)
    before = probe()
    paused = 0.0  # time spent on chores, which does not count against the run
    start = clock()
    next_chore = start + chore_every

    def over() -> bool:
        return clock() - paused - start >= args.seconds and whole.attempted % round_size == 0

    def chore(command, before: float) -> float:
        """A set-up (command None) or a cold call; returns the probe after it."""
        if command is None:
            seconds = set_up(args)[1]
            after = probe()
            setups.append(seconds * to_quiet(before, after))
            return after
        seconds, failure = workload.cold(command)
        cold_times.append(seconds)
        if failure:
            cold_failures.append(failure)
        return probe()

    while not over():
        if chores and clock() >= next_chore:
            pause = clock()
            before = chore(chores.pop(0), before)
            now = clock()
            paused += now - pause
            next_chore = now + chore_every
        segment_end = clock() + SEGMENT_S
        samples.open_segment()
        while True:  # a segment, and past the end of the run also the rest of a round
            item = next(items)
            run, verdict = execute(workload, item)
            samples.add(run.seconds, verdict.status == "ok")
            whole.add(item, run, verdict)
            if clock() >= segment_end and (clock() - paused - start < args.seconds or over()):
                break
        after = probe()
        samples.close_segment(to_quiet(before, after))
        before = after
    for command in chores:  # any the run ended before
        before = chore(command, before)
    peak_rss = peak_rss_mb()  # before the latencies are sorted
    if not whole.ok:
        raise RuntimeError(f"no operation succeeded: {whole.details}")
    rate, p50, (p, tail_value, beyond, n_ok) = samples.timings(scaled=True)
    raw_rate, raw_p50, raw_tail = samples.timings(scaled=False)
    scales = sorted(samples.scale)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": rate,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak_rss,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; the first took {setup_s:.6g} unscaled",
        "ops_per_s": f"{len(scales)} segments scaled by {scales[0]:.3f} to {scales[-1]:.3f}, "
                     f"median {statistics.median(scales):.3f}; unscaled {raw_rate:.6g}",
        "latency_p50_ms": f"unscaled {raw_p50 * 1e3:.6g}",
        "latency_tail_ms": f"p{p}, {beyond} of {n_ok} successful operations beyond it; "
                           f"unscaled {raw_tail[1] * 1e3:.6g}",
    }
    extra = {"error_ratio": (whole.failed / whole.attempted, "ratio", f"{whole.failed} of {whole.attempted}")}
    names = {"classic": "classic_per_s", "robinson": "robinson_per_s",
             "efficient": "efficient_per_s", "mm": "mm_per_s"}
    for part, name in names.items():
        if whole.part_seconds.get(part):
            extra[name] = (whole.part_ok[part] / whole.part_seconds[part], "1/s",
                           f"{whole.part_ok[part]} correct calls, unscaled")
    for family in ("wide", "shared", "deep"):
        calls = whole.family_calls.get(family)
        if calls:
            extra[f"{family}_p50_ms"] = (statistics.median(calls) * 1e3, "ms",
                                         f"{len(calls)} successful calls, unscaled")
    attempted, failed, wrong = whole.attempted, whole.failed, whole.wrong
    details = list(whole.details)
    if cold_times:
        extra["cli_cold_ms"] = (statistics.median(cold_times) * 1e3, "ms",
                                f"median of {len(cold_times)} subprocesses")
        attempted += len(cold_times)
        failed += len(cold_failures)
        wrong += len(cold_failures)
        details += cold_failures[:5]
    return metrics, notes, extra, attempted, failed, wrong, details


def traced(args, workload):
    items = list(islice(workload.items(random.Random(f"{args.seed}:ops")), workload.trace_ops))
    budgeted = hasattr(workload, "budget")
    if budgeted:  # tracing slows every call; an overrun would make the counts depend on timing
        workload.budget = workload.trace_budget_s
    tracer = Tracer(MAX_SPANS)
    tracer.install(workload.m)
    run_op = tracer.span(tracer.layer("op"), workload.run)
    runs = []
    try:
        for index, item in enumerate(items):
            tracer.op = index
            start = clock()
            try:
                runs.append(run_op(item))
            except Exception as err:  # noqa: BLE001 - judged as a failed operation below
                tracer.reset_stack()
                runs.append(Run(seconds=clock() - start, errors={"op": type(err).__name__}))
    finally:
        tracer.restore()
    unrestored = tracer.unrestored()
    if unrestored:
        raise RuntimeError(f"still wrapped after the traced run: {unrestored}")

    traced_tally = Tally()
    for item, run in zip(items, runs):
        if "op" in run.errors:
            traced_tally.add(item, run, Verdict(ERROR, detail=f"{run.errors['op']} in run"))
        else:
            traced_tally.add(item, run, judge(workload, item, run))
    if budgeted:
        workload.budget = workload.budget_s
    plain = Tally()
    for item in items:
        plain.add(item, *execute(workload, item))

    metrics = tracer.metrics()
    metrics["trace.traced_ops_per_s"] = traced_tally.rate
    metrics["trace.untraced_ops_per_s"] = plain.rate
    metrics["trace.overhead_x"] = metrics["trace.untraced_ops_per_s"] / metrics["trace.traced_ops_per_s"]
    path = HERE / "out" / f"spans-{args.workload}.jsonl"
    tracer.write_spans(path, {"workload": args.workload, "seed": args.seed,
                              "pythonhashseed": hash_seed(args.seed), "operations": len(items)})
    print(f"  {len(tracer.spans)} spans written to {path.relative_to(ROOT)} ({tracer.dropped} more not kept)")
    wrong = traced_tally.wrong + plain.wrong
    return metrics, traced_tally.attempted, traced_tally.failed, wrong, traced_tally.details


# -- entry point -------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mgu" / "__init__.py").is_file():
        print(f"error: no engine at {SRC / 'mgu'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    pinned = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != pinned:
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": pinned})
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    workload, setup_s = set_up(args)
    print(f"workload {args.workload}  seed {args.seed}  PYTHONHASHSEED {pinned}  "
          f"recursion limit {sys.getrecursionlimit()}  trace {args.trace}")
    if args.trace:
        metrics, attempted, failed, wrong, details = traced(args, workload)
        wanted = spec["per_layer"]
        notes, extra = {}, {}
    else:
        metrics, notes, extra, attempted, failed, wrong, details = end_to_end(args, workload, setup_s)
        wanted = spec["end_to_end"]
    result = {}
    for entry in wanted:
        value = metrics[entry["name"]]
        result[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<36} {value:>14.6g} {entry['unit']:<6} {notes.get(entry['name'], '')}")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")
    for line in details:
        print(f"  failed: {line}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
