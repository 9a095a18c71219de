"""The benchmark's four workloads: seeded inputs, timed calls, output checks.

A workload is built against one freshly imported engine (``mgu``, a
namespace holding its modules) and a seed, and offers:

- ``setup(rng)``: build the inputs the timed loop draws from;
- ``items(rng)``: an endless seeded stream of operation inputs;
- ``run(item)``: one operation's timed calls, as a ``Run``;
- ``check(item, run)``: the verdict on the outputs, taken outside any timer.

Library functions are looked up on their modules at call time, so that the
traced run sees the wrappers it installed.
"""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter as clock

OK, WRONG, ERROR, OVERRUN = "ok", "wrong", "error", "overrun"

ALGORITHMS = ("classic", "robinson", "efficient", "mm")

# The acceptance universe: every term of height <= 2 over f/2 g/1 a/0 b/0
# and the variables X, Y.
UNIVERSE_SIZE = 604
ACCEPT_VARS = ("X", "Y")
ACCEPT_SIG = {"f": 2, "g": 1, "a": 0, "b": 0}


@dataclass
class Run:
    """What one operation did: its timed calls and their raw results."""

    seconds: float = 0.0
    parts: dict[str, float] = field(default_factory=dict)  # per-algorithm call time
    results: dict[str, object] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)  # part -> exception name
    overrun: bool = False


@dataclass
class Verdict:
    status: str
    parts_ok: dict[str, bool] = field(default_factory=dict)
    detail: str = ""


def _call_parts(m, s, t, parts: dict[str, float], results: dict, errors: dict | None) -> None:
    """Run the pair through the three paper algorithms and the mm oracle, timing each.

    With ``errors`` given, an exception from one algorithm is recorded and
    the next one still runs; without it the exception propagates.
    """
    unify, oracle = m.unify, m.oracle
    calls = (
        ("classic", unify.classic_unify, (s, t)),
        ("robinson", unify.robinson_unify, (s, t)),
        ("efficient", unify.robinson_unify_efficient, (s, t)),
        ("mm", oracle.solve_equations, (oracle.EquationSet(((s, t),)),)),
    )
    for name, fn, args in calls:
        start = clock()
        try:
            results[name] = fn(*args)
        except Exception as err:  # noqa: BLE001 - any crash is a failed call
            if errors is None:
                raise
            errors[name] = type(err).__name__
        finally:
            parts[name] = clock() - start


def universe(m):
    bound = m.oracle.EnumBound(2, ACCEPT_VARS, m.terms.Signature(ACCEPT_SIG))
    terms = m.oracle.enum_terms(bound)
    if len(terms) != UNIVERSE_SIZE:
        raise RuntimeError(f"acceptance universe has {len(terms)} terms, expected {UNIVERSE_SIZE}")
    return terms


def balanced_tree(sig, leaves):
    """A balanced tree of binary ``f`` nodes over ``leaves``."""
    if len(leaves) == 1:
        return leaves[0]
    half = len(leaves) // 2
    return sig.app("f", balanced_tree(sig, leaves[:half]), balanced_tree(sig, leaves[half:]))


class Sweep:
    """Seeded ordered pairs of the acceptance universe through all four algorithms.

    Checks criteria 1 and 3: the four agree on the outcome, and classic,
    robinson and efficient return equal mgus.
    """

    warm_ops = 200
    trace_ops = 2000

    def __init__(self, m):
        self.m = m

    def setup(self, rng) -> None:
        self.universe = universe(self.m)

    def items(self, rng):
        u, n = self.universe, len(self.universe)
        while True:
            yield u[rng.randrange(n)], u[rng.randrange(n)]

    def run(self, item) -> Run:
        run = Run()
        _call_parts(self.m, *item, run.parts, run.results, None)
        run.seconds = sum(run.parts.values())
        return run

    def check(self, item, run: Run) -> Verdict:
        unified = self.m.unify.Unified
        r = run.results
        ok = {name: isinstance(r[name], unified) for name in ALGORITHMS}
        if len(set(ok.values())) != 1:
            return Verdict(WRONG, dict.fromkeys(ALGORITHMS, False), f"outcomes disagree {ok} on {item}")
        if ok["robinson"] and not (r["classic"].mgu == r["robinson"].mgu == r["efficient"].mgu):
            return Verdict(WRONG, dict.fromkeys(ALGORITHMS, False), f"mgus differ on {item}")
        return Verdict(OK, dict.fromkeys(ALGORITHMS, True))


class Certify:
    """Seeded unifiable universe pairs: robinson's mgu under criterion 2's four checks."""

    warm_ops = 20
    trace_ops = 200

    def __init__(self, m):
        self.m = m

    def setup(self, rng) -> None:
        self.universe = universe(self.m)
        self.bound = self.m.oracle.EnumBound(1, ACCEPT_VARS, self.m.terms.Signature(ACCEPT_SIG))

    def items(self, rng):
        u, n = self.universe, len(self.universe)
        robinson, unified = self.m.unify.robinson_unify, self.m.unify.Unified
        while True:
            s, t = u[rng.randrange(n)], u[rng.randrange(n)]
            if isinstance(robinson(s, t), unified):
                yield s, t

    def run(self, item) -> Run:
        m = self.m
        s, t = item
        start = clock()
        theta = m.unify.robinson_unify(s, t).mgu
        checks = {"unifier": m.unify.is_unifier(theta, s, t), "idempotent": theta.is_idempotent(),
                  "most_general": True, "fixed_point": True}
        for sigma in m.oracle.enumerated_unifiers(s, t, self.bound):
            checks["most_general"] = checks["most_general"] and m.substitution.more_general(theta, sigma)
            checks["fixed_point"] = checks["fixed_point"] and sigma == m.substitution.compose(sigma, theta)
        return Run(seconds=clock() - start, results=checks)

    def check(self, item, run: Run) -> Verdict:
        failed = [name for name, ok in run.results.items() if not ok]
        if failed:
            return Verdict(WRONG, detail=f"{failed} on {item}")
        return Verdict(OK)


class CaseOverrun(BaseException):
    """Raised by the per-case timer; a BaseException so no handler in the engine swallows it."""


def _on_alarm(signum, frame):
    raise CaseOverrun()


@dataclass(frozen=True)
class Case:
    family: str
    size: int
    s: object
    t: object
    mgu: object  # the known mgu, or None where only the outcome is known


class Stress:
    """Adversarial families at several seeded sizes, each case through all four algorithms.

    One round is nine cases: three sizes of each family.  Sizes were chosen
    so that the parent of this benchmark finishes every case well within
    the per-case budget; the deep chains of 500 and more fail there with
    ``RecursionError`` in the paper algorithms, and that failure is counted.
    """

    warm_ops = 0
    trace_ops = 9
    round_size = 9  # a run measures whole rounds only, so its share of failed cases is fixed
    budget_s = 2.0
    trace_budget_s = 60.0
    wide_leaves = (64, 128, 256)  # jittered by up to 1/16 either way
    shared_depths = (6, 8, 10)  # chains X_i = f(X_{i-1}, X_{i-1}), exponential as trees
    deep_ranges = ((100, 200), (500, 1000), (1000, 2000))

    def __init__(self, m):
        self.m = m
        self.budget = self.budget_s

    def setup(self, rng) -> None:
        self.sig = self.m.terms.Signature(ACCEPT_SIG)
        self.first_round = self.round(rng)  # later rounds are built outside the timers, as drawn

    # -- families -----------------------------------------------------------

    def _list(self, items):
        """Right-nested f-list of ``items``, closed by ``a``: pairs many equations into one."""
        out = self.sig.app("a")
        for item in reversed(items):
            out = self.sig.app("f", item, out)
        return out

    def wide(self, rng, leaves: int) -> Case:
        var = self.m.terms.Var
        names = [f"X{i}" for i in rng.sample(range(10 * leaves), leaves)]
        ground = [self.sig.app(rng.choice("ab")) for _ in range(leaves)]
        s, t = balanced_tree(self.sig, [var(x) for x in names]), balanced_tree(self.sig, ground)
        mgu = self.m.substitution.Subst(dict(zip(names, ground)))
        return self._orient(rng, Case("wide", leaves, s, t, mgu))

    def shared(self, rng, n: int) -> Case:
        var, f = self.m.terms.Var, self.sig.app
        x, y = rng.sample(("X", "Y", "U", "V", "W", "Z"), 2)
        xs = [var(f"{x}{i}") for i in range(n + 1)]
        ys = [var(f"{y}{i}") for i in range(n + 1)]
        s = self._list(xs[1:] + ys[1:] + [xs[n]])
        t = self._list([f("f", xs[i - 1], xs[i - 1]) for i in range(1, n + 1)]
                       + [f("f", ys[i - 1], ys[i - 1]) for i in range(1, n + 1)] + [ys[n]])
        return self._orient(rng, Case("shared", n, s, t, None))

    def deep(self, rng, lo: int, hi: int) -> Case:
        n = rng.randint(lo, hi)
        name = rng.choice(("X", "Y", "Z"))
        s, t = self.m.terms.Var(name), self.sig.app(rng.choice("ab"))
        mgu = self.m.substitution.Subst({name: t})
        for _ in range(n):
            s, t = self.sig.app("g", s), self.sig.app("g", t)
        return self._orient(rng, Case("deep", n, s, t, mgu))

    @staticmethod
    def _orient(rng, case: Case) -> Case:
        if rng.random() < 0.5:
            return Case(case.family, case.size, case.t, case.s, case.mgu)
        return case

    def round(self, rng) -> list[Case]:
        return [
            *(self.wide(rng, leaves + rng.randint(-leaves // 16, leaves // 16)) for leaves in self.wide_leaves),
            *(self.shared(rng, n) for n in self.shared_depths),
            *(self.deep(rng, lo, hi) for lo, hi in self.deep_ranges),
        ]

    def items(self, rng):
        yield from self.first_round
        while True:
            yield from self.round(rng)

    # -- one case -----------------------------------------------------------

    def run(self, case: Case) -> Run:
        run = Run()
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.budget)
        try:
            try:
                _call_parts(self.m, case.s, case.t, run.parts, run.results, run.errors)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except CaseOverrun:  # also when the timer fires while being disarmed
            run.overrun = True
        finally:
            signal.signal(signal.SIGALRM, previous)
        run.seconds = sum(run.parts.values())
        return run

    def check(self, case: Case, run: Run) -> Verdict:
        unified = self.m.unify.Unified
        if run.overrun:
            return Verdict(OVERRUN, dict.fromkeys(ALGORITHMS, False), f"> {self.budget} s")
        parts_ok = {}
        wrong = []
        reference = run.results.get("robinson")
        for name in ALGORITHMS:
            r = run.results.get(name)
            if r is None:
                parts_ok[name] = False
                continue
            good = isinstance(r, unified)
            if good and case.mgu is not None:
                good = r.mgu == case.mgu
            if good and isinstance(reference, unified):
                good = r.mgu == reference.mgu
            parts_ok[name] = good
            if not good:
                wrong.append(name)
        if wrong:
            return Verdict(WRONG, parts_ok, f"{wrong} wrong on {case.family} {case.size}")
        if run.errors:
            return Verdict(ERROR, parts_ok, f"{run.errors} on {case.family} {case.size}")
        return Verdict(OK, parts_ok)


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    stdout: str
    code: int


class Cli:
    """In-process ``mgu.cli.main`` calls over a seeded pool of commands.

    Every expected stdout is the library's own result formatted the CLI's
    way, computed while setting up.  A few cold ``python -m mgu.cli unify``
    subprocesses, started one at a time, measure start-up.

    The pool's make-up is the same for every seed, so that the mix of cheap
    and costly commands does not move the figures: every algorithm in every
    form, each utility equally often, and every fifth command on wide terms.
    The seed draws the terms.  The operations run the whole pool pass after
    pass, so every command runs about equally often.
    """

    warm_ops = 20
    trace_ops = 300
    pool_size = 960
    cold_calls = 10
    wide_every = 5
    # One cycle: unify with every algorithm in every form, then each utility twice.
    schedule = (
        [("unify", algorithm, form) for algorithm in ALGORITHMS for form in ("text", "structured", "trace")]
        + [(kind, None, None) for kind in ("apply", "compose", "match", "positions", "subterm", "replace") * 2]
    )

    def __init__(self, m, root):
        self.m = m
        self.root = root
        self.sig_path = str(root / "perfbench" / "accept.sig")

    def setup(self, rng) -> None:
        self.universe = universe(self.m)
        self.sig = self.m.terms.Signature(ACCEPT_SIG)
        self.pool = [
            self._command(rng, *self.schedule[i % len(self.schedule)], wide=i % self.wide_every == 0)
            for i in range(self.pool_size)
        ]
        small = [c for c in self.pool if c.argv[0] == "unify" and max(map(len, c.argv[1:3])) < 40]
        self.cold_commands = [rng.choice(small) for _ in range(self.cold_calls)]

    # -- inputs ---------------------------------------------------------------

    def _term(self, rng, wide: bool):
        if wide:
            leaves = rng.randint(16, 64)
            var = self.m.terms.Var
            pool = [var("X"), var("Y"), var("Z"), self.sig.app("a"), self.sig.app("b")]
            return balanced_tree(self.sig, [rng.choice(pool) for _ in range(leaves)])
        return rng.choice(self.universe)

    def _subst(self, rng):
        table = {}
        for name in rng.sample(("X", "Y", "Z"), rng.randint(0, 3)):
            image = rng.choice(self.universe)
            if not (isinstance(image, self.m.terms.Var) and image.name == name):
                table[name] = image
        return self.m.substitution.Subst(table)

    def _position(self, rng, term):
        p = rng.choice(self.m.terms.positions_of(term))
        if rng.random() < 0.1:  # one past the last child: an invalid position, exit code 1
            p += (len(getattr(self.m.terms.subterm_at(term, p), "args", ())) + 1,)
        return p

    def _command(self, rng, kind: str, algorithm: str | None, form: str | None, wide: bool) -> Command:
        T = self.m.terms
        fmt, fpos = T.format_term, T.format_position
        if kind == "unify":
            return self._unify(rng, algorithm, form, wide)
        sig = ("--sig", self.sig_path)
        if kind == "apply":
            subst, term = self._subst(rng), self._term(rng, wide)
            return Command(("apply", str(subst), fmt(term)) + sig, fmt(subst.apply(term)) + "\n", 0)
        if kind == "compose":
            first, second = self._subst(rng), self._subst(rng)
            out = str(self.m.substitution.compose(first, second))
            return Command(("compose", str(first), str(second)) + sig, out + "\n", 0)
        if kind == "match":
            pattern = self._term(rng, wide)
            target = self._subst(rng).apply(pattern) if rng.random() < 0.7 else self._term(rng, wide)
            outcome = self.m.substitution.match_terms(pattern, target)
            if isinstance(outcome, self.m.substitution.Matched):
                out, code = f"{outcome.witness}\n", 0
            else:
                out, code = f"no match: {outcome.reason} at {fpos(outcome.at)}\n", 1
            return Command(("match", fmt(pattern), fmt(target)) + sig, out, code)
        term = self._term(rng, wide)
        if kind == "positions":
            out = " ".join(fpos(p) for p in T.positions_of(term))
            return Command(("positions", fmt(term)) + sig, out + "\n", 0)
        p = self._position(rng, term)
        valid = T.is_valid_position(term, p)
        if kind == "subterm":
            out = fmt(T.subterm_at(term, p)) + "\n" if valid else ""
            return Command(("subterm", fmt(term), fpos(p)) + sig, out, 0 if valid else 1)
        replacement = rng.choice(self.universe)
        out = fmt(T.replace_at(term, p, replacement)) + "\n" if valid else ""
        return Command(("replace", fmt(term), fpos(p), fmt(replacement)) + sig, out, 0 if valid else 1)

    def _unify(self, rng, algorithm: str, form: str, wide: bool) -> Command:
        m = self.m
        U = m.unify
        s, t = self._term(rng, wide), self._term(rng, wide)
        steps = []
        if algorithm == "mm":
            outcome = m.oracle.solve_equations(m.oracle.EquationSet(((s, t),)))
        else:
            fn = {"classic": U.classic_unify, "robinson": U.robinson_unify,
                  "efficient": U.robinson_unify_efficient}[algorithm]
            outcome = fn(s, t, steps.append)
        lines = [U.format_trace_step(ts) for ts in steps] if form == "trace" else []
        if isinstance(outcome, U.Unified):
            code = 0
            if form == "structured":
                lines += ["status: unified", f"mgu: {outcome.mgu}", f"steps: {outcome.steps}"]
            else:
                lines.append(f"result: {outcome.mgu}" if form == "trace" else str(outcome.mgu))
        else:
            code, cause = 1, outcome.cause
            if form == "structured":
                lines.append("status: fail")
                if isinstance(cause, U.Clash):
                    lines += ["cause: clash", f"left: {cause.left}", f"right: {cause.right}"]
                else:
                    lines += ["cause: occurs", f"variable: {cause.variable}",
                              f"term: {m.terms.format_term(cause.term)}"]
                lines.append(f"position: {m.terms.format_position(cause.position)}")
            else:
                lines.append(f"fail: {U.describe_failure(cause)}")
        argv = ("unify", m.terms.format_term(s), m.terms.format_term(t), "--algorithm", algorithm,
                "--sig", self.sig_path)
        argv += {"text": (), "structured": ("--output", "structured"), "trace": ("--trace",)}[form]
        return Command(argv, "".join(line + "\n" for line in lines), code)

    # -- operations -----------------------------------------------------------

    def items(self, rng):
        """The whole pool over and over, each pass in a fresh seeded order."""
        while True:
            order = list(self.pool)
            rng.shuffle(order)
            yield from order

    def run(self, command: Command) -> Run:
        out, err = io.StringIO(), io.StringIO()
        main = self.m.cli.main
        start = clock()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(command.argv))
        run = Run(seconds=clock() - start)
        run.results = {"stdout": out.getvalue(), "stderr": err.getvalue(), "code": code}
        return run

    def check(self, command: Command, run: Run) -> Verdict:
        r = run.results
        if r["stdout"] != command.stdout or r["code"] != command.code or "Traceback" in r["stderr"]:
            return Verdict(WRONG, detail=f"{command.argv}: exit {r['code']}, stdout {r['stdout'][:200]!r}")
        return Verdict(OK)

    def cold(self, command: Command) -> tuple[float, str | None]:
        """Run one command as a cold subprocess; returns its wall time and a failure, if any."""
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        start = clock()
        proc = subprocess.run([sys.executable, "-m", "mgu.cli", *command.argv], cwd=self.root, env=env,
                              capture_output=True, text=True, timeout=60)
        seconds = clock() - start
        if proc.stdout != command.stdout or proc.returncode != command.code or proc.stderr:
            return seconds, f"cold {command.argv}: exit {proc.returncode}, stderr {proc.stderr[-200:]!r}"
        return seconds, None
