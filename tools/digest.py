"""Digest the engine's outputs on fixed inputs, to compare two checkouts.

    python3 tools/digest.py [--src DIR]

imports ``mgu`` from ``DIR`` (default: ``src`` of this checkout) and prints
one line per section, ``section count sha256``: the number of output lines
the section produced and the digest of those lines.  Two checkouts that
print the same lines agree on every input below; a differing line names the
section to look into.  Stdlib only; the sections cover the 604-term
acceptance universe (height <= 2 over ``f/2 g/1 a b`` and ``X``, ``Y``) and
seeded random equation sets:

- ``unify.<algorithm>``: classic, robinson and efficient on every ordered
  pair, run with a trace: the outcome's ``repr`` and every
  ``format_trace_step`` line;
- ``unify.families``: the same three, traced, on seeded large pairs of four
  shapes: wide (balanced trees of up to 1,024 leaves), flat (one symbol
  over up to 256 arguments), shared (the chains ``X_i = f(X_{i-1},
  X_{i-1})`` up to 12: their images print as trees of 2^n nodes) and deep
  (``g`` chains up to 2,000); each line is prefixed with the algorithm's
  name;
- ``oracle.pairs``: ``solve_equations`` on every ordered pair;
- ``oracle.sets``: ``solve_equations`` on 20,000 random sets of 1-6
  equations over 8 variables and ``f/2 g/1 h/3 a b``, from a fixed seed;
- ``oracle.long``: ``solve_equations`` on 2,000 seeded sets of 17-40
  equations over 12 variables, more than it scans without its index, and
  on the pairs of ``unify.families``;
- ``match``: ``match_terms`` on every ordered pair;
- ``walks``: ``Subst.applied_equal`` and ``match_terms`` on the pairs of
  ``unify.families``, whose terms are larger than those of ``match`` and
  ``substitution`` (see ``walk_lines``);
- ``positions``: ``positions_of`` on every term, ``occurrences`` on every
  ordered pair;
- ``surgery``: ``subterm_at`` and ``replace_at`` at every position of every
  term, and at one invalid position per term with the error message;
- ``parse``: ``mgu.cli.parse_term`` and ``parse_subst`` on 20,000 seeded
  texts over ``f/2 g/1 h/3 a b``, valid and mutated, all under 900 levels
  (see ``parse_inputs``): the input, then the result printed or the exact
  ``ParseError`` message.  ``parse_lines`` with other seeds and counts
  gives a larger comparison;
- ``enumerated``: ``enumerated_unifiers`` at height 1 on 20,000 seeded
  ordered pairs of the universe;
- ``substitution``: ``Subst.apply``, ``compose``, ``applied_equal`` and
  ``more_general`` both ways on 20,000 seeded cases of two substitutions
  over ``X``, ``Y`` and ``Z`` with universe images and two universe terms
  (see ``substitution_lines``);
- ``cli``: ``mgu.cli.main`` in-process, with ``COLUMNS`` pinned, on the
  argument lists of ``cli_argvs`` (the golden inputs under every algorithm
  and output form, and argparse's edges: help, abbreviations, ``--``,
  missing, extra and unknown arguments, bad choices, an option before the
  subcommand, unknown subcommands, lists at the edge of the plain form
  that ``main`` reads itself) and on 600 seeded ``unify`` (every
  algorithm and form) and utility commands over the universe: the argument
  list, then the exit code, stdout and stderr.

A run takes about a minute on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


class Section:
    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.hash = hashlib.sha256()

    def add(self, line: str) -> None:
        self.count += 1
        self.hash.update(line.encode("utf-8") + b"\n")

    def __str__(self) -> str:
        return f"{self.name} {self.count} {self.hash.hexdigest()}"


def random_term(rng: random.Random, app, variables, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.6:
            return rng.choice(variables)
        return app(rng.choice("ab"))
    symbol = rng.choice("fgh")
    n = {"f": 2, "g": 1, "h": 3}[symbol]
    return app(symbol, *(random_term(rng, app, variables, depth - 1) for _ in range(n)))


def families(mgu, rng: random.Random):
    """Seeded wide, flat, shared and deep pairs, each in both orientations.

    Leaves mix a small pool of variables (so that some repeat), constants
    and ``g`` of a variable, and one side is often an instance of the
    other, so that pairs unify in many steps or fail at varied depths.
    """
    sig = mgu.Signature({"a": 0, "b": 0, "f": 2, "g": 1})
    pool = [mgu.Var(x) for x in ("V", "W", "X", "Y", "Z")]

    def leaf():
        k = rng.randrange(8)
        return pool[k] if k < 5 else sig.app("g", rng.choice(pool)) if k == 5 else sig.app("ab"[k - 6])

    def leaves(n, fresh):
        return [mgu.Var(f"X{i}") if fresh and rng.random() < 0.8 else leaf() for i in range(n)]

    def against(items):
        if rng.random() < 0.25:
            return leaves(len(items), False)
        names = sorted(set().union(*(u.vars for u in items)))
        sigma = mgu.Subst({x: leaf() for x in names if rng.random() < 0.7})
        odd = rng.choice((0, 0.002, 0.02))
        return [leaf() if rng.random() < odd else sigma.apply(u) for u in items]

    def tree(items):
        while len(items) > 1:
            items = [sig.app("f", *items[i:i + 2]) if i + 1 < len(items) else items[i]
                     for i in range(0, len(items), 2)]
        return items[0]

    def f_list(items):
        out = sig.app("a")
        for item in reversed(items):
            out = sig.app("f", item, out)
        return out

    cases = []
    for n in (2, 16, 128, 1024):
        for fresh in (True, False):
            items = leaves(n, fresh)
            cases.append((tree(items), tree(against(items))))
    for n in (1, 8, 64, 256):
        for fresh in (True, False):
            items = leaves(n, fresh)
            cases.append((mgu.App("k", items), mgu.App("k", against(items))))
    for n in (1, 4, 8, 12):
        for _ in range(2):
            xs = [mgu.Var(f"X{i}") for i in range(n + 1)]
            ys = [mgu.Var(f"Y{i}") for i in range(n + 1)]
            ends = [xs[n], ys[n], xs[0], sig.app("a"), sig.app("g", ys[n])]
            s = f_list(xs[1:] + ys[1:] + [rng.choice(ends)])
            t = f_list([sig.app("f", u, u) for u in xs[:-1] + ys[:-1]] + [rng.choice(ends)])
            cases.append((s, t))
    for n in (10, 200, 2000):
        for _ in range(2):
            s, t = leaf(), leaf()
            for _ in range(n):
                s, t = sig.app("g", s), sig.app("g", t)
            cases.append((sig.app("f", s, leaf()), sig.app("f", t, leaf())))
    return cases + [(t, s) for s, t in cases]


def long_systems(mgu, rng: random.Random, count: int):
    """Seeded sets of 17 to 40 equations over twelve variables, more than
    ``solve_equations`` scans without its index.

    Each equation is a term against its instance under one substitution
    per set, whose images hold variables, or, now and then, an unrelated
    pair.  Images over the six variables outside its domain make the
    substitution idempotent and the instances unify; images over all
    twelve bring occurs checks, and the unrelated pairs clashes.
    """
    sig = mgu.Signature({"a": 0, "b": 0, "f": 2, "g": 1, "h": 3})
    variables = [mgu.Var(f"X{i}") for i in range(12)]
    for _ in range(count):
        pool = variables if rng.random() < 0.5 else variables[6:]
        sigma = mgu.Subst({x.name: random_term(rng, sig.app, pool, 1)
                           for x in variables[:6] if rng.random() < 0.7})
        eqs = []
        for _ in range(rng.randint(17, 40)):
            u = random_term(rng, sig.app, variables, 2)
            v = random_term(rng, sig.app, variables, 2) if rng.random() < 0.03 else sigma.apply(u)
            eqs.append((u, v) if rng.random() < 0.5 else (v, u))
        yield eqs


# Tokens that mutations insert: the grammar's own, names declared or not,
# names that are neither variables nor symbols, whitespace and characters
# no token takes (a digit, a lone '>').
_NOISE = ("(", ")", ",", "{", "}", "->", "-", ">", " ", "\u2003", "f", "g", "h", "a", "a1", "k",
          "X", "?v", "?", "_", "_x", "1", "\u00e9", "+")


def parse_inputs(rng: random.Random, count: int):
    """Seeded ``("term", text)`` and ``("subst", text)`` inputs for the CLI's
    parsers over ``f/2 g/1 h/3 a b``.

    Each is a valid text, spaced at random and spelling constants ``a`` or
    ``a()``, half of them then mutated: tokens deleted, inserted, replaced
    or repeated, or the text cut short.  A tenth sit under a chain of up
    to 850 ``g``-levels, so every input stays under 900 levels.
    """

    def term(depth: int) -> list[str]:
        if depth == 0 or rng.random() < 0.3:
            k = rng.random()
            if k < 0.6:
                return [rng.choice(("X", "Y", "Z", "?v"))]
            return [rng.choice("ab")] + (["(", ")"] if k > 0.9 else [])
        symbol = rng.choice("fgh")
        out = [symbol, "("]
        for i in range({"f": 2, "g": 1, "h": 3}[symbol]):
            out += [","] * (i > 0) + term(depth - 1)
        return out + [")"]

    def deep(tokens: list[str]) -> list[str]:
        n = rng.randrange(1, 851) if rng.random() < 0.1 else 0
        return ["g", "("] * n + tokens + [")"] * n

    for _ in range(count):
        if rng.random() < 0.6:
            kind, tokens = "term", deep(term(3))
        else:
            kind, tokens = "subst", ["{"]
            for i in range(rng.randrange(4)):
                tokens += [","] * (i > 0) + [rng.choice(("X", "Y", "Z", "?v")), "->"] + deep(term(2))
            tokens.append("}")
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                i = rng.randrange(len(tokens) + 1)
                edit = rng.randrange(5)
                if edit == 0:
                    del tokens[i:i + 1]
                elif edit == 1:
                    tokens.insert(i, rng.choice(_NOISE))
                elif edit == 2:
                    tokens[i:i + 1] = [rng.choice(_NOISE)]
                elif edit == 3:
                    tokens[i:i] = tokens[i:i + rng.randint(1, 4)]
                else:
                    del tokens[i:]
        text = "".join(tok + rng.choice(("", "", "", " ", "\t", "\u2003")) for tok in tokens)
        yield kind, text


def parse_lines(mgu, rng: random.Random, count: int):
    """One line per input of ``parse_inputs``: the input, then the parsed
    term or substitution, printed, or the exact ``ParseError`` message."""
    cli = importlib.import_module("mgu.cli")
    sig = mgu.Signature({"a": 0, "b": 0, "f": 2, "g": 1, "h": 3})
    for kind, text in parse_inputs(rng, count):
        try:
            result = str(cli.parse_term(text, sig) if kind == "term" else cli.parse_subst(text, sig))
        except cli.ParseError as err:
            result = f"error: {err}"
        yield f"{kind} {text!r} {result}"


def substitution_lines(mgu, universe, rng: random.Random, count: int):
    """One line per seeded case of ``sigma``, ``tau``, ``s`` and ``t``: the
    inputs, ``sigma.apply(s)``, ``compose(sigma, tau)``,
    ``sigma.applied_equal(s, t)`` and ``more_general`` both ways.

    Half the ``tau`` are ``sigma`` with a further substitution composed
    after it, so that ``sigma`` is more general; half the ``t`` are ``s``
    under ``tau``, so that some pairs become equal under ``sigma``.
    """

    def subst():
        return mgu.Subst({x: rng.choice(universe) for x in ("X", "Y", "Z") if rng.random() < 0.5})

    for _ in range(count):
        sigma, tau = subst(), subst()
        if rng.random() < 0.5:
            tau = mgu.compose(tau, sigma)
        s = rng.choice(universe)
        t = tau.apply(s) if rng.random() < 0.5 else rng.choice(universe)
        yield " ".join(map(str, (
            sigma, tau, s, t, sigma.apply(s), mgu.compose(sigma, tau),
            sigma.applied_equal(s, t), mgu.more_general(sigma, tau), mgu.more_general(tau, sigma),
        )))


def walk_lines(mgu, cases, rng: random.Random):
    """Two lines per pair ``(s, t)`` of ``cases``: under its mgu (the
    identity if it has none), then under that substitution with one binding
    changed, ``sigma.applied_equal(s, t)`` and ``match_terms(s,
    sigma.apply(t))``, after the name of the variable whose binding changed.

    The changed image is ``a``, ``g`` of the old image or another binding's
    image, so the pair mostly stops being equal and the match fails at a
    position that depends on the walk's order.
    """
    sig = mgu.Signature({"a": 0, "b": 0, "f": 2, "g": 1})
    for s, t in cases:
        outcome = mgu.robinson_unify_efficient(s, t)
        sigma = outcome.mgu if isinstance(outcome, mgu.Unified) else mgu.identity()
        names = sorted(s.vars | t.vars)
        x = rng.choice(names) if names else None
        table = dict(sigma.items())
        if x is not None:
            old = sigma.get(x)
            table[x] = rng.choice((sig.app("a"), sig.app("g", old), *table.values()))
        for name, tau in (("-", sigma), (x, mgu.Subst(table))):
            yield f"{name} {tau.applied_equal(s, t)} {mgu.match_terms(s, tau.apply(t))!r}"


# Stands for the signature file (``f/2 g/1 a/0 b/0``) in a CLI argument
# list, so that a printed list does not depend on where the file is.
SIG = "<sig>"
SIG_TEXT = "f/2\ng/1\na/0\nb/0\n"
ALGORITHMS = ("classic", "robinson", "efficient", "mm")
FORMS = ((), ("--output", "structured"), ("--trace",), ("--trace", "--output", "structured"))
UTILITIES = ("positions", "subterm", "replace", "apply", "compose", "match")

# The inputs of the CLI's golden tests (``TestGolden`` in tests/test_cli.py).
_GOLDEN_PAIRS = (("f(X, g(Y))", "f(g(Z), X)"), ("f(X, a)", "f(b, X)"), ("f(X, Y)", "f(Y, g(X))"),
                 ("f(X", "a"), ("h(X)", "X"))
_GOLDEN_UTILS = (
    ("positions", "f(X, g(a))"), ("positions", "f(X, g(a)"),
    ("subterm", "f(X, g(a))", "2.1"), ("subterm", "f(X, g(a))", "1.1"), ("subterm", "f(X, g(a))", "0"),
    ("subterm", "f(X", "0"), ("subterm", "f(X, g(a))", "\u0661"),
    ("replace", "f(X, g(a))", "2.1", "b"), ("replace", "f(X, g(a))", "3", "b"),
    ("replace", "f(X, g(a))", "1", "c"), ("replace", "f(X, g(a))", "x", "c"),
    ("apply", "{X -> a}", "f(X, Y)"), ("apply", "{a -> b}", "X"), ("apply", "{X -> a}", "f(X)"),
    ("compose", "{X -> a}", "{Y -> f(X, X)}"), ("compose", "{X -> a", "{}"),
    ("match", "g(X)", "g(f(a, b))"), ("match", "f(X, X)", "f(a, b)"), ("match", "g(a)", "g(b)"),
    ("match", "f(a)", "g(a)"),
)
# Where argparse's dispatch has edges: help, abbreviations, '--', repeated,
# missing, extra and unknown arguments, bad choices, an option before the
# subcommand, and subcommands that do not exist; and, last, argument lists
# at the edge of the plain form that ``mgu.cli`` reads without argparse.
_CLI_EDGES = (
    (), ("-h",), ("--help",), ("-x",), ("--sig", SIG), ("--sig", SIG, "unify", "X", "a"),
    ("nope", "X"), ("unif", "X", "a"), ("Unify", "X", "a"), ("--", "unify", "X", "a"),
    *((command, flag) for command in ("unify", *UTILITIES) for flag in ("-h", "--help")),
    ("unify", "X", "a", "--he"), ("unify", "X", "-h", "a", "--nope"), ("positions", "--h"),
    ("unify", "f(X, g(Y))", "f(g(Z), X)", f"--sig={SIG}"),
    ("unify", "f(X, a)", "f(b, X)", "--si", SIG, "--alg", "mm", "--tr", "--out", "structured"),
    ("unify", "f(X, a)", "f(b, X)", "--al=classic", f"--s={SIG}", "--tr"),
    ("unify", "f(X, Y)", "f(Y, g(X))", "--alg", "eff", "--sig", SIG),
    ("unify", "--sig", SIG, "--", "f(X, g(Y))", "f(g(Z), X)"),
    ("unify", "f(X, g(Y))", "--", "f(g(Z), X)", "--sig", SIG),
    ("unify", "--", "X", "--", "a"), ("unify", "X", "a", "--"), ("subterm", "--", "-1", "e"),
    ("unify", "X", "a", "--algorithm", "classic", "--algorithm", "mm", "--sig", SIG),
    ("unify", "X", "a", "--sig", "missing.sig", "--sig", SIG, "--trace", "--trace"),
    ("unify", "X", "--sig", SIG), ("unify",), ("subterm", "f(X, g(a))", "--sig", SIG), ("match",),
    ("unify", "X", "a", "b", "--sig", SIG), ("positions", "a", "b", "c", "--sig", SIG),
    ("unify", "X", "a", "--nope", "--sig", SIG), ("apply", "{}", "X", "--nope=1", "--sig", SIG, "more"),
    ("compose", "{}", "{}", "-n", "--n", "--output=text"),
    ("unify", "X", "a", "--algorithm", "nope"), ("unify", "X", "a", "--algorithm"),
    ("unify", "X", "a", "--output", "json"), ("match", "X", "a", "--output", "json", "--sig", SIG),
    ("unify", "X", "a", "--trace=1"), ("compose", "{}", "{}", "--output"),
    ("positions", "X", "--algorithm", "mm"), ("apply", "{}", "X", "--trace"),
    ("positions", "", "--sig", SIG), ("positions", "-", "--sig", SIG),
    ("subterm", "f(X, g(a))", "-1", "--sig", SIG), ("unify", "-X a", "a", "--sig", SIG),
    ("unify", "X", "a", "--sig", "--trace"),
    ("positions", "a", "--output", "text", "--output", "structured", "--sig", SIG),
)


def cli_argvs():
    """The fixed CLI argument lists: the golden inputs under every algorithm
    and output form, then ``_CLI_EDGES``; ``SIG`` stands for the file."""
    for s, t in _GOLDEN_PAIRS:
        for algorithm in ALGORITHMS:
            for trace in ((), ("--trace",)):
                for output in ("text", "structured"):
                    yield ("unify", s, t, *trace, "--output", output, "--algorithm", algorithm, "--sig", SIG)
    for argv in _GOLDEN_UTILS:
        for output in ("text", "structured"):
            yield (*argv, "--output", output, "--sig", SIG)
    yield from _CLI_EDGES


def cli_commands(mgu, universe, rng: random.Random, count: int):
    """Seeded CLI argument lists over the universe: ``unify`` under every
    algorithm in every form, then each utility, in turn.  A tenth of the
    positions are one past the last child, which is invalid."""
    fmt, fpos = mgu.format_term, mgu.format_position
    schedule = [("unify", algorithm, form) for algorithm in ALGORITHMS for form in FORMS]
    schedule += [(utility, None, FORMS[k]) for utility in UTILITIES for k in (0, 1)]

    def subst():
        return str(mgu.Subst({x: rng.choice(universe) for x in ("X", "Y", "Z") if rng.random() < 0.5}))

    def position(t):
        p = rng.choice(mgu.positions_of(t))
        if rng.random() < 0.1:
            p += (len(getattr(mgu.subterm_at(t, p), "args", ())) + 1,)
        return fpos(p)

    for i in range(count):
        kind, algorithm, form = schedule[i % len(schedule)]
        s, t = rng.choice(universe), rng.choice(universe)
        if kind == "unify":
            args = (fmt(s), fmt(t), "--algorithm", algorithm)
        elif kind == "positions":
            args = (fmt(s),)
        elif kind == "subterm":
            args = (fmt(s), position(s))
        elif kind == "replace":
            args = (fmt(s), position(s), fmt(t))
        elif kind == "apply":
            args = (subst(), fmt(s))
        elif kind == "compose":
            args = (subst(), subst())
        else:
            args = (fmt(s), fmt(mgu.Subst({"X": t}).apply(s)) if rng.random() < 0.7 else fmt(t))
        yield (kind, *args, *form, "--sig", SIG)


def cli_lines(argvs):
    """One line per argument list: the list, then the exit code, stdout and
    stderr of ``mgu.cli.main`` on it, with ``SIG`` a file of ``SIG_TEXT``
    (and its path printed as ``SIG``) and help formatted for 80 columns."""
    cli = importlib.import_module("mgu.cli")
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "digest.sig")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(SIG_TEXT)
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([arg.replace(SIG, path) for arg in argv])
            line = f"{list(argv)!r} {code} {out.getvalue()!r} {err.getvalue()!r}"
            yield line.replace(path, SIG)


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", default=str(here / "src"), help="directory holding the mgu package")
    args = parser.parse_args(argv)

    sys.path.insert(0, args.src)
    mgu = importlib.import_module("mgu")
    if not Path(mgu.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"error: mgu was imported from {mgu.__file__}, not from {args.src}", file=sys.stderr)
        return 2

    sig = mgu.Signature({"a": 0, "b": 0, "f": 2, "g": 1})
    universe = mgu.enum_terms(mgu.EnumBound(2, ("X", "Y"), sig))
    sections = []

    for name, unify in (
        ("classic", mgu.classic_unify),
        ("robinson", mgu.robinson_unify),
        ("efficient", mgu.robinson_unify_efficient),
    ):
        out = Section(f"unify.{name}")
        for s in universe:
            for t in universe:
                lines: list[str] = []
                outcome = unify(s, t, lambda ts: lines.append(mgu.format_trace_step(ts)))
                for line in lines:
                    out.add(line)
                out.add(repr(outcome))
        sections.append(out)

    out = Section("unify.families")
    for s, t in families(mgu, random.Random(1)):
        for name, unify in (
            ("classic", mgu.classic_unify),
            ("robinson", mgu.robinson_unify),
            ("efficient", mgu.robinson_unify_efficient),
        ):
            lines = []
            outcome = unify(s, t, lambda ts: lines.append(mgu.format_trace_step(ts)))
            for line in lines:
                out.add(f"{name} {line}")
            out.add(f"{name} {outcome!r}")
    sections.append(out)

    out = Section("oracle.pairs")
    for s in universe:
        for t in universe:
            out.add(repr(mgu.solve_equations(mgu.EquationSet(((s, t),)))))
    sections.append(out)

    out = Section("oracle.sets")
    rng = random.Random(0)
    variables = [mgu.Var(f"X{i}") for i in range(1, 9)]
    big = mgu.Signature({"a": 0, "b": 0, "f": 2, "g": 1, "h": 3})
    for _ in range(20_000):
        eqs = [
            (random_term(rng, big.app, variables, 3), random_term(rng, big.app, variables, 3))
            for _ in range(rng.randint(1, 6))
        ]
        out.add(repr(mgu.solve_equations(mgu.EquationSet(eqs))))
    sections.append(out)

    out = Section("oracle.long")
    for eqs in long_systems(mgu, random.Random(2), 2_000):
        out.add(repr(mgu.solve_equations(mgu.EquationSet(eqs))))
    for s, t in families(mgu, random.Random(1)):
        out.add(repr(mgu.solve_equations(mgu.EquationSet(((s, t),)))))
    sections.append(out)

    out = Section("match")
    for s in universe:
        for t in universe:
            out.add(repr(mgu.match_terms(s, t)))
    sections.append(out)

    out = Section("walks")
    for line in walk_lines(mgu, families(mgu, random.Random(1)), random.Random(7)):
        out.add(line)
    sections.append(out)

    out = Section("positions")
    for s in universe:
        out.add(repr(mgu.positions_of(s)))
        for t in universe:
            out.add(repr(mgu.occurrences(s, t)))
    sections.append(out)

    out = Section("surgery")
    for k, t in enumerate(universe):
        replacement = universe[(k * 7 + 3) % len(universe)]
        positions = mgu.positions_of(t)
        for p in positions + [positions[-1] + (1, 1)]:
            for op, rest in ((mgu.subterm_at, ()), (mgu.replace_at, (replacement,))):
                try:
                    out.add(repr(op(t, p, *rest)))
                except mgu.InvalidPositionError as err:
                    out.add(f"{err} {err.prefix}")
    sections.append(out)

    out = Section("parse")
    for line in parse_lines(mgu, random.Random(3), 20_000):
        out.add(line)
    sections.append(out)

    out = Section("enumerated")
    rng = random.Random(4)
    height_1 = mgu.EnumBound(1, ("X", "Y"), sig)
    for _ in range(20_000):
        s, t = rng.choice(universe), rng.choice(universe)
        out.add(" ".join(map(str, mgu.enumerated_unifiers(s, t, height_1))))
    sections.append(out)

    out = Section("substitution")
    for line in substitution_lines(mgu, universe, random.Random(5), 20_000):
        out.add(line)
    sections.append(out)

    out = Section("cli")
    for line in cli_lines([*cli_argvs(), *cli_commands(mgu, universe, random.Random(6), 600)]):
        out.add(line)
    sections.append(out)

    for out in sections:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
