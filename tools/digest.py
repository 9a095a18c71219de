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
- ``oracle.pairs``: ``solve_equations`` on every ordered pair;
- ``oracle.sets``: ``solve_equations`` on 20,000 random sets of 1-6
  equations over 8 variables and ``f/2 g/1 h/3 a b``, from a fixed seed;
- ``match``: ``match_terms`` on every ordered pair;
- ``positions``: ``positions_of`` on every term, ``occurrences`` on every
  ordered pair;
- ``surgery``: ``subterm_at`` and ``replace_at`` at every position of every
  term, and at one invalid position per term with the error message.

A run takes about 40 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import random
import sys
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

    out = Section("match")
    for s in universe:
        for t in universe:
            out.add(repr(mgu.match_terms(s, t)))
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

    for out in sections:
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
