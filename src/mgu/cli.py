"""Command line front end: parse signatures, terms and substitutions, run a
unification algorithm, and expose the term/substitution utilities.

Exit codes: 0 for a successful result, 1 when the domain says no (not
unifiable, invalid position, no match), 2 for any input error, input
nested too deeply for the parser, ``positions`` or ``match`` included:
these recurse once per level; the unification algorithms and printing do
not.

``main`` builds its argument parser once per process, on its first call,
and shares it with every later call: parsing leaves the parser unchanged,
and usage and help are formatted when they are printed.  ``build_parser``
still returns a fresh parser for callers that want their own.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

from .oracle import EquationSet, solve_equations
from .substitution import Matched, Subst, compose, match_terms
from .terms import (
    App,
    InvalidPositionError,
    Signature,
    Term,
    Var,
    format_position,
    format_term,
    is_symbol_name,
    is_variable_name,
    parse_position,
    positions_of,
    replace_at,
    subterm_at,
)
from .unify import (
    Clash,
    TraceFn,
    TraceStep,
    Unified,
    UnifyOutcome,
    classic_unify,
    describe_failure,
    format_trace_step,
    robinson_unify,
    robinson_unify_efficient,
)

SIG_ENV_VAR = "MGU_SIG"

# Each entry looks its engine function up when it is called, so that a
# function rebound on this module (by a tracer, say) is the one that runs.
_UNIFIERS: dict[str, Callable[[Term, Term, TraceFn | None], UnifyOutcome]] = {
    "classic": lambda s, t, trace: classic_unify(s, t, trace),
    "robinson": lambda s, t, trace: robinson_unify(s, t, trace),
    "efficient": lambda s, t, trace: robinson_unify_efficient(s, t, trace),
    "mm": lambda s, t, trace: solve_equations(EquationSet(((s, t),))),
}
ALGORITHMS = tuple(_UNIFIERS)


class ParseError(ValueError):
    pass


@dataclass
class SessionConfig:
    signature_path: str | None = None
    algorithm: str = "robinson"
    trace: bool = False
    output: str = "text"


def parse_signature(text: str) -> Signature:
    """One ``name/arity`` declaration per line; '#' starts a comment."""
    pairs: list[tuple[str, int]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"([A-Za-z_?][A-Za-z0-9_]*)\s*/\s*(\d+)", line)
        if m is None:
            raise ParseError(f"line {lineno}: expected 'name/arity', got {line!r}")
        name, arity = m.group(1), int(m.group(2))
        if not is_symbol_name(name):
            raise ParseError(
                f"line {lineno}: symbol names must start with a lowercase letter, got {name!r}"
            )
        if name in seen:
            raise ParseError(f"line {lineno}: duplicate symbol {name!r}")
        seen.add(name)
        pairs.append((name, arity))
    return Signature(pairs)


_TOKEN_RE = re.compile(r"->|[(),{}]|[A-Za-z?_][A-Za-z0-9_]*")


class _Tokens:
    """Token stream over a single input string, tracking offsets for errors."""

    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise ParseError(f"offset {pos}: unexpected character {text[pos]!r}")
            self.items.append((m.group(0), pos))
            pos = m.end()
        self.index = 0

    def peek(self) -> str | None:
        if self.index < len(self.items):
            return self.items[self.index][0]
        return None

    def offset(self) -> int:
        if self.index < len(self.items):
            return self.items[self.index][1]
        return len(self.text)

    def take(self) -> tuple[str, int]:
        if self.index >= len(self.items):
            raise ParseError(f"offset {len(self.text)}: unexpected end of input")
        tok = self.items[self.index]
        self.index += 1
        return tok

    def expect(self, want: str) -> None:
        tok, off = self.take()
        if tok != want:
            raise ParseError(f"offset {off}: expected {want!r}, got {tok!r}")

    def done(self) -> None:
        if self.index < len(self.items):
            tok, off = self.items[self.index]
            raise ParseError(f"offset {off}: unexpected trailing input {tok!r}")


def _parse_term(toks: _Tokens, sig: Signature) -> Term:
    tok, off = toks.take()
    if is_variable_name(tok):
        if toks.peek() == "(":
            raise ParseError(f"offset {toks.offset()}: variable {tok!r} takes no arguments")
        return Var(tok)
    if not is_symbol_name(tok):
        raise ParseError(f"offset {off}: expected a term, got {tok!r}")
    if tok not in sig:
        raise ParseError(f"offset {off}: unknown symbol {tok!r}")
    args: list[Term] = []
    if toks.peek() == "(":
        toks.take()
        if toks.peek() == ")":
            toks.take()
        else:
            args.append(_parse_term(toks, sig))
            while toks.peek() == ",":
                toks.take()
                args.append(_parse_term(toks, sig))
            toks.expect(")")
    expected = sig.arity(tok)
    if len(args) != expected:
        raise ParseError(
            f"offset {off}: arity mismatch for {tok!r}: "
            f"expected {expected} argument(s), found {len(args)}"
        )
    return App(tok, args)


def parse_term(text: str, sig: Signature) -> Term:
    """Grammar: term := VAR | SYM | SYM '(' term (',' term)* ')'.

    Variables start with an uppercase letter or '?', symbols must be
    declared in the signature, and 0-ary symbols parse as ``a`` or ``a()``.
    """
    toks = _Tokens(text)
    term = _parse_term(toks, sig)
    toks.done()
    return term


def parse_subst(text: str, sig: Signature) -> Subst:
    """Substitution literal: ``{}`` or ``{X -> t, Y -> s}``."""
    toks = _Tokens(text)
    toks.expect("{")
    bindings: dict[str, Term] = {}
    if toks.peek() != "}":
        while True:
            tok, off = toks.take()
            if not is_variable_name(tok):
                raise ParseError(f"offset {off}: expected a variable, got {tok!r}")
            if tok in bindings:
                raise ParseError(f"offset {off}: variable {tok!r} bound twice")
            toks.expect("->")
            bindings[tok] = _parse_term(toks, sig)
            if toks.peek() != ",":
                break
            toks.take()
    toks.expect("}")
    toks.done()
    return Subst(bindings)


def _load_signature(config: SessionConfig) -> Signature:
    path = config.signature_path or os.environ.get(SIG_ENV_VAR)
    if path is None:
        return Signature()
    with open(path, encoding="utf-8") as handle:
        return parse_signature(handle.read())


def _input_error(err: Exception | str) -> int:
    print(f"error: {err}", file=sys.stderr)
    return 2


def cmd_unify(config: SessionConfig, s_text: str, t_text: str) -> int:
    """Unify two terms with the configured algorithm and print the result."""
    unify = _UNIFIERS.get(config.algorithm)
    if unify is None:
        return _input_error(f"unknown algorithm {config.algorithm!r}")
    try:
        sig = _load_signature(config)
        s = parse_term(s_text, sig)
        t = parse_term(t_text, sig)
    except (ParseError, OSError) as err:
        return _input_error(err)

    def emit_step(ts: TraceStep) -> None:
        print(format_trace_step(ts))

    outcome = unify(s, t, emit_step if config.trace else None)

    if isinstance(outcome, Unified):
        if config.output == "structured":
            print("status: unified")
            print(f"mgu: {outcome.mgu}")
            print(f"steps: {outcome.steps}")
        elif config.trace:
            print(f"result: {outcome.mgu}")
        else:
            print(outcome.mgu)
        return 0
    cause = outcome.cause
    if config.output == "structured":
        print("status: fail")
        if isinstance(cause, Clash):
            print("cause: clash")
            print(f"left: {cause.left}")
            print(f"right: {cause.right}")
        else:
            print("cause: occurs")
            print(f"variable: {cause.variable}")
            print(f"term: {format_term(cause.term)}")
        print(f"position: {format_position(cause.position)}")
    else:
        print(f"fail: {describe_failure(cause)}")
    return 1


def _show(structured: bool, field: str, text: str) -> int:
    print(f"{field}: {text}" if structured else text)
    return 0


# The utilities parse their arguments in order, so that the first bad one is
# the one reported.
def _positions(sig: Signature, structured: bool, term: str) -> int:
    rendered = " ".join(format_position(p) for p in positions_of(parse_term(term, sig)))
    return _show(structured, "positions", rendered)


def _subterm(sig: Signature, structured: bool, term: str, position: str) -> int:
    result = subterm_at(parse_term(term, sig), parse_position(position))
    return _show(structured, "term", format_term(result))


def _replace(sig: Signature, structured: bool, term: str, position: str, replacement: str) -> int:
    result = replace_at(parse_term(term, sig), parse_position(position), parse_term(replacement, sig))
    return _show(structured, "term", format_term(result))


def _apply(sig: Signature, structured: bool, subst: str, term: str) -> int:
    result = parse_subst(subst, sig).apply(parse_term(term, sig))
    return _show(structured, "term", format_term(result))


def _compose(sig: Signature, structured: bool, first: str, second: str) -> int:
    result = compose(parse_subst(first, sig), parse_subst(second, sig))
    return _show(structured, "substitution", str(result))


def _match(sig: Signature, structured: bool, pattern: str, target: str) -> int:
    outcome = match_terms(parse_term(pattern, sig), parse_term(target, sig))
    if isinstance(outcome, Matched):
        if structured:
            print("status: matched")
            print(f"witness: {outcome.witness}")
        else:
            print(outcome.witness)
        return 0
    if structured:
        print("status: no-match")
        print(f"reason: {outcome.reason}")
        print(f"position: {format_position(outcome.at)}")
    else:
        print(f"no match: {outcome.reason} at {format_position(outcome.at)}")
    return 1


# Subcommand -> (argument names, handler); a handler returns the exit code.
_UTILITIES: dict[str, tuple[tuple[str, ...], Callable[..., int]]] = {
    "positions": (("term",), _positions),
    "subterm": (("term", "position"), _subterm),
    "replace": (("term", "position", "replacement"), _replace),
    "apply": (("subst", "term"), _apply),
    "compose": (("subst", "subst2"), _compose),
    "match": (("pattern", "target"), _match),
}


def cmd_utils(config: SessionConfig, subcommand: str, args: list[str]) -> int:
    """Run one term/substitution utility; see the module docstring for codes."""
    entry = _UTILITIES.get(subcommand)
    if entry is None:
        return _input_error(f"unknown subcommand {subcommand!r}")
    _, run = entry
    try:
        sig = _load_signature(config)
        return run(sig, config.output == "structured", *args)
    except InvalidPositionError as err:  # a ValueError, but the domain's "no"
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as err:
        return _input_error(err)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgu",
        description="First-order term unification and term/substitution utilities.",
        epilog=(
            f"The default signature file is taken from ${SIG_ENV_VAR} when --sig "
            "is absent; with neither, the signature is empty (variables only)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--sig", metavar="FILE", help="signature file (name/arity per line)")
        p.add_argument("--output", choices=("text", "structured"), default="text")

    p_unify = sub.add_parser("unify", help="unify two terms")
    p_unify.add_argument("s")
    p_unify.add_argument("t")
    p_unify.add_argument("--algorithm", choices=ALGORITHMS, default="robinson")
    p_unify.add_argument("--trace", action="store_true", help="print one line per resolved conflict")
    common(p_unify)

    for name, (params, _) in _UTILITIES.items():
        p = sub.add_parser(name)
        for param in params:
            p.add_argument(param)
        common(p)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls, built on first use."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exit_:  # argparse already printed the message
        return int(exit_.code or 0)
    config = SessionConfig(
        signature_path=ns.sig,
        algorithm=getattr(ns, "algorithm", "robinson"),
        trace=getattr(ns, "trace", False),
        output=ns.output,
    )
    try:
        if ns.command == "unify":
            return cmd_unify(config, ns.s, ns.t)
        return cmd_utils(config, ns.command, [getattr(ns, a) for a in _UTILITIES[ns.command][0]])
    except RecursionError:  # the parser, positions and matching recurse per level
        return _input_error("input nested too deeply")


if __name__ == "__main__":
    sys.exit(main())
