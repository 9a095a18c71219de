"""Command line front end: parse signatures, terms and substitutions, run a
unification algorithm, and expose the term/substitution utilities.

Exit codes: 0 for a successful result, 1 when the domain says no (not
unifiable, invalid position, no match), 2 for any input error and for output
that cannot be written.  The term parser splits its tokens out with string
methods, matches each name it takes against the name pattern once, and,
like every command behind it, walks the tokens with a loop, so the CLI takes
input as deep as the library does.  The token regular expression is read
only after an error, to place it.

Every subcommand, ``unify`` among them, is one entry of ``_COMMANDS``: its
positionals, the options it alone takes and its handler; ``_OPTIONS`` holds
each option's choices and default.  ``build_parser`` makes one subparser per
entry from the two tables, and ``_run`` loads the signature, calls the
handler on the parsed arguments and turns an error, the handler's own output
included, into its exit code and one ``error:`` line.

``main`` reads a plain argument list itself (``_read_plain``): a subcommand,
exactly its positionals, none starting with '-', and its options by their
full names, each at most once, with valid values that do not start with
'-'.  Argparse reads such a list one way only, so the reader builds the
same attributes from the same tables.  Any other list (help, an error, an
abbreviation, '=', '--', a repeat, an option before the subcommand) goes
whole through a parser that ``build_parser`` makes for that call.
``argparse`` itself is imported only to build a parser, so a plain command
line never loads it.  The signature file is read as bytes and decoded as
UTF-8 on every call, so an edit is seen by the next one, and each distinct
content of it is parsed once.  An empty ``MGU_SIG`` counts as unset, as a
shell clears a variable for one command.

``unify`` runs the linear walk, ``robinson_unify_efficient``, unless
``--algorithm`` names another.  ``--algorithm robinson`` runs the literal
loop, which prints the same bytes and is quadratic on wide input.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from collections.abc import Callable
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any

from .oracle import EquationSet, solve_equations
from .substitution import Matched, Subst, compose, match_terms
from .terms import (
    App,
    ArityError,
    InvalidPositionError,
    Signature,
    Term,
    UnknownSymbolError,
    Var,
    format_position,
    format_term,
    is_symbol_name,
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

if TYPE_CHECKING:
    import argparse

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


def parse_signature(text: str) -> Signature:
    """One ``name/arity`` declaration per line; '#' starts a comment."""
    pairs: list[tuple[str, int]] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DECLARATION_RE.fullmatch(line)
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


# A name, which '?' can only start: of a variable, a symbol or neither.
_NAME = r"[A-Za-z?_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_DECLARATION_RE = re.compile(rf"({_NAME})\s*/\s*([0-9]+)")

# One token, after any whitespace, in group 1; any other character is an
# error, for which ``findall`` gives "".  Only ``_error`` scans a text with
# it, to place an error.
_TOKEN_RE = re.compile(rf"\s*(?:(->|[(),{{}}]|{_NAME})|\S)")


def _tokens(text: str) -> list[str]:
    """The pieces of ``text``, then a sentinel "" that ends them, split by
    string methods alone: the punctuation "->", '(', ')', ',', '{' and '}'
    spaced out, a break before each '?' (which only starts a name), then
    ``str.split``, whose whitespace is that of ``_TOKEN_RE``.

    When every other piece is a name, the pieces are the tokens of
    ``_TOKEN_RE.findall(text)``.  A piece that is no name holds a character
    that no token takes, so the parsers take a name only through ``_name``.
    Names are ASCII: of them, "?" <= tok < "[" holds exactly for the
    variables, which start with '?' or an uppercase letter."""
    toks = (
        text.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").replace("{", " { ")
        .replace("}", " } ").replace("->", " -> ").replace("?", " ?").split()
    )
    toks.append("")
    return toks


def _name(text: str, tok: str) -> str:
    """``tok`` if it is a whole name; otherwise the error at the first
    character of ``text`` that no token takes, which ``tok`` holds."""
    if _NAME_RE.fullmatch(tok) is None:
        raise _error(text, -1, "")  # -1 is no token's index
    return tok


def _error(text: str, i: int, message: str) -> ParseError:
    """``message`` at the offset of token ``i``, or the end of input at the
    sentinel or at an ``i`` that no token has; but a character that no token
    takes, anywhere in the text, is the error reported.  Only an error comes
    here: the text is scanned again with ``_TOKEN_RE``, whose tokens are
    those of ``_tokens`` up to the first such character, to find the
    offsets."""
    at, found = len(text), "unexpected end of input"
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        if m.lastindex is None:
            at = m.end() - 1
            return ParseError(f"offset {at}: unexpected character {text[at]!r}")
        if k == i:
            at, found = m.start(1), message
    return ParseError(f"offset {at}: {found}")


def _term(
    text: str, toks: list[str], i: int, arities: dict[str, int], names: dict[str, Term | None]
) -> tuple[Term, int]:
    """The term at token ``i`` and the index after it: one loop over the open
    applications, each its symbol, its token's index and its arguments so
    far, the innermost in locals and the ones around it on a stack.

    ``names`` holds each name this parse has taken, after its full match
    (``_name``): the one term built for a variable or constant, None for a
    symbol that opened an application."""
    stack: list[tuple[str, int, list[Term] | None]] = []
    symbol, at, args = "", 0, None
    while True:
        tok = toks[i]
        i += 1
        term = names.get(tok)
        if term is None or toks[i] == "(":
            if "?" <= tok < "[":
                if toks[i] == "(":
                    raise _error(text, i, f"variable {tok!r} takes no arguments")
                term = names[tok] = Var(_name(text, tok))
            elif tok not in arities:
                if "a" <= tok < "{":
                    raise _error(text, i - 1, str(UnknownSymbolError(tok)))
                raise _error(text, i - 1, f"expected a term, got {tok!r}")
            elif toks[i] != "(" or toks[i + 1] == ")":
                if arities[tok]:
                    raise _error(text, i - 1, str(ArityError(tok, arities[tok], 0)))
                if toks[i] == "(":
                    i += 2
                if term is None:
                    term = names[tok] = App(_name(text, tok))
            else:
                if tok not in names:
                    names[_name(text, tok)] = None
                stack.append((symbol, at, args))
                symbol, at, args = tok, i - 1, []
                i += 1
                continue
        # The innermost open application takes the term; close those that end.
        while args is not None:
            args.append(term)
            tok = toks[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                raise _error(text, i - 1, f"expected ')', got {tok!r}")
            if len(args) != arities[symbol]:
                raise _error(text, at, str(ArityError(symbol, arities[symbol], len(args))))
            term = App(symbol, args)
            symbol, at, args = stack.pop()
        else:
            return term, i


def _end(text: str, toks: list[str], i: int) -> None:
    if i != len(toks) - 1:
        raise _error(text, i, f"unexpected trailing input {toks[i]!r}")


def parse_term(text: str, sig: Signature) -> Term:
    """Grammar: term := VAR | SYM | SYM '(' term (',' term)* ')'.

    Variables start with an uppercase letter or '?', symbols must be
    declared in the signature, and 0-ary symbols parse as ``a`` or ``a()``.
    """
    toks = _tokens(text)
    # The signature's table, read in place: ``entries`` would copy it.
    term, i = _term(text, toks, 0, sig._table, {})
    _end(text, toks, i)
    return term


def parse_subst(text: str, sig: Signature) -> Subst:
    """Substitution literal: ``{}`` or ``{X -> t, Y -> s}``."""
    toks = _tokens(text)
    if toks[0] != "{":
        raise _error(text, 0, f"expected '{{', got {toks[0]!r}")
    arities, names = sig._table, {}
    bindings: dict[str, Term] = {}
    i = 1
    if toks[i] != "}":
        while True:
            tok = toks[i]
            if not "?" <= tok < "[":
                raise _error(text, i, f"expected a variable, got {tok!r}")
            if tok in bindings:
                raise _error(text, i, f"variable {tok!r} bound twice")
            if toks[i + 1] != "->":
                raise _error(text, i + 1, f"expected '->', got {toks[i + 1]!r}")
            bindings[_name(text, tok)], i = _term(text, toks, i + 2, arities, names)
            if toks[i] != ",":
                break
            i += 1
    if toks[i] != "}":
        raise _error(text, i, f"expected '}}', got {toks[i]!r}")
    _end(text, toks, i + 1)
    return Subst(bindings)


@functools.lru_cache(maxsize=16)
def _signature_of(data: bytes) -> Signature:
    """``parse_signature`` of the UTF-8 text ``data``, once per distinct
    content: it is a pure function of the bytes and a ``Signature`` is
    immutable.  Content that fails to decode or parse is not cached, so it
    raises on every call."""
    return parse_signature(data.decode("utf-8"))


def _load_signature(path: str | None) -> Signature:
    if path is None:
        path = os.environ.get(SIG_ENV_VAR) or None
    if path is None:
        return Signature()
    # One unbuffered read of the whole file: a text stream would build an
    # 8 KiB buffer and a decoder for a file of a few lines (11 against 6 us
    # for 20 bytes, 2 vCPUs, CPython 3.11.7).
    with open(path, "rb", buffering=0) as handle:
        return _signature_of(handle.read())


# The handlers parse their arguments in order, so that the first bad one is
# the one reported.
def _unify(
    sig: Signature, structured: bool, s_text: str, t_text: str, algorithm: str, trace: bool
) -> int:
    """Unify two terms with the chosen algorithm and print the result."""
    s, t = parse_term(s_text, sig), parse_term(t_text, sig)

    def emit_step(ts: TraceStep) -> None:
        print(format_trace_step(ts))

    outcome = _UNIFIERS[algorithm](s, t, emit_step if trace else None)
    if isinstance(outcome, Unified):
        if structured:
            print("status: unified")
            print(f"mgu: {outcome.mgu}")
            print(f"steps: {outcome.steps}")
        elif trace:
            print(f"result: {outcome.mgu}")
        else:
            print(outcome.mgu)
        return 0
    cause = outcome.cause
    if structured:
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


# Subcommand -> (positional names, the options it alone takes, handler).  A
# handler gets the signature, whether the output is structured, then the
# positionals' and those options' values, and returns the exit code.
_COMMANDS: dict[str, tuple[tuple[str, ...], tuple[str, ...], Callable[..., int]]] = {
    "unify": (("s", "t"), ("algorithm", "trace"), _unify),
    "positions": (("term",), (), _positions),
    "subterm": (("term", "position"), (), _subterm),
    "replace": (("term", "position", "replacement"), (), _replace),
    "apply": (("subst", "term"), (), _apply),
    "compose": (("subst", "subst2"), (), _compose),
    "match": (("pattern", "target"), (), _match),
}
_COMMON = ("sig", "output")  # every subcommand takes these

# Option ``--<name>`` -> its ``add_argument`` keywords, default included.
# ``build_parser`` adds the options from here and ``_read_plain`` reads
# them by it, so the help cannot drift from the reader.
_OPTIONS: dict[str, dict[str, Any]] = {
    "algorithm": {"choices": ALGORITHMS, "default": "efficient"},
    "trace": {"action": "store_true", "default": False, "help": "print one line per resolved conflict"},
    "sig": {"metavar": "FILE", "default": None, "help": "signature file (name/arity per line)"},
    "output": {"choices": ("text", "structured"), "default": "text"},
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="mgu",
        description="First-order term unification and term/substitution utilities.",
        epilog=(
            f"The default signature file is taken from ${SIG_ENV_VAR} when --sig "
            "is absent; with neither, the signature is empty (variables only)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (params, own, _) in _COMMANDS.items():
        p = sub.add_parser(name, help="unify two terms") if name == "unify" else sub.add_parser(name)
        for option in (*own, *_COMMON):
            p.add_argument(f"--{option}", **_OPTIONS[option])
        for param in params:
            p.add_argument(param)
    return parser


def _read_plain(args: list[str]) -> SimpleNamespace | None:
    """The attributes of what ``build_parser().parse_args(args)`` returns, when
    ``args`` has the plain form; None otherwise.  Plain: a subcommand,
    exactly its number of positionals, none starting with '-', and its
    options by their full names, each at most once, each value a valid
    choice not starting with '-'.  Argparse gives such a list one reading,
    and this is it."""
    if not args or args[0] not in _COMMANDS:
        return None
    command = args[0]
    params, own, _ = _COMMANDS[command]
    words = iter(args[1:])
    given: dict[str, Any] = {}
    found: list[str] = []
    for arg in words:
        if arg[:1] != "-":
            found.append(arg)
            continue
        option = arg[2:] if arg[:2] == "--" else ""
        if option in given or option not in own and option not in _COMMON:
            return None
        spec = _OPTIONS[option]
        if spec.get("action") == "store_true":
            given[option] = True
            continue
        value = next(words, "-")  # a missing value declines as one starting with '-'
        if value[:1] == "-" or value not in spec.get("choices", (value,)):
            return None
        given[option] = value
    if len(found) != len(params):
        return None
    for option in (*own, *_COMMON):
        given.setdefault(option, _OPTIONS[option]["default"])
    return SimpleNamespace(command=command, **dict(zip(params, found)), **given)


def _run(command: str, ns: argparse.Namespace | SimpleNamespace) -> int:
    """Run a parsed command; see the module docstring for the exit codes."""
    params, own, handler = _COMMANDS[command]
    try:
        sig = _load_signature(ns.sig)
        return handler(sig, ns.output == "structured", *[getattr(ns, a) for a in (*params, *own)])
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        # An invalid position is a ValueError, but the domain's "no".
        return 1 if isinstance(err, InvalidPositionError) else 2


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    # ``_read_plain`` reads again what argparse reads, and stays for its
    # price: argparse alone costs ``cli`` 93% of its ops/s (10,390 to 775)
    # and 20 times its p50, and 38% with one parser shared by every call,
    # beyond the benchmark's 25% bound (2 vCPUs, CPython 3.11.7).
    ns = _read_plain(args)
    if ns is None:
        try:
            ns = build_parser().parse_args(args)
        except SystemExit as exit_:  # argparse already printed the message
            return int(exit_.code or 0)
    return _run(ns.command, ns)


if __name__ == "__main__":
    sys.exit(main())
