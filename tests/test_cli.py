import argparse
import importlib.util
import io
import itertools
import json
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mgu.cli import (
    _COMMANDS,
    ALGORITHMS,
    ParseError,
    _read_plain,
    _run,
    build_parser,
    main,
    parse_signature,
    parse_subst,
    parse_term,
)
from mgu.substitution import Subst
from mgu.terms import Signature, Term, Var, format_term

SIG = Signature({"a": 0, "b": 0, "f": 2, "g": 1})
X, Y = Var("X"), Var("Y")
a = SIG.app("a")

SIG_TEXT = "f/2\ng/1\na/0\nb/0\n"


TERM_EDGES = [
    ("f(X,", "offset 4: unexpected end of input"),
    ("   ", "offset 3: unexpected end of input"),
    ("g(\u00e9)", "offset 2: unexpected character '\u00e9'"),
    ("-", "offset 0: unexpected character '-'"),
    ("g(a)\u2003 a", "offset 6: unexpected trailing input 'a'"),
    ("f(a b)", "offset 4: expected ')', got 'b'"),
    ("f(,a)", "offset 2: expected a term, got ','"),
    (")", "offset 0: expected a term, got ')'"),
]

SUBST_EDGES = [
    ("{X -> a,}", "offset 8: expected a variable, got '}'"),
    ("{X -> a,", "offset 8: unexpected end of input"),
    ("{X a}", "offset 3: expected '->', got 'a'"),
    ("X -> a", "offset 0: expected '{', got 'X'"),
    ("{X -> a b}", "offset 8: expected '}', got 'b'"),
]

# 2,000 levels of f(a, ...), twice the depth the parser once took.  (Under
# an open g( a ')' would close the application g() instead.)
DEEP_OPEN, DEEP_CLOSE = "f(a," * 2000, ")" * 2000


def _shifted(message, by):
    """A parser message with its offset moved ``by`` characters on."""
    offset, rest = message.removeprefix("offset ").split(": ", 1)
    return f"offset {int(offset) + by}: {rest}"


@pytest.fixture
def sig_file(tmp_path):
    path = tmp_path / "test.sig"
    path.write_text(SIG_TEXT)
    return str(path)


class TestParseSignature:
    def test_basic(self):
        sig = parse_signature("f/2\ng/1\na/0")
        assert sig.entries == {"f": 2, "g": 1, "a": 0}

    def test_empty(self):
        assert parse_signature("") == Signature()

    def test_duplicate_symbol(self):
        with pytest.raises(ParseError, match="duplicate symbol"):
            parse_signature("f/2\nf/1")

    def test_comments_and_blank_lines(self):
        sig = parse_signature("# arithmetic\n\nf/2  # pair\n\n  g/1\n")
        assert sig.entries == {"f": 2, "g": 1}

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_signature("f/2\nnonsense here")

    def test_rejects_uppercase_name(self):
        with pytest.raises(ParseError, match="lowercase"):
            parse_signature("F/2")


class TestParseTerm:
    def test_nested(self):
        assert parse_term("f(X, g(a))", SIG) == SIG.app("f", X, SIG.app("g", a))

    def test_whitespace_insensitive(self):
        assert parse_term(" f( X ,g( a ) ) ", SIG) == parse_term("f(X,g(a))", SIG)

    def test_zero_ary_both_spellings(self):
        assert parse_term("a", SIG) == a
        assert parse_term("a()", SIG) == a

    def test_question_mark_variable(self):
        assert parse_term("?x", SIG) == Var("?x")

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match="arity mismatch for 'f': expected 2 argument\\(s\\), found 1"):
            parse_term("f(X)", SIG)

    def test_unknown_symbol(self):
        with pytest.raises(ParseError, match="unknown symbol 'h'"):
            parse_term("h(X)", SIG)

    def test_error_carries_offset(self):
        with pytest.raises(ParseError, match="offset 5"):
            parse_term("f(X, +)", SIG)

    def test_variable_takes_no_arguments(self):
        with pytest.raises(ParseError, match="takes no arguments"):
            parse_term("X(a)", SIG)

    def test_unbalanced(self):
        with pytest.raises(ParseError, match="unexpected end of input"):
            parse_term("f(X", SIG)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_term("a b", SIG)

    @pytest.mark.parametrize("text, message", TERM_EDGES)
    def test_edge_input_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_term(text, SIG)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", TERM_EDGES)
    def test_edge_input_messages_at_depth(self, text, message):
        """Inside 2,000 open applications each message holds, further on;
        trailing input now stands where the innermost one wants its ')'."""
        with pytest.raises(ParseError) as err:
            parse_term(DEEP_OPEN + text, SIG)
        expected = _shifted(message, len(DEEP_OPEN))
        assert str(err.value) == expected.replace("unexpected trailing input", "expected ')', got")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("h(X)", "offset 0: unknown symbol 'h'"),
            ("h(X", "offset 0: unknown symbol 'h'"),
            ("f(X)", "offset 0: arity mismatch for 'f': expected 2 argument(s), found 1"),
            ("g", "offset 0: arity mismatch for 'g': expected 1 argument(s), found 0"),
            ("X(a)", "offset 1: variable 'X' takes no arguments"),
        ],
    )
    def test_messages_of_the_innermost_term(self, text, message):
        """Unknown symbols are reported at the symbol, arity at the symbol
        once its ')' is read, at any depth."""
        for prefix, suffix in (("", ""), (DEEP_OPEN, DEEP_CLOSE)):
            with pytest.raises(ParseError) as err:
                parse_term(prefix + text + suffix, SIG)
            assert str(err.value) == _shifted(message, len(prefix))

    def test_deep_terms_parse(self):
        chain, text = X, "X"
        for _ in range(20_000):
            chain, text = SIG.app("g", chain), f"g({text})"
        assert parse_term(text, SIG) == chain
        assert parse_subst("{Y -> " + text + "}", SIG) == Subst({"Y": chain})

    def test_unicode_whitespace_around_a_term(self):
        assert parse_term("f(X, a)   ", SIG) == SIG.app("f", X, a)
        assert parse_term("\u2003g(a)", SIG) == SIG.app("g", a)

    def test_round_trip(self):
        for text in ("X", "a", "f(X,g(a))", "g(g(f(b,Y)))", "f(f(X,X),f(Y,Y))"):
            t = parse_term(text, SIG)
            assert parse_term(format_term(t), SIG) == t


class TestParseSubst:
    def test_identity(self):
        assert parse_subst("{}", SIG) == Subst()

    def test_bindings(self):
        assert parse_subst("{X -> a, Y -> g(X)}", SIG) == Subst(
            {"X": a, "Y": SIG.app("g", X)}
        )

    def test_duplicate_binding(self):
        with pytest.raises(ParseError, match="bound twice"):
            parse_subst("{X -> a, X -> b}", SIG)

    def test_identity_binding_normalized_away(self):
        assert parse_subst("{X -> X}", SIG) == Subst()

    def test_requires_variable_key(self):
        with pytest.raises(ParseError, match="expected a variable"):
            parse_subst("{a -> b}", SIG)

    @pytest.mark.parametrize("text, message", SUBST_EDGES)
    def test_edge_input_messages(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_subst(text, SIG)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, message", SUBST_EDGES)
    def test_edge_input_messages_at_depth(self, text, message):
        """After a first binding 2,000 levels deep, each message holds,
        shifted by that binding's length (an input without '{' gets none)."""
        nested = text.replace("{", "{Y -> " + DEEP_OPEN + "a" + DEEP_CLOSE + ", ", 1)
        with pytest.raises(ParseError) as err:
            parse_subst(nested, SIG)
        assert str(err.value) == _shifted(message, len(nested) - len(text))


# Generated input for the parsers, over a signature with a ternary symbol.
WIDE_SIG = Signature({"a": 0, "b": 0, "f": 2, "g": 1, "h": 3})
_LEAVES = [Var("X"), Var("Y"), Var("?v"), WIDE_SIG.app("a"), WIDE_SIG.app("b")]
_SPACES = ("", "", " ", "\t", "\n", "\u2003")
# The grammar's tokens, names declared or not, names that are neither
# variables nor symbols, whitespace and characters no token takes.
_PIECES = ("(", ")", ",", "{", "}", "->", "-", ">", " ", "\u2003", "f", "g", "h", "a", "a1", "k",
           "X", "?", "?v", "_", "_x", "1", "\u00e9", "@", "+")
_rngs = st.integers(0, 2**32).map(random.Random)


def _extend(children):
    return st.one_of(
        st.builds(lambda u: WIDE_SIG.app("g", u), children),
        st.builds(lambda u, v: WIDE_SIG.app("f", u, v), children, children),
        st.builds(lambda u, v, w: WIDE_SIG.app("h", u, v, w), children, children, children),
    )


@st.composite
def _wide_terms(draw):
    """A tree of 1,001 to 2,000 leaves, joined level by level by ``f`` and
    ``h`` (and ``g`` over a lone leftover)."""
    rng = draw(_rngs)
    level = [rng.choice(_LEAVES) for _ in range(draw(st.integers(1001, 2000)))]
    while len(level) > 1:
        joined, i = [], 0
        while i < len(level):
            k = min(rng.choice((2, 3)), len(level) - i)
            joined.append(WIDE_SIG.app({1: "g", 2: "f", 3: "h"}[k], *level[i:i + k]))
            i += k
        level = joined
    return level[0]


_terms = st.one_of(st.recursive(st.sampled_from(_LEAVES), _extend, max_leaves=40), _wide_terms())


def _spelt(term, rng):
    """``term`` as text: tokens spaced at random, constants spelt ``a`` or ``a()``."""
    if isinstance(term, Var):
        tokens = [term.name]
    elif not term.args:
        tokens = [term.symbol] + ["(", ")"] * (rng.random() < 0.5)
    else:
        tokens = [term.symbol, "("]
        for k, arg in enumerate(term.args):
            tokens += [","] * (k > 0) + [_spelt(arg, rng)]
        tokens.append(")")
    return "".join(rng.choice(_SPACES) + tok for tok in tokens) + rng.choice(_SPACES)


class TestParserRobustness:
    @settings(max_examples=60, deadline=None)
    @given(_terms, _rngs)
    def test_round_trip(self, term, rng):
        assert parse_term(format_term(term), WIDE_SIG) == term
        assert parse_term(_spelt(term, rng), WIDE_SIG) == term
        subst = Subst({"X": term, "Y": WIDE_SIG.app("g", term)})
        assert parse_subst(str(subst), WIDE_SIG) == subst

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join), st.text(max_size=40)))
    def test_any_text_parses_or_raises_parse_error(self, text):
        """Never ``IndexError`` or another exception: the parsers index a
        token list, and every path that reads its end must stop there."""
        for parse, kind in ((parse_term, Term), (parse_subst, Subst)):
            try:
                assert isinstance(parse(text, WIDE_SIG), kind)
            except ParseError:
                pass


class TestCmdUnify:
    def test_success_text(self, sig_file, capsys):
        code = main(["unify", "f(X, g(Y))", "f(g(Z), X)", "--sig", sig_file])
        assert code == 0
        assert capsys.readouterr().out == "{X -> g(Z), Y -> Z}\n"

    def test_occurs_text(self, sig_file, capsys):
        code = main(["unify", "X", "f(X, Y)", "--sig", sig_file])
        assert code == 1
        assert capsys.readouterr().out == "fail: occurs X in f(X,Y) at e\n"

    def test_parse_error_exit_2(self, sig_file, capsys):
        code = main(["unify", "f(X", "a", "--sig", sig_file])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_all_algorithms_agree(self, sig_file, capsys):
        outs = []
        for algorithm in ("classic", "robinson", "efficient", "mm"):
            code = main(
                ["unify", "f(X, g(Y))", "f(g(Z), X)", "--sig", sig_file, "--algorithm", algorithm]
            )
            assert code == 0
            outs.append(capsys.readouterr().out)
        assert len(set(outs)) == 1

    def test_trace_output(self, sig_file, capsys):
        code = main(["unify", "f(X, g(Y))", "f(g(Z), X)", "--sig", sig_file, "--trace"])
        assert code == 0
        assert capsys.readouterr().out == (
            "step 1: pos=1 bind X -> g(Z) vars 3 -> 2\n"
            "step 2: pos=2.1 bind Y -> Z vars 2 -> 1\n"
            "result: {X -> g(Z), Y -> Z}\n"
        )

    def test_structured_success(self, sig_file, capsys):
        code = main(
            ["unify", "f(X, g(Y))", "f(g(Z), X)", "--sig", sig_file, "--output", "structured"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "status: unified\nmgu: {X -> g(Z), Y -> Z}\nsteps: 2\n"
        )

    def test_structured_clash(self, sig_file, capsys):
        code = main(["unify", "a", "b", "--sig", sig_file, "--output", "structured"])
        assert code == 1
        assert capsys.readouterr().out == (
            "status: fail\ncause: clash\nleft: a\nright: b\nposition: e\n"
        )

    def test_trace_precedes_structured_record(self, sig_file, capsys):
        code = main(
            ["unify", "g(X)", "g(a)", "--sig", sig_file, "--trace", "--output", "structured"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "step 1: pos=1 bind X -> a vars 1 -> 0\n"
            "status: unified\nmgu: {X -> a}\nsteps: 1\n"
        )

    def test_bad_algorithm_exit_2(self, sig_file, capsys):
        assert main(["unify", "a", "a", "--sig", sig_file, "--algorithm", "zzz"]) == 2

    def test_missing_signature_file(self, capsys):
        assert main(["unify", "a", "b", "--sig", "/nonexistent/path.sig"]) == 2

    def test_env_var_signature(self, sig_file, capsys, monkeypatch):
        monkeypatch.setenv("MGU_SIG", sig_file)
        assert main(["unify", "g(X)", "g(a)"]) == 0
        assert capsys.readouterr().out == "{X -> a}\n"

    def test_no_signature_means_variables_only(self, capsys, monkeypatch):
        monkeypatch.delenv("MGU_SIG", raising=False)
        assert main(["unify", "X", "Y"]) == 0
        assert capsys.readouterr().out == "{X -> Y}\n"


class TestSignatureFile:
    def test_edit_is_seen_by_the_next_call(self, tmp_path, capsys):
        """The second text has the first one's size and modification time, so
        only its content tells the two apart."""
        path = tmp_path / "edited.sig"
        path.write_text("f/2\na/0\n")
        before = os.stat(path).st_mtime_ns
        assert main(["unify", "f(X, a)", "f(a, X)", "--sig", str(path)]) == 0
        assert capsys.readouterr() == ("{X -> a}\n", "")
        path.write_text("h/2\nb/0\n")
        os.utime(path, ns=(before, before))
        assert main(["unify", "h(X, b)", "h(b, X)", "--sig", str(path)]) == 0
        assert capsys.readouterr() == ("{X -> b}\n", "")
        assert main(["unify", "f(X, a)", "f(a, X)", "--sig", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: offset 0: unknown symbol 'f'\n")

    def test_bad_text_raises_on_every_call(self, tmp_path, capsys):
        path = tmp_path / "bad.sig"
        path.write_text("f/2\nf/1\n")
        for _ in range(2):
            assert main(["unify", "X", "Y", "--sig", str(path)]) == 2
            assert capsys.readouterr() == ("", "error: line 2: duplicate symbol 'f'\n")

    @pytest.mark.parametrize("argv", [["unify", "f(X, a)", "f(a, X)"], ["positions", "f(X, a)"]])
    def test_empty_sig_is_not_absent(self, sig_file, capsys, monkeypatch, argv):
        """``MGU_SIG`` stands in only for a missing ``--sig``; an empty one
        names no file."""
        monkeypatch.setenv("MGU_SIG", sig_file)
        assert main([*argv, "--sig", ""]) == 2
        assert capsys.readouterr() == ("", "error: [Errno 2] No such file or directory: ''\n")

    @pytest.mark.parametrize("argv", [["unify", "X", "Y"], ["positions", "f(X, Y)"]])
    def test_empty_env_var_is_unset(self, capsys, monkeypatch, argv):
        """``MGU_SIG=`` before a command clears the variable for it: the
        signature is empty, as with no ``MGU_SIG`` at all."""
        monkeypatch.setenv("MGU_SIG", "")
        code = main(argv)
        out = capsys.readouterr()
        monkeypatch.delenv("MGU_SIG")
        assert (code, *out) == (main(argv), *capsys.readouterr())
        assert code == (0 if argv[0] == "unify" else 2)

    @pytest.mark.parametrize("argv", [
        ["unify", "X", "Y"], ["unify", "X", "Y", "--trace", "--output", "structured"],
        ["positions", "X"], ["subterm", "X", "e"], ["replace", "X", "e", "Y"],
        ["apply", "{}", "X"], ["compose", "{}", "{}"], ["match", "X", "Y"],
    ])
    def test_not_utf8_is_an_input_error(self, tmp_path, capsys, argv):
        path = tmp_path / "bad.sig"
        path.write_bytes(b"\xff\xfef/2\n")
        assert main([*argv, "--sig", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestCmdUtils:
    def test_positions(self, sig_file, capsys):
        assert main(["positions", "f(X, g(a))", "--sig", sig_file]) == 0
        assert capsys.readouterr().out == "e 1 2 2.1\n"

    def test_subterm(self, sig_file, capsys):
        assert main(["subterm", "f(X, g(a))", "2.1", "--sig", sig_file]) == 0
        assert capsys.readouterr().out == "a\n"

    def test_subterm_invalid_position_exit_1(self, sig_file, capsys):
        assert main(["subterm", "f(X, g(a))", "1.1", "--sig", sig_file]) == 1
        assert "invalid position" in capsys.readouterr().err

    def test_replace(self, sig_file, capsys):
        assert main(["replace", "f(X, g(a))", "2.1", "b", "--sig", sig_file]) == 0
        assert capsys.readouterr().out == "f(X,g(b))\n"

    def test_apply(self, sig_file, capsys):
        assert main(["apply", "{X -> a}", "f(X, Y)", "--sig", sig_file]) == 0
        assert capsys.readouterr().out == "f(a,Y)\n"

    def test_compose(self, sig_file, capsys):
        assert main(["compose", "{X -> a}", "{Y -> f(X, X)}", "--sig", sig_file]) == 0
        assert capsys.readouterr().out == "{X -> a, Y -> f(a,a)}\n"

    def test_match_success(self, sig_file, capsys):
        assert main(["match", "g(X)", "g(f(a, b))", "--sig", sig_file]) == 0
        assert capsys.readouterr().out == "{X -> f(a,b)}\n"

    def test_match_failure_exit_1(self, sig_file, capsys):
        assert main(["match", "f(X, X)", "f(a, b)", "--sig", sig_file]) == 1
        assert capsys.readouterr().out == "no match: inconsistent-binding at 2\n"

    def test_match_structured(self, sig_file, capsys):
        code = main(["match", "f(a)", "g(a)", "--sig", sig_file, "--output", "structured"])
        assert code == 2  # arity mismatch for f is an input error

    def test_match_structured_no_match(self, sig_file, capsys):
        code = main(["match", "g(a)", "g(b)", "--sig", sig_file, "--output", "structured"])
        assert code == 1
        assert capsys.readouterr().out == "status: no-match\nreason: clash\nposition: 1\n"

    def test_positions_structured(self, sig_file, capsys):
        assert main(["positions", "a", "--sig", sig_file, "--output", "structured"]) == 0
        assert capsys.readouterr().out == "positions: e\n"


class _Unwritable(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["unify", "X", "Y"], ["unify", "X", "Y", "--trace"], ["unify", "X", "Y", "--output", "structured"],
        ["positions", "X"],
    ])
    def test_exit_2_and_one_error_line(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("MGU_SIG", raising=False)
        monkeypatch.setattr(sys, "stdout", _Unwritable())
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, sig_file, capsys):
        argv = ["unify", "f(X, g(Y))", "f(g(Z), X)", "--sig", sig_file, "--trace"]
        main(argv)
        first = capsys.readouterr()
        main(argv)
        second = capsys.readouterr()
        assert first.out == second.out
        assert first.err == second.err


class TestSharedParser:
    """``main`` reuses one parser per process; its calls must stay independent."""

    def test_calls_do_not_leak_into_each_other(self, sig_file, capsys):
        pair = ["f(X, g(Y))", "f(g(Z), X)", "--sig", sig_file]
        argv = ["unify", *pair, "--algorithm", "classic", "--trace", "--output", "structured"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "step 1: pos=1 bind X -> g(Z) vars 3 -> 2\n"
            "step 2: pos=2.1 bind Y -> Z vars 2 -> 1\n"
            "status: unified\nmgu: {X -> g(Z), Y -> Z}\nsteps: 2\n"
        )
        assert main(["unify", *pair]) == 0
        assert capsys.readouterr().out == "{X -> g(Z), Y -> Z}\n"
        assert main(["unify", *pair, "--algorithm", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mgu unify") and "invalid choice: 'nope'" in err
        assert main(["apply", "{X -> a}", "f(X, Y)", "--sig", sig_file]) == 0
        assert capsys.readouterr() == ("f(a,Y)\n", "")

    def test_help_is_repeatable(self, capsys):
        assert main(["--help"]) == 0
        first = capsys.readouterr().out
        assert main(["--help"]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("usage: mgu")

    def test_concurrent_calls(self, sig_file, capsys):
        cases = [
            (["unify", "f(X, g(Y))", "f(g(Z), X)", "--sig", sig_file, "--trace"], 0),
            (["unify", "X", "f(X, Y)", "--sig", sig_file, "--output", "structured"], 1),
            (["unify", "a", "a", "--sig", sig_file, "--algorithm", "nope"], 2),
            (["match", "f(X, X)", "f(a, b)", "--sig", sig_file], 1),
            (["positions", "f(X, g(a))", "--sig", sig_file], 0),
        ]
        calls = 25
        codes = [[] for _ in range(8)]

        def worker(out):
            for i in range(calls):
                argv, _ = cases[i % len(cases)]
                out.append(main(argv))

        threads = [threading.Thread(target=worker, args=(out,)) for out in codes]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        expected = [cases[i % len(cases)][1] for i in range(calls)]
        assert codes == [expected] * len(threads)


def test_cold_entry_point(sig_file):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "mgu.cli", "unify", "f(X, g(Y))", "f(g(Z), X)",
         "--sig", sig_file],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{X -> g(Z), Y -> Z}\n", "")


_ARGPARSE_LOADED = """
import sys
from mgu.cli import main

plain = main(["unify", "f(X, g(Y))", "f(g(Z), X)", "--sig", sys.argv[1], "--trace"])
before = "argparse" in sys.modules
short = main(["unify", "X"])
print(plain, before, short, "argparse" in sys.modules)
"""


def test_plain_command_line_loads_no_argparse(sig_file):
    """A plain command line through ``main`` never builds the parser, so
    ``argparse`` is not even imported; one the parser must read loads it."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _ARGPARSE_LOADED, sig_file], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, "0 False 2 True")
    assert "the following arguments are required: t" in proc.stderr


# Golden CLI bytes, so that no change to parsing or dispatch alters an output:
# (arguments, exit code, text stdout, structured stdout, stderr).
_UNIFIED = "{X -> g(Z), Y -> Z}"
_STEPS = "step 1: pos=1 bind X -> g(Z) vars 3 -> 2\nstep 2: pos=2.1 bind Y -> Z vars 2 -> 1\n"
_CLASH = "status: fail\ncause: clash\nleft: a\nright: b\nposition: 2\n"
_OCCURS = "status: fail\ncause: occurs\nvariable: Y\nterm: g(Y)\nposition: 2\n"
GOLDEN_UNIFY = [
    (["f(X, g(Y))", "f(g(Z), X)"], 0, f"{_UNIFIED}\n", f"status: unified\nmgu: {_UNIFIED}\nsteps: 2\n", ""),
    (["f(X, a)", "f(b, X)"], 1, "fail: clash a vs b at 2\n", _CLASH, ""),
    (["f(X, Y)", "f(Y, g(X))"], 1, "fail: occurs Y in g(Y) at 2\n", _OCCURS, ""),
    (["f(X", "a"], 2, "", "", "error: offset 3: unexpected end of input\n"),
    (["h(X)", "X"], 2, "", "", "error: offset 0: unknown symbol 'h'\n"),
]
# The same pairs with --trace, for the three paper algorithms; mm has no trace.
GOLDEN_UNIFY_TRACE = [
    (["f(X, g(Y))", "f(g(Z), X)"], 0, f"{_STEPS}result: {_UNIFIED}\n",
     f"{_STEPS}status: unified\nmgu: {_UNIFIED}\nsteps: 2\n", ""),
    (["f(X, a)", "f(b, X)"], 1, "step 1: pos=1 bind X -> b vars 1 -> 0\nfail: clash a vs b at 2\n",
     f"step 1: pos=1 bind X -> b vars 1 -> 0\n{_CLASH}", ""),
    (["f(X, Y)", "f(Y, g(X))"], 1, "step 1: pos=1 bind X -> Y vars 2 -> 1\nfail: occurs Y in g(Y) at 2\n",
     f"step 1: pos=1 bind X -> Y vars 2 -> 1\n{_OCCURS}", ""),
]
GOLDEN_MM_TRACE = [
    (["f(X, g(Y))", "f(g(Z), X)"], 0, f"result: {_UNIFIED}\n", f"status: unified\nmgu: {_UNIFIED}\nsteps: 2\n", ""),
    (["f(X, a)", "f(b, X)"], 1, "fail: clash a vs b at 2\n", _CLASH, ""),
]
_NOT_A_POSITION = "error: not a position: '{}' (indices are 1-based, root is 'e')\n"
_F_ARITY = "error: offset 0: arity mismatch for 'f': expected 2 argument(s), found 1\n"
# positions, apply and compose have no domain "no": they succeed on every input that parses.
GOLDEN_UTILS = [
    (["positions", "f(X, g(a))"], 0, "e 1 2 2.1\n", "positions: e 1 2 2.1\n", ""),
    (["positions", "f(X, g(a)"], 2, "", "", "error: offset 9: unexpected end of input\n"),
    (["subterm", "f(X, g(a))", "2.1"], 0, "a\n", "term: a\n", ""),
    (["subterm", "f(X, g(a))", "1.1"], 1, "", "",
     "error: invalid position 1.1 in f(X,g(a)): no subterm at 1.1\n"),
    (["subterm", "f(X, g(a))", "0"], 2, "", "", _NOT_A_POSITION.format("0")),
    (["subterm", "f(X", "0"], 2, "", "", "error: offset 3: unexpected end of input\n"),
    (["subterm", "f(X, g(a))", "\u0661"], 2, "", "", _NOT_A_POSITION.format("\u0661")),
    (["replace", "f(X, g(a))", "2.1", "b"], 0, "f(X,g(b))\n", "term: f(X,g(b))\n", ""),
    (["replace", "f(X, g(a))", "3", "b"], 1, "", "", "error: invalid position 3 in f(X,g(a)): no subterm at 3\n"),
    (["replace", "f(X, g(a))", "1", "c"], 2, "", "", "error: offset 0: unknown symbol 'c'\n"),
    (["replace", "f(X, g(a))", "x", "c"], 2, "", "", _NOT_A_POSITION.format("x")),
    (["apply", "{X -> a}", "f(X, Y)"], 0, "f(a,Y)\n", "term: f(a,Y)\n", ""),
    (["apply", "{a -> b}", "X"], 2, "", "", "error: offset 1: expected a variable, got 'a'\n"),
    (["apply", "{X -> a}", "f(X)"], 2, "", "", _F_ARITY),
    (["compose", "{X -> a}", "{Y -> f(X, X)}"], 0, "{X -> a, Y -> f(a,a)}\n", "substitution: {X -> a, Y -> f(a,a)}\n", ""),
    (["compose", "{X -> a", "{}"], 2, "", "", "error: offset 7: unexpected end of input\n"),
    (["match", "g(X)", "g(f(a, b))"], 0, "{X -> f(a,b)}\n", "status: matched\nwitness: {X -> f(a,b)}\n", ""),
    (["match", "f(X, X)", "f(a, b)"], 1, "no match: inconsistent-binding at 2\n",
     "status: no-match\nreason: inconsistent-binding\nposition: 2\n", ""),
    (["match", "g(a)", "g(b)"], 1, "no match: clash at 1\n", "status: no-match\nreason: clash\nposition: 1\n", ""),
    (["match", "f(a)", "g(a)"], 2, "", "", _F_ARITY),
]


def _golden_params(rows, *flags):
    return [
        pytest.param([*argv, *flags, "--output", mode], code, text if mode == "text" else structured, err,
                     id=f"{' '.join(argv)}|{mode}")
        for argv, code, text, structured, err in rows
        for mode in ("text", "structured")
    ]


class TestGolden:
    """Exact exit codes, stdout and stderr for every subcommand and output mode."""

    @pytest.mark.parametrize("algorithm", ["classic", "robinson", "efficient", "mm"])
    @pytest.mark.parametrize("argv, code, out, err", _golden_params(GOLDEN_UNIFY))
    def test_unify(self, sig_file, capsys, algorithm, argv, code, out, err):
        assert main(["unify", *argv, "--algorithm", algorithm, "--sig", sig_file]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("algorithm", ["classic", "robinson", "efficient"])
    @pytest.mark.parametrize("argv, code, out, err", _golden_params(GOLDEN_UNIFY_TRACE, "--trace"))
    def test_unify_trace(self, sig_file, capsys, algorithm, argv, code, out, err):
        assert main(["unify", *argv, "--algorithm", algorithm, "--sig", sig_file]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("argv, code, out, err", _golden_params(GOLDEN_MM_TRACE, "--trace"))
    def test_unify_mm_trace(self, sig_file, capsys, argv, code, out, err):
        assert main(["unify", *argv, "--algorithm", "mm", "--sig", sig_file]) == code
        assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("argv, code, out, err", _golden_params(GOLDEN_UTILS))
    def test_utils(self, sig_file, capsys, argv, code, out, err):
        assert main([*argv, "--sig", sig_file]) == code
        assert capsys.readouterr() == (out, err)


def _load_digest():
    path = Path(__file__).resolve().parent.parent / "tools" / "digest.py"
    spec = importlib.util.spec_from_file_location("digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main_through_the_full_parser(argv):
    """The reference for ``main``: every argument list parsed by a fresh
    ``build_parser()`` and run on the parsed subcommand."""
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    return _run(ns.command, ns)


def _golden_argvs(sig):
    """Every argument list of ``TestGolden``, with ``sig`` for the file."""
    return [
        ["unify", *param.values[0], "--algorithm", algorithm, "--sig", sig]
        for rows, algorithms in (
            (_golden_params(GOLDEN_UNIFY), ALGORITHMS),
            (_golden_params(GOLDEN_UNIFY_TRACE, "--trace"), ALGORITHMS[:3]),
            (_golden_params(GOLDEN_MM_TRACE, "--trace"), ALGORITHMS[3:]),
        )
        for param in rows
        for algorithm in algorithms
    ] + [[*param.values[0], "--sig", sig] for param in _golden_params(GOLDEN_UTILS)]


class TestDispatch:
    """``main`` reads plain argument lists itself and hands every other one
    to the shared parser; every output must be the full parser's.  The
    argument lists are those of the ``cli`` section of ``tools/digest.py``."""

    def test_one_subparser_per_command(self):
        (action,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert tuple(action.choices) == tuple(_COMMANDS)

    def test_covers_every_golden_argv(self):
        digest = _load_digest()
        covered = {tuple(argv) for argv in digest.cli_argvs()}
        assert [argv for argv in _golden_argvs(digest.SIG) if tuple(argv) not in covered] == []

    def test_reader_agrees_with_the_full_parser(self):
        """Where the reader takes an argument list, its namespace is the
        full parser's; and it takes every golden one, so a reader that
        declined everything would fail here."""
        digest = _load_digest()
        for argv in digest.cli_argvs():
            ns = _read_plain(list(argv))
            if ns is not None:
                assert (argv, vars(ns)) == (argv, vars(build_parser().parse_args(list(argv))))
        assert [argv for argv in _golden_argvs(digest.SIG) if _read_plain(argv) is None] == []

    def test_same_bytes_as_the_full_parser(self, sig_file, capsys, monkeypatch):
        """At three widths, since help and usage wrap by ``COLUMNS``."""
        digest = _load_digest()
        for columns in ("30", "80", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in digest.cli_argvs():
                argv = [arg.replace(digest.SIG, sig_file) for arg in argv]
                got = (main(argv), *capsys.readouterr())
                expected = (_main_through_the_full_parser(argv), *capsys.readouterr())
                assert (columns, argv, got) == (columns, argv, expected)


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "mgu.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


# Runs commands through ``main`` in one child process, under the
# interpreter's default recursion limit, and returns (exit code, stdout,
# stderr) for each.  The commands go through stdin: one command-line
# argument may hold at most 128 KiB on Linux, and the terms here are far
# larger.
_MAIN_CHILD = """
import contextlib, io, json, sys
from mgu.cli import main

results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append((code, out.getvalue(), err.getvalue()))
json.dump(results, sys.stdout)
"""


def _run_main_in_child(commands, timeout):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _MAIN_CHILD], input=json.dumps(commands), env=env,
                          capture_output=True, text=True, timeout=timeout)
    assert (proc.returncode, proc.stderr) == (0, "")  # no traceback
    return [tuple(result) for result in json.loads(proc.stdout)]


def _tree(leaves):
    while len(leaves) > 1:
        leaves = [f"f({leaves[i]},{leaves[i + 1]})" for i in range(0, len(leaves), 2)]
    return leaves[0]


def test_unify_efficient_on_a_wide_pair(tmp_path):
    """A balanced tree of 65,536 distinct variable leaves against one of
    constant leaves, through unify (instantiating the terms at every step
    would take minutes here), match, positions and apply."""
    sig = tmp_path / "wide.sig"
    sig.write_text("f/2\na/0\nb/0\n")
    n = 65_536
    xs = [f"X{i}" for i in range(n)]
    cs = ["b" if i % 3 else "a" for i in range(n)]
    s, t = _tree(xs), _tree(cs)
    witness = "{" + ", ".join(f"{x} -> {c}" for x, c in sorted(zip(xs, cs))) + "}\n"
    # Preorder is lexicographic order, and the tree is complete, 16 levels deep.
    positions = sorted(p for k in range(17) for p in itertools.product((1, 2), repeat=k))
    halved = "{" + ", ".join(f"{x} -> {c}" for x, c in sorted(zip(xs[::2], cs[::2]))) + "}"
    commands = [
        ["unify", s, t, "--algorithm", "efficient"],
        ["match", s, t],
        ["positions", t],
        ["apply", halved, s],
    ]
    results = _run_main_in_child([[*argv, "--sig", str(sig)] for argv in commands], timeout=60)
    assert results == [
        (0, witness, ""),
        (0, witness, ""),
        (0, " ".join(".".join(map(str, p)) or "e" for p in positions) + "\n", ""),
        (0, _tree([c if i % 2 == 0 else x for i, (x, c) in enumerate(zip(xs, cs))]) + "\n", ""),
    ]


def _g(depth, leaf):
    return "g(" * depth + leaf + ")" * depth


def _ones(depth):
    return ".".join(["1"] * depth) or "e"


class TestDeepInput:
    """Input of any depth goes through the CLI: the term parser and every
    command behind it walk terms with loops."""

    @pytest.fixture
    def deep_sig(self, tmp_path):
        path = tmp_path / "deep.sig"
        path.write_text("g/1\na/0\nb/0\n")
        return str(path)

    def test_unify_3000_deep(self, deep_sig):
        proc = _run_cli("unify", _g(3000, "X"), _g(3000, "a"), "--sig", deep_sig)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{X -> a}\n", "")

    def test_positions_1500_deep(self, deep_sig):
        # The output is quadratic in the depth, so this stays at 1,500 levels.
        proc = _run_cli("positions", _g(1500, "X"), "--sig", deep_sig)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == " ".join(_ones(k) for k in range(1501)) + "\n"

    def test_robinson_400_deep(self, deep_sig):
        # 400 levels once crashed classic and robinson in ``==``.
        for algorithm in ("classic", "robinson", "efficient", "mm"):
            proc = _run_cli("unify", _g(400, "X"), _g(400, "a"), "--sig", deep_sig,
                            "--algorithm", algorithm)
            assert (algorithm, proc.returncode, proc.stdout, proc.stderr) == (algorithm, 0, "{X -> a}\n", "")

    def test_900_deep_mgu_prints(self, deep_sig):
        # The mgu is as deep as the input, and printing it does not recurse.
        deep = _g(900, "a")
        for args in ((), ("--trace",), ("--output", "structured")):
            proc = _run_cli("unify", "X", deep, "--sig", deep_sig, *args)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert "{X -> " + deep + "}" in proc.stdout
        proc = _run_cli("unify", "X", deep, "--sig", deep_sig)
        assert proc.stdout == "{X -> " + deep + "}\n"

    def test_every_subcommand_far_past_the_old_limit(self, deep_sig):
        """unify with every algorithm at 100,000 levels; the other forms and
        the utilities past 20,000.  ``positions`` prints output quadratic in
        the depth, so it runs here on input that fails to parse at the
        bottom (and at 1,500 levels above)."""
        big, n = 100_000, 20_001
        cases = [
            *((["unify", _g(big, "X"), _g(big, "a"), "--algorithm", algorithm], (0, "{X -> a}\n", ""))
              for algorithm in ("classic", "robinson", "efficient", "mm")),
            (["unify", _g(n, "X"), _g(n, "a"), "--trace"],
             (0, f"step 1: pos={_ones(n)} bind X -> a vars 1 -> 0\nresult: {{X -> a}}\n", "")),
            (["unify", "X", _g(n, "X")], (1, f"fail: occurs X in {_g(n, 'X')} at e\n", "")),
            (["unify", _g(n, "a"), _g(n, "b")], (1, f"fail: clash a vs b at {_ones(n)}\n", "")),
            (["positions", _g(n, "h")], (2, "", f"error: offset {2 * n}: unknown symbol 'h'\n")),
            (["subterm", _g(n, "a"), _ones(n // 2)], (0, _g(n - n // 2, "a") + "\n", "")),
            (["subterm", _g(n, "a"), _ones(n + 2)],
             (1, "", f"error: invalid position {_ones(n + 2)} in {_g(n, 'a')}: no subterm at {_ones(n + 1)}\n")),
            (["replace", _g(n, "a"), _ones(n), "b"], (0, _g(n, "b") + "\n", "")),
            (["apply", "{X -> " + _g(n, "a") + "}", _g(n, "X")], (0, _g(2 * n, "a") + "\n", "")),
            (["compose", "{Y -> " + _g(n, "a") + "}", "{X -> " + _g(n, "Y") + "}"],
             (0, f"{{X -> {_g(2 * n, 'a')}, Y -> {_g(n, 'a')}}}\n", "")),
            (["match", _g(n, "X"), _g(2 * n, "a")], (0, f"{{X -> {_g(n, 'a')}}}\n", "")),
            (["match", _g(n, "a"), _g(n, "b")], (1, f"no match: clash at {_ones(n)}\n", "")),
        ]
        results = _run_main_in_child([[*argv, "--sig", deep_sig] for argv, _ in cases], timeout=120)
        for (argv, expected), result in zip(cases, results, strict=True):
            assert (argv[0], result) == (argv[0], expected)
