import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from mgu.cli import (
    ParseError,
    SessionConfig,
    cmd_unify,
    cmd_utils,
    main,
    parse_signature,
    parse_subst,
    parse_term,
)
from mgu.substitution import Subst
from mgu.terms import Signature, Var, format_term

SIG = Signature({"a": 0, "b": 0, "f": 2, "g": 1})
X, Y = Var("X"), Var("Y")
a = SIG.app("a")

SIG_TEXT = "f/2\ng/1\na/0\nb/0\n"


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

    def test_config_surface_directly(self, sig_file, capsys):
        config = SessionConfig(signature_path=sig_file, algorithm="classic")
        assert cmd_unify(config, "X", "g(a)") == 0
        assert capsys.readouterr().out == "{X -> g(a)}\n"

    def test_unknown_algorithm_directly(self, capsys):
        assert cmd_unify(SessionConfig(algorithm="zzz"), "X", "Y") == 2
        assert capsys.readouterr() == ("", "error: unknown algorithm 'zzz'\n")


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

    def test_utils_surface_directly(self, sig_file, capsys):
        config = SessionConfig(signature_path=sig_file)
        assert cmd_utils(config, "positions", ["g(g(a))"]) == 0
        assert capsys.readouterr().out == "e 1 1.1\n"


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

    @pytest.mark.parametrize("subcommand", ["nope", "unify"])
    def test_unknown_utility(self, sig_file, capsys, subcommand):
        assert cmd_utils(SessionConfig(signature_path=sig_file), subcommand, []) == 2
        assert capsys.readouterr() == ("", f"error: unknown subcommand {subcommand!r}\n")


def _run_cli(*argv):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-m", "mgu.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestDeepInput:
    """Input nested past what the recursive parser takes is an input error, not a crash."""

    @pytest.fixture
    def deep_sig(self, tmp_path):
        path = tmp_path / "deep.sig"
        path.write_text("g/1\na/0\n")
        return str(path)

    @staticmethod
    def chain(depth, leaf):
        return "g(" * depth + leaf + ")" * depth

    def assert_too_deep(self, proc):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: input nested too deeply\n"

    def test_unify_3000_deep(self, deep_sig):
        self.assert_too_deep(_run_cli("unify", self.chain(3000, "X"), self.chain(3000, "a"), "--sig", deep_sig))

    def test_positions_3000_deep(self, deep_sig):
        self.assert_too_deep(_run_cli("positions", self.chain(3000, "X"), "--sig", deep_sig))

    def test_robinson_400_deep(self, deep_sig):
        # 400 levels once crashed classic and robinson in ``==``; the term
        # walks of every algorithm are iterative now, only the parser recurses.
        for algorithm in ("classic", "robinson", "efficient", "mm"):
            proc = _run_cli("unify", self.chain(400, "X"), self.chain(400, "a"), "--sig", deep_sig,
                            "--algorithm", algorithm)
            assert (algorithm, proc.returncode, proc.stdout, proc.stderr) == (algorithm, 0, "{X -> a}\n", "")

    def test_efficient_400_deep_still_unifies(self, deep_sig):
        proc = _run_cli("unify", self.chain(400, "X"), self.chain(400, "a"), "--sig", deep_sig,
                        "--algorithm", "efficient")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "{X -> a}\n", "")

    def test_900_deep_mgu_prints(self, deep_sig):
        # The mgu is as deep as the input; printing it no longer recurses,
        # so only the parser limits the depth.
        deep = self.chain(900, "a")
        for args in ((), ("--trace",), ("--output", "structured")):
            proc = _run_cli("unify", "X", deep, "--sig", deep_sig, *args)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert "{X -> " + deep + "}" in proc.stdout
        proc = _run_cli("unify", "X", deep, "--sig", deep_sig)
        assert proc.stdout == "{X -> " + deep + "}\n"
