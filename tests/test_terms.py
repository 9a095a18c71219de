import os
import subprocess
import sys
from pathlib import Path

import pytest

from mgu.terms import (
    App,
    ArityError,
    InvalidPositionError,
    ROOT,
    Signature,
    UnknownSymbolError,
    Var,
    concat,
    format_position,
    format_term,
    is_valid_position,
    occurrences,
    parse_position,
    positions_of,
    replace_at,
    subterm_at,
    term_size,
    vars_of,
)
from mgu.terms import _equal_args

SIG = Signature({"a": 0, "b": 0, "f": 2, "g": 1, "h": 3})
X, Y = Var("X"), Var("Y")
a, b = SIG.app("a"), SIG.app("b")


def f(u, v):
    return SIG.app("f", u, v)


def g(u):
    return SIG.app("g", u)


class TestSignature:
    def test_arity_lookup(self):
        assert SIG.arity("f") == 2
        assert SIG.arity("a") == 0
        assert "g" in SIG and "zz" not in SIG

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            SIG.arity("zz")
        with pytest.raises(UnknownSymbolError):
            SIG.app("zz")

    def test_app_checks_arity(self):
        with pytest.raises(ArityError) as exc:
            SIG.app("f", a)
        assert exc.value.symbol == "f"
        assert exc.value.expected == 2
        assert exc.value.found == 1

    def test_rejects_uppercase_symbol(self):
        with pytest.raises(ValueError):
            Signature({"F": 1})

    def test_rejects_negative_arity(self):
        with pytest.raises(ValueError):
            Signature({"f": -1})

    def test_rejects_duplicates_from_pairs(self):
        with pytest.raises(ValueError):
            Signature([("f", 2), ("f", 1)])

    def test_symbols_sorted(self):
        assert SIG.symbols() == ["a", "b", "f", "g", "h"]

    def test_equality_and_hash_ignore_declaration_order(self):
        other = Signature([("g", 1), ("a", 0)])
        assert other == Signature({"a": 0, "g": 1})
        assert hash(other) == hash(Signature({"a": 0, "g": 1}))
        assert other != Signature({"a": 0})
        assert (other == 1) is False

    def test_repr_lists_symbols_sorted(self):
        assert repr(Signature([("g", 1), ("a", 0)])) == "Signature(a/0, g/1)"
        assert repr(Signature()) == "Signature()"


class TestTermBasics:
    def test_var_name_must_be_variable_class(self):
        assert Var("?x").name == "?x"
        with pytest.raises(ValueError):
            Var("x")
        with pytest.raises(ValueError):
            Var("")

    def test_structural_equality(self):
        assert f(X, a) == f(X, a)
        assert f(X, a) != f(a, X)
        assert X == Var("X")
        assert X != Y
        assert X != a
        assert hash(f(X, a)) == hash(f(X, a))

    def test_pretty_forms(self):
        assert format_term(X) == "X"
        assert format_term(a) == "a"
        assert format_term(f(X, g(a))) == "f(X,g(a))"
        assert repr(f(X, g(a))) == "f(X,g(a))"
        assert format_term(SIG.app("h", f(a, X), b, g(Y))) == "h(f(a,X),b,g(Y))"

    def test_100000_deep_chain_prints(self):
        n = 100_000
        assert format_term(chain(n, X)) == "g(" * n + "X" + ")" * n
        assert format_term(f(chain(n, a), X)) == "f(" + "g(" * n + "a" + ")" * n + ",X)"


def chain(n, leaf):
    for _ in range(n):
        leaf = g(leaf)
    return leaf


class TestEqualityWalk:
    """``==`` walks without recursion, and equal nodes end up sharing one argument tuple."""

    def test_100000_deep_chains_compare(self):
        s, t = chain(100_000, X), chain(100_000, X)
        assert s is not t and s.args is not t.args
        assert s == t and t == s
        assert s.args is t.args
        assert chain(100_000, X) != chain(100_000, a)

    def test_equal_nodes_adopt_one_args_tuple(self):
        def build():
            return SIG.app("h", chain(20, X), f(X, a), SIG.app("h", a, chain(20, Y), b))

        s, t = build(), build()
        before = [(hash(u), format_term(u), u.vars, u.size) for u in (s, t)]
        assert s == t
        assert s.args is t.args
        assert [(hash(u), format_term(u), u.vars, u.size) for u in (s, t)] == before
        assert s == t and t == s

    def test_small_terms_compare_without_adopting(self):
        s, t = f(g(X), SIG.app("h", a, Y, b)), f(g(X), SIG.app("h", a, Y, b))
        assert s.size <= 16
        assert s == t and not s != t
        assert s.args is not t.args

    def test_walk_stops_at_first_difference(self):
        # Hashes of unequal terms differ, so ``==`` never walks this pair;
        # the walk itself must still find the difference and adopt only the
        # argument pairs it found equal.
        s, t = f(chain(20, X), f(a, chain(20, b))), f(chain(20, X), f(a, chain(20, a)))
        assert _equal_args(s, t) is False
        assert s.args[0].args is t.args[0].args
        assert s.args is not t.args
        assert s.args[1].args is not t.args[1].args
        assert format_term(s.args[1]) == "f(a," + "g(" * 20 + "b" + ")" * 21

    def test_different_arities_are_unequal(self):
        # Applications of one symbol at two arities, which Signature.app
        # never builds, compare unequal.
        assert _equal_args(App("h", (a, b)), App("h", (a,))) is False
        assert _equal_args(App("h", (a, b)), App("h", (a, b, b))) is False

    @pytest.mark.parametrize("x, y", [
        (Var("X"), Var("Y")),  # two names
        (App("a"), App("b")),  # two symbols
        (g(a), g(b)),  # two argument tuples of at most _SMALL nodes
    ])
    def test_distinct_nodes_of_one_hash_are_unequal(self, x, y):
        # Two distinct nodes given one hash, as a collision would give them,
        # first arguments of two applications of more than _SMALL nodes that
        # also share a hash: the walk tells them apart by what they hold.
        y._hash = x._hash
        tail = X
        for _ in range(20):
            tail = g(tail)
        s, t = App("h", (x, tail, tail)), App("h", (y, tail, tail))
        t._hash = s._hash
        assert _equal_args(s, t) is False
        assert s != t and t != s

    def test_shared_chains_compare_in_linear_time(self):
        # Two separately built chains X_i = f(X_{i-1}, X_{i-1}): 2**65 - 1
        # nodes as trees, 65 as DAGs.  A subprocess, so that an exponential
        # walk fails on the timeout instead of hanging the suite.
        code = (
            "from mgu.terms import Signature\n"
            "sig = Signature({'f': 2, 'a': 0})\n"
            "def build(n):\n"
            "    x = sig.app('a')\n"
            "    for _ in range(n):\n"
            "        x = sig.app('f', x, x)\n"
            "    return x\n"
            "s, t = build(64), build(64)\n"
            "print(s is not t, s == t, t == s, s.size == 2 ** 65 - 1)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True True True True\n", "")


class TestPositions:
    def test_positions_of_variable(self):
        assert positions_of(X) == [ROOT]

    def test_positions_of_constant(self):
        assert positions_of(a) == [ROOT]

    def test_positions_of_nested(self):
        assert positions_of(f(X, g(a))) == [(), (1,), (2,), (2, 1)]

    def test_prefix_closed(self):
        ps = positions_of(f(g(f(X, a)), b))
        for p in ps:
            assert p[:-1] in ps or p == ROOT

    def test_positions_of_3000_deep_chain(self):
        n = 3000
        assert positions_of(chain(n, a)) == [(1,) * k for k in range(n + 1)]

    def test_is_valid_position(self):
        assert is_valid_position(X, ROOT)
        assert not is_valid_position(f(a, b), (3,))
        assert is_valid_position(f(X, g(a)), (2, 1))
        assert not is_valid_position(f(X, g(a)), (0,))

    def test_subterm_at_root(self):
        t = f(X, g(a))
        assert subterm_at(t, ROOT) is t

    def test_subterm_at_nested(self):
        assert subterm_at(f(X, g(a)), (2, 1)) == a

    def test_subterm_at_invalid_reports_prefix(self):
        with pytest.raises(InvalidPositionError) as exc:
            subterm_at(f(X, g(a)), (1, 1))
        assert exc.value.prefix == (1, 1)

    def test_concat(self):
        assert concat(ROOT, (2, 1)) == (2, 1)
        assert concat((1, 2), (1,)) == (1, 2, 1)
        assert concat((1, 2), ROOT) == (1, 2)


class TestReplace:
    def test_replace_root(self):
        assert replace_at(f(X, a), ROOT, b) == b

    def test_replace_leaf(self):
        assert replace_at(f(X, g(a)), (2, 1), b) == f(X, g(b))

    def test_replace_subtree(self):
        assert replace_at(f(X, Y), (2,), g(a)) == f(X, g(a))

    def test_replace_invalid(self):
        with pytest.raises(InvalidPositionError):
            replace_at(f(X, Y), (1, 1), a)

    def test_replace_with_own_subterm_is_identity(self):
        t = f(g(X), f(a, b))
        for p in positions_of(t):
            assert replace_at(t, p, subterm_at(t, p)) == t


class TestVarsAndOccurrences:
    def test_vars_of(self):
        assert vars_of(a) == frozenset()
        assert vars_of(X) == {"X"}
        assert vars_of(SIG.app("h", X, g(X), Y)) == {"X", "Y"}

    def test_occurrences_reflexive_at_root(self):
        t = f(X, a)
        assert ROOT in occurrences(t, t)

    def test_occurrences_of_variable(self):
        assert occurrences(f(X, g(X)), X) == [(1,), (2, 1)]

    def test_occurrences_in_ground_term(self):
        assert occurrences(f(a, b), X) == []

    def test_occurrences_in_100000_deep_chain(self):
        n = 100_000
        assert occurrences(chain(n, a), a) == [(1,) * n]


class TestSizeAndPositionText:
    def test_term_size(self):
        assert term_size(X) == 1
        assert term_size(a) == 1
        assert term_size(f(X, g(a))) == 4

    def test_size_equals_position_count(self):
        for t in (X, a, f(X, g(a)), SIG.app("h", a, f(X, X), g(b))):
            assert term_size(t) == len(positions_of(t))

    def test_format_position(self):
        assert format_position(ROOT) == "e"
        assert format_position((2, 1)) == "2.1"

    @pytest.mark.parametrize("text,expected", [("e", ROOT), ("1", (1,)), ("2.1", (2, 1))])
    def test_parse_position(self, text, expected):
        assert parse_position(text) == expected

    # Only ASCII digits: str.isdigit also holds for '\u0661' (Arabic-Indic
    # one), which int() reads as 1, and for '\u00b2' (superscript two),
    # which int() rejects with a message of its own.
    @pytest.mark.parametrize("bad", ["0", "1.x", "", "-1", "1..2", "\u0661", "\u00b2", "2.\u0661",
                                     "\uff11", "+1", " 1.2 .3"])
    def test_parse_position_rejects(self, bad):
        with pytest.raises(ValueError, match=r"^not a position: "):
            parse_position(bad)

    def test_position_text_round_trip(self):
        for p in (ROOT, (1,), (3, 1, 2)):
            assert parse_position(format_position(p)) == p
