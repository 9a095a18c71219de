import pytest

from mgu import oracle
from mgu.oracle import (
    EnumBound,
    EquationSet,
    enum_substitutions,
    enum_terms,
    enumerated_unifiers,
    solve_equations,
)
from mgu.substitution import Subst, identity, more_general
from mgu.terms import Signature, Var
from mgu.unify import Clash, Failed, OccursCheck, Unified, is_unifier, robinson_unify

SIG = Signature({"a": 0, "b": 0, "f": 2, "g": 1})
X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = SIG.app("a"), SIG.app("b")


def f(u, v):
    return SIG.app("f", u, v)


def g(u):
    return SIG.app("g", u)


class TestSolveEquations:
    def test_single_binding(self):
        assert solve_equations(EquationSet([(X, a)])) == Unified(Subst({"X": a}), 1)

    def test_occurs_check(self):
        out = solve_equations(EquationSet([(X, g(X))]))
        assert out == Failed(OccursCheck("X", g(X), ()))

    def test_failure_positions_read_from_the_root(self):
        clash = solve_equations(EquationSet([(f(a, f(g(a), X)), f(a, f(g(b), Y)))]))
        assert clash == Failed(Clash((2, 1, 1), "a", "b"))
        occurs = solve_equations(EquationSet([(f(a, f(g(X), b)), f(a, f(g(g(X)), b)))]))
        assert occurs == Failed(OccursCheck("X", g(X), (2, 1, 1)))

    def test_agrees_with_robinson_on_flagship(self):
        s, t = f(X, g(Y)), f(g(Z), X)
        out = solve_equations(EquationSet([(s, t)]))
        direct = robinson_unify(s, t)
        assert isinstance(out, Unified) and isinstance(direct, Unified)
        assert more_general(out.mgu, direct.mgu)
        assert more_general(direct.mgu, out.mgu)

    def test_empty_system(self):
        assert solve_equations(EquationSet()) == Unified(identity(), 0)

    def test_system_with_shared_variables(self):
        out = solve_equations(EquationSet([(X, g(Y)), (Y, a)]))
        assert isinstance(out, Unified)
        assert out.mgu == Subst({"X": g(a), "Y": a})

    def test_cross_equation_clash(self):
        out = solve_equations(EquationSet([(X, a), (X, b)]))
        assert isinstance(out, Failed)

    def test_result_is_idempotent(self):
        out = solve_equations(EquationSet([(f(X, Y), f(g(Z), g(X)))]))
        assert isinstance(out, Unified)
        assert out.mgu.is_idempotent()
        assert is_unifier(out.mgu, f(X, Y), f(g(Z), g(X)))

    @pytest.mark.parametrize("unlisted", [0, 10**9])
    def test_index_and_scan_agree(self, monkeypatch, unlisted):
        # With every pending equation listed at each elimination: X := Y
        # lists f(Y, Z) = f(Z, b), which is popped before Y := Z; Y := Z
        # rewrites g(Y) = g(a), which Z := b then finds only under the
        # variable it gained, and g(Z) = g(Y), which it rewrites and lists
        # under Z a second time, so Z := b passes by popped entries and by one
        # rewritten already.  With none listed, every elimination scans.
        monkeypatch.setattr(oracle, "_UNLISTED", unlisted)
        eqs = EquationSet([(X, Y), (f(Y, Z), f(Z, b)), (g(Z), g(Y)), (g(Y), g(a))])
        assert solve_equations(eqs) == Failed(Clash((1,), "b", "a"))
        # X := a lists f(Y, g(Y)) = f(Z, g(b)); the arguments pushed when it
        # is popped are not listed, and Y := Z must still rewrite g(Y) = g(b).
        eqs = EquationSet([(X, a), (f(Y, g(Y)), f(Z, g(b)))])
        assert solve_equations(eqs) == Unified(Subst({"X": a, "Y": b, "Z": b}), 3)


class TestEnumTerms:
    def test_depth_zero_leaves_only(self):
        bound = EnumBound(0, ("X",), Signature({"a": 0}))
        assert enum_terms(bound) == [X, Signature({"a": 0}).app("a")]

    def test_one_application_layer(self):
        sig = Signature({"a": 0, "g": 1})
        bound = EnumBound(1, (), sig)
        assert enum_terms(bound) == [sig.app("a"), sig.app("g", sig.app("a"))]

    def test_no_leaf_constructors(self):
        assert enum_terms(EnumBound(0, (), Signature({"g": 1}))) == []

    def test_each_term_once_and_within_height(self):
        bound = EnumBound(2, ("X", "Y"), SIG)
        terms = enum_terms(bound)
        assert len(terms) == len(set(terms)) == 604

        def height(t):
            return max((height(s) + 1 for s in getattr(t, "args", ())), default=0)

        assert all(height(t) <= 2 for t in terms)

    def test_deterministic(self):
        bound = EnumBound(1, ("X",), SIG)
        assert enum_terms(bound) == enum_terms(bound)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            EnumBound(-1, (), SIG)


class TestEnumSubstitutions:
    def test_empty_domain(self):
        assert enum_substitutions((), EnumBound(0, (), SIG)) == [identity()]

    def test_identity_binding_excluded(self):
        bound = EnumBound(0, ("X",), Signature({"a": 0}))
        out = enum_substitutions(("X",), bound)
        assert out == [identity(), Subst({"X": Signature({"a": 0}).app("a")})]

    def test_product_enumeration(self):
        sig = Signature({"a": 0})
        out = enum_substitutions(("X", "Y"), EnumBound(0, (), sig))
        ca = sig.app("a")
        assert out == [
            identity(),
            Subst({"X": ca}),
            Subst({"Y": ca}),
            Subst({"X": ca, "Y": ca}),
        ]

    def test_count_is_product_of_choices(self):
        bound = EnumBound(1, ("X", "Y"), SIG)
        n_terms = len(enum_terms(bound))
        out = enum_substitutions(("X", "Y"), bound)
        # per variable: every enumerated term except itself, plus "unbound"
        assert len(out) == n_terms * n_terms
        assert len(set(map(str, out))) == len(out)


class TestEnumeratedUnifiers:
    def test_equal_ground_terms_unified_by_everything(self):
        bound = EnumBound(0, ("X",), Signature({"a": 0, "b": 0}))
        subs = enum_substitutions((), bound)
        assert enumerated_unifiers(a, a, bound) == subs == [identity()]

    def test_clashing_constants_have_none(self):
        bound = EnumBound(1, ("X", "Y"), SIG)
        assert enumerated_unifiers(a, b, bound) == []

    def test_filters_by_is_unifier(self):
        bound = EnumBound(0, ("X",), Signature({"a": 0, "b": 0}))
        sig0 = Signature({"a": 0, "b": 0})
        assert enumerated_unifiers(X, sig0.app("a"), bound) == [Subst({"X": sig0.app("a")})]

    def test_all_results_unify(self):
        bound = EnumBound(1, ("X", "Y"), SIG)
        s, t = f(X, g(Y)), f(X, X)
        for sigma in enumerated_unifiers(s, t, bound):
            assert is_unifier(sigma, s, t)

    def test_100000_deep_chains(self):
        """The walk over the pair takes any depth, with no interpreter frames."""
        bound = EnumBound(0, ("X",), SIG)
        s, t = X, a
        for _ in range(100_000):
            s, t = g(s), g(t)
        assert enumerated_unifiers(s, t, bound) == [Subst({"X": a})]
        assert enumerated_unifiers(X, t, bound) == []
        assert enumerated_unifiers(Y, s, bound) == []
