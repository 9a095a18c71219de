import pytest

from mgu.substitution import (
    Matched,
    NoMatch,
    Subst,
    compose,
    identity,
    match_terms,
    more_general,
    singleton,
    subst_equal,
)
from mgu.terms import App, ROOT, Signature, Var, term_size

SIG = Signature({"a": 0, "b": 0, "f": 2, "g": 1})
X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b = SIG.app("a"), SIG.app("b")


def f(u, v):
    return SIG.app("f", u, v)


def g(u):
    return SIG.app("g", u)


class TestConstruction:
    def test_identity_is_empty(self):
        assert identity().dom() == frozenset()
        assert identity().apply(f(X, Y)) == f(X, Y)

    def test_identity_bindings_dropped(self):
        assert Subst({"X": X}) == identity()
        assert Subst({"X": X, "Y": a}) == Subst({"Y": a})

    def test_singleton(self):
        s = singleton("X", a)
        assert s.apply(X) == a
        assert s.apply(Y) == Y

    def test_singleton_rejects_identity_binding(self):
        with pytest.raises(ValueError):
            singleton("X", X)

    def test_rejects_non_variable_key(self):
        with pytest.raises(ValueError):
            Subst({"x": a})


class TestDomRanVran:
    def test_dom(self):
        assert identity().dom() == frozenset()
        assert singleton("X", a).dom() == {"X"}
        assert Subst({"X": a, "Y": f(Z, Z)}).dom() == {"X", "Y"}

    def test_ran_collapses_duplicates(self):
        assert identity().ran() == frozenset()
        assert Subst({"X": a, "Y": a}).ran() == {a}
        assert Subst({"X": f(Z, a)}).ran() == {f(Z, a)}

    def test_vran(self):
        assert singleton("X", a).vran() == frozenset()
        assert Subst({"X": f(Y, Z)}).vran() == {"Y", "Z"}
        assert identity().vran() == frozenset()


class TestApply:
    def test_apply_leafwise(self):
        assert Subst({"X": a}).apply(f(X, Y)) == f(a, Y)

    def test_apply_fixes_ground_terms(self):
        sigma = Subst({"X": g(a)})
        assert sigma.apply(a) == a
        assert sigma.apply(f(a, b)) == f(a, b)

    def test_apply_no_recursion_into_images(self):
        assert Subst({"X": g(Y)}).apply(g(X)) == g(g(Y))

    def test_shared_chain_stays_shared(self):
        # D_i = f(D_{i-1}, D_{i-1}) has 65 distinct nodes but 2**65 - 1 as a
        # tree: the call returns only if each distinct node is rebuilt once.
        d = X
        for _ in range(64):
            d = f(d, d)
        out = Subst({"X": a}).apply(d)
        assert out.args[0] is out.args[1]
        assert term_size(out) == 2**65 - 1

    def test_applied_equal_matches_apply(self):
        sigma = Subst({"X": g(Y), "Y": a})
        for s, t in [(X, g(Y)), (f(X, Y), f(g(Y), a)), (g(X), g(Y)), (a, b), (X, X)]:
            assert sigma.applied_equal(s, t) == (sigma.apply(s) == sigma.apply(t))


class TestCompose:
    def test_identity_is_two_sided_unit(self):
        sigma = Subst({"X": g(Z), "Y": a})
        assert compose(sigma, identity()) == sigma
        assert compose(identity(), sigma) == sigma

    def test_pointwise_definition(self):
        assert compose(Subst({"X": a}), Subst({"Y": f(X, X)})) == Subst(
            {"Y": f(a, a), "X": a}
        )

    def test_cancellation_drops_bindings(self):
        # tau maps Y to X, sigma maps X back: Y's binding cancels out.
        composed = compose(Subst({"X": Y}), Subst({"Y": X}))
        assert composed.apply(Y) == Y
        assert composed == Subst({"X": Y})

    def test_apply_law(self):
        sigma, tau = Subst({"X": a, "Z": g(Y)}), Subst({"Y": f(X, Z)})
        t = f(g(Y), f(X, Z))
        assert compose(sigma, tau).apply(t) == sigma.apply(tau.apply(t))


class TestRestrictIdempotentEqual:
    def test_restrict(self):
        sigma = Subst({"X": a, "Y": b})
        assert sigma.restrict({"X"}) == Subst({"X": a})
        assert sigma.restrict(set()) == identity()
        assert identity().restrict({"X", "Y"}) == identity()

    def test_is_idempotent(self):
        assert identity().is_idempotent()
        assert not Subst({"X": f(X, Y)}).is_idempotent()
        assert Subst({"X": g(Z), "Y": Z}).is_idempotent()

    def test_subst_equal(self):
        assert subst_equal(identity(), identity())
        assert not subst_equal(Subst({"X": a}), Subst({"X": a, "Y": b}))
        assert subst_equal(Subst({"X": a}), Subst({"X": a}))

    def test_rendering(self):
        assert str(identity()) == "{}"
        assert str(Subst({"Y": Z, "X": g(Z)})) == "{X -> g(Z), Y -> Z}"

    def test_items_sorted(self):
        assert [x for x, _ in Subst({"Z": a, "X": b}).items()] == ["X", "Z"]


def chain(n, leaf):
    for _ in range(n):
        leaf = g(leaf)
    return leaf


class TestAppliedEqual:
    """``applied_equal`` walks without recursion, once per pair of distinct nodes."""

    def test_100000_deep_chains(self):
        n = 100_000
        s, t = chain(n, f(X, Y)), chain(n, f(a, Y))
        assert Subst({"X": a}).applied_equal(s, t)
        assert Subst({"X": a}).applied_equal(t, s)
        assert not Subst({"X": b}).applied_equal(s, t)
        # An image compared against a deep term that still has to be instantiated.
        deep = Subst({"X": chain(n, a), "Y": a})
        assert deep.applied_equal(X, chain(n, Y))
        assert deep.applied_equal(chain(n, Y), X)
        assert not deep.applied_equal(X, chain(n - 1, Y))

    def test_shared_node_faces_each_partner(self):
        # A node of more than 16 nodes met twice, against two different
        # partners, or against one partner once instantiated and once not:
        # each is its own question, so neither answer may stand for the other.
        u = chain(20, X)
        for sigma in (identity(), Subst({"X": a})):
            assert not sigma.applied_equal(f(u, u), f(chain(20, X), chain(20, Y)))
            assert not sigma.applied_equal(f(u, u), f(chain(20, Y), chain(20, X)))
        sigma = Subst({"Z": chain(20, a), "X": a, "W": b})
        W = Var("W")
        assert not sigma.applied_equal(f(Z, Z), f(chain(20, X), chain(20, W)))
        assert not sigma.applied_equal(f(Z, Z), f(chain(20, W), chain(20, X)))
        big, other = chain(20, Y), chain(20, Y)
        sigma = Subst({"X": big, "Y": a})  # not idempotent: Y is bound and in X's image
        for s in (f(X, big), f(big, X)):
            t = f(other, other)
            assert sigma.apply(s) != sigma.apply(t)
            assert not sigma.applied_equal(s, t)

    def test_one_symbol_at_two_arities_is_never_equal(self):
        # Applications that Signature.app never builds: their instances differ.
        s, t = App("h", (X, a)), App("h", (X,))
        assert (identity().apply(s) == identity().apply(t)) is False
        assert identity().applied_equal(s, t) is False
        assert identity().applied_equal(t, s) is False


class TestMatch:
    def test_match_variable(self):
        out = match_terms(X, f(a, a))
        assert out == Matched(Subst({"X": f(a, a)}))

    def test_match_inconsistent_binding(self):
        out = match_terms(f(X, X), f(a, b))
        assert isinstance(out, NoMatch)
        assert out.reason == "inconsistent-binding"
        assert out.at == (2,)

    def test_match_clash_at_root(self):
        out = match_terms(g(a), f(a, b))
        assert out == NoMatch("clash", ROOT)

    def test_witness_applies(self):
        pattern, target = f(X, g(Y)), f(g(a), g(b))
        out = match_terms(pattern, target)
        assert isinstance(out, Matched)
        assert out.witness.apply(pattern) == target
        assert out.witness.dom() <= pattern.vars

    def test_pattern_variable_matching_itself(self):
        out = match_terms(f(X, X), f(X, X))
        assert out == Matched(identity())


class TestMoreGeneral:
    def test_reflexive(self):
        for sigma in (identity(), Subst({"X": a}), Subst({"X": g(Y), "Z": b})):
            assert more_general(sigma, sigma)

    def test_strictly_more_general(self):
        assert more_general(Subst({"X": Y}), Subst({"X": a, "Y": a}))

    def test_incomparable_ground_bindings(self):
        assert not more_general(Subst({"X": a}), Subst({"X": b}))

    def test_gamma_may_not_move_untouched_variables(self):
        # gamma = {Y -> a} satisfies the X constraint but then moves Y too.
        assert not more_general(Subst({"X": Y}), Subst({"X": a}))

    def test_identity_most_general(self):
        assert more_general(identity(), Subst({"X": f(a, b), "Y": Z}))
