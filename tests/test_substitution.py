import random

import pytest

from mgu.oracle import EnumBound, enum_substitutions, enum_terms
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


def shared_chain(n, leaf):
    """``D_n`` for ``D_0 = leaf`` and ``D_i = f(D_{i-1}, D_{i-1})``: n + 1
    distinct nodes, 2**(n + 1) - 1 as a tree."""
    for _ in range(n):
        leaf = f(leaf, leaf)
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

    def test_one_symbol_at_two_arities_is_ill_formed(self):
        # Applications that Signature.app never builds: no witness can
        # turn f(X) into f(a,b), so there is none to return.
        with pytest.raises(ValueError, match="ill-formed"):
            match_terms(App("f", (X,)), f(a, b))
        with pytest.raises(ValueError, match="ill-formed"):
            match_terms(f(X, a), App("f", (a,)))

    def test_100000_deep_chains(self):
        n = 100_000
        assert match_terms(chain(n, X), chain(n, a)) == Matched(Subst({"X": a}))
        assert match_terms(chain(n, a), chain(n, b)) == NoMatch("clash", (1,) * n)

    def test_shared_chains(self):
        # Returns only if each pair of distinct nodes is matched once.
        pattern, target = shared_chain(40, X), shared_chain(40, Y)
        outcomes = [
            match_terms(pattern, target),
            match_terms(f(pattern, X), f(target, a)),
            match_terms(f(pattern, pattern), f(target, shared_chain(40, a))),
        ]
        assert outcomes == [
            Matched(Subst({"X": Y})),
            NoMatch("inconsistent-binding", (2,)),
            NoMatch("inconsistent-binding", (2,) + (1,) * 40),
        ]


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

    def test_one_symbol_at_two_arities_is_ill_formed(self):
        with pytest.raises(ValueError, match="ill-formed"):
            more_general(Subst({"X": App("f", (Y,))}), Subst({"X": f(a, b)}))
        # Matched in name order, whatever the string hashing: a clash at X
        # comes before Y's ill-formed images, one at Z after them.
        assert not more_general(Subst({"X": a, "Y": App("f", (Z,))}), Subst({"X": b, "Y": f(a, b)}))
        with pytest.raises(ValueError, match="ill-formed"):
            more_general(Subst({"Y": App("f", (Z,)), "Z": a}), Subst({"Y": f(a, b), "Z": b}))

    def test_100000_deep_chains(self):
        n = 100_000
        assert more_general(Subst({"Y": chain(n, X)}), Subst({"X": a, "Y": chain(n, a)}))

    def test_shared_chains(self):
        # Returns only if each pair of distinct nodes is matched once.  The
        # outcomes are asserted as plain values: a failure message printing
        # the chains would print trees of 2**41 nodes.
        theta = Subst({"Z": shared_chain(40, X)})
        outcomes = [
            more_general(theta, Subst({"Z": shared_chain(40, Y), "X": Y})),
            more_general(theta, Subst({"Z": shared_chain(40, a), "X": a})),
            # gamma = {X -> Y} would move X as well.
            more_general(theta, Subst({"Z": shared_chain(40, Y)})),
            more_general(Subst({"Z": shared_chain(40, a)}), theta),
        ]
        assert outcomes == [True, True, False, False]

    def test_identity_most_general(self):
        assert more_general(identity(), Subst({"X": f(a, b), "Y": Z}))

    def test_agrees_with_a_search_over_every_gamma(self):
        """``more_general`` against a brute force that knows nothing of
        matching: whether some gamma of height at most 1 over ``X`` and
        ``Y`` has compose(gamma, theta) == sigma.

        The search is exact here.  Every image drawn is of height at most 1
        over ``X`` and ``Y``.  When sigma is drawn too, a witness, if there
        is one, binds only ``X`` and ``Y``, to subterms of sigma's images,
        and lies inside the bound.  When sigma is gamma after theta for a
        drawn gamma, built here from the definition and not by
        ``compose``, the search finds that gamma.  Variables are drawn as
        often as all other images together, so that gamma often undoes a
        renaming in theta and ``compose`` has an identity binding to drop.
        """
        bound = EnumBound(1, ("X", "Y"), SIG)
        gammas = enum_substitutions(("X", "Y"), bound)
        pool = enum_terms(bound) + [X, Y] * 10
        rng = random.Random(1601)

        def drawn():
            return Subst({x: rng.choice(pool) for x in ("X", "Y") if rng.random() < 0.6})

        answers = []
        for i in range(400):
            theta = drawn()
            if i % 2:
                sigma = drawn()
            else:
                witness = drawn()
                sigma = Subst({x: witness.apply(theta.get(x)) for x in theta.dom() | witness.dom()})
            searched = any(compose(gamma, theta) == sigma for gamma in gammas)
            assert more_general(theta, sigma) == searched, (theta, sigma)
            answers.append(searched)
        assert 0 < answers[1::2].count(True) < 200
