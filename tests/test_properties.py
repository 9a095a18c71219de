"""Randomized checks of the algebraic laws the library is built around."""

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from mgu import oracle
from mgu.oracle import (
    EnumBound,
    EquationSet,
    enum_substitutions,
    enum_terms,
    enumerated_unifiers,
    solve_equations,
)
from mgu.substitution import (
    Matched,
    Subst,
    _instantiate,
    compose,
    identity,
    match_terms,
    more_general,
    singleton,
)
from mgu.terms import (
    App,
    Signature,
    Var,
    concat,
    format_term,
    is_valid_position,
    positions_of,
    replace_at,
    subterm_at,
    term_size,
    vars_of,
)
from mgu.unify import (
    Unified,
    classic_unify,
    format_trace_step,
    is_mgu,
    is_unifier,
    robinson_unify,
    robinson_unify_efficient,
    sub_of_frst_diff,
)

SIG = Signature({"a": 0, "b": 0, "f": 2, "g": 1})
VARS = ("X", "Y", "Z", "W")

_leaves = st.sampled_from([Var(v) for v in VARS] + [SIG.app("a"), SIG.app("b")])


def _extend(children):
    return st.one_of(
        st.builds(lambda u: SIG.app("g", u), children),
        st.builds(lambda u, v: SIG.app("f", u, v), children, children),
    )


terms_st = st.recursive(_leaves, _extend, max_leaves=10)
substs_st = st.dictionaries(st.sampled_from(VARS), terms_st, max_size=3).map(Subst)

# Pairs over two variables keep the unifier enumeration small.
_leaves_xy = st.sampled_from([Var("X"), Var("Y"), SIG.app("a"), SIG.app("b")])
terms_xy_st = st.recursive(_leaves_xy, _extend, max_leaves=6)


@st.composite
def term_and_position(draw):
    t = draw(terms_st)
    ps = positions_of(t)
    return t, ps[draw(st.integers(0, len(ps) - 1))]


DEFAULT = settings(max_examples=120, deadline=None)


@DEFAULT
@given(term_and_position())
def test_subterm_of_concat_splits(tp):
    t, r = tp
    for k in range(len(r) + 1):
        p, q = r[:k], r[k:]
        assert subterm_at(t, concat(p, q)) == subterm_at(subterm_at(t, p), q)


@DEFAULT
@given(term_and_position(), st.data())
def test_concat_of_valid_positions_is_valid(tp, data):
    t, p = tp
    inner = positions_of(subterm_at(t, p))
    q = inner[data.draw(st.integers(0, len(inner) - 1))]
    assert is_valid_position(t, concat(p, q))


@DEFAULT
@given(terms_st)
def test_positions_prefix_closed_and_sized(t):
    ps = positions_of(t)
    assert len(ps) == len(set(ps)) == term_size(t)
    assert all(p[:-1] in set(ps) for p in ps if p)
    assert ps == sorted(ps)


@DEFAULT
@given(substs_st, term_and_position())
def test_apply_commutes_with_subterm(sigma, tp):
    t, p = tp
    assert sigma.apply(subterm_at(t, p)) == subterm_at(sigma.apply(t), p)


@DEFAULT
@given(substs_st, term_and_position())
def test_apply_preserves_positions(sigma, tp):
    t, p = tp
    assert is_valid_position(sigma.apply(t), p)


@DEFAULT
@given(substs_st, terms_st)
def test_positions_of_applied_term_formula(sigma, t):
    image = sigma.apply(t)
    expected = set()
    for p in positions_of(t):
        sub = subterm_at(t, p)
        if isinstance(sub, Var):
            expected.update(concat(p, q) for q in positions_of(sigma.apply(sub)))
        else:
            expected.add(p)
    assert set(positions_of(image)) == expected


@DEFAULT
@given(substs_st, term_and_position())
def test_apply_preserves_head_symbols(sigma, tp):
    t, p = tp
    sub = subterm_at(t, p)
    if not isinstance(sub, Var):
        assert subterm_at(sigma.apply(t), p).symbol == sub.symbol


@DEFAULT
@given(substs_st, terms_st)
def test_eliminated_variables_stay_gone(sigma, t):
    gone = sigma.dom() - sigma.vran()
    applied_vars = vars_of(sigma.apply(t))
    assert not (gone & applied_vars)


@DEFAULT
@given(substs_st, substs_st, terms_st)
def test_compose_apply_law(sigma, tau, t):
    assert compose(sigma, tau).apply(t) == sigma.apply(tau.apply(t))


@DEFAULT
@given(substs_st, substs_st, substs_st)
def test_compose_associative(s1, s2, s3):
    assert compose(s1, compose(s2, s3)) == compose(compose(s1, s2), s3)


@DEFAULT
@given(substs_st, substs_st, terms_st, st.sets(st.sampled_from(VARS)))
def test_unvalidated_results_are_valid_substitutions(sigma, tau, t, names):
    """``compose``, ``match_terms`` and ``Subst.restrict`` build their results
    with ``Subst._of``, which takes a table as it is: each must store no
    identity binding and equal what the validating constructor makes of it."""
    composed = compose(sigma, tau)
    matched = match_terms(t, sigma.apply(t))
    assert isinstance(matched, Matched)
    assert matched.witness == sigma.restrict(t.vars)
    assert composed.apply(t) == sigma.apply(tau.apply(t))
    for rho in (composed, matched.witness, sigma.restrict(names)):
        assert not [x for x, u in rho.items() if u == Var(x)]
        assert rho == Subst(dict(rho.items()))


@DEFAULT
@given(substs_st, terms_st, terms_st)
def test_applied_equal_agrees_with_apply(sigma, s, t):
    assert sigma.applied_equal(s, t) == (sigma.apply(s) == sigma.apply(t))


@DEFAULT
@given(substs_st)
def test_idempotence_characterizations_agree(sigma):
    by_composition = compose(sigma, sigma) == sigma
    assert by_composition == sigma.dom().isdisjoint(sigma.vran())
    assert sigma.is_idempotent() == by_composition


@DEFAULT
@given(substs_st)
def test_more_general_reflexive(sigma):
    assert more_general(sigma, sigma)


@DEFAULT
@given(substs_st, substs_st, substs_st)
def test_more_general_on_constructed_chain(theta, g1, g2):
    mid = compose(g1, theta)
    far = compose(g2, mid)
    assert more_general(theta, mid)
    assert more_general(mid, far)
    assert more_general(theta, far)


@DEFAULT
@given(substs_st, substs_st, substs_st)
def test_more_general_respects_composition(sig, gamma, theta):
    rho = compose(gamma, sig)
    assert more_general(compose(sig, theta), compose(rho, theta))


@DEFAULT
@given(terms_st, terms_st)
def test_algorithms_and_oracle_agree(s, t):
    outcomes = [
        classic_unify(s, t),
        robinson_unify(s, t),
        robinson_unify_efficient(s, t),
        solve_equations(EquationSet([(s, t)])),
    ]
    flags = [isinstance(o, Unified) for o in outcomes]
    assert len(set(flags)) == 1
    if flags[0]:
        assert outcomes[0].mgu == outcomes[1].mgu == outcomes[2].mgu
        assert more_general(outcomes[3].mgu, outcomes[1].mgu)
        assert more_general(outcomes[1].mgu, outcomes[3].mgu)


@DEFAULT
@given(terms_st, terms_st)
def test_returned_mgu_unifies_and_is_idempotent(s, t):
    out = robinson_unify(s, t)
    if isinstance(out, Unified):
        assert is_unifier(out.mgu, s, t)
        assert out.mgu.is_idempotent()


@DEFAULT
@given(terms_st, terms_st)
def test_trace_measure_decreases_by_one(s, t):
    steps = []
    robinson_unify(s, t, trace=steps.append)
    for ts in steps:
        assert ts.vars_after == ts.vars_before - 1


# Most random pairs do not unify, so the assume() rejects most draws and the
# filter_too_much health check failed about one run in eight.
@settings(DEFAULT, suppress_health_check=[HealthCheck.filter_too_much])
@given(terms_st, terms_st)
def test_resolving_first_diff_eliminates_exactly_its_domain(s, t):
    assume(s != t and isinstance(robinson_unify(s, t), Unified))
    sigma = sub_of_frst_diff(s, t)
    after = vars_of(sigma.apply(s)) | vars_of(sigma.apply(t))
    assert after == (vars_of(s) | vars_of(t)) - sigma.dom()


@settings(max_examples=40, deadline=None)
@given(terms_xy_st, terms_xy_st)
def test_mgu_certified_against_enumerated_unifiers(s, t):
    out = robinson_unify(s, t)
    if isinstance(out, Unified):
        bound = EnumBound(1, ("X", "Y"), SIG)
        candidates = enumerated_unifiers(s, t, bound)
        assert is_mgu(out.mgu, s, t, candidates)
        for sigma in candidates:
            assert sigma == compose(sigma, out.mgu)


# Pairs over 0 to 3 variables and a signature with an arity-3 symbol, for
# the pruned unifier enumeration against the unpruned filter.
SIG3 = Signature({"a": 0, "b": 0, "f": 2, "g": 1, "h": 3})


@st.composite
def pairs_over_up_to_three_vars(draw):
    names = draw(st.sampled_from([(), ("X",), ("X", "Y"), ("X", "Y", "Z")]))
    leaves = st.sampled_from([Var(n) for n in names] + [SIG3.app("a"), SIG3.app("b")])
    terms = st.recursive(
        leaves,
        lambda c: st.one_of(
            st.builds(lambda u: SIG3.app("g", u), c),
            st.builds(lambda u, v: SIG3.app("f", u, v), c, c),
            st.builds(lambda u, v, w: SIG3.app("h", u, v, w), c, c, c),
        ),
        max_leaves=6,
    )
    return draw(terms), draw(terms)


def _f3(u, v):
    return SIG3.app("f", u, v)


@settings(max_examples=150, deadline=None)
@given(pairs_over_up_to_three_vars())
# Y faces only X: a per-variable filter on Y alone prunes nothing.
@example((_f3(_f3(SIG3.app("b"), Var("Y")), _f3(SIG3.app("a"), Var("Y"))),
          _f3(_f3(SIG3.app("b"), Var("Y")), _f3(Var("X"), Var("X")))))
@example((SIG3.app("h", Var("X"), Var("Y"), Var("Z")), SIG3.app("h", Var("Y"), Var("Z"), Var("X"))))
@example((SIG3.app("h", Var("X"), SIG3.app("g", Var("Y")), Var("Z")),
          SIG3.app("h", Var("Z"), Var("X"), SIG3.app("a"))))
# X faces Y and Y faces Z: three variables in one class.
@example((SIG3.app("h", Var("X"), Var("Y"), SIG3.app("g", Var("Z"))),
          SIG3.app("h", Var("Y"), Var("Z"), SIG3.app("g", SIG3.app("a")))))
# One class whose members face different ground terms.
@example((SIG3.app("h", Var("X"), Var("X"), Var("Y")), SIG3.app("h", Var("Y"), SIG3.app("a"), SIG3.app("b"))))
# One variable facing two different ground terms.
@example((_f3(Var("X"), Var("X")), _f3(SIG3.app("a"), SIG3.app("b"))))
# One variable facing a ground term and an open one.
@example((_f3(Var("X"), _f3(Var("X"), Var("Y"))),
          _f3(_f3(SIG3.app("a"), SIG3.app("b")), _f3(_f3(SIG3.app("a"), Var("Y")), SIG3.app("b")))))
# Y faces an open term that holds X, which faces nothing.
@example((_f3(Var("Y"), Var("X")), _f3(SIG3.app("g", Var("X")), Var("X"))))
# X and Y form one class, and Y faces g(X): the class is inside its own open term.
@example((_f3(Var("X"), Var("Y")), _f3(Var("Y"), SIG3.app("g", Var("X")))))
# Two open terms chained over X, Y and Z: X faces g(Y), Y faces g(Z).
@example((SIG3.app("h", Var("X"), Var("Y"), Var("Z")),
          SIG3.app("h", SIG3.app("g", Var("Y")), SIG3.app("g", Var("Z")), Var("Z"))))
# Y faces g(a), so X's open term g(Y) has the instance g(g(a)), taller than the bound.
@example((_f3(Var("X"), Var("Y")), _f3(SIG3.app("g", Var("Y")), SIG3.app("g", SIG3.app("a")))))
# X faces f(Y, a) and f(Y, Y): one class facing two open terms.
@example((_f3(Var("X"), Var("X")),
          _f3(_f3(Var("Y"), SIG3.app("a")), _f3(Var("Y"), Var("Y")))))
def test_enumerated_unifiers_matches_unpruned_filter(pair):
    s, t = pair
    domain = sorted(s.vars | t.vars)
    # Keeps each reference under 10^4 candidates: 88^2 for two variables
    # at height 1, 5^3 for three at height 0.
    if len(domain) < 3:
        bound = EnumBound(1, ("X", "Y"), SIG3)
    else:
        bound = EnumBound(0, ("X", "Y", "Z"), SIG3)
    reference = [sigma for sigma in enum_substitutions(domain, bound) if is_unifier(sigma, s, t)]
    got = enumerated_unifiers(s, t, bound)
    assert len(got) == len(reference)
    assert all(a is b for a, b in zip(got, reference))


class _CountedIsUnifier:
    """``is_unifier`` that counts its calls, for ``mgu.oracle`` to look up."""

    def __init__(self):
        self.calls = 0

    def __call__(self, sigma, s, t):
        self.calls += 1
        return is_unifier(sigma, s, t)


# At height 0 no open term leaves its variables an image, so the examples
# above over three variables never reach the search; these do, against
# 15**3 candidates: images of height 2 over a, b and g/1.
_G3 = Signature({"a": 0, "b": 0, "g": 1})


def _g(*args):
    return SIG3.app("g", *args)


def _h(*args):
    return SIG3.app("h", *args)


@pytest.mark.parametrize("s, t", [
    # X faces g(Y) and Y faces g(Z): Z's image fixes Y's, which fixes X's.
    (_h(Var("X"), Var("Y"), Var("Z")), _h(_g(Var("Y")), _g(Var("Z")), Var("Z"))),
    # The same chain, with X also facing a ground term that checks it.
    (_h(Var("X"), Var("Y"), Var("X")), _h(_g(Var("Y")), _g(Var("Z")), _g(_g(SIG3.app("a"))))),
    # A cycle of open terms: X faces g(Y) and Y faces g(X).
    (_h(Var("X"), Var("Y"), Var("Z")), _h(_g(Var("Y")), _g(Var("X")), SIG3.app("a"))),
    # X and Y form one class, which faces g(Z); Z faces b.
    (_h(Var("X"), Var("Y"), Var("Z")), _h(Var("Y"), _g(Var("Z")), SIG3.app("b"))),
])
def test_enumerated_unifiers_searches_chains_over_three_variables(monkeypatch, s, t):
    bound = EnumBound(2, ("X", "Y", "Z"), _G3)
    reference = [sigma for sigma in enum_substitutions(("X", "Y", "Z"), bound) if is_unifier(sigma, s, t)]
    counted = _CountedIsUnifier()
    monkeypatch.setattr(oracle, "is_unifier", counted)
    got = enumerated_unifiers(s, t, bound)
    assert len(got) == len(reference) == counted.calls
    assert all(a is b for a, b in zip(got, reference))


def _f(u, v):
    return SIG.app("f", u, v)


@pytest.mark.parametrize("s, t, checked", [
    # X and Y face each other: one image for both, not 24 * 24 pairs.
    (_f(_f(Var("X"), Var("X")), _f(Var("Y"), SIG.app("a"))),
     _f(_f(Var("X"), Var("X")), _f(Var("X"), SIG.app("a"))), 24),
    # Y faces a, and X faces Y: X's image is a too, not one of 24.
    (_f(_f(Var("Y"), Var("X")), SIG.app("g", Var("Y"))),
     _f(_f(SIG.app("a"), Var("Y")), SIG.app("g", Var("Y"))), 1),
    # Y faces f(X, b): Y's image is fixed by X's, one of the 4 of height 0.
    (_f(_f(Var("X"), SIG.app("b")), _f(Var("X"), Var("X"))),
     _f(Var("Y"), _f(Var("X"), Var("X"))), 4),
])
def test_enumerated_unifiers_checks_one_image_per_class(monkeypatch, s, t, checked):
    calls = []

    def counted(sigma, s, t):
        calls.append(sigma)
        return is_unifier(sigma, s, t)

    monkeypatch.setattr(oracle, "is_unifier", counted)
    got = enumerated_unifiers(s, t, EnumBound(1, ("X", "Y"), SIG))
    assert len(calls) == checked
    assert got == [sigma for sigma in calls if is_unifier(sigma, s, t)]


def test_enumerated_unifiers_checks_only_unifiers_on_universe_pairs(monkeypatch):
    """On 2,000 seeded unifiable pairs of the acceptance universe, every
    candidate the search builds is a unifier: ``is_unifier`` is called once
    per result and never refutes one."""
    universe = enum_terms(EnumBound(2, ("X", "Y"), SIG))
    bound = EnumBound(1, ("X", "Y"), SIG)
    rng = random.Random(20)
    counted = _CountedIsUnifier()
    monkeypatch.setattr(oracle, "is_unifier", counted)
    pairs = 0
    while pairs < 2000:
        s, t = rng.choice(universe), rng.choice(universe)
        if not isinstance(robinson_unify(s, t), Unified):
            continue
        pairs += 1
        before = counted.calls
        got = enumerated_unifiers(s, t, bound)
        assert counted.calls - before == len(got), (s, t)


@pytest.mark.parametrize("variables, height", [(("X", "Y"), 1), (("X", "Y"), 2), (("X", "Y", "Z"), 1)])
def test_enumerated_unifiers_leaves_its_offset_tables_as_built(variables, height):
    """The offset tables are plain dicts cached per domain: after 2,000
    seeded pairs of terms of height 2, with a unifier in every domain the
    variables allow, each cached table equals one built afresh."""
    universe = enum_terms(EnumBound(2, variables, SIG))
    bound = EnumBound(height, variables, SIG)
    rng = random.Random(21)
    domains = set()
    for _ in range(2000):
        s, t = rng.choice(universe), rng.choice(universe)
        if enumerated_unifiers(s, t, bound):
            domains.add(tuple(sorted(s.vars | t.vars)))
    assert {d for d in domains if d} == {
        d for n in range(1, len(variables) + 1) for d in itertools.combinations(variables, n)
    }
    for domain in domains:
        assert oracle._domain(domain, bound)[1] == oracle._domain.__wrapped__(domain, bound)[1]


@settings(max_examples=150, deadline=None)
@given(pairs_over_up_to_three_vars())
def test_enumerated_unifiers_checks_only_unifiers_over_three_variables(pair):
    s, t = pair
    counted = _CountedIsUnifier()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "is_unifier", counted)
        got = enumerated_unifiers(s, t, EnumBound(0, ("X", "Y", "Z"), SIG3))
    assert counted.calls == len(got)


# Pairs over five variables and an arity-3 symbol, for the deferred
# composition against the eager fold: a term against an instance of itself,
# so that most pairs unify in several steps whose links feed each other.
# Instantiating a repeated variable repeats its image object, and h(u, v, u)
# repeats a subterm object outright.
VARS5 = ("V", "W", "X", "Y", "Z")
_leaves5 = st.sampled_from([Var(n) for n in VARS5] + [SIG3.app("a"), SIG3.app("b")])


def _compounds(c):
    return st.one_of(
        st.builds(lambda u: SIG3.app("g", u), c),
        st.builds(lambda u, v: SIG3.app("f", u, v), c, c),
        st.builds(lambda u, v, w: SIG3.app("h", u, v, w), c, c, c),
        st.builds(lambda u, v: SIG3.app("h", u, v, u), c, c),
    )


_terms5 = st.recursive(_leaves5, _compounds, max_leaves=8)
_images5 = st.recursive(
    _leaves5,
    lambda c: st.one_of(
        st.builds(lambda u: SIG3.app("g", u), c),
        st.builds(lambda u, v: SIG3.app("f", u, v), c, c),
    ),
    max_leaves=3,
)


@st.composite
def term_against_instance(draw):
    u = SIG3.app("h", draw(_terms5), draw(_terms5), draw(_terms5))
    sigma = draw(st.dictionaries(st.sampled_from(VARS5), _images5, min_size=2, max_size=5))
    v = Subst(sigma).apply(u)
    return (u, v) if draw(st.booleans()) else (v, u)


@settings(max_examples=200, deadline=None)
@given(term_against_instance())
@example((SIG3.app("h", Var("X"), Var("Y"), Var("X")),
          SIG3.app("h", SIG3.app("f", Var("Y"), Var("Z")), SIG3.app("g", Var("W")), Var("V"))))
def test_deferred_composition_equals_eager_fold(pair):
    s, t = pair
    for algorithm in (classic_unify, robinson_unify, robinson_unify_efficient):
        steps = []
        out = algorithm(s, t, trace=steps.append)
        if isinstance(out, Unified):
            eager = identity()
            for ts in steps:
                eager = compose(singleton(*ts.binding), eager)
            assert out.steps == len(steps)
            assert out.mgu == eager


def _run_traced(algorithm, s, t):
    steps = []
    return algorithm(s, t, trace=steps.append), steps


@st.composite
def any_pair_over_five_vars(draw):
    u = SIG3.app("h", draw(_terms5), draw(_terms5), draw(_terms5))
    v = SIG3.app("h", draw(_terms5), draw(_terms5), draw(_terms5))
    return u, v


@settings(max_examples=200, deadline=None)
@given(st.one_of(term_against_instance(), any_pair_over_five_vars()))
@example((SIG3.app("h", Var("X"), Var("Y"), Var("X")),
          SIG3.app("h", SIG3.app("f", Var("Y"), Var("Z")), SIG3.app("g", Var("X")), Var("V"))))
def test_three_algorithms_are_one(pair):
    """Same outcome (mgu and steps, or failure cause and position) and trace."""
    s, t = pair
    reference = _run_traced(robinson_unify, s, t)
    assert _run_traced(classic_unify, s, t) == reference
    assert _run_traced(robinson_unify_efficient, s, t) == reference


def _copy(t, memo=None):
    """A term equal to ``t`` built of fresh nodes; with a memo, shared where ``t`` shares."""
    if isinstance(t, Var):
        return Var(t.name)
    if memo is not None and id(t) in memo:
        return memo[id(t)]
    out = App(t.symbol, [_copy(u, memo) for u in t.args])
    if memo is not None:
        memo[id(t)] = out
    return out


# Up to about 60 nodes, so that ``==`` walks the larger pairs and compares
# the smaller ones by tuple comparison.
_terms_to_compare = st.recursive(
    _leaves5,
    lambda c: st.one_of(
        st.builds(lambda u: SIG3.app("g", u), c),
        st.builds(lambda u, v: SIG3.app("f", u, v), c, c),
        st.builds(lambda u, v, w: SIG3.app("h", u, v, w), c, c, c),
        st.builds(lambda u, v: SIG3.app("h", u, v, u), c, c),
    ),
    max_leaves=20,
)


@st.composite
def comparable_pairs(draw):
    """Pairs of terms over an arity-3 symbol with repeated subterms: fresh
    copies (shared where the original shares, or not), copies mixed with the
    original inside one term, one subterm replaced, or two unrelated terms."""
    u = draw(_terms_to_compare)
    kind = draw(st.sampled_from(("copy", "shared copy", "mixed", "replaced", "other")))
    if kind == "copy":
        v = _copy(u)
    elif kind == "shared copy":
        v = _copy(u, {})
    elif kind == "mixed":
        u, v = SIG3.app("h", u, _copy(u), u), SIG3.app("h", _copy(u, {}), u, _copy(u))
    elif kind == "replaced":
        ps = positions_of(u)
        v = replace_at(_copy(u), ps[draw(st.integers(0, len(ps) - 1))], draw(_terms5))
    else:
        v = draw(_terms_to_compare)
    return (u, v) if draw(st.booleans()) else (v, u)


def _observed(t):
    """Everything a caller can see of a term and of each of its subterms."""
    subterms = [subterm_at(t, p) for p in positions_of(t)]
    return [(format_term(u), hash(u), u.vars, u.size) for u in subterms]


@settings(max_examples=300, deadline=None)
@given(comparable_pairs())
def test_equality_is_equality_of_printed_forms(pair):
    s, t = pair
    assert (s == t) == (format_term(s) == format_term(t))
    assert (s != t) == (format_term(s) != format_term(t))


@settings(max_examples=300, deadline=None)
@given(comparable_pairs())
def test_comparing_changes_nothing_observable(pair):
    s, t = pair
    before = _observed(s), _observed(t)
    first = s == t
    assert (_observed(s), _observed(t)) == before
    assert (s == t) == (t == s) == first
    assert (_observed(s), _observed(t)) == before


@settings(max_examples=300, deadline=None)
@given(comparable_pairs(), st.dictionaries(st.sampled_from(VARS5), _images5, max_size=3).map(Subst))
def test_applied_equal_agrees_with_apply_on_larger_terms(pair, sigma):
    """Past 16 nodes and with repeated subterms, which ``applied_equal``
    compares once per pair of nodes."""
    s, t = pair
    for u, v in ((s, t), (s, sigma.apply(s)), (sigma.apply(t), t)):
        assert sigma.applied_equal(u, v) == (sigma.apply(u) == sigma.apply(v))


@st.composite
def pattern_and_shared_instance(draw):
    """A pattern holding one subterm twice against an instance of it, which
    shares that subterm's image, or against the instance changed at one
    position."""
    u = draw(_terms_to_compare)
    p = SIG3.app("h", u, draw(_terms5), u)
    t = Subst(draw(st.dictionaries(st.sampled_from(VARS5), _images5, max_size=3))).apply(p)
    if draw(st.booleans()):
        ps = positions_of(t)
        t = replace_at(t, ps[draw(st.integers(0, len(ps) - 1))], draw(_terms5))
    return p, t


@settings(max_examples=300, deadline=None)
@given(st.one_of(pattern_and_shared_instance(), comparable_pairs()))
def test_matching_shared_input_is_matching_its_tree(pair):
    """Past 16 nodes, ``match_terms`` matches a pair of nodes once however
    often the terms repeat it: the same witness, or reason and position, as
    on tree copies."""
    p, t = pair
    assert match_terms(p, t) == match_terms(_copy(p), _copy(t))


def _robinson_fold(equations):
    """robinson_unify over the equations in turn, each under the unifier of
    the ones before it; None when one of them does not unify."""
    sigma = identity()
    for s, t in equations:
        out = robinson_unify(sigma.apply(s), sigma.apply(t))
        if not isinstance(out, Unified):
            return None
        sigma = compose(out.mgu, sigma)
    return sigma


VARS8 = VARS5 + ("S", "T", "U")
_terms8 = st.recursive(
    st.sampled_from([Var(n) for n in VARS8] + [SIG3.app("a"), SIG3.app("b")]),
    _compounds,
    max_leaves=8,
)


@st.composite
def equation_lists(draw):
    """Two to six equations over eight variables: each a term against an
    instance of it under one shared substitution, so that many sets unify,
    or an unrelated pair."""
    sigma = Subst(draw(st.dictionaries(st.sampled_from(VARS8), _images5, min_size=1, max_size=6)))
    equations = []
    for _ in range(draw(st.integers(2, 6))):
        u = draw(_terms8)
        v = sigma.apply(u) if draw(st.booleans()) else draw(_terms8)
        equations.append((u, v) if draw(st.booleans()) else (v, u))
    return equations


@settings(max_examples=200, deadline=None)
@given(equation_lists())
def test_equation_sets_agree_with_robinson_fold(equations):
    out = solve_equations(EquationSet(equations))
    fold = _robinson_fold(equations)
    assert isinstance(out, Unified) == (fold is not None)
    if fold is not None:
        assert all(is_unifier(out.mgu, s, t) for s, t in equations)
        assert out.mgu.is_idempotent()
        assert more_general(out.mgu, fold)
        assert more_general(fold, out.mgu)


VARS12 = VARS8 + ("O", "P", "Q", "R")
_terms12 = st.recursive(
    st.sampled_from([Var(n) for n in VARS12] + [SIG3.app("a"), SIG3.app("b")]),
    _compounds,
    max_leaves=4,
)


@st.composite
def long_equation_systems(draw):
    """Seventeen to forty equations over twelve variables, or one flat pair
    of as many arguments: each a term against an instance of it under one
    shared substitution over six of them, whose images hold variables, or
    an unrelated pair.  Images over the other six variables make the
    substitution idempotent and the instances unify; images over all twelve
    bring occurs checks, and the unrelated pairs clashes."""
    domain = VARS12[:6]
    leaves = VARS12 if draw(st.booleans()) else VARS12[6:]
    images = st.recursive(
        st.sampled_from([Var(n) for n in leaves] + [SIG3.app("a")]),
        lambda c: st.builds(lambda u, v: SIG3.app("f", u, v), c, c),
        max_leaves=3,
    )
    sigma = Subst(draw(st.dictionaries(st.sampled_from(domain), images, min_size=3, max_size=6)))
    n = draw(st.integers(17, 40))
    unrelated = draw(st.sets(st.integers(0, n - 1), max_size=2))
    lefts, rights = [], []
    for i in range(n):
        u = draw(_terms12)
        v = draw(_terms12) if i in unrelated else sigma.apply(u)
        lefts.append(u if draw(st.booleans()) else v)
        rights.append(v if lefts[-1] is u else u)
    if draw(st.booleans()):
        return [(App("k", lefts), App("k", rights))]
    return list(zip(lefts, rights))


def _solve_with_unlisted(equations, unlisted):
    saved = oracle._UNLISTED
    oracle._UNLISTED = unlisted
    try:
        return repr(solve_equations(EquationSet(equations)))
    finally:
        oracle._UNLISTED = saved


@settings(max_examples=200, deadline=None)
@given(long_equation_systems())
def test_oracle_index_changes_nothing(equations):
    """The same outcome, mgu and steps or cause and position, whether each
    elimination scans the pending equations, lists them all in the index,
    or does what the default does."""
    default = repr(solve_equations(EquationSet(equations)))
    assert _solve_with_unlisted(equations, 0) == default
    assert _solve_with_unlisted(equations, 10**9) == default


# Wide, flat, shared-chain and deep pairs for the efficient variant's walk
# against the instantiating loop it replaces and against the oracle.  The
# leaves mix variables (so that some repeat), constants and g(variable), and
# one side is often an instance of the other, so that many pairs unify in
# many steps and the others fail at varied depths, by clash or occurs check.
_shape_leaves = st.sampled_from(
    [Var(n) for n in VARS5] + [SIG3.app("a"), SIG3.app("b")] + [SIG3.app("g", Var(n)) for n in "XY"]
)


def _balanced(leaves):
    while len(leaves) > 1:
        leaves = [SIG3.app("f", *leaves[i:i + 2]) if i + 1 < len(leaves) else leaves[i]
                  for i in range(0, len(leaves), 2)]
    return leaves[0]


def _f_list(items):
    out = SIG3.app("a")
    for item in reversed(items):
        out = SIG3.app("f", item, out)
    return out


@st.composite
def shaped_pairs(draw):
    shape = draw(st.sampled_from(["wide", "flat", "shared", "deep"]))
    if shape == "shared":
        # Chains X_i = f(X_{i-1}, X_{i-1}) and Y_i likewise, then two drawn
        # ends: exponential trees, linear DAGs.
        n = draw(st.integers(1, 10))
        xs = [Var(f"X{i}") for i in range(n + 1)]
        ys = [Var(f"Y{i}") for i in range(n + 1)]
        ends = st.sampled_from([xs[n], ys[n], xs[0], SIG3.app("a"), SIG3.app("g", ys[n])])
        s = _f_list(xs[1:] + ys[1:] + [draw(ends)])
        t = _f_list([SIG3.app("f", u, u) for u in xs[:-1] + ys[:-1]] + [draw(ends)])
    elif shape == "deep":
        n = draw(st.integers(1, 300))
        s, t = draw(_shape_leaves), draw(_shape_leaves)
        for _ in range(n):
            s, t = SIG3.app("g", s), SIG3.app("g", t)
        s = SIG3.app("f", s, draw(_shape_leaves))
        t = SIG3.app("f", t, draw(_shape_leaves))
    else:
        n = draw(st.integers(1, 48))
        leaves = draw(st.lists(_shape_leaves, min_size=n, max_size=n))
        if draw(st.booleans()):
            sigma = Subst(draw(st.dictionaries(st.sampled_from(VARS5), _images5, max_size=4)))
            other = [sigma.apply(u) for u in leaves]
        else:
            other = draw(st.lists(_shape_leaves, min_size=n, max_size=n))
        build = _balanced if shape == "wide" else (lambda items: App("k", items))
        s, t = build(leaves), build(other)
    return (s, t) if draw(st.booleans()) else (t, s)


@settings(max_examples=200, deadline=None)
@given(shaped_pairs())
# Z occurs in g(X) only through X -> g(Y) and Y -> Z.
@example((SIG3.app("h", Var("X"), Var("Y"), Var("Y")),
          SIG3.app("h", SIG3.app("g", Var("Y")), Var("Z"), SIG3.app("g", Var("X")))))
def test_efficient_walk_matches_robinson_and_the_oracle(pair):
    s, t = pair
    runs = []
    for algorithm in (robinson_unify, robinson_unify_efficient):
        steps = []
        out = algorithm(s, t, trace=steps.append)
        runs.append((repr(out), [format_trace_step(ts) for ts in steps], out, steps))
    (ref_repr, ref_lines, ref, ref_steps), (got_repr, got_lines, got, got_steps) = runs
    assert got_repr == ref_repr
    assert got_lines == ref_lines
    assert got_steps == ref_steps
    assert got == ref
    assert all(ts.vars_after == ts.vars_before - 1 for ts in got_steps)
    assert solve_equations(EquationSet([(s, t)])) == got


def _shared_nodes_stay_shared(t, out):
    """Every node that ``t`` holds at several positions is one object at
    those positions of ``out``."""
    images = {}
    for p in positions_of(t):
        u, v = subterm_at(t, p), subterm_at(out, p)
        assert images.setdefault(id(u), v) is v


@settings(max_examples=300, deadline=None)
@given(comparable_pairs(), st.sampled_from(VARS5), _images5)
def test_one_binding_walk_is_apply_of_the_one_binding_substitution(pair, x, u):
    """``_instantiate`` with the one-entry table ``{x: u}`` is
    ``Subst({x: u}).apply``, with one memo across terms."""
    s, t = pair
    memo = {}
    for v in (s, t, SIG3.app("h", s, t, s)):
        out = _instantiate(v, {x: u}, {x}, memo)
        assert out == Subst({x: u}).apply(v)
        if x not in v.vars:
            assert out is v
        _shared_nodes_stay_shared(v, out)


def test_one_binding_walk_takes_a_100000_deep_chain():
    n = 100_000
    t, expected = Var("X"), SIG.app("f", Var("Y"), SIG.app("a"))
    for _ in range(n):
        t, expected = SIG.app("g", t), SIG.app("g", expected)
    out = _instantiate(t, {"X": SIG.app("f", Var("Y"), SIG.app("a"))}, {"X"}, {})
    assert out == expected
    assert out.size == n + 3
    assert _instantiate(t, {"Z": SIG.app("a")}, {"Z"}, {}) is t


@st.composite
def dag_pairs(draw):
    """Two terms over one pool of nodes, each built over earlier ones, so
    that each term repeats nodes and the two share some.  Each side is a
    pool node or ``h`` of three; the other is another such term, an
    instance (``Subst.apply`` keeps every node that holds no bound
    variable) or the term with one pool node put in at one of its
    positions (``replace_at`` keeps every node off that position).  Pool
    nodes are kept to 40 nodes as trees."""
    pool = [Var(n) for n in VARS5] + [SIG3.app("a"), SIG3.app("b")]
    for _ in range(draw(st.integers(1, 12))):
        symbol = draw(st.sampled_from(("g", "f", "h")))
        args = [draw(st.sampled_from(pool)) for _ in range(SIG3.arity(symbol))]
        node = SIG3.app(symbol, *args)
        if node.size <= 40:
            pool.append(node)
    nodes = st.sampled_from(pool)
    sides = st.one_of(nodes, st.builds(lambda *args: SIG3.app("h", *args), nodes, nodes, nodes))
    s = draw(sides)
    kind = draw(st.sampled_from(("other", "instance", "replaced")))
    if kind == "instance" and s.vars:
        small = st.sampled_from([u for u in pool if u.size <= 8])
        domain = st.sampled_from(sorted(s.vars))
        t = Subst(draw(st.dictionaries(domain, small, min_size=1, max_size=3))).apply(s)
    elif kind == "replaced":
        ps = positions_of(s)
        p = ps[draw(st.integers(0, len(ps) - 1))]
        old = subterm_at(s, p)
        t = replace_at(s, p, draw(nodes.filter(lambda u: u is not old)))
    else:
        t = draw(sides)
    return (s, t) if draw(st.booleans()) else (t, s)


def _traced_lines(algorithm, s, t):
    out, steps = _run_traced(algorithm, s, t)
    return repr(out), [format_trace_step(ts) for ts in steps]


@settings(max_examples=300, deadline=None)
@given(dag_pairs())
@example((SIG3.app("f", SIG3.app("g", Var("X")), Var("Y")),
          SIG3.app("f", SIG3.app("g", SIG3.app("a")), SIG3.app("b"))))
def test_literal_steps_on_shared_nodes_are_those_on_trees(pair):
    """On pairs that share nodes within and across the two sides, classic
    and robinson give the efficient variant's outcome and trace lines, also
    on copies of the two terms that share no node; the oracle agrees."""
    s, t = pair
    reference = _traced_lines(robinson_unify_efficient, s, t)
    for algorithm in (classic_unify, robinson_unify):
        assert _traced_lines(algorithm, s, t) == reference
        assert _traced_lines(algorithm, _copy(s), _copy(t)) == reference
    assert solve_equations(EquationSet([(s, t)])) == robinson_unify_efficient(s, t)
