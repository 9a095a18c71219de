"""Randomized checks of the algebraic laws the library is built around."""

from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from mgu.oracle import (
    EnumBound,
    EquationSet,
    enum_substitutions,
    enumerated_unifiers,
    solve_equations,
)
from mgu.substitution import Subst, compose, identity, more_general, singleton
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


# Pairs over five variables and an arity-3 symbol, for the deferred
# composition against the eager fold: a term against an instance of itself,
# so that most pairs unify in several steps whose links feed each other.
# Instantiating a repeated variable repeats its image object, and h(u, v, u)
# repeats a subterm object outright.
VARS5 = ("V", "W", "X", "Y", "Z")
_leaves5 = st.sampled_from([Var(n) for n in VARS5] + [SIG3.app("a"), SIG3.app("b")])
_terms5 = st.recursive(
    _leaves5,
    lambda c: st.one_of(
        st.builds(lambda u: SIG3.app("g", u), c),
        st.builds(lambda u, v: SIG3.app("f", u, v), c, c),
        st.builds(lambda u, v, w: SIG3.app("h", u, v, w), c, c, c),
        st.builds(lambda u, v: SIG3.app("h", u, v, u), c, c),
    ),
    max_leaves=8,
)
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


@st.composite
def equation_lists(draw):
    """Two to four equations: each a term against an instance of it under
    one shared substitution, so that many sets unify, or an unrelated pair."""
    sigma = Subst(draw(st.dictionaries(st.sampled_from(VARS5), _images5, min_size=1, max_size=4)))
    equations = []
    for _ in range(draw(st.integers(2, 4))):
        u = draw(_terms5)
        v = sigma.apply(u) if draw(st.booleans()) else draw(_terms5)
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
