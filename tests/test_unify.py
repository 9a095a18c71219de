import dataclasses
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from mgu.oracle import EnumBound, EquationSet, enum_terms, enumerated_unifiers, solve_equations
from mgu.substitution import Subst, compose, identity, match_terms, more_general, singleton
from mgu.terms import _SMALL, App, InvalidPositionError, ROOT, Signature, Var, format_term
from mgu.unify import (
    Clash,
    Failed,
    NotUnifiableError,
    OccursCheck,
    TraceStep,
    Unified,
    classic_unify,
    describe_failure,
    first_diff,
    format_trace_step,
    is_mgu,
    is_unifier,
    link_of_frst_diff,
    next_position,
    resolving_diff,
    robinson_unify,
    robinson_unify_efficient,
    sub_of_frst_diff,
    unifiable,
)

SIG = Signature({"a": 0, "b": 0, "c": 0, "f": 2, "g": 1})
X, Y, Z = Var("X"), Var("Y"), Var("Z")
a, b, c = SIG.app("a"), SIG.app("b"), SIG.app("c")
SIG_ACCEPT = Signature({"f": 2, "g": 1, "a": 0, "b": 0})


def f(u, v):
    return SIG.app("f", u, v)


def g(u):
    return SIG.app("g", u)


ALGORITHMS = (classic_unify, robinson_unify, robinson_unify_efficient)


class TestPredicates:
    def test_is_unifier(self):
        assert is_unifier(identity(), f(X, a), f(X, a))
        assert is_unifier(Subst({"X": a}), X, a)
        assert not is_unifier(Subst({"X": a}), X, b)

    def test_is_mgu_vacuous(self):
        assert is_mgu(Subst({"X": a}), X, a, [])

    def test_is_mgu_reflexive_candidate(self):
        theta = Subst({"X": a})
        assert is_mgu(theta, X, a, [theta])

    def test_is_mgu_rejects_overcommitted(self):
        assert not is_mgu(Subst({"X": a, "Y": b}), X, a, [Subst({"X": a})])

    def test_is_mgu_reports_bad_candidate(self):
        with pytest.raises(ValueError):
            is_mgu(Subst({"X": a}), X, a, [Subst({"X": b})])


class TestFirstDiff:
    def test_variable_base_case(self):
        assert first_diff(X, f(Y, a)) == ROOT

    def test_min_differing_argument(self):
        assert first_diff(f(a, b), f(a, c)) == (2,)

    def test_head_clash_is_root(self):
        assert first_diff(g(a), f(a, a)) == ROOT

    def test_descends_into_first_difference(self):
        assert first_diff(f(g(a), b), f(g(b), b)) == (1, 1)

    def test_requires_distinct_terms(self):
        with pytest.raises(ValueError):
            first_diff(f(X, a), f(X, a))


class TestResolvingDiff:
    def test_variable_at_root(self):
        assert resolving_diff(X, f(Y, Y)) == ROOT

    def test_first_argument(self):
        assert resolving_diff(f(X, g(Y)), f(g(Z), X)) == (1,)

    def test_constant_clash_violates_precondition(self):
        with pytest.raises(NotUnifiableError) as exc:
            resolving_diff(a, b)
        assert exc.value.cause == Clash(ROOT, "a", "b")

    def test_occurs_is_not_its_problem(self):
        assert resolving_diff(X, g(X)) == ROOT


class TestSubOfFirstDiff:
    def test_s_side_variable(self):
        assert sub_of_frst_diff(X, f(Y, Y)) == Subst({"X": f(Y, Y)})

    def test_t_side_variable(self):
        assert sub_of_frst_diff(g(a), g(X)) == Subst({"X": a})

    def test_both_variables_binds_s_side(self):
        assert sub_of_frst_diff(X, Y) == Subst({"X": Y})

    def test_occurs_violation(self):
        with pytest.raises(NotUnifiableError) as exc:
            sub_of_frst_diff(X, g(X))
        assert exc.value.cause == OccursCheck("X", g(X), ROOT)


class TestLinkOfFirstDiff:
    def test_builds_link(self):
        assert link_of_frst_diff(X, f(Y, Y)) == Subst({"X": f(Y, Y)})

    def test_occurs_failure_value(self):
        assert link_of_frst_diff(X, g(X)) == OccursCheck("X", g(X), ROOT)

    def test_clash_failure_value(self):
        assert link_of_frst_diff(a, b) == Clash(ROOT, "a", "b")

    def test_prefers_s_side_variable(self):
        assert link_of_frst_diff(f(X, a), f(Y, a)) == Subst({"X": Y})


class TestUnifyAlgorithms:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_equal_terms(self, algorithm):
        t = f(X, g(a))
        assert algorithm(t, t) == Unified(identity(), 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_flagship_pair(self, algorithm):
        out = algorithm(f(X, g(Y)), f(g(Z), X))
        assert out == Unified(Subst({"X": g(Z), "Y": Z}), 2)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_occurs_check(self, algorithm):
        assert algorithm(X, g(X)) == Failed(OccursCheck("X", g(X), ROOT))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_head_clash(self, algorithm):
        assert algorithm(g(X), f(X, X)) == Failed(Clash(ROOT, "g", "f"))

    def test_variable_with_itself(self):
        assert robinson_unify(X, X) == Unified(identity(), 0)

    def test_deep_occurs_after_instantiation(self):
        # resolving position 1 with {X -> b} turns position 2 into b vs a.
        out = robinson_unify_efficient(f(X, a), f(b, X))
        assert out == Failed(Clash((2,), "a", "b"))
        assert robinson_unify(f(X, a), f(b, X)) == out
        assert classic_unify(f(X, a), f(b, X)) == out

    def test_mgu_is_idempotent(self):
        out = robinson_unify(f(X, g(Y)), f(g(Z), X))
        assert isinstance(out, Unified)
        assert out.mgu.is_idempotent()

    def test_unifiable(self):
        assert unifiable(X, f(Y, Y))
        assert not unifiable(X, g(X))
        assert unifiable(f(X, g(Y)), f(g(Z), X))


class TestTrace:
    def test_flagship_trace(self):
        steps = []
        robinson_unify(f(X, g(Y)), f(g(Z), X), trace=steps.append)
        assert steps == [
            TraceStep(1, (1,), ("X", g(Z)), 3, 2),
            TraceStep(2, (2, 1), ("Y", Z), 2, 1),
        ]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_measure_strictly_decreases(self, algorithm):
        steps = []
        algorithm(f(f(X, Y), g(Z)), f(f(g(Y), g(a)), Z), trace=steps.append)
        for ts in steps:
            assert ts.vars_after < ts.vars_before

    def test_format_trace_step(self):
        ts = TraceStep(1, (2, 1), ("Y", Z), 2, 1)
        assert format_trace_step(ts) == "step 1: pos=2.1 bind Y -> Z vars 2 -> 1"

    def test_no_trace_on_equal_terms(self):
        steps = []
        classic_unify(a, a, trace=steps.append)
        assert steps == []


def shared_family(n):
    """Chains X_i = f(X_{i-1}, X_{i-1}) and Y_i likewise, then X_n = Y_n.

    The equations are paired into one term pair as right-nested f-lists;
    resolving them builds terms whose trees double in size with every link.
    """

    def f_list(items):
        out = a
        for item in reversed(items):
            out = f(item, out)
        return out

    xs = [Var(f"X{i}") for i in range(n + 1)]
    ys = [Var(f"Y{i}") for i in range(n + 1)]
    s = f_list(xs[1:] + ys[1:] + [xs[n]])
    t = f_list([f(u, u) for u in xs[:-1]] + [f(u, u) for u in ys[:-1]] + [ys[n]])
    return s, t


def eager_fold(steps):
    """compose(σ_k, … compose(σ_1, identity())) over the traced links."""
    acc = identity()
    for ts in steps:
        acc = compose(singleton(*ts.binding), acc)
    return acc


class TestOneAlgorithm:
    """The three algorithms differ only in how they scan for the next conflict."""

    def test_universe_slice_outcomes_and_traces_agree(self):
        universe = enum_terms(EnumBound(2, ("X", "Y"), SIG_ACCEPT))
        assert len(universe) == 604
        mismatches = []
        for s in universe[::11]:
            for t in universe:
                runs = []
                for algorithm in ALGORITHMS:
                    steps = []
                    runs.append((algorithm(s, t, trace=steps.append), steps))
                if runs[1:] != runs[:-1]:
                    mismatches.append((s, t))
        assert mismatches == []


class TestSharedStructure:
    def test_shared_family_agrees_across_algorithms(self):
        s, t = shared_family(14)
        mgus = []
        for algorithm in ALGORITHMS:
            steps = []
            out = algorithm(s, t, trace=steps.append)
            assert isinstance(out, Unified)
            assert out.mgu == eager_fold(steps)
            mgus.append(out.mgu)
        oracle = solve_equations(EquationSet([(s, t)]))
        assert isinstance(oracle, Unified)
        mgus.append(oracle.mgu)
        assert all(mgu == mgus[0] for mgu in mgus)
        assert is_unifier(mgus[0], s, t)

    def test_resolution_instantiates_a_shared_subterm_once(self):
        """Every mgu is resolved back to front with one memo, so the image of
        ``X_{i-1}`` is the very node inside the image of ``X_i``: the mgu
        has as many distinct nodes as the chains, not one copy per link."""
        n = 12
        s, t = shared_family(n)
        for out in [algorithm(s, t) for algorithm in ALGORITHMS] + [solve_pair(s, t)]:
            for z in "XY":
                images = [out.mgu.get(f"{z}{i}") for i in range(n + 1)]
                assert all(images[i].args[0] is images[i - 1] for i in range(2, n + 1))


def h(*args):
    """``h`` at whatever arity it is given: ill-formed beside another arity."""
    return App("h", args)


def solve_pair(s, t):
    return solve_equations(EquationSet([(s, t)]))


ALL_FOUR = (*ALGORITHMS, solve_pair)
ALL_FOUR_IDS = ["classic", "robinson", "efficient", "mm"]


class TestIllFormed:
    """One symbol at two arities is ill-formed in every algorithm, whichever side has more."""

    @pytest.mark.parametrize("swap", [False, True], ids=["longer-left", "longer-right"])
    @pytest.mark.parametrize(
        "run, s, t",
        [
            *((algorithm, h(X, a, b), h(a, a)) for algorithm in ALGORITHMS),
            (solve_pair, h(X, a, b), h(a, a)),
            (lambda s, t: next_position(s, t, (2, 1)), f(g(X), h(Y, Z)), f(g(X), h(Y))),
        ],
        ids=["classic", "robinson", "efficient", "mm", "next_position"],
    )
    def test_ill_formed_pair_raises(self, run, s, t, swap):
        if swap:
            s, t = t, s
        with pytest.raises(ValueError, match="terms are ill-formed: .* share a symbol but not an arity"):
            run(s, t)

    @pytest.mark.parametrize("swap", [False, True], ids=["shorter-left", "shorter-right"])
    @pytest.mark.parametrize("run", ALL_FOUR, ids=ALL_FOUR_IDS)
    def test_arities_are_compared_before_the_arguments(self, run, swap):
        """``f(c)`` against ``f(a,b)`` raises, although ``c`` and ``a`` clash."""
        s, t = App("f", (c,)), f(a, b)
        if swap:
            s, t = t, s
        with pytest.raises(ValueError, match="terms are ill-formed: .* share a symbol but not an arity"):
            run(s, t)

    @pytest.mark.parametrize("run", ALL_FOUR, ids=ALL_FOUR_IDS)
    def test_ill_formed_pair_reached_under_a_binding(self, run):
        """The pair ``h(a)``/``h(a,b)`` exists only once ``X -> h(a)`` is made."""
        with pytest.raises(ValueError, match="terms are ill-formed"):
            run(f(X, X), f(h(a), h(a, b)))

    @staticmethod
    def arity_cases(where, leaf):
        """A pair whose instances hold ``h`` at two arities, the longer on
        the left, and substitutions to read it under: at the root, or
        under a binding of ``X`` whose image or partner is the longer."""
        if where == "root":
            return h(X, leaf), h(X), (identity(), Subst({"X": leaf}))
        if where == "longer-partner":
            return f(X, h(leaf, Y)), f(h(leaf), X), (Subst({"X": h(leaf), "Y": a}),)
        return f(X, h(leaf)), f(h(leaf, Y), X), (Subst({"X": h(leaf, Y), "Y": a}),)

    @pytest.mark.parametrize("swap", [False, True], ids=["longer-left", "longer-right"])
    @pytest.mark.parametrize("where", ["root", "longer-partner", "longer-image"])
    @pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
    def test_one_symbol_at_two_arities_has_no_unifier(self, where, large, swap):
        """The answers that need no error: never equal under any
        substitution, on small terms and past ``_SMALL`` nodes alike."""
        s, t, sigmas = self.arity_cases(where, chain(20, a) if large else a)
        if swap:
            s, t = t, s
        for sigma in (identity(), *sigmas):
            assert is_unifier(sigma, s, t) is False
            assert sigma.applied_equal(s, t) is False
        assert enumerated_unifiers(s, t, EnumBound(1, ("X", "Y"), SIG_ACCEPT)) == []


class TestEfficientWalk:
    """The efficient variant reads terms under its links instead of instantiating them."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS, ids=ALL_FOUR_IDS[:3])
    def test_occurs_check_follows_the_links(self, algorithm):
        """``Z`` against ``g(X)`` once ``X -> g(Y)`` and ``Y -> Z`` are made:
        ``Z`` occurs only through the images."""
        out = algorithm(h(X, Y, Y), h(g(Y), Z, g(X)))
        assert out == Failed(OccursCheck("Z", g(g(Z)), (3,)))

    def test_bound_variable_against_its_own_image(self):
        """``X`` read through ``X -> g(Y)`` meets ``g(Y)``, the very node."""
        steps = []
        out = robinson_unify_efficient(f(X, f(X, Y)), f(g(Y), f(g(Y), a)), trace=steps.append)
        assert (str(out.mgu), out.steps) == ("{X -> g(a), Y -> a}", 2)
        assert [format_trace_step(ts) for ts in steps] == [
            "step 1: pos=1 bind X -> g(Y) vars 2 -> 1",
            "step 2: pos=2.2 bind Y -> a vars 1 -> 0",
        ]


def chain(n, leaf):
    """g^n(leaf)."""
    for _ in range(n):
        leaf = g(leaf)
    return leaf


class TestDeepChains:
    """Chains 100,000 deep, far past the interpreter's recursion limit, in every
    algorithm and either orientation; failures are found at the bottom."""

    N = 100_000

    @pytest.fixture(scope="class")
    def chains(self):
        return {leaf: chain(self.N, term) for leaf, term in (("X", X), ("a", a), ("b", b), ("gX", g(X)))}

    @staticmethod
    def run(algorithm, s, t, swap):
        return algorithm(t, s) if swap else algorithm(s, t)

    @pytest.mark.parametrize("swap", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("algorithm", ALL_FOUR, ids=ALL_FOUR_IDS)
    def test_unifies(self, chains, algorithm, swap):
        out = self.run(algorithm, chains["X"], chains["a"], swap)
        assert isinstance(out, Unified)
        assert (str(out.mgu), out.steps) == ("{X -> a}", 1)

    @pytest.mark.parametrize("swap", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("algorithm", ALL_FOUR, ids=ALL_FOUR_IDS)
    def test_clash_at_bottom(self, chains, algorithm, swap):
        out = self.run(algorithm, chains["a"], chains["b"], swap)
        assert isinstance(out, Failed) and isinstance(out.cause, Clash)
        assert (out.cause.left, out.cause.right) == (("b", "a") if swap else ("a", "b"))
        assert len(out.cause.position) == self.N and set(out.cause.position) == {1}

    @pytest.mark.parametrize("swap", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("algorithm", ALL_FOUR, ids=ALL_FOUR_IDS)
    def test_occurs_at_bottom(self, chains, algorithm, swap):
        out = self.run(algorithm, chains["X"], chains["gX"], swap)
        assert isinstance(out, Failed) and isinstance(out.cause, OccursCheck)
        assert (out.cause.variable, str(out.cause.term)) == ("X", "g(X)")
        assert len(out.cause.position) == self.N and set(out.cause.position) == {1}


class TestOrderPastSmall:
    """Each walk takes a pair's first arguments before its second, also when
    the first conflict lies past ``_SMALL`` nodes deep and the second is at
    once: every algorithm reports the leftmost-outermost one."""

    @pytest.mark.parametrize("run", ALL_FOUR, ids=ALL_FOUR_IDS)
    def test_clash(self, run):
        s, t = f(chain(40, a), a), f(chain(40, b), b)
        assert s.args[0].size > _SMALL
        assert run(s, t) == Failed(Clash((1,) * 41, "a", "b"))
        assert run(t, s) == Failed(Clash((1,) * 41, "b", "a"))

    @pytest.mark.parametrize("run", ALL_FOUR, ids=ALL_FOUR_IDS)
    def test_occurs(self, run):
        s, t = f(chain(40, X), X), f(chain(40, g(X)), g(X))
        assert s.args[0].size > _SMALL
        assert run(s, t) == Failed(OccursCheck("X", g(X), (1,) * 41))
        assert run(t, s) == Failed(OccursCheck("X", g(X), (1,) * 41))


def _traced(algorithm, s, t):
    steps = []
    out = algorithm(s, t, trace=steps.append)
    return out, [format_trace_step(ts) for ts in steps]


def _built(monkeypatch, run, *args):
    """``run(*args)`` and the number of ``App`` nodes built meanwhile."""
    count = [0]
    init = App.__init__

    def counted(self, symbol, args=()):
        count[0] += 1
        init(self, symbol, args)

    with monkeypatch.context() as m:
        m.setattr(App, "__init__", counted)
        out = run(*args)
    return out, count[0]


class TestPartnerNodes:
    """After each link the literal loops take, above the resolved conflict,
    the partner's own nodes wherever the instance is that partner, and stop
    climbing at the first node where it is not."""

    @pytest.mark.parametrize("swap", [False, True], ids=["left", "right"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS[:2], ids=ALL_FOUR_IDS[:2])
    def test_deep_chain_builds_no_node(self, monkeypatch, algorithm, swap):
        s, t = chain(2_000, X), chain(2_000, a)
        out, built = _built(monkeypatch, algorithm, *((t, s) if swap else (s, t)))
        assert (str(out.mgu), out.steps, built) == ("{X -> a}", 1, 0)

    # (s, t, App nodes a literal loop builds): one pair for each reason the
    # climb stops, and pairs where it reaches the root.  Where it stops at
    # the root in the first step, the second step's climb reaches the root.
    # Each ``g(a)`` below is a node of its own, so the two are equal but
    # not one object.
    PAIRS = {
        "partner-holds-x": (f(X, X), f(X, a), 2),
        "right-argument-differs": (f(X, Y), f(a, b), 1),
        "right-argument-differs-above": (f(g(X), Y), f(g(a), b), 1),
        "right-argument-equal-not-same": (f(X, g(a)), f(a, g(a)), 1),
        "conflict-at-root": (X, f(Y, a), 0),
        "variable-to-variable": (g(f(X, a)), g(f(Y, a)), 0),
        "x-on-t": (g(f(a, b)), g(f(X, b)), 0),
        "x-on-t-partner-holds-x": (f(g(a), X), f(g(X), a), 2),
    }

    @pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
    @pytest.mark.parametrize("pair", PAIRS.values(), ids=PAIRS.keys())
    @pytest.mark.parametrize("algorithm", ALGORITHMS[:2], ids=ALL_FOUR_IDS[:2])
    def test_climb_stops_where_the_instance_is_not_the_partner(self, monkeypatch, algorithm, pair,
                                                               swap):
        s, t, nodes = pair
        if swap:
            s, t = t, s
        reference = _traced(robinson_unify_efficient, s, t)
        (out, lines), built = _built(monkeypatch, _traced, algorithm, s, t)
        assert (repr(out), lines) == (repr(reference[0]), reference[1])
        assert out == reference[0] == solve_pair(s, t)
        assert built == nodes


# The shared family at n = 64 through all four algorithms: resolving it
# builds terms of about 2**65 nodes as trees, 65 as DAGs.  Run in a
# subprocess, so that an exponential walk fails on the timeout instead of
# hanging the suite.
_SHARED_64 = """
from mgu.oracle import EquationSet, solve_equations
from mgu.terms import Signature, Var
from mgu.unify import classic_unify, is_unifier, robinson_unify, robinson_unify_efficient

sig = Signature({"f": 2, "a": 0})
n = 64
xs = [Var(f"X{i}") for i in range(n + 1)]
ys = [Var(f"Y{i}") for i in range(n + 1)]

def f_list(items):
    out = sig.app("a")
    for item in reversed(items):
        out = sig.app("f", item, out)
    return out

s = f_list(xs[1:] + ys[1:] + [xs[n]])
t = f_list([sig.app("f", u, u) for u in xs[:-1]] + [sig.app("f", u, u) for u in ys[:-1]] + [ys[n]])
outs = [run(s, t) for run in (classic_unify, robinson_unify, robinson_unify_efficient)]
outs.append(solve_equations(EquationSet([(s, t)])))
mgu = outs[0].mgu
print(all(out.mgu == mgu for out in outs), [out.steps for out in outs], len(mgu),
      is_unifier(mgu, s, t), mgu.is_idempotent())
"""


def test_shared_family_64_in_every_algorithm():
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _SHARED_64], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "True [129, 129, 129, 129] 129 True True\n"


_SHARED_CHAINS_64 = """
from mgu.substitution import Subst
from mgu.terms import App, Var
from mgu.unify import is_unifier

def chain(leaf, n):
    for _ in range(n):
        leaf = App("f", (leaf, leaf))
    return leaf

s, t = chain(Var("X"), 64), chain(Var("Y"), 64)
print(is_unifier(Subst({"X": Var("Y")}), s, t), is_unifier(Subst({"X": App("a")}), s, t))
"""


# Sizes at which a step that instantiates the terms, or an ``App`` whose
# construction is quadratic in its arity, runs for minutes; each case runs in
# a subprocess, so that such code fails on the timeout instead of hanging
# the suite.
_SRC_ENV = {"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

_SHARED_1024 = _SHARED_64.replace("n = 64", "n = 1024").split("outs = ")[0] + """
out = robinson_unify_efficient(s, t)
print(out.steps, len(out.mgu), is_unifier(out.mgu, s, t), out.mgu.is_idempotent())
"""

_FLAT_100000 = """
from mgu.oracle import EquationSet, solve_equations
from mgu.terms import App, Var
from mgu.unify import robinson_unify_efficient

n = 100_000
s = App("f", [Var(f"X{i}") for i in range(n)])
t = App("f", [App("b" if i % 3 else "a") for i in range(n)])
fast, mm = robinson_unify_efficient(s, t), solve_equations(EquationSet([(s, t)]))
print(fast.steps, mm.steps, fast.mgu == mm.mgu, str(fast.mgu.get("X99999")), len(s.vars))
"""

# ``unifiable`` on a wide pair that unifies and one that fails at its last
# leaf, timed against the efficient walk on both: the literal loop takes
# about 250 times as long as the walk there.
_UNIFIABLE_WIDE_16384 = """
from time import perf_counter as clock
from mgu.terms import App, Var
from mgu.unify import robinson_unify_efficient, unifiable

def tree(items):
    while len(items) > 1:
        items = [App("f", items[i:i + 2]) for i in range(0, len(items), 2)]
    return items[0]

n = 16_384
xs = [Var(f"X{i}") for i in range(n)]
t = tree([App("ab"[i % 2]) for i in range(n)])
pairs = [(tree(xs), t), (tree(xs[:-1] + xs[:1]), t)]
start = clock()
for s, t in pairs:
    robinson_unify_efficient(s, t)
walk = clock() - start
start = clock()
answers = [unifiable(s, t) for s, t in pairs]
print(answers, clock() - start < 10 * walk + 0.2)
"""


@pytest.mark.parametrize(
    "code, expected",
    [
        (_SHARED_1024, "2049 2049 True True\n"),
        (_UNIFIABLE_WIDE_16384, "[True, False] True\n"),
        (_FLAT_100000, "100000 100000 True a 100000\n"),
        ("from mgu.terms import App, Var\n"
         "print(len(App('f', [Var(f'X{i}') for i in range(100_000)]).vars))", "100000\n"),
        ("from mgu.oracle import EquationSet, solve_equations\n"
         "from mgu.terms import App, Var\n"
         "print(solve_equations(EquationSet([(Var(f'X{i}'), App('a')) for i in range(20_000)])).steps)",
         "20000\n"),
    ],
    ids=["efficient-shared-1024", "unifiable-wide-16384", "flat-100000-efficient-and-mm",
         "app-of-100000-variables", "mm-20000-equations"],
)
def test_large_inputs_in_linear_time(code, expected):
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, **_SRC_ENV},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def test_is_unifier_on_shared_chains_64():
    # X_64 against Y_64, 2**65 - 1 nodes each as trees: a tree walk doubles
    # per level.  In a subprocess, so that such a walk fails on the timeout.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _SHARED_CHAINS_64], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True False\n", "")


def shared_chain(n, leaf):
    """X_n for X_i = f(X_{i-1}, X_{i-1}), X_0 = leaf: n + 1 distinct nodes."""
    for _ in range(n):
        leaf = f(leaf, leaf)
    return leaf


def tree_chain(n, leaf):
    """The same value as shared_chain, built without any sharing."""
    return leaf if n == 0 else f(tree_chain(n - 1, leaf), tree_chain(n - 1, leaf))


class TestThreads:
    def test_threads_compare_and_unify_the_same_terms(self):
        """Eight threads compare and unify one set of equal but distinct terms,
        so that argument tuples are adopted while other threads walk them."""
        equal = [(shared_chain(10, g(a)), shared_chain(10, g(a))) for _ in range(12)]
        equal += [(shared_chain(10, g(a)), tree_chain(10, g(a))) for _ in range(4)]
        unequal = [(shared_chain(10, g(a)), shared_chain(10, g(b))) for _ in range(4)]
        families = [shared_family(8) for _ in range(4)]
        s8, t8 = shared_family(8)
        expected = {True: str(robinson_unify(s8, t8).mgu), False: str(robinson_unify(t8, s8).mgu)}
        errors = []

        def work(k):
            try:
                for i in range(len(equal)):
                    s, t = equal[(i + k) % len(equal)]
                    if not (s == t and t == s) or s != t:
                        errors.append(f"thread {k}: equal pair {i} compared unequal")
                for s, t in unequal:
                    if s == t or not (t != s):
                        errors.append(f"thread {k}: unequal pair compared equal")
                for s, t in families[k % 2:] + families[:k % 2]:
                    for run in ALL_FOUR:
                        out = run(*((s, t) if k % 2 else (t, s)))
                        if not isinstance(out, Unified) or str(out.mgu) != expected[k % 2 == 1]:
                            errors.append(f"thread {k}: {run.__name__} gave {out}")
            except Exception as err:  # noqa: BLE001 - reported below
                errors.append(f"thread {k}: {err!r}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(format_term(s) == format_term(t) for s, t in equal)


class TestNextPosition:
    def test_root_means_done(self):
        assert next_position(f(a, b), f(a, b), ROOT) == ROOT

    def test_right_sibling_differs(self):
        assert next_position(f(a, b), f(a, c), (1,)) == (2,)

    def test_no_sibling_parent_is_root(self):
        assert next_position(g(a), g(a), (1,)) == ROOT

    def test_skips_equal_siblings_and_climbs(self):
        s = f(f(a, b), g(X))
        t = f(f(a, b), g(Y))
        assert next_position(s, t, (1, 1)) == (2,)

    def test_invalid_position_rejected(self):
        with pytest.raises(InvalidPositionError):
            next_position(g(a), g(a), (2,))

    def test_invalid_position_reports_shortest_prefix(self):
        with pytest.raises(InvalidPositionError) as err:
            next_position(f(a, b), f(a, b), (1, 1, 1))
        assert err.value.prefix == (1, 1)
        assert str(err.value).endswith("no subterm at 1.1")
        t = f(a, b)
        with pytest.raises(InvalidPositionError) as err:
            next_position(f(g(g(a)), b), t, (1, 1, 1))
        assert (err.value.term, err.value.prefix) == (t, (1, 1))

    def test_parent_head_clash_returns_parent(self):
        # a conflict above the scanned position is reported at the parent
        s = f(f(a, a), b)
        t = f(g(a), b)
        assert next_position(s, t, (1, 1)) == (1,)

    def test_root_head_clash_collapses_to_root(self):
        assert next_position(f(a, b), SIG.app("g", a), (1,)) == ROOT


class TestOutcomeRecords:
    """The four outcome records keep the value semantics of frozen dataclasses."""

    RECORDS = [
        (Clash, ((1, 2), "f", "g"), {"left": "h"},
         "Clash(position=(1, 2), left='f', right='g')"),
        (OccursCheck, ("X", g(X), (2,)), {"position": ()},
         "OccursCheck(variable='X', term=g(X), position=(2,))"),
        (Unified, (Subst({"X": a}), 1), {"steps": 2}, "Unified(mgu={X -> a}, steps=1)"),
        (Failed, (Clash((), "a", "b"),), {"cause": OccursCheck("X", g(X), ())},
         "Failed(cause=Clash(position=(), left='a', right='b'))"),
    ]

    @pytest.mark.parametrize("cls, args, change, text", RECORDS,
                             ids=["Clash", "OccursCheck", "Unified", "Failed"])
    def test_value_semantics(self, cls, args, change, text):
        names = [field.name for field in dataclasses.fields(cls)]
        record = cls(*args)
        assert [getattr(record, name) for name in names] == list(args)
        assert record == cls(**dict(zip(names, args)))
        assert repr(record) == text
        changed = dataclasses.replace(record, **change)
        assert changed != record
        assert [getattr(changed, name) for name in names] == [change.get(n, v) for n, v in zip(names, args)]
        if cls is Unified:  # Subst defines == without a hash, so Unified has none
            with pytest.raises(TypeError, match="unhashable type: 'Subst'"):
                hash(record)
        else:
            assert hash(record) == hash(cls(*args))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, names[0], args[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, names[-1])
        assert [getattr(record, name) for name in names] == list(args)

    def test_unified_steps_default_to_zero(self):
        assert Unified(identity()) == Unified(identity(), 0) == Unified(mgu=identity())
        assert repr(Unified(identity())) == "Unified(mgu={}, steps=0)"
        assert Unified(identity()) != Unified(identity(), 1)

    def test_records_of_different_kinds_differ(self):
        assert Clash((), "a", "b") != Failed(Clash((), "a", "b"))
        assert Failed(Clash((), "a", "b")) == Failed(Clash((), "a", "b"))
        assert Failed(Clash((), "a", "b")) != Failed(Clash((), "a", "c"))


class TestFailureRendering:
    def test_describe_clash(self):
        assert describe_failure(Clash(ROOT, "a", "b")) == "clash a vs b at e"

    def test_describe_occurs(self):
        assert describe_failure(OccursCheck("X", g(X), (2,))) == "occurs X in g(X) at 2"

    def test_not_unifiable_error_message(self):
        err = NotUnifiableError(Clash((1,), "f", "g"))
        assert "clash f vs g at 1" in str(err)


def _no_ne(self, other):
    raise AssertionError(f"{self!r} != {other!r}: terms are compared with ==")


def _wide_pair(rng, n):
    """A balanced f-tree of n leaves against an instance of it, one leaf in
    fifty replaced."""
    leaves = [rng.choice((X, Y, Z, a, b, g(X), Var(f"V{i}"))) for i in range(n)]
    sigma = Subst({"X": g(Y), "Y": f(Z, a)})
    other = [rng.choice((a, b, Z)) if rng.random() < 0.02 else sigma.apply(u) for u in leaves]

    def tree(items):
        while len(items) > 1:
            items = [f(*items[i:i + 2]) if i + 1 < len(items) else items[i]
                     for i in range(0, len(items), 2)]
        return items[0]

    return tree(leaves), tree(other)


def test_no_engine_path_compares_terms_with_ne(monkeypatch):
    """``!=`` on terms dispatches through ``__ne__`` before ``__eq__``; every
    engine path compares with ``==``, identity first where it matters."""
    rng = random.Random(11)
    universe = enum_terms(EnumBound(2, ("X", "Y"), SIG_ACCEPT))
    height_1 = EnumBound(1, ("X", "Y"), SIG_ACCEPT)
    pairs = [(rng.choice(universe), rng.choice(universe)) for _ in range(1_500)]
    shapes = [_wide_pair(rng, 256), _wide_pair(rng, 1_024), shared_family(12),
              (shared_chain(14, X), shared_chain(14, Y)),
              (f(chain(2_000, X), a), f(chain(2_000, g(Y)), Y)),
              (f(f(Var("X"), chain(20, a)), a), f(f(Var("X"), chain(20, a)), Y))]
    enumerated = pairs[:300] + [(chain(300, X), chain(300, f(Y, a))), (f(X, chain(50, Y)), f(g(a), X))]
    monkeypatch.setattr(App, "__ne__", _no_ne, raising=False)
    monkeypatch.setattr(Var, "__ne__", _no_ne, raising=False)
    for s, t in pairs + shapes + shapes[::-1]:
        outs = [run(s, t) for run in ALGORITHMS] + [solve_equations(EquationSet([(s, t)]))]
        assert [run(s, t, trace=lambda step: None) for run in ALGORITHMS] == outs[:3]
        if not s == t:
            p = first_diff(s, t)
            next_position(s, t, p)
        match_terms(s, t)
        if isinstance(outs[0], Unified):
            theta = outs[0].mgu
            assert is_unifier(theta, s, t)
            assert all(more_general(theta, out.mgu) for out in outs)
            assert more_general(theta, compose(Subst({"X": a, "Y": b}), theta))
    for s, t in enumerated:
        for sigma in enumerated_unifiers(s, t, height_1):
            assert is_unifier(sigma, s, t)
