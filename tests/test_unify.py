import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from mgu.oracle import EnumBound, EquationSet, enum_terms, solve_equations
from mgu.substitution import Subst, compose, identity, singleton
from mgu.terms import App, InvalidPositionError, ROOT, Signature, Var, format_term
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


def h(*args):
    """``h`` at whatever arity it is given: ill-formed beside another arity."""
    return App("h", args)


def solve_pair(s, t):
    return solve_equations(EquationSet([(s, t)]))


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


def chain(n, leaf):
    """g^n(leaf)."""
    for _ in range(n):
        leaf = g(leaf)
    return leaf


ALL_FOUR = (*ALGORITHMS, solve_pair)
ALL_FOUR_IDS = ["classic", "robinson", "efficient", "mm"]


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
