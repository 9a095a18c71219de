"""First-order unification by difference resolving.

Three equivalent algorithms are provided.  All of them repeatedly locate the
leftmost-outermost position where the two terms disagree, bind the variable
found there, instantiate both terms and continue, composing the one-variable
link substitutions right to left.  They differ in bookkeeping:

- ``classic_unify`` resolves differences through ``sub_of_frst_diff``, whose
  preconditions (a variable at the conflict, no occurrence of it in the
  partner subterm) are checked dynamically and surface as Failed outcomes;
- ``robinson_unify`` threads failure through ``link_of_frst_diff``, which
  returns either a link substitution or a failure cause value;
- ``robinson_unify_efficient`` additionally remembers where the last
  conflict was fixed and rescans from there (``next_position``) instead of
  from the root, since instantiation can never create a difference at or
  left of a resolved position.

Every resolved conflict removes the bound variable from both terms, so the
number of distinct variables strictly decreases: that is the termination
measure, observable per step through the optional trace callback.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .substitution import Subst, compose, identity, more_general, singleton
from .terms import (
    App,
    InvalidPositionError,
    Position,
    ROOT,
    Term,
    Var,
    format_position,
    is_valid_position,
    subterm_at,
    term_size,
)


@dataclass(frozen=True)
class Clash:
    """Applications with different head symbols at the same position."""

    position: Position
    left: str
    right: str


@dataclass(frozen=True)
class OccursCheck:
    """A variable that would have to be bound to a term containing it."""

    variable: str
    term: Term
    position: Position


FailureCause = Clash | OccursCheck


@dataclass(frozen=True)
class Unified:
    mgu: Subst
    steps: int = 0


@dataclass(frozen=True)
class Failed:
    cause: FailureCause


UnifyOutcome = Unified | Failed


@dataclass(frozen=True)
class TraceStep:
    """One resolved conflict: the binding made and the variable counts around it."""

    step: int
    position: Position
    binding: tuple[str, Term]
    vars_before: int
    vars_after: int


TraceFn = Callable[[TraceStep], None]


def describe_failure(cause: FailureCause) -> str:
    if isinstance(cause, Clash):
        return f"clash {cause.left} vs {cause.right} at {format_position(cause.position)}"
    return f"occurs {cause.variable} in {cause.term} at {format_position(cause.position)}"


def format_trace_step(ts: TraceStep) -> str:
    x, img = ts.binding
    return (
        f"step {ts.step}: pos={format_position(ts.position)} "
        f"bind {x} -> {img} vars {ts.vars_before} -> {ts.vars_after}"
    )


class NotUnifiableError(ValueError):
    """Precondition violation: an operation assuming unifiable inputs got a
    pair whose first difference cannot be resolved.  Carries the cause."""

    def __init__(self, cause: FailureCause):
        super().__init__(describe_failure(cause))
        self.cause = cause


def is_unifier(sigma: Subst, s: Term, t: Term) -> bool:
    return sigma.applied_equal(s, t)


def is_mgu(theta: Subst, s: Term, t: Term, candidates: Iterable[Subst]) -> bool:
    """True iff theta unifies (s, t) and is more general than every candidate.

    Every candidate must itself be a unifier of (s, t); a candidate that is
    not is a caller error and is reported as ValueError.
    """
    for sigma in candidates:
        if not is_unifier(sigma, s, t):
            raise ValueError(f"candidate {sigma} is not a unifier of {s} and {t}")
        if not more_general(theta, sigma):
            return False
    return is_unifier(theta, s, t)


def first_diff(s: Term, t: Term) -> Position:
    """Leftmost-outermost position where two distinct terms disagree at the root.

    While both sides are applications of the same symbol, descend into the
    first argument pair that differs; anything else (variable against
    anything different, or a head clash) disagrees at the root.
    """
    if s == t:
        raise ValueError("first_diff requires distinct terms")
    pos: Position = ROOT
    while type(s) is App and type(t) is App and s.symbol == t.symbol:
        for i, (a, b) in enumerate(zip(s.args, t.args), start=1):
            if a != b:
                pos += (i,)
                s, t = a, b
                break
        else:  # same symbol, no differing argument: ill-formed arities
            raise ValueError(f"terms are ill-formed: {s} and {t} share a symbol but not an arity")
    return pos


def resolving_diff(s: Term, t: Term) -> Position:
    """first_diff, plus the guarantee that one side there is a variable.

    For unifiable distinct terms that guarantee always holds; if neither
    side is a variable the inputs were not unifiable and NotUnifiableError
    is raised.
    """
    p = first_diff(s, t)
    sp, tp = subterm_at(s, p), subterm_at(t, p)
    if not isinstance(sp, Var) and not isinstance(tp, Var):
        raise NotUnifiableError(Clash(p, sp.symbol, tp.symbol))
    return p


def sub_of_frst_diff(s: Term, t: Term) -> Subst:
    """The one-variable substitution resolving the first difference.

    The variable side is bound to the partner subterm, preferring the s-side
    variable when both sides are variables.  A variable occurring in its
    partner subterm means the inputs were not unifiable: NotUnifiableError.
    """
    p = resolving_diff(s, t)
    sp, tp = subterm_at(s, p), subterm_at(t, p)
    x, img = (sp, tp) if isinstance(sp, Var) else (tp, sp)
    if x.name in img.vars:
        raise NotUnifiableError(OccursCheck(x.name, img, p))
    return singleton(x.name, img)


def _link(sp: Term, tp: Term, pos: Position) -> Subst | FailureCause:
    """Resolve the root disagreement of two distinct subterms found at ``pos``."""
    if isinstance(sp, Var):
        if sp.name in tp.vars:
            return OccursCheck(sp.name, tp, pos)
        return singleton(sp.name, tp)
    if isinstance(tp, Var):
        if tp.name in sp.vars:
            return OccursCheck(tp.name, sp, pos)
        return singleton(tp.name, sp)
    return Clash(pos, sp.symbol, tp.symbol)


def link_of_frst_diff(s: Term, t: Term) -> Subst | FailureCause:
    """Total variant of sub_of_frst_diff: failure is a value, not an error."""
    p = first_diff(s, t)
    return _link(subterm_at(s, p), subterm_at(t, p), p)


def _measure(s: Term, t: Term) -> int:
    return len(s.vars | t.vars)


def classic_unify(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Unify by repeated sub_of_frst_diff steps.

    Equal terms unify with the identity; otherwise the first difference is
    resolved, both terms are instantiated, and the process repeats, with the
    resolving substitutions composed right to left.  Precondition violations
    inside a step (clash, occurs) become Failed outcomes.
    """
    acc = identity()
    steps = 0
    while s != t:
        try:
            sig = sub_of_frst_diff(s, t)
        except NotUnifiableError as err:
            return Failed(err.cause)
        s2, t2 = sig.apply(s), sig.apply(t)
        steps += 1
        if trace is not None:
            ((x, img),) = sig.items()
            trace(TraceStep(steps, first_diff(s, t), (x, img), _measure(s, t), _measure(s2, t2)))
        acc = compose(sig, acc)
        s, t = s2, t2
    return Unified(acc, steps)


def robinson_unify(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Unify by repeated link_of_frst_diff steps; failure causes propagate."""
    acc = identity()
    steps = 0
    while s != t:
        sig = link_of_frst_diff(s, t)
        if not isinstance(sig, Subst):
            return Failed(sig)
        s2, t2 = sig.apply(s), sig.apply(t)
        steps += 1
        if trace is not None:
            ((x, img),) = sig.items()
            trace(TraceStep(steps, first_diff(s, t), (x, img), _measure(s, t), _measure(s2, t2)))
        acc = compose(sig, acc)
        s, t = s2, t2
    return Unified(acc, steps)


def next_position(s: Term, t: Term, p: Position) -> Position:
    """The next conflicting position strictly to the right of ``p``.

    Scans right siblings first, then climbs: the root position means no
    further conflict.  If the parents of ``p`` disagree on their head
    symbols the parent position itself is returned (an unresolved conflict
    above ``p``; unreachable when everything left of ``p`` has been
    resolved, but kept for totality).
    """
    if not is_valid_position(s, p):
        raise InvalidPositionError(s, p, p)
    if not is_valid_position(t, p):
        raise InvalidPositionError(t, p, p)
    return _next_position(s, t, p)


def _next_position(s: Term, t: Term, p: Position) -> Position:
    if p == ROOT:
        return ROOT
    parent = p[:-1]
    sp, tp = subterm_at(s, parent), subterm_at(t, parent)
    if not (isinstance(sp, App) and isinstance(tp, App)):
        raise RuntimeError(f"next_position: parent of {p} is a leaf (internal bug)")
    if sp.symbol != tp.symbol:
        return parent
    sibling = parent + (p[-1] + 1,)
    if p[-1] + 1 <= len(sp.args):
        if subterm_at(s, sibling) != subterm_at(t, sibling):
            return sibling
        return _next_position(s, t, sibling)
    if parent != ROOT:
        return _next_position(s, t, parent)
    return ROOT


def robinson_unify_efficient(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Like robinson_unify, but rescans from the last resolved conflict.

    After fixing the conflict inside position ``p``, instantiation cannot
    introduce a difference at or to the left of it, so the search resumes
    with ``next_position`` from the exact conflict spot instead of walking
    the whole instantiated terms again.  Produces the same outcome, and on
    success the same substitution, as the other two algorithms.
    """
    # The variable count bounds the number of conflicts and the position
    # count bounds the scan between conflicts; exceeding their product
    # means the position bookkeeping is broken, never that input was bad.
    limit = term_size(s) * (_measure(s, t) + 1) + 1
    acc = identity()
    steps = 0
    p: Position = ROOT
    for _ in range(limit):
        sp, tp = subterm_at(s, p), subterm_at(t, p)
        if sp == tp:
            p = _next_position(s, t, p)
            if p == ROOT:
                return Unified(acc, steps)
            continue
        conflict = p + first_diff(sp, tp)
        sig = _link(subterm_at(s, conflict), subterm_at(t, conflict), conflict)
        if not isinstance(sig, Subst):
            return Failed(sig)
        s2, t2 = sig.apply(s), sig.apply(t)
        steps += 1
        if trace is not None:
            ((x, img),) = sig.items()
            trace(TraceStep(steps, conflict, (x, img), _measure(s, t), _measure(s2, t2)))
        acc = compose(sig, acc)
        s, t = s2, t2
        p = _next_position(s, t, conflict)
        if p == ROOT:
            return Unified(acc, steps)
    raise RuntimeError("position scan failed to terminate: internal bug")


def unifiable(s: Term, t: Term) -> bool:
    """True iff some substitution makes the two terms equal."""
    return isinstance(robinson_unify(s, t), Unified)
