"""First-order unification by difference resolving.

Three equivalent algorithms are provided, and they run one loop: find the
leftmost-outermost position where the two terms disagree, resolve it with a
one-variable link or stop with the failure cause found there, instantiate
both terms and repeat.  The links are composed once, at the end; that gives
the same substitution as composing each link into the unifier as it is
made, without rewriting every earlier binding at every step.  The
algorithms differ only in how they find the next conflict:

- ``classic_unify`` and ``robinson_unify`` rescan from the root.  Their
  steps are ``sub_of_frst_diff`` and ``link_of_frst_diff``; the first's
  precondition violations (clash, occurs) are exactly the failure causes
  the second returns as values, so one step serves both;
- ``robinson_unify_efficient`` resumes right of the last resolved conflict
  (``next_position``), since instantiation can never create a difference
  at or left of a resolved position.

Every walk in the loop (equality past 16 nodes, instantiation, both scans)
is iterative and builds a position once, as a list turned into a tuple, so
the depth of the terms costs neither interpreter frames nor repeated tuple
copies.  A rescan from the root meets the resolved part again as pairs
that ``==`` has already made share their arguments: one identity test per
pair of more than 16 nodes.

Most calls fail at their first conflict, so the fixed cost of a call
counts: a scan hands over the two subterms it found different along with
their position, so each conflict is walked to once, and the outcome
records are built without the generated per-field stores.  ``first_diff``
and ``next_position`` stay the public forms of the two scans.

Two applications of one symbol with different argument counts, which
``Signature.app`` never builds, make every algorithm raise ValueError.

Every resolved conflict removes the bound variable from both terms, so the
number of distinct variables strictly decreases: that is the termination
measure, observable per step through the optional trace callback.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .substitution import Subst, _instantiate, more_general, singleton
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
)


# The outcome records are frozen dataclasses whose ``__init__`` fills the
# instance dict in one call, at about half the cost of the generated one,
# which stores each field through ``object.__setattr__``.


@dataclass(frozen=True)
class Clash:
    """Applications with different head symbols at the same position."""

    position: Position
    left: str
    right: str

    def __init__(self, position: Position, left: str, right: str):
        self.__dict__.update(position=position, left=left, right=right)


@dataclass(frozen=True)
class OccursCheck:
    """A variable that would have to be bound to a term containing it."""

    variable: str
    term: Term
    position: Position

    def __init__(self, variable: str, term: Term, position: Position):
        self.__dict__.update(variable=variable, term=term, position=position)


FailureCause = Clash | OccursCheck


@dataclass(frozen=True)
class Unified:
    mgu: Subst
    steps: int = 0

    def __init__(self, mgu: Subst, steps: int = 0):
        self.__dict__.update(mgu=mgu, steps=steps)


@dataclass(frozen=True)
class Failed:
    cause: FailureCause

    def __init__(self, cause: FailureCause):
        self.__dict__["cause"] = cause


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
# A conflict: its position and the two distinct subterms found there.
_Conflict = tuple[Position, Term, Term]
# Finds the next conflict, given the position of the one just resolved.
_Scan = Callable[[Term, Term, Position], _Conflict | None]


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
    return _descend(s, t)[0]


def _descend(s: Term, t: Term) -> _Conflict:
    """``first_diff`` of two terms known to be distinct, with the two
    subterms found there: the conflict, from the one walk that finds it."""
    pos: list[int] = []
    while type(s) is App and type(t) is App and s.symbol == t.symbol:
        for i, (a, b) in enumerate(zip(s.args, t.args), start=1):
            if a != b:
                pos.append(i)
                s, t = a, b
                break
        else:  # same symbol, no differing argument: ill-formed arities
            raise _ill_formed(s, t)
    return tuple(pos), s, t


def _ill_formed(s: App, t: App) -> ValueError:
    """The error for two applications of one symbol with different argument counts."""
    return ValueError(f"terms are ill-formed: {s} and {t} share a symbol but not an arity")


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
    link = _link(subterm_at(s, p), subterm_at(t, p), p)
    if isinstance(link, OccursCheck):  # resolving_diff has already ruled out a clash
        raise NotUnifiableError(link)
    return singleton(*link)


def _link(sp: Term, tp: Term, pos: Position) -> tuple[str, Term] | FailureCause:
    """Resolve the root disagreement of two distinct subterms found at ``pos``.

    The result is the binding ``(x, image)`` of the link, or the cause.
    """
    if isinstance(sp, Var):
        if sp.name in tp.vars:
            return OccursCheck(sp.name, tp, pos)
        return sp.name, tp
    if isinstance(tp, Var):
        if tp.name in sp.vars:
            return OccursCheck(tp.name, sp, pos)
        return tp.name, sp
    return Clash(pos, sp.symbol, tp.symbol)


def link_of_frst_diff(s: Term, t: Term) -> Subst | FailureCause:
    """Total variant of sub_of_frst_diff: failure is a value, not an error."""
    p = first_diff(s, t)
    link = _link(subterm_at(s, p), subterm_at(t, p), p)
    return singleton(*link) if isinstance(link, tuple) else link


def _measure(s: Term, t: Term) -> int:
    return len(s.vars | t.vars)


class _Run:
    """The links one unification has made so far, in order.

    ``resolve`` instantiates both terms with a link, records it and reports
    the step to the trace; the unifier is built only at the end, by
    ``unified``.
    """

    __slots__ = ("links", "trace", "vars_now")

    def __init__(self, s: Term, t: Term, trace: TraceFn | None):
        self.links: list[tuple[str, Term]] = []
        self.trace = trace
        self.vars_now = _measure(s, t) if trace is not None else 0

    def resolve(self, s: Term, t: Term, p: Position, link: tuple[str, Term]) -> tuple[Term, Term]:
        """Both terms instantiated by the link found at ``p``, with one memo,
        so a subterm the two share is instantiated once."""
        x, u = link
        table = {x: u}
        dom, memo = table.keys(), {}
        s, t = (
            _instantiate(s, table, dom, memo) if x in s.vars else s,
            _instantiate(t, table, dom, memo) if x in t.vars else t,
        )
        self.links.append(link)
        if self.trace is not None:
            vars_before, self.vars_now = self.vars_now, _measure(s, t)
            self.trace(TraceStep(len(self.links), p, link, vars_before, self.vars_now))
        return s, t

    def unified(self) -> Unified:
        """The links composed right to left, as ``compose(σ_k, … compose(σ_1,
        identity()))`` would, but each binding is built once.

        A link eliminates its variable from both terms for good, so no
        ``x_i`` occurs in ``u_j`` for ``j >= i`` and the variables are
        distinct.  The final image of ``x_i`` is therefore ``u_i`` under the
        final images of the later links: resolving back to front needs one
        instantiation per link, and no binding is ever rewritten.
        """
        table: dict[str, Term] = {}
        done = table.keys()
        for x, u in reversed(self.links):
            table[x] = u if done.isdisjoint(u.vars) else _instantiate(u, table, done, {})
        return Unified(Subst._of(table), len(self.links))


def next_position(s: Term, t: Term, p: Position) -> Position:
    """The next conflicting position strictly to the right of ``p``.

    Scans right siblings first, then climbs: the root position means no
    further conflict.  If the parents of ``p`` disagree on their head
    symbols the parent position itself is returned (an unresolved conflict
    above ``p``; unreachable when everything left of ``p`` has been
    resolved, but kept for totality).  Parents with one symbol but
    different argument counts are ill-formed: ValueError, as in
    ``first_diff``.
    """
    if not is_valid_position(s, p):
        raise InvalidPositionError(s, p, p)
    if not is_valid_position(t, p):
        raise InvalidPositionError(t, p, p)
    found = _next_position(s, t, p)
    return ROOT if found is None else found[0]


def _next_position(s: Term, t: Term, p: Position) -> _Conflict | None:
    """``next_position`` with the two subterms there, which the scan has
    just found different; None for the root."""
    # The pairs of subterms at the proper prefixes of p, root first: one
    # walk down, then the climb pops them, and ``path`` with them: after
    # each pop, ``path`` is the position of the pair just popped.
    spine = [(s, t)]
    for i in p[:-1]:
        s, t = s.args[i - 1], t.args[i - 1]
        spine.append((s, t))
    path = list(p)
    while path:
        sp, tp = spine.pop()
        last = path.pop()
        if not (isinstance(sp, App) and isinstance(tp, App)):
            raise RuntimeError(f"next_position: parent of {(*path, last)} is a leaf (internal bug)")
        if sp.symbol != tp.symbol:
            return tuple(path), sp, tp
        if len(sp.args) != len(tp.args):
            raise _ill_formed(sp, tp)
        for i in range(last, len(sp.args)):
            if sp.args[i] != tp.args[i]:
                path.append(i + 1)
                return tuple(path), sp.args[i], tp.args[i]
    return None


def _unify(s: Term, t: Term, trace: TraceFn | None, rescan: _Scan) -> UnifyOutcome:
    """The loop of all three algorithms: find a conflict, resolve it, repeat.

    The first conflict is searched from the root; after each resolved
    conflict, ``rescan`` finds the next one.
    """
    run = _Run(s, t, trace)
    conflict = _scan_from_root(s, t, ROOT)
    while conflict is not None:
        p, sp, tp = conflict
        link = _link(sp, tp, p)
        if not isinstance(link, tuple):
            return Failed(link)
        s, t = run.resolve(s, t, p, link)
        conflict = rescan(s, t, p)
    return run.unified()


def _scan_from_root(s: Term, t: Term, resolved: Position) -> _Conflict | None:
    """The first conflict of the whole terms, wherever the last one was."""
    return None if s == t else _descend(s, t)


def _scan_right(s: Term, t: Term, resolved: Position) -> _Conflict | None:
    """The first conflict strictly right of the one just resolved; none once
    the scan climbs back to the root, without comparing the whole terms.

    ``_next_position`` returns the root or a pair of subterms it has just
    found different, so one resumption and one descent from that pair
    suffice.
    """
    found = _next_position(s, t, resolved)
    if found is None:
        return None
    p, sp, tp = found
    q, sq, tq = _descend(sp, tp)
    return p + q, sq, tq


def classic_unify(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Unify by repeated sub_of_frst_diff steps, rescanning from the root.

    Equal terms unify with the identity; otherwise the first difference is
    resolved, both terms are instantiated, and the process repeats.  The
    failures are sub_of_frst_diff's precondition violations (clash, occurs)
    turned into values.
    """
    return _unify(s, t, trace, _scan_from_root)


def robinson_unify(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Unify by repeated link_of_frst_diff steps; failure causes propagate."""
    return _unify(s, t, trace, _scan_from_root)


def robinson_unify_efficient(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Like robinson_unify, but resumes the search for the next conflict
    with ``next_position`` from the last resolved one, instead of walking
    the whole instantiated terms again.  Same outcome and substitution."""
    return _unify(s, t, trace, _scan_right)


def unifiable(s: Term, t: Term) -> bool:
    """True iff some substitution makes the two terms equal."""
    return isinstance(robinson_unify(s, t), Unified)
