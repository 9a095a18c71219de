"""First-order unification by difference resolving.

Three equivalent algorithms are provided.  Each finds the leftmost-outermost
position where the two terms disagree, resolves it with a one-variable link
or stops with the failure cause found there, and repeats with the link in
force.  The links are composed once, at the end, by ``_resolved``, which the
equation-set oracle shares.

- ``classic_unify`` and ``robinson_unify``, the literal reference,
  instantiate both terms with each link and rescan from the root.  Their
  steps are ``sub_of_frst_diff`` and ``link_of_frst_diff``, whose causes
  are the same, so one loop serves both.  A step costs one descent from
  the root, testing each argument pair for identity and cached hash before
  ``==`` (which ends at once on pairs an earlier step found equal, see
  ``mgu.terms``), and one ``_instantiate`` per side holding the variable,
  which rebuilds each node above an occurrence once and shares the rest.
  Above the resolved conflict, a node whose instance is its partner is not
  rebuilt: it becomes the partner node itself (``_adopt_partners``), so
  the two terms share the resolved part as the partner's own nodes, and
  the next descent passes it with one ``is`` test.  ``g^n(X)`` against
  ``g^n(a)`` is one descent and one climb, with no node built;
- ``robinson_unify_efficient`` never instantiates: it walks the pairs
  once, from the root, left to right, reading every variable through the
  links made so far (the substitution applied lazily, after Corbin &
  Bidoit).  Expanding a pair of applications pushes the argument pairs
  right of the first, each with its link, and goes on with the first in
  place, as ``_descend`` does, so only the pairs left for later pass
  through the stack.  A pair expanded once is skipped when met again, so
  shared subterms cost their distinct pairs, and the occurs check follows
  variable names through the bound images.
  Only what a result shows is instantiated: ``OccursCheck.term`` and a
  traced binding.  Resolving conflicts left to right never creates one
  left of a resolved one, so the conflicts, steps, positions and causes
  are those of ``robinson_unify``.

Every walk is iterative, so depth costs no interpreter frames, and a
position is built only where one is reported.  The literal algorithms
find each conflict with one descent that hands over the two subterms it
found different.  ``first_diff`` and
``next_position`` stay the public forms of the paper's scans.

Two applications of one symbol with different argument counts, which
``Signature.app`` never builds, make every algorithm raise ValueError as
soon as a scan reaches them, whatever their arguments.

Every link removes its variable from both terms, and its image is a
subterm of them, so the number of distinct variables falls by exactly one
per step: the termination measure, observable through the trace callback.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from .substitution import Subst, _instantiate, more_general, singleton
from .terms import (
    App,
    Position,
    ROOT,
    Term,
    Var,
    _ill_formed,
    _Link,
    _position,
    _spine,
    format_position,
)


# The outcome records are frozen dataclasses whose ``__init__`` fills the
# instance dict in one call, at about half the cost of the generated one,
# which stores each field through ``object.__setattr__``.  ``init=False``
# spares the import the generated one, which would be thrown away.


@dataclass(frozen=True, init=False)
class Clash:
    """Applications with different head symbols at the same position."""

    position: Position
    left: str
    right: str

    def __init__(self, position: Position, left: str, right: str):
        self.__dict__.update(position=position, left=left, right=right)


@dataclass(frozen=True, init=False)
class OccursCheck:
    """A variable that would have to be bound to a term containing it."""

    variable: str
    term: Term
    position: Position

    def __init__(self, variable: str, term: Term, position: Position):
        self.__dict__.update(variable=variable, term=term, position=position)


FailureCause = Clash | OccursCheck


@dataclass(frozen=True, init=False)
class Unified:
    mgu: Subst
    steps: int = 0

    def __init__(self, mgu: Subst, steps: int = 0):
        self.__dict__.update(mgu=mgu, steps=steps)


@dataclass(frozen=True, init=False)
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
# A conflict: its position, the two distinct subterms found there and the
# two just above them (at the root, the two terms themselves).
_Conflict = tuple[Position, Term, Term, Term, Term]


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
    return _conflict(s, t)[0]


def _conflict(s: Term, t: Term) -> _Conflict:
    """``first_diff``'s conflict, as ``_descend`` gives it."""
    if s == t:
        raise ValueError("first_diff requires distinct terms")
    return _descend(s, t)


def _descend(s: Term, t: Term) -> _Conflict:
    """``first_diff`` of two terms known to be distinct, with the two
    subterms found there and the pair above them: the conflict, from the
    one walk that finds it.  The loop holds the pair above in ``s, t`` and
    the pair below in ``a, b``, so the pair above costs nothing to keep."""
    pos: list[int] = []
    a, b = s, t
    while type(a) is App and type(b) is App and a.symbol == b.symbol:
        s, t = a, b
        xs, ys = s.args, t.args
        if len(xs) != len(ys):
            raise _ill_formed(s, t)
        for i in range(len(xs)):
            a, b = xs[i], ys[i]
            if a is not b and (a._hash != b._hash or not a == b):
                pos.append(i + 1)
                break
        else:
            raise RuntimeError(f"first_diff: {s} and {t} differ in no argument (internal bug)")
    return tuple(pos), a, b, s, t


def resolving_diff(s: Term, t: Term) -> Position:
    """first_diff, plus the guarantee that one side there is a variable.

    For unifiable distinct terms that guarantee always holds; if neither
    side is a variable the inputs were not unifiable and NotUnifiableError
    is raised.
    """
    p, sp, tp, _, _ = _conflict(s, t)
    if not isinstance(sp, Var) and not isinstance(tp, Var):
        raise NotUnifiableError(Clash(p, sp.symbol, tp.symbol))
    return p


def sub_of_frst_diff(s: Term, t: Term) -> Subst:
    """The one-variable substitution resolving the first difference.

    The variable side is bound to the partner subterm, preferring the s-side
    variable when both sides are variables.  A head clash or a variable
    occurring in its partner subterm means the inputs were not unifiable:
    NotUnifiableError, carrying the cause ``link_of_frst_diff`` returns.
    """
    link = link_of_frst_diff(s, t)
    if not isinstance(link, Subst):
        raise NotUnifiableError(link)
    return link


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
    p, sp, tp, _, _ = _conflict(s, t)
    link = _link(sp, tp, p)
    return singleton(*link) if isinstance(link, tuple) else link


def _measure(s: Term, t: Term) -> int:
    return len(s.vars | t.vars)


def _resolved(links: dict[str, Term]) -> Subst:
    """The links composed right to left, as ``compose(σ_k, … compose(σ_1,
    identity()))`` would, but each binding is built once.

    Each link passed the occurs check under the earlier ones, so no chain
    of images leads back to its start: the final image of ``x`` is its
    ``u`` under the final images of the bound variables ``u`` holds.  On
    triangular links (no ``x_i`` in ``u_j`` for ``j >= i``) resolving them
    in that order is back to front, one instantiation per link.
    """
    table: dict[str, Term] = {}
    _resolve(links, links, table, {})  # a stack: the last link first
    return Subst._of(table)


def _resolve(images: dict[str, Term], names: Iterable[str], table: dict[str, Term],
             memo: dict) -> None:
    """Enter in ``table`` the final image under ``images`` of each variable
    in ``names``, all bound there, and of every bound variable they reach.

    A variable is resolved after the bound variables of its image, so each
    subterm instantiated on the way is final, and one memo serves every
    variable: a subterm that several images share is instantiated once.
    The names wait on a stack, so long chains of images cost no frames.
    """
    done, bound = table.keys(), images.keys()
    todo = list(names)
    while todo:
        x = todo.pop()
        if x in table:  # resolved already, reached again
            continue
        u = images[x]
        if not bound.isdisjoint(u.vars):
            held = bound & u.vars
            if not done >= held:
                todo.append(x)
                todo += [y for y in held if y not in table]
                continue
            # held is done's share of u.vars, so it answers every subterm
            # of u as done would, and a set answers isdisjoint faster.
            u = _instantiate(u, table, held, memo)
        table[x] = u


def _image(u: Term, images: dict[str, Term]) -> Term:
    """``u`` under the acyclic bindings ``images``, instantiated: ``u``
    itself when they bind none of its variables."""
    held = images.keys() & u.vars
    if not held:
        return u
    table: dict[str, Term] = {}
    memo: dict = {}
    _resolve(images, held, table, memo)
    return _instantiate(u, table, held, memo)


def _reaches(x: str, names: frozenset[str], images: dict[str, Term]) -> bool:
    """Whether ``x``, unbound in the acyclic bindings ``images``, is in the
    image of a bound variable reached from ``names``: the occurs check under
    bindings, over variable names, each bound one expanded once."""
    todo = list(images.keys() & names)
    seen = set(todo)
    while todo:
        names = images[todo.pop()].vars
        if x in names:
            return True
        for y in images.keys() & names:
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return False


def next_position(s: Term, t: Term, p: Position) -> Position:
    """The next conflicting position strictly to the right of ``p``.

    Scans right siblings first, then climbs: the root position means no
    further conflict.  If the parents of ``p`` disagree on their head
    symbols the parent position itself is returned (an unresolved conflict
    above ``p``; unreachable when everything left of ``p`` has been
    resolved, but kept for totality).  Parents with one symbol but
    different argument counts are ill-formed: ValueError, as in
    ``first_diff``.  A position missing from either term raises
    ``InvalidPositionError``, as in ``subterm_at``.
    """
    # The pairs of subterms at the proper prefixes of p, root first: one
    # walk down each term, then the climb pops them, and ``path`` with them:
    # after each pop, ``path`` is the position of the pair just popped.
    # ``_spine`` has checked that both terms hold an application at every
    # proper prefix of p.
    spine = list(zip(_spine(s, p), _spine(t, p)))
    spine.pop()  # the pair at p itself
    path = list(p)
    while path:
        sp, tp = spine.pop()
        last = path.pop()
        if sp.symbol != tp.symbol:
            return tuple(path)
        if len(sp.args) != len(tp.args):
            raise _ill_formed(sp, tp)
        for i in range(last, len(sp.args)):
            if not sp.args[i] == tp.args[i]:
                path.append(i + 1)
                return tuple(path)
    return ROOT


def _adopt_partners(s: Term, t: Term, p: Position, a: App, b: App, x: str,
                    memo: dict[int, tuple[App, App]]) -> None:
    """Enter in ``memo``, for ``_instantiate`` by the link ``x -> t|p`` that
    resolves the conflict at ``p``, each node of ``s`` above ``p`` whose
    instance is its partner in ``t``, with that partner: deepest first,
    stopping at the first that is not.  ``a`` and ``b`` are the nodes of
    ``s`` and ``t`` at the parent of ``p``.

    A node ``a`` over its partner ``b`` becomes ``b`` when ``b`` holds no
    ``x`` and every argument of ``a`` right of ``p`` is ``b``'s own object.
    The arguments left of ``p`` were found equal on the way down, so they
    hold no ``x`` either, and the one on ``p`` becomes its partner: the
    link's image at the bottom, the node entered one level down above it.
    Only ``is`` is tested, and the rest of ``p`` is walked only when the
    parent pair passes, so a step that cannot win pays O(arity).
    """
    i = p[-1]
    spine: list[tuple[App, App, int]] | None = None
    while True:
        if x in b.vars:
            return
        xs, ys = a.args, b.args
        for j in range(i, len(xs)):
            if xs[j] is not ys[j]:
                return
        memo[id(a)] = a, b
        if spine is None:
            spine = []
            for k in p[:-1]:
                spine.append((s, t, k))
                s, t = s.args[k - 1], t.args[k - 1]
        if not spine:
            return
        a, b, i = spine.pop()


def _unify(s: Term, t: Term, trace: TraceFn | None) -> UnifyOutcome:
    """The loop of ``classic_unify`` and ``robinson_unify``: find the first
    conflict from the root, resolve it, instantiate both terms, repeat.

    The links are kept in order and resolved into the unifier only at the
    end.
    """
    links: dict[str, Term] = {}
    vars_now = _measure(s, t) if trace is not None else 0
    while not s == t:  # App defines no __ne__: ``!=`` would dispatch twice
        p, sp, tp, ps, pt = _descend(s, t)
        link = _link(sp, tp, p)
        if not isinstance(link, tuple):
            return Failed(link)
        # Both terms instantiated by the link, with one memo, so a subterm
        # the two share is instantiated once, and the nodes above ``p``
        # that become their partners are those partners.
        x, u = link
        memo: dict = {}
        if p:
            if type(sp) is Var:
                _adopt_partners(s, t, p, ps, pt, x, memo)
            else:
                _adopt_partners(t, s, p, pt, ps, x, memo)
        table, dom = {x: u}, {x}
        s, t = _instantiate(s, table, dom, memo), _instantiate(t, table, dom, memo)
        links[x] = u
        if trace is not None:
            vars_before, vars_now = vars_now, _measure(s, t)
            trace(TraceStep(len(links), p, link, vars_before, vars_now))
    return Unified(_resolved(links), len(links))


def classic_unify(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Unify by repeated sub_of_frst_diff steps, rescanning from the root.

    Equal terms unify with the identity; otherwise the first difference is
    resolved, both terms are instantiated, and the process repeats.  The
    failures are sub_of_frst_diff's precondition violations (clash, occurs)
    turned into values.
    """
    return _unify(s, t, trace)


def robinson_unify(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Unify by repeated link_of_frst_diff steps; failure causes propagate."""
    return _unify(s, t, trace)


def robinson_unify_efficient(s: Term, t: Term, trace: TraceFn | None = None) -> UnifyOutcome:
    """Like robinson_unify, but walks the pair once, left to right, under
    the links made so far instead of instantiating the terms and scanning
    them again.  Same conflicts, steps, causes, trace and substitution.

    The walk starts at the root.  A bound variable reads as its image, and a
    pair of applications already expanded is skipped: it has been made
    equal, and stays so.  A pair expanded now pushes its argument pairs
    right of the first and the walk goes on with the first in place.
    """
    bound: dict[str, Term] = {}
    if trace is not None:
        vars_now = _measure(s, t)
    # A pending pair is held with the link chain of its position.
    todo: list[tuple[Term, Term, _Link]] = [(s, t, None)]
    bound_names = bound.keys()
    # The application pairs expanded so far, by id, holding the nodes so
    # that no id is reused while the walk runs.
    seen: dict[tuple[int, int], tuple[App, App]] = {}
    while todo:
        s, t, link = todo.pop()
        while True:  # down the first argument pairs, in place
            while type(s) is Var and s.name in bound:
                s = bound[s.name]
            while type(t) is Var and t.name in bound:
                t = bound[t.name]
            if s is t or s._hash == t._hash and s == t:
                break
            if type(s) is Var:
                x, u = s.name, t
            elif type(t) is Var:
                x, u = t.name, s
            else:
                if s.symbol != t.symbol:
                    return Failed(Clash(_position(link), s.symbol, t.symbol))
                key = id(s), id(t)
                if key in seen:
                    break
                xs, ys = s.args, t.args
                if len(xs) != len(ys):
                    raise _ill_formed(s, t)
                seen[key] = s, t
                for j in range(len(xs), 1, -1):
                    todo.append((xs[j - 1], ys[j - 1], (link, j)))
                s, t, link = xs[0], ys[0], (link, 1)
                continue
            names = u.vars
            if x in names or not bound_names.isdisjoint(names) and _reaches(x, names, bound):
                return Failed(OccursCheck(x, _image(u, bound), _position(link)))
            bound[x] = u
            if trace is not None:
                vars_now -= 1
                step = (x, _image(u, bound))
                trace(TraceStep(len(bound), _position(link), step, vars_now + 1, vars_now))
            break
    return Unified(_resolved(bound), len(bound))


def unifiable(s: Term, t: Term) -> bool:
    """True iff some substitution makes the two terms equal.

    Runs ``robinson_unify_efficient``, which has the literal algorithms'
    outcome and is linear on wide input, where they are quadratic.
    """
    return isinstance(robinson_unify_efficient(s, t), Unified)
