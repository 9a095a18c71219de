"""Independent ground truth for the unification algorithms.

``solve_equations`` unifies by transforming a set of equations with the
delete / decompose / orient / eliminate rules, a different algorithm family
from difference resolving, so agreement between the two is real evidence.
It eliminates ``X := u`` by instantiating, through the one-entry table
``{X: u}`` and one memo, only the pending equations and solved bindings
that hold ``X``; each elimination still visits all of them, so the solver
is quadratic in the number of variables it binds.
``enum_terms`` and ``enum_substitutions`` enumerate every term and every
substitution under a bound, and ``enumerated_unifiers`` filters the latter
down to the actual unifiers of a pair; together they give finite, exact
approximations of the (infinite) set of unifiers to certify mgus against.

``enumerated_unifiers`` first drops, per domain variable, the images that a
structural clash test rules out with every other variable left open; the
test uses no unification algorithm.  Every surviving candidate must still
pass ``is_unifier``, so the result is the same list, in the same order and
with the same objects, as filtering every enumerated substitution.

Enumeration order is fixed (variables lexically, then symbols lexically,
argument tuples in product order, earlier domain variables cycling fastest)
so failures are reproducible by index.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

from .substitution import Subst, _instantiate
from .terms import App, Position, Signature, Term, Var
from .unify import Clash, Failed, OccursCheck, Unified, UnifyOutcome, _ill_formed, is_unifier


@dataclass(frozen=True)
class EquationSet:
    """A finite multiset of term equations, kept in the given order."""

    equations: tuple[tuple[Term, Term], ...]

    def __init__(self, equations: Iterable[tuple[Term, Term]] = ()):
        object.__setattr__(self, "equations", tuple(equations))


@dataclass(frozen=True)
class EnumBound:
    """Term enumeration bound: tree height limit, variable pool, signature."""

    max_depth: int
    variables: tuple[str, ...]
    signature: Signature

    def __init__(self, max_depth: int, variables: Iterable[str], signature: Signature):
        if max_depth < 0:
            raise ValueError("max_depth must be a natural number")
        object.__setattr__(self, "max_depth", max_depth)
        object.__setattr__(self, "variables", tuple(sorted(set(variables))))
        object.__setattr__(self, "signature", signature)


# A position as a chain of (parent, index) links, the root being None: a
# child's link costs one pair, not a copy of its parent's position.
_Link = tuple["_Link", int] | None


def _position(link: _Link) -> Position:
    """The position a chain of links stands for."""
    out: list[int] = []
    while link is not None:
        link, i = link
        out.append(i)
    out.reverse()
    return tuple(out)


def solve_equations(eqs: EquationSet) -> UnifyOutcome:
    """Unify a whole equation system; returns an idempotent mgu or a failure.

    Worklist transformation: drop solved equations, decompose matching
    applications, orient term = variable, and eliminate variable = term by
    substituting everywhere (after the occurs check).  Reported failure
    positions are relative to the originating equation's terms as
    instantiated at failure time.  Applications of one symbol with
    different argument counts are ill-formed: ValueError, as in
    ``first_diff``.
    """
    work: deque[tuple[Term, Term, _Link]] = deque(
        (s, t, None) for s, t in eqs.equations
    )
    solution: dict[str, Term] = {}
    steps = 0
    while work:
        s, t, link = work.popleft()
        if s == t:
            continue
        if isinstance(s, Var):
            x, u = s.name, t
        elif isinstance(t, Var):
            x, u = t.name, s
        else:  # two applications
            if s.symbol != t.symbol:
                return Failed(Clash(_position(link), s.symbol, t.symbol))
            if len(s.args) != len(t.args):
                raise _ill_formed(s, t)
            work.extendleft(
                (a, b, (link, i))
                for i, (a, b) in reversed(list(enumerate(zip(s.args, t.args), start=1)))
            )
            continue
        if x in u.vars:
            return Failed(OccursCheck(x, u, _position(link)))
        # Eliminate x := u through the one-entry table, with one memo for
        # every term it rewrites; terms without x are kept as they are.
        table = {x: u}
        dom, memo = table.keys(), {}
        work = deque(
            (
                _instantiate(a, table, dom, memo) if x in a.vars else a,
                _instantiate(b, table, dom, memo) if x in b.vars else b,
                q,
            )
            for a, b, q in work
        )
        for solved, image in solution.items():
            if x in image.vars:
                solution[solved] = _instantiate(image, table, dom, memo)
        solution[x] = u
        steps += 1
    return Unified(Subst._of(solution), steps)


@lru_cache(maxsize=None)
def _enum_terms(bound: EnumBound) -> tuple[Term, ...]:
    sig = bound.signature
    symbols = sig.symbols()

    def layer(prev: tuple[Term, ...]) -> tuple[Term, ...]:
        out: list[Term] = [Var(name) for name in bound.variables]
        for symbol in symbols:
            n = sig.arity(symbol)
            if n == 0:
                out.append(sig.app(symbol))
            elif prev:
                for args in itertools.product(prev, repeat=n):
                    out.append(sig.app(symbol, *args))
        return tuple(out)

    terms = layer(())
    for _ in range(bound.max_depth):
        terms = layer(terms)
    return terms


def enum_terms(bound: EnumBound) -> list[Term]:
    """Every well-formed term of height at most ``bound.max_depth``, once each.

    A lone leaf has height 0.  Variables come first, then applications by
    symbol order with argument tuples in product order.
    """
    return list(_enum_terms(bound))


@lru_cache(maxsize=None)
def _images(name: str, bound: EnumBound) -> tuple[Term, ...]:
    """One domain variable's choices: itself (left unbound) first, then every
    enumerated term other than itself."""
    me = Var(name)
    return (me,) + tuple(t for t in _enum_terms(bound) if t != me)


@lru_cache(maxsize=None)
def _enum_substitutions(domain: tuple[str, ...], bound: EnumBound) -> tuple[Subst, ...]:
    # Reversed so the first domain variable cycles fastest; Subst drops the
    # identity bindings that stand for "unbound".
    return tuple(
        Subst(dict(zip(reversed(domain), combo)))
        for combo in itertools.product(*(_images(name, bound) for name in reversed(domain)))
    )


def enum_substitutions(domain: Iterable[str], bound: EnumBound) -> list[Subst]:
    """Every substitution with domain inside ``domain`` and images drawn from
    ``enum_terms(bound)``, once each; identity bindings are never produced.

    The count is the product over the domain of (number of enumerated terms
    other than the variable itself, plus one for leaving it unbound).
    """
    return list(_enum_substitutions(tuple(sorted(set(domain))), bound))


def enumerated_unifiers(s: Term, t: Term, bound: EnumBound) -> list[Subst]:
    """The enumerated substitutions over the pair's variables that unify it.

    Sound (every result is a unifier) and complete within the bound; an
    empty result is evidence of nothing beyond the bound.  Equal, element
    for element and in order, to filtering ``enum_substitutions`` of the
    pair's variables through ``is_unifier``.
    """
    faced: dict[str, list[Term]] = {}
    if not _faced_terms(s, t, faced):
        return []
    domain = tuple(sorted(s.vars | t.vars))
    candidates = _enum_substitutions(domain, bound)
    # Each variable keeps the images that can equal every term it faces,
    # pre-multiplied by its stride in ``candidates``.
    offsets = []
    stride = 1
    for x in domain:
        images = _images(x, bound)
        opposite = faced.get(x, ())
        offsets.append([
            stride * i
            for i, u in enumerate(images)
            if all(_image_may_equal(u, o, x, u) for o in opposite)
        ])
        stride *= len(images)
    out = []
    for combo in itertools.product(*reversed(offsets)):
        sigma = candidates[sum(combo)]
        if is_unifier(sigma, s, t):
            out.append(sigma)
    return out


def _faced_terms(s: Term, t: Term, faced: dict[str, list[Term]]) -> bool:
    """Walk the pair like ``Subst.applied_equal`` with every variable open,
    recording under each variable the terms its occurrences face.

    False at a head-symbol clash, which no substitution can undo.
    """
    if s is t:
        return True
    if isinstance(s, Var):
        faced.setdefault(s.name, []).append(t)
        return True
    if isinstance(t, Var):
        faced.setdefault(t.name, []).append(s)
        return True
    if s.symbol != t.symbol:
        return False
    return all(_faced_terms(a, b, faced) for a, b in zip(s.args, t.args))


def _image_may_equal(v: Term, t: Term, x: str, u: Term) -> bool:
    """Whether the fixed term ``v`` can equal ``t`` under ``x -> u``, other
    variables open."""
    if not t.vars:
        return v == t
    if isinstance(t, Var):
        return t.name != x or v == u
    if not isinstance(v, App) or v.symbol != t.symbol:
        return False
    return all(_image_may_equal(a, b, x, u) for a, b in zip(v.args, t.args))
