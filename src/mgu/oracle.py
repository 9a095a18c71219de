"""Independent ground truth for the unification algorithms.

``solve_equations`` unifies by transforming a set of equations with the
delete / decompose / orient / eliminate rules, a different algorithm family
from difference resolving, so agreement between the two is real evidence.
It eliminates ``X := u`` by instantiating, with one memo and the one-binding
walk of the literal algorithms, only the pending equations that hold ``X``.
While few are pending it scans them; when many are, an index from each
variable to the pending equations holding it finds them without visiting
the others (the role of Martelli & Montanari's multiequation counters).
The eliminations are kept in order and resolved into the mgu once, back
to front, as the paper algorithms' links are, so no solved binding is
ever rewritten.  The pending equations are a list stack, each with the
link chain (``mgu.terms``) of its position in the equation it came from.
Decomposing a pair pushes the argument pairs right of the first and goes
on with the first in place, so only the pairs left for later are entries
of the stack, and a pair is dropped when it is one object, or equal by
cached hash and ``==``.
``enum_terms`` and ``enum_substitutions`` enumerate every term and every
substitution under a bound, and ``enumerated_unifiers`` picks out of the
latter the actual unifiers of a pair; together they give finite, exact
approximations of the (infinite) set of unifiers to certify mgus against.

``enumerated_unifiers`` finds the unifiers among the enumerated
substitutions by an exact search, with no unification algorithm and no
matching.  A substitution unifies a pair exactly when each variable's image
equals the instance of every term the variable faces in it.  Variables that
face each other form a class (Martelli & Montanari's multiequations) that
takes one image; one walk of the pair builds the classes and the terms each
faces.  A class that faces a ground term takes that term, found by lookup.
One that faces an open term takes the term's instance once the classes the
term holds have images, so those classes are searched first, in
topological order; a class inside its own open term, or a cycle of open
terms, has no unifier.  A class that faces nothing takes every image, of no
more than the height that the open terms holding it leave.  Every further
open term is checked as soon as its variables have images, by building its
instance, as the term that fixes an image is built, and comparing it with
``==``.  The search builds only the unifiers' indices, each a sum of
offsets; one table per domain and bound, cached for the process, holds
every candidate ``Subst`` and the offset tables that place a choice, plain
dicts that nothing mutates.  Each unifier still passes ``is_unifier``, and
the result is the same list, in the same order and with the same objects,
as filtering every enumerated substitution.

Enumeration order is fixed (variables lexically, then symbols lexically,
argument tuples in product order, earlier domain variables cycling fastest)
so failures are reproducible by index.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

from .substitution import Subst, _instantiate
from .terms import App, Signature, Term, Var, _ill_formed, _position
from .unify import Clash, Failed, OccursCheck, Unified, UnifyOutcome, is_unifier
from .unify import _resolved


# The most pending equations an elimination scans without the index.
# Scanning every pending equation makes a flat pair of n arguments take
# n**2 steps.  Listing every one costs a step per variable it holds, so a
# right-nested list of n variables, whose pending equations are few but
# long, takes n**2 steps, and a call on the acceptance universe, where
# fewer than 16 are ever pending, about a fifth more time.  Any limit
# from 2 to 256 keeps both shapes linear, in about the same time.
_UNLISTED = 16


@dataclass(frozen=True, init=False)
class EquationSet:
    """A finite multiset of term equations, kept in the given order."""

    equations: tuple[tuple[Term, Term], ...]

    def __init__(self, equations: Iterable[tuple[Term, Term]] = ()):
        object.__setattr__(self, "equations", tuple(equations))


@dataclass(frozen=True, init=False)
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


def solve_equations(eqs: EquationSet) -> UnifyOutcome:
    """Unify a whole equation system; returns an idempotent mgu or a failure.

    Worklist transformation: drop solved equations, decompose matching
    applications, orient term = variable, and eliminate variable = term by
    substituting into the pending equations (after the occurs check).  The
    eliminations, in order, are a triangular solved form, resolved back to
    front into the mgu at the end.  Reported failure positions are relative
    to the originating equation's terms as instantiated at failure time.
    Each decomposition goes on with the first argument pair in place and
    leaves only the pairs right of it pending.  Applications of one symbol with different argument counts are
    ill-formed: ValueError, as in ``first_diff``.
    """
    # A stack: its last entry is the next equation processed, a list
    # [s, t, link], emptied when popped; the first argument pair of a
    # decomposition is never an entry.  ``holders``, made at the first
    # listing, lists the entries of ``work[:listed]`` under each variable
    # they hold, and each of them an elimination rewrites under the
    # variables it gains.  An elimination scans the entries above
    # ``work[:listed]`` itself while there are at most ``_UNLISTED`` of
    # them, and lists them first otherwise.
    work = [[s, t, None] for s, t in reversed(eqs.equations)]
    holders: defaultdict[str, list[list]] | None = None
    listed = 0
    solved: dict[str, Term] = {}
    while work:
        entry = work.pop()
        s, t, link = entry
        entry.clear()
        if len(work) < listed:
            listed = len(work)
        # Down the first argument pairs in place, the others pushed.
        while not (s is t or s._hash == t._hash and s == t):
            if type(s) is Var:
                x, u = s.name, t
            elif type(t) is Var:
                x, u = t.name, s
            else:  # two applications
                if s.symbol != t.symbol:
                    return Failed(Clash(_position(link), s.symbol, t.symbol))
                xs, ys = s.args, t.args
                if len(xs) != len(ys):
                    raise _ill_formed(s, t)
                for i in range(len(xs), 1, -1):
                    work.append([xs[i - 1], ys[i - 1], (link, i)])
                s, t, link = xs[0], ys[0], (link, 1)
                continue
            if x in u.vars:
                return Failed(OccursCheck(x, u, _position(link)))
            # Eliminate x := u from the pending equations that hold x, with
            # one memo for every term rewritten; the others are kept.
            if len(work) - listed > _UNLISTED:
                if holders is None:
                    holders = defaultdict(list)
                for pending in work[listed:]:
                    for y in itertools.chain(pending[0].vars, pending[1].vars):
                        holders[y].append(pending)
                listed = len(work)
            memo: dict = {}
            table, dom = {x: u}, {x}
            for pending in work[listed:]:
                a, b, _ = pending
                if x in a.vars or x in b.vars:
                    pending[0] = _instantiate(a, table, dom, memo)
                    pending[1] = _instantiate(b, table, dom, memo)
            if holders is not None:
                for pending in holders.pop(x, ()):
                    if not pending:  # popped already
                        continue
                    a, b, _ = pending
                    if x not in a.vars and x not in b.vars:  # rewritten already
                        continue
                    pending[0] = _instantiate(a, table, dom, memo)
                    pending[1] = _instantiate(b, table, dom, memo)
                    for y in u.vars:
                        holders[y].append(pending)
            solved[x] = u
            break
    return Unified(_resolved(solved), len(solved))


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


def _images(name: str, bound: EnumBound) -> tuple[Term, ...]:
    """One domain variable's choices: itself (left unbound) first, then every
    enumerated term other than itself."""
    me = Var(name)
    return (me,) + tuple(t for t in _enum_terms(bound) if not t == me)


@lru_cache(maxsize=None)
def _domain(domain: tuple[str, ...], bound: EnumBound) -> tuple[tuple[Subst, ...], dict]:
    """Every candidate substitution over ``domain``, in enumeration order,
    and its offset tables: per variable and per height ``h`` up to the
    bound, each of its ``_images`` of height at most ``h`` mapped to its
    offset, the image's index times the product of the image counts of the
    variables before it.  A candidate's index is the sum of its bindings'
    offsets.  The tables are plain dicts that nothing mutates: the search
    only reads them."""
    images = [_images(x, bound) for x in domain]
    # Reversed so the first domain variable cycles fastest; Subst drops the
    # identity bindings that stand for "unbound".
    candidates = tuple(Subst(dict(zip(reversed(domain), combo)))
                       for combo in itertools.product(*reversed(images)))
    lower = [EnumBound(h, bound.variables, bound.signature) for h in range(bound.max_depth)]
    tables, stride = {}, 1
    for x, mine in zip(domain, images):
        full = {u: stride * i for i, u in enumerate(mine)}
        tables[x] = tuple({u: full[u] for u in _images(x, b)} for b in lower) + (full,)
        stride *= len(mine)
    return candidates, tables


def enum_substitutions(domain: Iterable[str], bound: EnumBound) -> list[Subst]:
    """Every substitution with domain inside ``domain`` and images drawn from
    ``enum_terms(bound)``, once each; identity bindings are never produced.

    The count is the product over the domain of (number of enumerated terms
    other than the variable itself, plus one for leaving it unbound).
    """
    return list(_domain(tuple(sorted(set(domain))), bound)[0])


def enumerated_unifiers(s: Term, t: Term, bound: EnumBound) -> list[Subst]:
    """The enumerated substitutions over the pair's variables that unify it.

    Sound (every result is a unifier) and complete within the bound; an
    empty result is evidence of nothing beyond the bound.  Equal, element
    for element and in order, to filtering ``enum_substitutions`` of the
    pair's variables through ``is_unifier``.

    The unifiers are found by an exact search over classes of variables
    (see the module docstring), with no unification algorithm and no
    matching.  The search builds only the unifiers' indices, each the sum
    of its members' offsets, sorted into enumeration order; the results are
    read out of the domain's table, which holds every candidate ``Subst``
    for the process, and each still passes ``is_unifier``.
    """
    domain = tuple(sorted(s.vars | t.vars))
    height = dict.fromkeys(domain, bound.max_depth)
    classes = _classes(s, t, height, bound.max_depth)
    if classes is None:
        return []
    candidates, offsets = _domain(domain, bound)
    # Per class: its members, their offset tables, its (image, offset)
    # choices or the open term that fixes its image instead, and the open
    # terms its image is checked against.  A ground term is the one choice,
    # found by lookup.  Classes without open terms come first.
    order: list[tuple] = []
    todo: list[tuple[set[str], tuple]] = []
    for members, terms in classes:
        ground, opens = None, []
        for o in terms:
            if o.vars:
                opens.append(o)
            elif ground is None:
                ground = o
            elif not ground == o:
                return []
        h = min(height[y] for y in members)
        tables = [offsets[y][h] for y in members]
        if ground is not None:
            k = _offset_of(ground, tables)
            if k is None:  # taller than the class's images
                return []
            c = members, tables, ((ground, k),), None, opens
        elif opens:
            c = members, tables, None, opens[0], opens[1:]
        else:
            c = members, tables, [
                (u, k) for u in tables[0] if (k := _offset_of(u, tables)) is not None
            ], None, opens
        if opens:
            todo.append((set().union(*(o.vars for o in opens)), c))
        else:
            order.append(c)
    # Then each class after the classes its open terms hold (topological
    # order).  A class inside its own open term, or a cycle of open terms,
    # is left unordered: no image equals a term that holds it.
    assigned = {y for c in order for y in c[0]}
    while todo:
        ready = [c for needs, c in todo if needs <= assigned]
        if not ready:
            return []
        todo = [(needs, c) for needs, c in todo if not needs <= assigned]
        for members, *_ in ready:
            assigned.update(members)
        order += ready
    return [
        candidates[i]
        for i in sorted(_search(order))
        if is_unifier(candidates[i], s, t)
    ]


def _lower_heights(t: App, height: dict[str, int], top: int) -> bool:
    """Lower ``height`` of each variable of ``t`` to at most ``top`` minus
    its depth in ``t``; False if a variable lies deeper than ``top``.  A
    loop over a stack of (subterm, height) pairs, each holding a variable,
    that goes no deeper than ``top``.  Without it ``X`` against
    ``g^100000(Y)`` at height 1 takes 5.8 s, against 1.1 ms."""
    pending = [(t, top)]
    while pending:
        t, h = pending.pop()
        if h < 0:
            return False
        if type(t) is Var:
            if h < height[t.name]:
                height[t.name] = h
        else:
            pending += [(a, h - 1) for a in t.args if a.vars]
    return True


def _offset_of(u: Term, tables: list[Mapping[Term, int]]) -> int | None:
    """The sum of the tables' offsets for the image ``u``, or None if a
    table lacks it."""
    k = 0
    for table in tables:
        o = table.get(u)
        if o is None:
            return None
        k += o
    return k


def _search(order: list[tuple]) -> list[int]:
    """The index of every candidate that gives each class of ``order`` one
    of its choices, or the instance of the open term that fixes its image,
    equal to the instance of each open term it is checked against.

    Depth first over the classes, in one loop over a stack of choice
    iterators, so the number of classes costs no frames; ``images`` holds
    the image of every member of the classes above the current one.
    """
    if not order:
        return [0]
    images: dict[str, Term] = {}
    found: list[int] = []
    levels = [_choices(order[0], images)]
    bases = [0]  # per level, the offset its choices are added to
    while levels:
        depth = len(levels)
        members, _, _, _, checks = order[depth - 1]
        base = bases[-1]
        for u, k in levels[-1]:
            for y in members:
                images[y] = u
            if checks and not all(u == _instantiate(o, images, o.vars, {}) for o in checks):
                continue
            if depth == len(order):
                found.append(base + k)
                continue
            bases.append(base + k)
            levels.append(_choices(order[depth], images))
            break
        else:
            levels.pop()
            bases.pop()
    return found


def _choices(c: tuple, images: Mapping[str, Term]):
    """An iterator over the (image, offset) choices of the class ``c`` once
    the classes its open terms hold have ``images``."""
    _, tables, choices, fixer, _ = c
    if fixer is None:
        return iter(choices)
    u = _instantiate(fixer, images, fixer.vars, {})
    k = _offset_of(u, tables)
    return iter(() if k is None else ((u, k),))


def _classes(s: Term, t: Term, height: dict[str, int], top: int) -> list[tuple[list, list]] | None:
    """The classes of the pair's variables, the keys of ``height``, each a
    (members, terms) pair of lists, in the order of their first members;
    ``height`` is lowered by ``_lower_heights`` for every open term met.

    Walks the pair like ``Subst.applied_equal`` with every variable open;
    one loop over a stack of pairs, so depth costs no frames, that goes on
    with each first argument pair in place and pushes the rest.  Two
    variables that face each other share one class; a term that is not a
    variable joins the class of the variable it faces, left to right.  None
    at a head-symbol clash, at one symbol with two argument counts, which no
    substitution can undo, or at a variable deeper than ``top`` in an open
    term, whose instance would be taller than every image.
    """
    classes = {x: ([x], []) for x in height}
    pairs = [(s, t)]
    while pairs:
        s, t = pairs.pop()
        while s is not t:  # down the first argument pairs, in place
            if type(s) is Var:
                x, o = s.name, t
            elif type(t) is Var:
                x, o = t.name, s
            else:
                xs, ys = s.args, t.args
                if s.symbol != t.symbol or len(xs) != len(ys):
                    return None
                if not xs:
                    break
                for i in range(len(xs) - 1, 0, -1):
                    pairs.append((xs[i], ys[i]))
                s, t = xs[0], ys[0]
                continue
            mine = classes[x]
            if type(o) is Var:
                theirs = classes[o.name]
                if mine is not theirs:
                    mine[0].extend(theirs[0])
                    mine[1].extend(theirs[1])
                    classes.update(dict.fromkeys(theirs[0], mine))
            else:
                mine[1].append(o)
                if o.vars and not _lower_heights(o, height, top):
                    return None
            break
    return list({id(c): c for c in classes.values()}.values())
