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
``enum_terms`` and ``enum_substitutions`` enumerate every term and every
substitution under a bound, and ``enumerated_unifiers`` filters the latter
down to the actual unifiers of a pair; together they give finite, exact
approximations of the (infinite) set of unifiers to certify mgus against.

``enumerated_unifiers`` derives its candidates from the terms each domain
variable faces in the pair, with no unification algorithm: a ground term is
the one image a variable can keep, an open term keeps the images a
structural clash test allows, and variables that face each other form a
class (Martelli & Montanari's multiequations) that takes one image.  Every
candidate must still pass ``is_unifier``, so the result is the same list,
in the same order and with the same objects, as filtering every enumerated
substitution.

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
from types import MappingProxyType

from .substitution import Subst, _bind
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
        # Every enumerator cache lookup hashes the bound: once, not per lookup.
        object.__setattr__(self, "_hash", hash((max_depth, self.variables, signature)))

    def __hash__(self) -> int:
        return self._hash


def solve_equations(eqs: EquationSet) -> UnifyOutcome:
    """Unify a whole equation system; returns an idempotent mgu or a failure.

    Worklist transformation: drop solved equations, decompose matching
    applications, orient term = variable, and eliminate variable = term by
    substituting into the pending equations (after the occurs check).  The
    eliminations, in order, are a triangular solved form, resolved back to
    front into the mgu at the end.  Reported failure positions are relative
    to the originating equation's terms as instantiated at failure time.
    Applications of one symbol with different argument counts are
    ill-formed: ValueError, as in ``first_diff``.
    """
    # A stack: its last entry is the next equation processed, a list
    # [s, t, link], emptied when popped.  ``holders`` lists the entries of
    # ``work[:listed]`` under each variable they hold, and each entry an
    # elimination rewrites under the variables it gains.  An elimination
    # scans the entries above ``work[:listed]`` itself while there are at
    # most ``_UNLISTED`` of them, and lists them first otherwise.
    work = [[s, t, None] for s, t in reversed(eqs.equations)]
    holders: defaultdict[str, list[list]] = defaultdict(list)
    listed = 0
    solved: dict[str, Term] = {}
    while work:
        entry = work.pop()
        s, t, link = entry
        entry.clear()
        if len(work) < listed:
            listed = len(work)
        if s == t:
            continue
        if isinstance(s, Var):
            x, u = s.name, t
        elif isinstance(t, Var):
            x, u = t.name, s
        else:  # two applications
            if s.symbol != t.symbol:
                return Failed(Clash(_position(link), s.symbol, t.symbol))
            xs, ys = s.args, t.args
            if len(xs) != len(ys):
                raise _ill_formed(s, t)
            for i in range(len(xs), 0, -1):
                work.append([xs[i - 1], ys[i - 1], (link, i)])
            continue
        if x in u.vars:
            return Failed(OccursCheck(x, u, _position(link)))
        # Eliminate x := u from the pending equations that hold x, with one
        # memo for every term ``_bind`` rewrites; the others are kept.
        if len(work) - listed > _UNLISTED:
            for pending in work[listed:]:
                for y in itertools.chain(pending[0].vars, pending[1].vars):
                    holders[y].append(pending)
            listed = len(work)
        memo: dict = {}
        for pending in work[listed:] + holders.pop(x, []):
            if not pending:  # popped already
                continue
            a, b, _ = pending
            if x not in a.vars and x not in b.vars:  # without x, or rewritten already
                continue
            pending[0], pending[1] = _bind(a, x, u, memo), _bind(b, x, u, memo)
            for y in u.vars:
                holders[y].append(pending)
        solved[x] = u
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


@lru_cache(maxsize=None)
def _images(name: str, bound: EnumBound) -> tuple[Term, ...]:
    """One domain variable's choices: itself (left unbound) first, then every
    enumerated term other than itself."""
    me = Var(name)
    return (me,) + tuple(t for t in _enum_terms(bound) if not t == me)


@lru_cache(maxsize=None)
def _offsets(domain: tuple[str, ...], bound: EnumBound) -> tuple[Mapping[Term, int], ...]:
    """Per variable of ``domain``, each of its ``_images`` mapped to its
    offset in ``_enum_substitutions(domain, bound)``: the image's index times
    the product of the image counts of the variables before it.  Read-only
    views, one tuple per domain as ``_enum_substitutions`` keeps."""
    tables, stride = [], 1
    for x in domain:
        images = _images(x, bound)
        tables.append(MappingProxyType({u: stride * i for i, u in enumerate(images)}))
        stride *= len(images)
    return tuple(tables)


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
    # Each variable keeps, by image, the offset in ``candidates`` (index
    # times stride) of each image that can equal every term it faces,
    # starting from its cached read-only ``_offsets`` table, which the
    # filters below replace with new dicts.  Variables that face each other
    # are joined into a class, one list of names shared by its members.
    kept: dict[str, Mapping[Term, int]] = {}
    classes = {x: [x] for x in domain}
    for x, offsets in zip(domain, _offsets(domain, bound)):
        for o in faced.get(x, ()):
            if type(o) is Var:
                mine, theirs = classes[x], classes[o.name]
                if mine is not theirs:
                    mine += theirs
                    classes.update(dict.fromkeys(theirs, mine))
            elif not o.vars:
                offsets = {o: offsets[o]} if o in offsets else {}
            else:
                offsets = {u: k for u, k in offsets.items() if _image_may_equal(u, o, x, u)}
        kept[x] = offsets
    # A class takes each image all its members kept, at the sum of their
    # offsets; a candidate's index is a sum of one choice per class.
    choices = []
    for first, *rest in {id(c): c for c in classes.values()}.values():
        choices.append([
            k + sum(kept[y][u] for y in rest)
            for u, k in kept[first].items()
            if all(u in kept[y] for y in rest)
        ])
    return [
        candidates[i]
        for i in sorted(map(sum, itertools.product(*choices)))
        if is_unifier(candidates[i], s, t)
    ]


def _faced_terms(s: Term, t: Term, faced: dict[str, list[Term]]) -> bool:
    """Walk the pair like ``Subst.applied_equal`` with every variable open,
    recording under each variable the terms its occurrences face, left to
    right; one loop over a stack of pairs, so depth costs no frames.

    False at a head-symbol clash, which no substitution can undo.
    """
    pairs = [(s, t)]
    while pairs:
        s, t = pairs.pop()
        if s is t:
            continue
        if isinstance(s, Var):
            faced.setdefault(s.name, []).append(t)
        elif isinstance(t, Var):
            faced.setdefault(t.name, []).append(s)
        elif s.symbol != t.symbol:
            return False
        else:
            pairs.extend(reversed(tuple(zip(s.args, t.args))))
    return True


def _image_may_equal(v: Term, t: Term, x: str, u: Term) -> bool:
    """Whether the fixed term ``v`` can equal ``t`` under ``x -> u``, other
    variables open.  ``not ==`` skips the ``__ne__`` derived from ``__eq__``."""
    pairs: list[tuple[Term, Term]] = []
    while True:
        if not t.vars:
            if not v == t:
                return False
        elif type(t) is Var:
            if t.name == x and not v == u:
                return False
        elif type(v) is not App or v.symbol != t.symbol:
            return False
        else:
            pairs += zip(v.args, t.args)
        if not pairs:
            return True
        v, t = pairs.pop()
