"""Finite substitutions: variable-to-term maps and their algebra.

A substitution is stored as a finite map with identity bindings dropped at
construction, so the key set is exactly the domain and two substitutions are
equal as maps if and only if they are equal as functions on terms.  Applying
a substitution extends it homomorphically over term structure; composition,
restriction and the generality pre-order are built on top of that.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Set as AbstractSet
from dataclasses import dataclass

from .terms import _SMALL, App, Position, Term, Var, is_variable_name
from .terms import _ill_formed, _Link, _position


class Subst:
    """Immutable finite-domain substitution.

    ``==`` decides equality as functions on terms: identity bindings are
    dropped eagerly, so comparing the stored maps is exact.
    """

    __slots__ = ("_map", "_dom")

    def __init__(self, bindings: Mapping[str, Term] | None = None):
        table: dict[str, Term] = {}
        if bindings:
            for name, image in bindings.items():
                if not is_variable_name(name):
                    raise ValueError(f"not a variable name: {name!r}")
                if not isinstance(image, Term):
                    raise TypeError(f"binding image for {name!r} is not a Term: {image!r}")
                if isinstance(image, Var) and image.name == name:
                    continue
                table[name] = image
        self._map = table
        self._dom = frozenset(table)

    @classmethod
    def _of(cls, table: dict[str, Term]) -> Subst:
        """The substitution with exactly the bindings of ``table``, taken as
        it is: every name and image must already be valid and no binding an
        identity, as for the maps the unification engines, ``compose``,
        ``match_terms`` and ``restrict`` build from valid input."""
        sigma = cls.__new__(cls)
        sigma._map = table
        sigma._dom = frozenset(table)
        return sigma

    def __eq__(self, other: object):
        if not isinstance(other, Subst):
            return NotImplemented
        return self._map == other._map

    def __len__(self) -> int:
        return len(self._map)

    def __str__(self) -> str:
        inner = ", ".join(f"{x} -> {img}" for x, img in self.items())
        return "{" + inner + "}"

    __repr__ = __str__

    def items(self) -> list[tuple[str, Term]]:
        """Bindings sorted lexically by variable name."""
        return sorted(self._map.items())

    def get(self, name: str) -> Term:
        """Image of a variable; unbound variables map to themselves."""
        img = self._map.get(name)
        return Var(name) if img is None else img

    def dom(self) -> frozenset[str]:
        return self._dom

    def ran(self) -> frozenset[Term]:
        return frozenset(self._map.values())

    def vran(self) -> frozenset[str]:
        """Variables occurring in the range."""
        return frozenset().union(*(img.vars for img in self._map.values()))

    def apply(self, t: Term) -> Term:
        """Homomorphic extension: substitute throughout ``t``.

        Subterms with no variable in the domain are returned as they are.
        Every other node is instantiated once per call, however often ``t``
        holds it, so a subterm that ``t`` shares is one object in the result
        too, and a term whose tree is exponentially larger than its
        distinct nodes costs only those nodes.
        """
        return _instantiate(t, self._map, self._dom, {})

    def applied_equal(self, s: Term, t: Term) -> bool:
        """Whether applying the substitution makes the two terms equal.

        Same answer as ``self.apply(s) == self.apply(t)``, but compares the
        instantiated terms without building them.  The walk keeps its own
        stack, so depth costs no interpreter frames; it goes on with each
        pair's first arguments in place and pushes only the pairs right of
        them.  It compares a pair of nodes of more than ``_SMALL`` nodes
        once however often the terms share it, so shared chains cost their
        distinct nodes, not their trees.  One symbol at two argument counts
        is never equal.
        """
        table, dom = self._map, self._dom
        # Two ``apply`` calls and ``==`` in place of this walk cost ``certify``
        # 38% of its ops/s (13,827 to 8,612) and nearly double its tail,
        # beyond the benchmark's 25% bound (2 vCPUs, CPython 3.11.7).
        # A pending pair (done, u, v) asks whether u equals v instantiated,
        # u being instantiated already when ``done`` and to be otherwise.
        todo: list[tuple[bool, Term, Term]] = [(False, s, t)]
        # Pairs of large nodes already expanded, by id: every node is held
        # by s, t or the table for the whole call, so no id is reused.
        seen: set[tuple[bool, int, int]] | None = None
        while todo:
            done, u, v = todo.pop()
            while True:  # down the first argument pairs, in place
                if not done:
                    if u is v:
                        break
                    if type(u) is Var:
                        u, done = table.get(u.name, u), True
                    elif type(v) is Var:
                        u, v, done = table.get(v.name, v), u, True
                if done:
                    if type(v) is Var:
                        if not u == table.get(v.name, v):
                            return False
                        break
                    if v.vars.isdisjoint(dom):
                        if not u == v:
                            return False
                        break
                    if type(u) is not App:
                        return False
                xs, ys = u.args, v.args
                if u.symbol != v.symbol or len(xs) != len(ys):
                    return False
                if not xs:
                    break
                if u.size > _SMALL:
                    key = (done, id(u), id(v))
                    if seen is None:
                        seen = set()
                    elif key in seen:
                        break
                    seen.add(key)
                for j in range(len(xs) - 1, 0, -1):
                    todo.append((done, xs[j], ys[j]))
                u, v = xs[0], ys[0]
        return True

    def restrict(self, names: Iterable[str]) -> Subst:
        keep = set(names)
        return Subst._of({x: img for x, img in self._map.items() if x in keep})

    def is_idempotent(self) -> bool:
        """True iff composing the substitution with itself changes nothing,
        i.e. no domain variable occurs in the range."""
        return self._dom.isdisjoint(self.vran())


def _instantiate(
    t: Term, table: Mapping[str, Term], dom: AbstractSet[str], memo: dict[int, tuple[App, App]]
) -> Term:
    """``t`` with each variable in ``dom`` replaced by its image in
    ``table``; ``t`` itself if it has none.

    ``memo`` maps the id of every application node already instantiated in
    this pass to the node and its image.  Holding the node keeps its id from
    being reused while the memo lives, even if an equality test elsewhere
    makes its parent adopt an equal argument tuple meanwhile.  The walk
    keeps its own stack of frames, each an application being rebuilt, an
    iterator over its remaining arguments and the images of the arguments
    so far, so depth costs no interpreter frames.
    """
    if dom.isdisjoint(t.vars):
        return t
    if type(t) is Var:
        return table[t.name]
    hit = memo.get(id(t))
    if hit is not None:
        return hit[1]
    frames: list[tuple[App, Iterator[Term], list[Term]]] = []
    node, rest, args = t, iter(t.args), []
    while True:
        for a in rest:
            if dom.isdisjoint(a.vars):
                args.append(a)
            elif type(a) is Var:
                args.append(table[a.name])
            elif id(a) in memo:
                args.append(memo[id(a)][1])
            else:
                frames.append((node, rest, args))
                node, rest, args = a, iter(a.args), []
                break
        else:
            out = App(node.symbol, args)
            memo[id(node)] = node, out
            if not frames:
                return out
            node, rest, args = frames.pop()
            args.append(out)


def identity() -> Subst:
    return Subst()


def singleton(name: str, image: Term) -> Subst:
    """The substitution binding exactly one variable.

    Rejects ``name -> name`` since identity bindings are not stored.
    """
    if isinstance(image, Var) and image.name == name:
        raise ValueError(f"identity binding {name} -> {name} is not a binding")
    return Subst({name: image})


def compose(sigma: Subst, tau: Subst) -> Subst:
    """The substitution acting as "apply tau, then apply sigma".

    Each of tau's images goes through ``sigma.apply``.  Bindings that cancel
    to the identity are dropped here, so the result's domain can be smaller
    than the union of the two domains, and the table is taken as it is,
    with no second pass over its names and images: as a function on terms
    the result always equals sigma after tau.
    """
    table: dict[str, Term] = {}
    for x, img in tau._map.items():
        img = sigma.apply(img)
        if not (type(img) is Var and img.name == x):
            table[x] = img
    for x, img in sigma._map.items():
        if x not in tau._map:
            table[x] = img
    return Subst._of(table)


def subst_equal(sigma: Subst, tau: Subst) -> bool:
    """Equality as functions on terms (same as ``==``)."""
    return sigma == tau


@dataclass(frozen=True)
class Matched:
    witness: Subst


@dataclass(frozen=True)
class NoMatch:
    reason: str  # "clash" or "inconsistent-binding"
    at: Position


MatchResult = Matched | NoMatch


def _match_into(pattern: Term, target: Term, env: dict[str, Term]) -> NoMatch | None:
    """Leftmost-outermost one-sided matching into a shared binding map.

    ``env`` keeps raw bindings (including identities) so that consistency
    checks see every earlier decision.  One loop over a stack of pairs, each
    with the link chain of its position, holding the arguments right to
    left: it goes on with each first argument pair in place and pushes only
    the rest.  The position is built only for the failure.  Two applications of
    one symbol with different argument counts raise ValueError.
    """
    todo: list[tuple[Term, Term, _Link]] = [(pattern, target, None)]
    # Pairs of large nodes already expanded, by id, as in ``applied_equal``:
    # a repeat is popped only after its first copy has matched in full.
    seen: set[tuple[int, int]] | None = None
    while todo:
        pattern, target, link = todo.pop()
        while True:  # down the first argument pairs, in place
            if type(pattern) is Var:
                if not env.setdefault(pattern.name, target) == target:
                    return NoMatch("inconsistent-binding", _position(link))
                break
            if type(target) is not App or target.symbol != pattern.symbol:
                return NoMatch("clash", _position(link))
            xs, ys = pattern.args, target.args
            if len(xs) != len(ys):
                raise _ill_formed(pattern, target)
            if not xs:
                break
            if pattern.size > _SMALL:
                key = (id(pattern), id(target))
                if seen is None:
                    seen = set()
                elif key in seen:
                    break
                seen.add(key)
            for i in range(len(xs), 1, -1):
                todo.append((xs[i - 1], ys[i - 1], (link, i)))
            pattern, target, link = xs[0], ys[0], (link, 1)
    return None


def match_terms(pattern: Term, target: Term) -> MatchResult:
    """Find the substitution turning ``pattern`` into ``target``, if any.

    On success the witness binds only variables of the pattern and is the
    unique such substitution on them; on failure the first conflicting
    position (leftmost-outermost) is reported.  Applications of one symbol
    with different argument counts, which ``Signature.app`` never builds,
    are ill-formed: ValueError, as in the unification algorithms.
    """
    env: dict[str, Term] = {}
    bad = _match_into(pattern, target, env)
    if bad is not None:
        return bad
    moved = {x: u for x, u in env.items() if not (type(u) is Var and u.name == x)}
    return Matched(Subst._of(moved))


def more_general(theta: Subst, sigma: Subst) -> bool:
    """True iff some gamma satisfies compose(gamma, theta) == sigma.

    Decided constructively, without building gamma or the composition:
    match the theta-image of every variable in either domain against its
    sigma-image, an unbound variable standing for itself.  The matching
    witness gamma is unique on the variables it binds and makes gamma after
    theta agree with sigma on every variable matched.  One case is left:
    gamma must leave alone every variable that neither theta nor sigma
    binds, since gamma after theta moves it exactly as gamma does and sigma
    not at all.  Matching alone cannot see that: {X -> Y} is not more
    general than {X -> a}, because the witness {Y -> a} would move Y, which
    {X -> a} leaves untouched.  The variables are matched in name order,
    and images that apply one symbol to different argument counts are
    ill-formed: ValueError, as in ``match_terms``, once matching reaches
    them.
    """
    env: dict[str, Term] = {}
    tmap, smap, both = theta._map, sigma._map, theta._dom | sigma._dom
    for x in sorted(both):
        u, p = smap.get(x) or Var(x), tmap.get(x)
        if p is None:  # matching the pattern Var(x), without building it
            if not env.setdefault(x, u) == u:
                return False
        elif _match_into(p, u, env) is not None:
            return False
    for x in env.keys() - both:
        if not env[x] == Var(x):
            return False
    return True
