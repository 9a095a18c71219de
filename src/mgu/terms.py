"""Terms over a first-order signature, positions, and subterm surgery.

A term is either a variable leaf or the application of a declared function
symbol to exactly arity-many argument terms.  Terms are immutable and compare
structurally; every node caches its hash, variable set and node count at
construction so that equality tests, occurs checks and termination measures
do not rewalk the tree.  Nodes are never interned; instantiation shares
repeated subterms, and the literal unification loops reuse the partner
term's nodes for the part of a term they have resolved.

Equality walks the two terms with an explicit stack, so depth costs no
interpreter frames.  Once two distinct applications are found equal, the
first adopts the second's argument tuple: the tuple holds equal values, so
no value, hash or printed form changes, but the pair, and every pair that
reaches it again, now ends at ``args is``.  Comparing two separately built
copies of a shared chain is therefore linear in its distinct nodes, and a
rescan compares the already resolved part of two terms in constant time per
node on its way to the next difference.  Applications of at most
``_SMALL`` nodes are compared by tuple comparison instead, which is faster
on them and recurses at most ``_SMALL`` levels whatever the input.

A position is a tuple of 1-based child indices; ``()`` is the root.  The
textual form is dot-separated indices with ``e`` for the root, e.g. ``2.1``.
A walk that branches (``_preorder`` here, matching, the equation-set
oracle) tracks where it is as a chain of ``(parent, index)`` links and
turns a chain into a position only where it reports one, so no level
copies its parent's position; a walk along one position (``subterm_at``,
``replace_at``) takes the nodes on it from ``_spine``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

Position = tuple[int, ...]

ROOT: Position = ()

_NO_VARS: frozenset[str] = frozenset()

# Tree size up to which ``==`` compares argument tuples directly: the
# built-in comparison beats the walk on small terms (the acceptance
# universe has at most 7 nodes), and its recursion through ``App.__eq__``
# is bounded by the size, so by this constant.
_SMALL = 16


def is_variable_name(name: str) -> bool:
    """Variable names start with an uppercase letter or '?'."""
    return bool(name) and (name[0].isupper() or name[0] == "?")


def is_symbol_name(name: str) -> bool:
    """Function symbol names start with a lowercase letter."""
    return bool(name) and name[0].islower()


class InvalidPositionError(ValueError):
    """A position that does not exist in the term it was used on.

    ``prefix`` is the shortest leading part of the position that already
    falls outside the term.
    """

    def __init__(self, term: Term, position: Position, prefix: Position):
        super().__init__(
            f"invalid position {format_position(position)} in {term}: "
            f"no subterm at {format_position(prefix)}"
        )
        self.term = term
        self.position = position
        self.prefix = prefix


class UnknownSymbolError(ValueError):
    def __init__(self, symbol: str):
        super().__init__(f"unknown symbol {symbol!r}")
        self.symbol = symbol


class ArityError(ValueError):
    def __init__(self, symbol: str, expected: int, found: int):
        super().__init__(
            f"arity mismatch for {symbol!r}: expected {expected} argument(s), found {found}"
        )
        self.symbol = symbol
        self.expected = expected
        self.found = found


class Term:
    """Base class for Var and App; terms compare structurally."""

    __slots__ = ()


class Var(Term):
    __slots__ = ("name", "vars", "size", "_hash")

    def __init__(self, name: str):
        if not is_variable_name(name):
            raise ValueError(
                f"not a variable name (must start with an uppercase letter or '?'): {name!r}"
            )
        self.name = name
        self.vars = frozenset((name,))
        self.size = 1
        self._hash = hash(("var", name))

    def __eq__(self, other: object):
        if self is other:
            return True
        if type(other) is not Var:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name


class App(Term):
    """Application of a function symbol to a fixed tuple of argument terms.

    Arity against a signature is checked by ``Signature.app``, the checked
    constructor; building ``App`` directly is reserved for code that already
    holds well-formed arguments (e.g. substitution application rebuilding a
    node with the same argument count).
    """

    __slots__ = ("symbol", "args", "vars", "size", "_hash")

    def __init__(self, symbol: str, args: Iterable[Term] = ()):
        args = tuple(args)
        self.symbol = symbol
        self.args = args
        # A lone child's variable set is reused, and the sets of the third
        # and later children holding variables are joined in one union, so
        # construction is linear in the arity.
        vs = _NO_VARS
        more: list[frozenset[str]] | None = None
        size = 1
        for a in args:
            size += a.size
            if a.vars:
                if not vs:
                    vs = a.vars
                elif more is None:
                    vs, more = vs | a.vars, []
                else:
                    more.append(a.vars)
        if more:
            vs = vs.union(*more)
        self.vars = vs
        self.size = size
        self._hash = hash(("app", symbol, args))

    def __eq__(self, other: object):
        """Structural equality, with at most ``_SMALL`` levels of recursion
        however deep the terms.

        Every pair of applications of more than ``_SMALL`` nodes found
        equal on the way adopts one argument tuple (see the module
        docstring).  The store replaces a tuple by an equal one in a single
        step, so a concurrent reader sees one of two equal tuples and terms
        stay safe to share across threads.
        """
        if self is other:
            return True
        if type(other) is not App:
            return NotImplemented
        if self._hash != other._hash or self.symbol != other.symbol:
            return False
        if self.args is other.args:
            return True
        if self.size <= _SMALL:
            return self.args == other.args
        return _equal_args(self, other)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return format_term(self)


def _ill_formed(s: App, t: App) -> ValueError:
    """The error for two applications of one symbol with different argument counts."""
    return ValueError(f"terms are ill-formed: {s} and {t} share a symbol but not an arity")


def _equal_args(s: App, t: App) -> bool:
    """Whether two applications of one symbol have equal arguments.

    A frame is a pair of applications and the index of its next argument
    pair; arguments are compared left to right, depth first, and a pair of
    at most ``_SMALL`` nodes by tuple comparison.  A frame whose arguments
    were all found equal makes its left node adopt the right node's tuple.
    """
    frames: list[tuple[App, App, int]] = []
    a, b, i = s, t, 0
    while True:
        xs, ys = a.args, b.args
        n = len(xs)
        if n != len(ys):
            return False
        while i < n:
            x, y = xs[i], ys[i]
            i += 1
            if x is y:
                continue
            kind = type(x)
            if kind is not type(y) or x._hash != y._hash:
                return False
            if kind is not App:
                if x.name != y.name:
                    return False
            elif x.symbol != y.symbol:
                return False
            elif x.args is y.args:
                continue
            elif x.size <= _SMALL:
                if x.args != y.args:
                    return False
            else:
                frames.append((a, b, i))
                a, b, i = x, y, 0
                break
        else:
            a.args = ys
            if not frames:
                return True
            a, b, i = frames.pop()


class Signature:
    """Finite map from function symbol names to arities."""

    def __init__(self, entries: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        pairs = entries.items() if isinstance(entries, Mapping) else entries
        table: dict[str, int] = {}
        for name, arity in pairs:
            if not is_symbol_name(name):
                raise ValueError(
                    f"not a symbol name (must start with a lowercase letter): {name!r}"
                )
            if not isinstance(arity, int) or arity < 0:
                raise ValueError(f"arity of {name!r} must be a natural number, got {arity!r}")
            if name in table:
                raise ValueError(f"duplicate symbol {name!r}")
            table[name] = arity
        self._table = table
        # Computed once: every enumerator cache lookup hashes a signature.
        self._hash = hash(frozenset(table.items()))

    @property
    def entries(self) -> dict[str, int]:
        return dict(self._table)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._table

    def __eq__(self, other: object):
        if not isinstance(other, Signature):
            return NotImplemented
        return self._table == other._table

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}/{arity}" for name, arity in sorted(self._table.items()))
        return f"Signature({inner})"

    def arity(self, symbol: str) -> int:
        try:
            return self._table[symbol]
        except KeyError:
            raise UnknownSymbolError(symbol) from None

    def symbols(self) -> list[str]:
        return sorted(self._table)

    def app(self, symbol: str, *args: Term) -> App:
        """Checked construction: the argument count must match the declared arity."""
        expected = self.arity(symbol)
        if len(args) != expected:
            raise ArityError(symbol, expected, len(args))
        return App(symbol, args)


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


def _preorder(t: Term) -> Iterator[tuple[_Link, Term]]:
    """Every subterm of ``t`` with the link chain of its position, in
    lexicographic order of positions.

    One loop over a stack that holds the children right to left, so depth
    costs no interpreter frames.
    """
    todo: list[tuple[_Link, Term]] = [(None, t)]
    while todo:
        link, u = todo.pop()
        yield link, u
        if isinstance(u, App):
            args = u.args
            for i in range(len(args), 0, -1):
                todo.append(((link, i), args[i - 1]))


def positions_of(t: Term) -> list[Position]:
    """All positions of ``t``, in lexicographic (depth-first) order.

    The result is prefix-closed: the parent of every listed position is
    listed too.
    """
    return [_position(link) for link, _ in _preorder(t)]


def is_valid_position(t: Term, p: Position) -> bool:
    # Its own loop: the exception ``_spine`` raises formats the term.
    for i in p:
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            return False
        t = t.args[i - 1]
    return True


def _spine(t: Term, p: Position) -> list[Term]:
    """The subterms of ``t`` along ``p``, root first, ending with the one at
    ``p``; raises InvalidPositionError with the shortest prefix of ``p``
    that falls outside ``t``."""
    spine = [t]
    for depth, i in enumerate(p):
        if not isinstance(t, App) or not 1 <= i <= len(t.args):
            raise InvalidPositionError(spine[0], p, p[: depth + 1])
        t = t.args[i - 1]
        spine.append(t)
    return spine


def subterm_at(t: Term, p: Position) -> Term:
    """The subterm of ``t`` at ``p``; raises InvalidPositionError otherwise."""
    return _spine(t, p)[-1]


def replace_at(t: Term, p: Position, s: Term) -> Term:
    """``t`` with the subterm at ``p`` replaced by ``s``.

    Every position of ``t`` disjoint from ``p`` is left untouched.  Raises
    InvalidPositionError, like ``subterm_at``, if ``p`` is not in ``t``.
    """
    spine = _spine(t, p)
    spine.pop()  # the subterm being replaced
    for node, i in zip(reversed(spine), reversed(p)):
        s = App(node.symbol, node.args[: i - 1] + (s,) + node.args[i:])
    return s


def vars_of(t: Term) -> frozenset[str]:
    """The set of variable names occurring in ``t``."""
    return t.vars


def occurrences(t: Term, s: Term) -> list[Position]:
    """All positions of ``t`` where ``s`` occurs, in lexicographic order."""
    return [_position(link) for link, u in _preorder(t) if u == s]


def concat(p: Position, q: Position) -> Position:
    """Position concatenation; the root position is a two-sided identity."""
    return tuple(p) + tuple(q)


def term_size(t: Term) -> int:
    """Node count of ``t``; equals the number of its positions."""
    return t.size


def format_term(t: Term) -> str:
    """Canonical form: ``f(t1,t2)``, constants bare, variables verbatim.

    The writer keeps its own stack of the terms and punctuation still to
    print, so depth costs no interpreter frames.
    """
    out: list[str] = []
    todo: list[Term | str] = [t]
    while todo:
        u = todo.pop()
        if type(u) is str:
            out.append(u)
        elif type(u) is Var:
            out.append(u.name)
        elif u.args:
            out.append(u.symbol + "(")
            todo.append(")")
            args = u.args
            for a in args[:0:-1]:
                todo.append(a)
                todo.append(",")
            todo.append(args[0])
        else:
            out.append(u.symbol)
    return "".join(out)


def format_position(p: Position) -> str:
    return ".".join(str(i) for i in p) if p else "e"


def parse_position(text: str) -> Position:
    """Inverse of format_position; rejects indices below 1 and digits other
    than ASCII ones."""
    text = text.strip()
    if text == "e":
        return ROOT
    parts = text.split(".")
    out = []
    for part in parts:
        if not (part.isascii() and part.isdigit()) or int(part) < 1:
            raise ValueError(f"not a position: {text!r} (indices are 1-based, root is 'e')")
        out.append(int(part))
    return tuple(out)
