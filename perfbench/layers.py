"""Per-layer tracing of the ``mgu`` engine from outside it.

The traced run replaces the public functions of the five modules with
wrappers defined here, runs a fixed list of operations, and puts the
originals back.  Nothing in ``mgu`` itself changes.

- A function is patched under every name it is bound to in the ``mgu``
  modules, because ``from .x import f`` copies the binding: ``compose`` is
  patched in ``mgu.substitution``, ``mgu.unify``, ``mgu.cli`` and the
  package.  Methods (``Subst.apply``, ``App.__eq__``) are patched on the
  class.  ``is_unifier`` is counted only where ``mgu.oracle`` looks it up,
  so that it counts the enumerator's candidates and nothing else.
- Every entry into a wrapped function counts as a call, nested recursive
  entries included.  Only the outermost entry of a function opens a span,
  so ``.s`` is the time in outermost calls and recursion is not counted
  twice.
- A span's self time is its duration minus the time covered by the spans
  opened inside it.
- Spans are kept in memory (up to ``max_spans``; the rest are only counted
  as dropped) and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass

clock = time.perf_counter

SPAN, COUNT = "span", "count"


@dataclass(frozen=True)
class Target:
    """One wrapped function: its metric prefix, where it lives, and what is reported.

    ``owner`` is ``"module:attr"`` for a module-level function or
    ``"module:Class.attr"`` for a method; ``report`` lists the suffixes
    (``calls``, ``s``, ``self_s``) that become metrics, and an empty suffix
    means the bare prefix is the call count.
    """

    prefix: str
    owner: str
    kind: str
    report: tuple[str, ...]


TARGETS: tuple[Target, ...] = (
    Target("terms.eq", "terms:App.__eq__", SPAN, ("calls", "s")),
    Target("terms.app_new", "terms:App.__init__", COUNT, ("",)),
    Target("terms.subterm_at", "terms:subterm_at", COUNT, ("calls",)),
    Target("terms.format_term", "terms:format_term", SPAN, ("s",)),
    *(
        Target(f"substitution.{name}", owner, SPAN, ("calls", "s", "self_s"))
        for name, owner in (
            ("apply", "substitution:Subst.apply"),
            ("compose", "substitution:compose"),
            ("applied_equal", "substitution:Subst.applied_equal"),
            ("more_general", "substitution:more_general"),
            ("match_terms", "substitution:match_terms"),
        )
    ),
    *(
        Target(f"unify.{name}", f"unify:{name}", SPAN, ("calls", "s", "self_s"))
        for name in ("classic_unify", "robinson_unify", "robinson_unify_efficient")
    ),
    *(
        Target(f"unify.{name}", f"unify:{name}", SPAN, ("calls", "s"))
        for name in ("first_diff", "link_of_frst_diff", "sub_of_frst_diff")
    ),
    *(
        Target(f"oracle.{name}", f"oracle:{name}", SPAN, ("calls", "s"))
        for name in ("solve_equations", "enumerated_unifiers")
    ),
    *(
        Target(f"cli.{name}", f"cli:{name}", SPAN, ("calls", "s"))
        for name in ("main", "build_parser", "parse_term", "parse_subst", "parse_signature")
    ),
)

PAPER_ALGORITHMS = ("classic_unify", "robinson_unify", "robinson_unify_efficient")


class Layer:
    __slots__ = ("name", "calls", "total", "self_total", "depth")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.depth = 0


class Tracer:
    """Wraps the engine's public functions and aggregates calls, times and spans."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.layers: dict[str, Layer] = {}
        self.stack: list[list] = []  # open spans: [span id, time covered by children]
        self.spans: list[tuple] = []  # (id, parent id, name, op index, start, end)
        self.dropped = 0
        self.op = 0
        self.outcomes = dict.fromkeys(("steps", "clash", "occurs", "candidates", "unifiers"), 0)
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []  # kept alive so that their ids stay unique

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer(name)
        return self.layers[name]

    def span(self, layer: Layer, fn, on_result=None):
        """Wrap ``fn`` so that its outermost calls open spans in ``layer``."""
        stack, spans, ids, tracer = self.stack, self.spans, self._ids, self

        def wrapper(*args, **kwargs):
            layer.calls += 1
            if layer.depth:
                layer.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    layer.depth -= 1
            layer.depth = 1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                layer.depth = 0
                duration = end - start
                layer.total += duration
                layer.self_total += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[0]
                else:
                    parent_id = 0
                if len(spans) < tracer.max_spans:
                    spans.append((frame[0], parent_id, layer.name, tracer.op, start, end))
                else:
                    tracer.dropped += 1
            if on_result is not None:
                on_result(result)
            return result

        self._wrappers.append(wrapper)
        return wrapper

    def count(self, layer: Layer, fn, on_result=None):
        """Wrap ``fn`` so that its calls are counted, without a span."""

        def wrapper(*args, **kwargs):
            layer.calls += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._wrappers.append(wrapper)
        return wrapper

    def reset_stack(self) -> None:
        """Forget open spans after an operation raised.

        An operation that dies of ``RecursionError`` can fail again inside a
        wrapper's bookkeeping, leaving spans open; the next operation must
        start from an empty stack.
        """
        self.stack.clear()
        for layer in self.layers.values():
            layer.depth = 0

    # -- patching ---------------------------------------------------------

    def install(self, mgu) -> None:
        """Patch every target in the freshly imported engine ``mgu``."""
        modules = [getattr(mgu, name) for name in ("package", "terms", "substitution", "unify", "oracle", "cli")]
        modules = [m for m in modules if m is not None]
        for target in TARGETS:
            module_name, attr = target.owner.split(":")
            home = getattr(mgu, module_name)
            if home is None:  # a module the workload never imports reports zero calls
                continue
            layer = self.layer(target.prefix)
            on_result = self._outcome_hook(mgu, target.prefix)
            make = self.span if target.kind == SPAN else self.count
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, make(layer, original, on_result))
                continue
            original = getattr(home, attr)
            wrapper = make(layer, original, on_result)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)
        # The enumerator's candidate test, counted only where the oracle looks it up.
        original = mgu.oracle.is_unifier
        self._patch(mgu.oracle, "is_unifier", original,
                    self.count(self.layer("oracle.is_unifier"), original, self._candidate))

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Names still bound to something other than their original, or to a wrapper."""
        bad = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]
        owners = {id(owner): owner for owner, _, _ in self._patched}.values()
        wrappers = {id(w) for w in self._wrappers}
        for owner in owners:
            bad += [
                f"{getattr(owner, '__name__', owner)}.{name}"
                for name, value in vars(owner).items()
                if id(value) in wrappers
            ]
        return bad

    # -- outcomes ---------------------------------------------------------

    def _outcome_hook(self, mgu, prefix: str):
        if prefix.split(".")[1] not in PAPER_ALGORITHMS:
            return None
        unified, clash = mgu.unify.Unified, mgu.unify.Clash
        outcomes = self.outcomes

        def record(result) -> None:
            if isinstance(result, unified):
                outcomes["steps"] += result.steps
            elif isinstance(result.cause, clash):
                outcomes["clash"] += 1
            else:
                outcomes["occurs"] += 1

        return record

    def _candidate(self, accepted) -> None:
        self.outcomes["candidates"] += 1
        if accepted:
            self.outcomes["unifiers"] += 1

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for target in TARGETS:
            layer = self.layer(target.prefix)
            values = {"": layer.calls, "calls": layer.calls, "s": layer.total, "self_s": layer.self_total}
            for suffix in target.report:
                out[f"{target.prefix}.{suffix}" if suffix else target.prefix] = values[suffix]
        o = self.outcomes
        out["unify.steps"] = o["steps"]
        out["unify.clash"] = o["clash"]
        out["unify.occurs"] = o["occurs"]
        out["oracle.candidates"] = o["candidates"]
        out["oracle.unifiers"] = o["unifiers"]
        out["oracle.useful_ratio"] = o["unifiers"] / o["candidates"] if o["candidates"] else 0.0
        return out

    def write_spans(self, path, header: dict) -> None:
        """One JSON header line, then one ``[id, parent, name, op, start, end]`` line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
