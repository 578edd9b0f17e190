"""Spans around calls into the library, for the traced run.

Each traced function is replaced, in every ``freegroups`` module that
holds a reference to it, by a wrapper that opens a span: function name,
start, end, parent span and op id.  ``SubgroupGraph.__init__`` is
wrapped on the class.  Calls made inside the library go through the
same module globals, so they are caught too.

A span is folded into per-op totals when it closes: its self time is
its duration minus the durations of its direct children, which, in one
thread, are exactly the parts of it that child spans cover.  Nothing is
written during the run; ``Tracer.per_op`` is written out at the end.
Folding on close, instead of keeping every span record, keeps memory
flat: the exhaustive isolation op alone opens millions of spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from freegroups import ResourceLimitError
from freegroups import subgroup as fg_subgroup

TRACED = {
    "words": ("free_reduce", "multiply", "parse_word"),
    "graph": ("fold_all", "core", "product", "connected_components", "transport",
              "trace_path", "graph_from_json", "graph_to_json"),
    "subgroup": ("stallings_graph", "contains", "basis", "spanning_tree", "conjugate",
                 "rebase_inside", "hall_completion", "power_in"),
    "intersect": ("intersection", "component_analysis", "is_malnormal", "is_cyclonormal"),
    "whitehead": ("transform_subgroup", "apply_auto", "is_free_factor_of_ambient"),
    "extensions": ("principal_quotients", "is_isolated", "algebraic_extensions",
                   "algebraic_closure", "malnormal_closure", "isolator"),
    "cli": ("main",),
}
OP_SPAN = "op"


def _nearest(stack, name):
    for frame in reversed(stack):
        if frame[0] == name:
            return frame
    return None


# Counters read off call arguments and results: span name -> hook(tracer, args, result).
def _fold_all(t, args, result):
    edges_in = len(args[0].edges)
    t.add("graph.fold_all.edges_in", edges_in)
    t.add("graph.fold_all.folds", edges_in - len(result.graph.edges))
    if _nearest(t.stack, "extensions.principal_quotients") is not None:
        t.add("extensions.principal_quotients.identifications", 1)


def _contains(t, args, result):
    if _nearest(t.stack, "extensions.is_isolated") is not None:
        t.add("extensions.is_isolated.candidates", 1)


def _free_reduce(t, args, result):
    raw = args[1]
    if hasattr(raw, "__len__"):
        t.add("words.free_reduce.letters_in", len(raw))


def _transform(t, args, result):
    before, after = args[1].edge_count, result.edge_count
    if after < before:
        t.add("whitehead.moves.reducing", 1)
    elif after == before:
        t.add("whitehead.moves.level", 1)


def _product(t, args, result):
    t.add("graph.product.vertices_out", result.graph.vertex_count)
    t.add("graph.product.edges_out", len(result.graph.edges))


def _main(t, args, result):
    # fg ops capture stdout in a fresh buffer per call, so its length is
    # what this call printed
    t.add("cli.main.bytes_out", sys.stdout.tell())


HOOKS = {
    "graph.fold_all": _fold_all,
    "graph.core": lambda t, a, r: t.add(
        "graph.core.vertices_removed", a[0].vertex_count - r.graph.vertex_count),
    "graph.product": _product,
    "graph.connected_components": lambda t, a, r: t.add(
        "graph.connected_components.count", len(r)),
    "words.free_reduce": _free_reduce,
    "subgroup.contains": _contains,
    "subgroup.basis": lambda t, a, r: t.add(
        "subgroup.basis.letters_out", sum(len(w) for w in r.elements)),
    "intersect.component_analysis": lambda t, a, r: t.add(
        "intersect.component_analysis.components", len(r)),
    "whitehead.transform_subgroup": _transform,
    "whitehead.apply_auto": lambda t, a, r: t.add("whitehead.apply_auto.letters_out", len(r)),
    "extensions.principal_quotients": lambda t, a, r: t.add(
        "extensions.principal_quotients.quotients", len(r)),
    "cli.main": _main,
}


class Tracer:
    """Installs span wrappers; collects per-op ``[calls, self_s]`` per span name."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.per_op: list[dict[str, list]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._table: dict[str, list] = {}
        self._limits: set[int] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "freegroups" or n.startswith("freegroups."))]
        for module_name, functions in TRACED.items():
            home = sys.modules[f"freegroups.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, attr, wrapper)
        cls = fg_subgroup.SubgroupGraph
        self._rebind(cls, "__init__", self._wrap("subgroup.SubgroupGraph", cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- spans ------------------------------------------------------------

    def begin_op(self) -> None:
        self._table = {}
        self._limits.clear()
        self.stack.append([OP_SPAN, 0.0, time.perf_counter()])

    def end_op(self) -> float:
        """Close the op span; return its duration."""
        name, child, start = self.stack.pop()
        elapsed = time.perf_counter() - start
        self._table[OP_SPAN] = [1, elapsed - child]
        self.per_op.append(self._table)
        return elapsed

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def _wrap(self, name, fn):
        stack = self.stack
        perf = time.perf_counter
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            if not stack:  # outside an op: answer checks are not traced
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError as exc:
                self._limit_hit(name, exc)
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                stack[-1][1] += elapsed
                stat = self._table.get(name)
                if stat is None:
                    stat = self._table[name] = [0, 0.0]
                stat[0] += 1
                stat[1] += elapsed - frame[1]
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _limit_hit(self, name: str, exc: ResourceLimitError) -> None:
        """Count a resource limit once, at the innermost traced span it leaves."""
        if id(exc) in self._limits:
            return
        self._limits.add(id(exc))
        self.add(f"{name}.limit_hits", 1)
        self.add(f"{name.split('.')[0]}.limit_hits", 1)

    # -- totals -------------------------------------------------------------

    def totals(self) -> dict[str, list]:
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for table in self.per_op:
            for name, (calls, self_s) in table.items():
                out[name][0] += calls
                out[name][1] += self_s
        return out
