"""Per-layer tracing for the traced run, installed from the outside.

`Tracer.install()` wraps public functions of `parser`, `interpreter`,
`kernel`, `links`, `reify` and `tools` in place (module attributes, class
attributes and the `fn` of every `PrimitiveMethod`); `uninstall()` puts
the module and class attributes back, while interpreters instrumented in
the meantime keep their counted primitives. Nothing under `src/` is
edited.

Two kinds of boundary are recorded:

* spans, one per call, with name, start, end, parent span and op id:
  each op, parse, `Interpreter()` (new), load, run, recompile, the
  `links` calls install, remove, uninstall, invalidate and weave, and the
  `tools` entry points. They stay in memory until the run writes them.
* counters for the per-send boundaries, which would give millions of
  spans: `execute_method`, `call_block`, every primitive, `resolve`,
  `fire_link`, `run_trigger` and `add_hook`. Each adds to a call count
  and a summed self time.

Self time is a frame's duration minus the time of the frames it called.
Summed by layer it splits the traced time without overlap.
"""

from __future__ import annotations

import json
import time
from collections import Counter

import mklang.interpreter as mk_interp
import mklang.links as mk_links
import mklang.tools as mk_tools

# Every frame name starts with its layer; `bench` is the benchmark's own
# code around and between the calls into the program.
LAYERS = ("parser", "interpreter", "kernel", "links", "reify", "tools",
          "bench")


def layer_of(name):
    return name.split(".", 1)[0]


def count_nodes(parsed):
    """Nodes of a parse result: a Program or one method's AST."""
    roots = ([parsed] if hasattr(parsed, "walk")
             else parsed.classes + [parsed.main])
    return sum(1 for root in roots for _ in root.walk())


class Tracer:
    def __init__(self):
        self.stack = []           # open frames: [start_ns, child_ns]
        self.spans = []           # [name, start_ns, end_ns, parent, op]
        self.calls = Counter()    # name -> calls
        self.total_ns = Counter()  # name -> inclusive time (spans only)
        self.self_ns = Counter()  # name -> self time
        self.kind_calls = Counter()  # reification kind -> resolves
        self.kind_ns = Counter()     # reification kind -> self time
        self.extra = Counter()    # parser.nodes, links.nodes_copied
        self.op = None
        self.current = -1         # index of the innermost open span
        self._saved = []

    # -- frames ------------------------------------------------------------

    def counter(self, fn, name):
        stack, calls, self_ns = self.stack, self.calls, self.self_ns
        clock = time.perf_counter_ns

        def traced(*args):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return fn(*args)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_ns[name] += dur - frame[1]
        return traced

    def span(self, fn, name, after=None):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                self.untimed(after, result, args)
            return result
        return traced

    def open(self, name):
        start = time.perf_counter_ns()
        index = len(self.spans)
        self.spans.append([name, start, 0, self.current, self.op])
        self.current = index
        self.stack.append([start, 0])
        return index

    def close(self, index):
        end = time.perf_counter_ns()
        span = self.spans[index]
        frame = self.stack.pop()
        dur = end - span[1]
        if self.stack:
            self.stack[-1][1] += dur
        span[2] = end
        self.current = span[3]
        name = span[0]
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - frame[1]

    def untimed(self, fn, *args):
        """Run tracing bookkeeping; its time counts for no layer."""
        start = time.perf_counter_ns()
        fn(*args)
        dur = time.perf_counter_ns() - start
        if self.stack:
            self.stack[-1][1] += dur

    def resolve(self, fn):
        stack, kind_calls, kind_ns = self.stack, self.kind_calls, self.kind_ns
        calls, self_ns = self.calls, self.self_ns
        clock = time.perf_counter_ns

        def traced(kind, ctx):
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return fn(kind, ctx)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                calls["reify.resolve"] += 1
                self_ns["reify.resolve"] += own
                kind_calls[kind] += 1
                kind_ns[kind] += own
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def instrument(self, interp):
        """Count every primitive of one interpreter."""
        for cls in interp.classes.values():
            for table in (cls.methods, cls.class_methods):
                for rec in table.values():
                    if isinstance(rec, mk_interp.PrimitiveMethod):
                        rec.fn = self.counter(rec.fn, "kernel.prim")

    def install(self):
        Interp = mk_interp.Interpreter

        def parsed(result, _args):
            self.extra["parser.nodes"] += count_nodes(result)

        def woven(twin, _args):
            if twin is not None:
                self.extra["links.nodes_copied"] += len(twin.copies)

        def created(_result, args):
            self.instrument(args[0])

        for name in ("parse", "parse_method"):
            self._patch(mk_interp, name, self.span(
                getattr(mk_interp, name), "parser.parse", parsed))
        self._patch(Interp, "__init__",
                    self.span(Interp.__init__, "interpreter.new", created))
        for name in ("load", "run", "recompile"):
            self._patch(Interp, name, self.span(getattr(Interp, name),
                                                "interpreter." + name))
        for name in ("execute_method", "call_block"):
            self._patch(Interp, name, self.counter(getattr(Interp, name),
                                                   "interpreter." + name))
        for name in ("fire_link", "run_trigger"):
            self._patch(Interp, name, self.counter(getattr(Interp, name),
                                                   "links." + name))
        self._patch(mk_interp, "resolve", self.resolve(mk_interp.resolve))
        for name in ("install", "remove", "uninstall", "invalidate"):
            wrapped = self.span(getattr(mk_links, name), "links." + name)
            self._patch(mk_links, name, wrapped)
            if hasattr(mk_tools, name):
                self._patch(mk_tools, name, wrapped)
        self._patch(mk_links, "weave",
                    self.span(mk_links.weave, "links.weave", woven))
        self._patch(mk_links, "add_hook",
                    self.counter(mk_links.add_hook, "links.add_hook"))
        for name in ("set_breakpoint", "watch_variable", "trace_count"):
            self._patch(mk_tools, name, self.span(getattr(mk_tools, name),
                                                  "tools." + name))
        self._patch(mk_tools.VariableWatch, "attach", self.span(
            mk_tools.VariableWatch.attach, "tools.attach"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report ------------------------------------------------------------

    def layer_self_s(self):
        out = Counter()
        for name, ns in self.self_ns.items():
            out[layer_of(name)] += ns
        return {layer: out[layer] / 1e9 for layer in LAYERS}

    def outer_s(self, layer):
        """Inclusive time of the outermost spans of `layer`."""
        spans = self.spans
        total = 0
        for name, start, end, parent, _op in spans:
            if layer_of(name) == layer and (
                    parent < 0 or layer_of(spans[parent][0]) != layer):
                total += end - start
        return total / 1e9

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")))
                f.write("\n")
