"""The seeded link set that `run-linked` installs before every run.

It holds the debugger tools (a trace counter on every send of the hot
method, a persistent watch on a slot, a breakpoint that never halts) and
generic links that together cover all three controls, both scopes,
levels 0 and 1, true and false conditions, both meta-object types
(`HostFunction` and mklang objects) and all 17 reification kinds.
Every meta-object leaves the program's semantics unchanged: before and
after links only count, and an instead-link answers `#operation value`.
Every meta-object call is counted, which gives `links.fires`.

A `LinkSet` describes sites by position (class, selector, index of the
node in walk order), so the same seed gives the same set for every fresh
interpreter, and its `describe()` text is byte-identical across runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mklang import links as mk_links
from mklang import tools
from mklang.interpreter import Interpreter
from mklang.links import MetaLink
from mklang.nodes import (
    ASSIGNMENT, BLOCK, MESSAGE_SEND, NOT_INSTALLABLE, RETURN, VAR_READ,
)
from mklang.values import HostFunction

# Kinds that only some node kinds accept. `name` and `newValue` need an
# assignment; `arguments`, `receiver`, `selector` and `sender` need a send.
ASSIGNMENT_ONLY = ("name", "newValue")
SEND_ONLY = ("arguments", "receiver", "selector", "sender")
FREE = ("class", "context", "entity", "link", "method", "node", "object",
        "operation", "originalMethod", "value", "variable")

# The widest mklang meta-object call: the assignment link reifies all it can.
MAX_ARITY = len(ASSIGNMENT_ONLY) + len(FREE)

BENCH_META = "BenchMeta"


def _meta_source():
    methods = ["    a0 [ hits := hits + 1 ]"]
    for n in range(1, MAX_ARITY + 1):
        pattern = " ".join("a%d: x%d" % (i, i) for i in range(1, n + 1))
        methods.append("    %s [ hits := hits + 1 ]" % pattern)
    methods.append("    around: op [ hits := hits + 1. ^ op value ]")
    return ("class %s [ | hits |\n    initialize [ hits := 0 ]\n%s\n]"
            % (BENCH_META, "\n".join(methods)))


BENCH_META_SOURCE = _meta_source()


def mk_selector(n):
    """Selector of the BenchMeta method that takes `n` reifications."""
    return "a0" if n == 0 else "".join("a%d:" % i for i in range(1, n + 1))


def host_selector(n):
    return "value" if n == 0 else "value:" * n


# Sends whose operation is a kernel primitive that runs no block: safe
# sites for an instead-link, whose base operation runs one level up.
LEAF_SELECTORS = frozenset(("+", "-", "*", "<", "<=", ">", ">=", "=",
                            "\\\\", "abs", "negated", "at:"))


@dataclass(frozen=True)
class LinkSpec:
    name: str
    control: str            # before | after | instead
    scope: str              # class | object
    level: int
    condition: object       # None | True | False | "host-true"
    meta: str               # host | mk
    kinds: tuple
    site: tuple             # (class, selector, walk index)

    def describe(self):
        return "%s %s %s level=%d cond=%s meta=%s kinds=%s site=%s" % (
            self.name, self.control, self.scope, self.level, self.condition,
            self.meta, ",".join(self.kinds), "/".join(map(str, self.site)))


@dataclass(frozen=True)
class LinkSet:
    hot: tuple              # (class, selector): trace counter and breakpoint
    watched: tuple          # (class, slot): persistent watch
    armed: str              # class whose initialize arms object-centric links
    links: tuple            # LinkSpec, in installation order

    def describe(self):
        return "\n".join(
            ["breakpoints disabled and condition-false on %s>>%s" % self.hot,
             "watch %s.%s persistent" % self.watched,
             "trace all sends of %s>>%s" % self.hot,
             "arm object-centric links at %s>>initialize" % self.armed]
            + [s.describe() for s in self.links])

    @property
    def kinds(self):
        return {k for s in self.links for k in s.kinds}


def _walk(interp, cls, selector):
    return list(interp.method_ast(cls, selector).walk())


def _node_counts(interp, program, nodes):
    """How often each node of the hot method runs in one plain run."""
    counter = tools.trace_count(interp, [n for n in nodes
                                         if n.kind not in NOT_INSTALLABLE])
    interp.run(program.main)
    return counter.counts


def make_link_set(program, seed, index) -> LinkSet:
    """The link set for the `index`-th program of a seed; a function of its
    arguments only.

    A site is drawn among the nodes of the wanted kind that run most often
    in the hot method, so every draw fires its link equally often; and each
    reifying link requests every kind its site accepts, in a seeded order.
    Together they keep the amount of work the same for every seed."""
    rng = random.Random("links/%s/%d/%d" % (program.kernel, seed, index))
    probe = Interpreter(seed=program.seed)
    probe.load(program.classes)
    nodes = _walk(probe, *program.hot)
    counts = _node_counts(probe, program, nodes)

    def site(pred):
        candidates = [i for i, n in enumerate(nodes) if pred(n)]
        top = max(counts.get(nodes[i].id, 0) for i in candidates)
        return program.hot + (rng.choice(
            [i for i in candidates if counts.get(nodes[i].id, 0) == top]),)

    def mix(kinds):
        kinds = list(kinds)
        rng.shuffle(kinds)
        return tuple(kinds)

    links = [
        LinkSpec("reify-assignment", "after", "class", 0, None, "mk",
                 mix(ASSIGNMENT_ONLY + FREE),
                 site(lambda n: n.kind == ASSIGNMENT)),
        LinkSpec("reify-send", "after", "object", 0, "host-true", "host",
                 mix(SEND_ONLY + FREE),
                 site(lambda n: n.kind == MESSAGE_SEND)),
        LinkSpec("instead-send", "instead", "class", 0, None, "mk",
                 ("operation",),
                 site(lambda n: n.kind == MESSAGE_SEND
                      and n.selector in LEAF_SELECTORS)),
        LinkSpec("instead-read", "instead", "object", 0, None, "host",
                 ("operation",), site(lambda n: n.kind == VAR_READ)),
        LinkSpec("instead-method", "instead", "class", 0, None, "host",
                 ("operation",), program.helper + (0,)),
        LinkSpec("block-false", "before", "class", 0, False, "mk",
                 ("object",), site(lambda n: n.kind == BLOCK)),
        LinkSpec("return-true", "before", "class", 0, True, "host",
                 ("value",), site(lambda n: n.kind == RETURN)),
        LinkSpec("level1-base", "before", "class", 1, None, "host",
                 ("node",), site(lambda n: n.kind == MESSAGE_SEND)),
        LinkSpec("level1-meta", "before", "class", 1, None, "host",
                 ("object",), (BENCH_META, "around:", 0)),
    ]
    order = list(range(len(links)))
    rng.shuffle(order)
    return LinkSet(hot=program.hot, watched=program.watched,
                   armed=program.armed,
                   links=tuple(links[i] for i in order))


class Tally:
    """Counts host meta-object calls of one run."""

    __slots__ = ("host_fires", "armed")

    def __init__(self):
        self.host_fires = 0
        self.armed = False


class Installed:
    """What one installation of a link set left in an interpreter."""

    def __init__(self, interp, tally, meta, counter, watch):
        self.interp = interp
        self.tally = tally
        self.meta = meta
        self.counter = counter
        self.watch = watch

    def fires(self):
        """Meta-object calls: host functions, BenchMeta, and the tools'."""
        return (self.tally.host_fires + self.meta.slots["hits"]
                + self.counter.total + len(self.watch.history))


def _node(interp, site):
    cls, sel, index = site
    return _walk(interp, cls, sel)[index]


def _host_meta(tally, control):
    if control == "instead":
        def around(op):
            tally.host_fires += 1
            return op.invoke()
        return HostFunction(around, "an instead counter")

    def count(*_args):
        tally.host_fires += 1
    return HostFunction(count, "a counter")


def _make_link(spec, tally, meta):
    link = MetaLink()
    n = len(spec.kinds)
    if spec.meta == "mk":
        link.set_meta_object(meta)
        link.set_selector("around:" if spec.control == "instead"
                          else mk_selector(n))
    else:
        link.set_meta_object(_host_meta(tally, spec.control))
        link.set_selector(host_selector(n))
    link.set_arguments(spec.kinds)
    link.set_control(spec.control)
    link.set_level(spec.level)
    if spec.condition == "host-true":
        link.set_condition(HostFunction(lambda _obj: True, "a condition"),
                           ("object",))
    elif spec.condition is not None:
        link.set_condition(spec.condition)
    return link


def install_link_set(interp, linkset) -> Installed:
    """Install `linkset` into an interpreter that has loaded the program's
    classes and BENCH_META_SOURCE. Object-centric links are installed on
    the first instance of `linkset.armed`, when its initialize runs."""
    tally = Tally()
    meta = interp.send(interp.class_named(BENCH_META), "new", [], None)
    per_object = []
    for spec in linkset.links:
        if spec.scope == "object":
            per_object.append(spec)
        else:
            mk_links.install(interp, _make_link(spec, tally, meta),
                             _node(interp, spec.site))

    def arm(obj):
        tally.host_fires += 1
        if not tally.armed:
            tally.armed = True
            for spec in per_object:
                mk_links.install(interp, _make_link(spec, tally, meta),
                                 _node(interp, spec.site), obj)

    arming = MetaLink()
    arming.set_meta_object(HostFunction(arm, "an arming counter"))
    arming.set_selector("value:")
    arming.set_arguments(("object",))
    mk_links.install(interp, arming,
                     interp.method_ast(linkset.armed, "initialize"))

    cls, sel = linkset.hot
    counter = tools.trace_count(
        interp, [n for n in interp.method_ast(cls, sel).walk()
                 if n.kind == MESSAGE_SEND])
    watch = tools.watch_variable(interp, *linkset.watched, persistent=True)
    disabled = tools.set_breakpoint(interp, cls, sel)
    disabled.link.disable()
    never = tools.set_breakpoint(interp, cls, sel)
    never.link.set_condition(False)
    interp.invalidate(never.link)
    return Installed(interp, tally, meta, counter, watch)
