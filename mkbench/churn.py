"""`link-churn`: the link-lifecycle calls a debugger makes, on one
long-lived interpreter holding a large seeded corpus.

Setup loads the corpus: classes of generated methods whose sizes follow a
fixed mix, including a tail of methods with several hundred nodes, plus a
watched class `W` whose every method writes the slot `w` under a
persistent watch. One round is a fixed number of batches; each batch
touches two small, one medium and one large method and runs, in this
order (the seed shuffles the methods within each step):

    cold install   the method's first link, which weaves the twin
    hot install    a further link on each woven method, then one
                   cross-cutting link X on all four methods
    invalidate     X is mutated (control and reifications), then
                   `links.invalidate` re-weaves its methods
    remove         per-node `links.remove` of each method's first link
    recompile      `Interpreter.recompile` of a method of W, which carries
                   the persistent watch
    uninstall      whole-link `links.uninstall` of the remaining links

Gates, checked after the op they follow and outside its timing:
    twin_iff_links      a touched method has a twin exactly when it has links
    watch_lost          a recompiled method of W carries the watch again
    values              after the recompile, every touched method answers its
                        reference value on a fresh instance
    identity_restored   after the last uninstall, `unparse(original_ast)` of
                        each touched method is unchanged and its twin is None
"""

from __future__ import annotations

import random

from mklang import links as mk_links
from mklang import tools
from mklang.interpreter import Interpreter
from mklang.links import MetaLink
from mklang.nodes import CLASS_DEF, TEMP_DECL, unparse
from mklang.reify import APPLICABILITY, table_kind
from mklang.values import HostFunction

from . import gen
from .workloads import Workload

CLASSES = 24
# Per class: 8 small, 3 medium and 1 large method.
CLASS_SHAPES = (gen.SMALL,) * 8 + (gen.MEDIUM,) * 3 + (gen.LARGE,)
WATCHED_SHAPES = (gen.MEDIUM,) * 6
BATCHES = 6          # batches per round
BATCH_MIX = ("small", "small", "medium", "large")
KINDS_PER_LINK = 2
# Kinds every node accepts in every phase: X, which spans node kinds,
# draws from these.
UNIVERSAL = ("class", "context", "entity", "link", "method", "node",
             "object", "originalMethod", "variable")


def _size_of(shape):
    return {gen.SMALL: "small", gen.MEDIUM: "medium", gen.LARGE: "large"}[shape]


def safe_kinds(node, control):
    """Reification kinds that resolve on `node` under `control`."""
    tk = table_kind(node)
    kinds = [k for k, allowed in sorted(APPLICABILITY.items())
             if tk in allowed and k != "operation"]
    if tk != "assignment":
        kinds = [k for k in kinds if k != "newValue"]
    if control != "after" and tk in ("message", "variable"):
        kinds = [k for k in kinds if k != "value"]
    if control == "after" and tk == "return":
        kinds = [k for k in kinds if k != "value"]
    return kinds


def installable(root):
    return [n for n in root.walk() if n.kind not in (CLASS_DEF, TEMP_DECL)]


class Corpus:
    """The generated classes, their source, and reference values."""

    def __init__(self, seed):
        rng = random.Random("corpus/%d" % seed)
        self.classes = [gen.gen_class(rng, "C%02d" % i,
                                      ["s0", "s1", "s2", "s3"], CLASS_SHAPES)
                        for i in range(CLASSES)]
        self.watched = gen.gen_class(rng, "W", ["w", "s1", "s2", "s3"],
                                     WATCHED_SHAPES, watched="w")
        self.source = "\n".join(gen.render_class(c) for c in
                                self.classes + [self.watched])
        self.by_size = {"small": [], "medium": [], "large": []}
        for cls in self.classes:
            for m, shape in zip(cls.methods, CLASS_SHAPES):
                self.by_size[_size_of(shape)].append((cls.name, m.selector))
        every = self.classes + [self.watched]
        self.args = {}
        self.expected = {}
        for cls in every:
            for m in cls.methods:
                arg = rng.randrange(100)
                self.args[cls.name, m.selector] = arg
                self.expected[cls.name, m.selector] = gen.fresh_value(
                    cls, m.selector, arg)


def make_script(corpus, seed, node_count):
    """One round: BATCHES batches of ops, each op a tuple
    (kind, batch, method key, index into `installable` or None).
    `node_count(key)` is the number of installable nodes of a method."""
    rng = random.Random("churn/%d" % seed)
    ops = []
    watched = [("W", m.selector) for m in corpus.watched.methods]
    for b in range(BATCHES):
        picked = [rng.choice(corpus.by_size[size]) for size in BATCH_MIX]
        while len(set(picked)) < len(picked):
            picked = [rng.choice(corpus.by_size[size]) for size in BATCH_MIX]
        # Distinct sites per method: first link, further link, X.
        sites = {key: rng.sample(range(node_count(key)), 3) for key in picked}

        def step(kind, slot):
            order = list(picked)
            rng.shuffle(order)
            for key in order:
                ops.append((kind, b, key,
                            sites[key][slot] if slot is not None else None))
        step("cold_install", 0)
        step("hot_install", 1)
        step("hot_install_x", 2)
        ops.append(("invalidate", b, None, None))
        step("remove", 0)
        ops.append(("recompile", b, watched[b % len(watched)], None))
        step("uninstall", None)
        ops.append(("uninstall_x", b, None, None))
    return ops


class LinkChurn(Workload):
    name = "link-churn"
    why = ("debugger link lifecycle on a large seeded corpus; links weaving "
           "and unweaving plus parser (corpus load, recompile) do most of the "
           "work, evaluation little; costs on every mutation show here")

    def setup(self, seed):
        self.seed = seed
        self.corpus = Corpus(seed)
        interp = Interpreter(seed=seed)
        interp.load(self.corpus.source)
        self.interp = interp
        self.round = make_script(
            self.corpus, seed,
            lambda key: len(installable(self._record(key).original_ast)))
        self.watch = tools.watch_variable(interp, "W", "w", persistent=True)
        self.unparsed = {key: unparse(self._record(key).original_ast)
                         for key in self.corpus.expected}
        self.host_fires = 0
        self.seen = (interp.hook_visits, interp.registry_consults)
        self.batch = None

    def script(self):
        return self.round

    def interpreters(self):
        return [self.interp]

    def describe(self):
        return self.corpus.source + "\n" + "\n".join(
            "%s %d %s %s" % (kind, b, "/".join(key) if key else "-", site)
            for kind, b, key, site in self.round)

    # -- ops ---------------------------------------------------------------

    def _record(self, key):
        return self.interp.class_named(key[0]).methods[key[1]]

    def _node(self, key, index):
        return installable(self._record(key).original_ast)[index]

    def _link(self, rng, kinds, control):
        chosen = tuple(rng.sample(kinds, KINDS_PER_LINK))
        link = MetaLink()
        if control == "instead":
            def around(*args):
                self.host_fires += 1
                return args[-1].invoke()
            link.set_meta_object(HostFunction(around, "an instead counter"))
            chosen = chosen[:1] + ("operation",)
        else:
            def count(*_args):
                self.host_fires += 1
            link.set_meta_object(HostFunction(count, "a counter"))
        link.set_selector("value:" * len(chosen))
        link.set_arguments(chosen)
        link.set_control(control)
        return link

    def execute(self, op):
        kind, b, key, index = op
        interp = self.interp
        if kind == "cold_install" and (self.batch is None
                                       or self.batch["b"] != b
                                       or self.batch["done"]):
            self.batch = {"b": b, "first": {}, "further": {}, "x": None,
                          "done": False,
                          "rng": random.Random("ops/%d/%d" % (self.seed, b))}
        batch = self.batch
        rng = batch["rng"]
        if kind == "cold_install":
            node = self._node(key, index)
            control = rng.choice(("before", "after", "instead"))
            link = self._link(rng, safe_kinds(node, control), control)
            mk_links.install(interp, link, node)
            batch["first"][key] = (link, node)
        elif kind == "hot_install":
            node = self._node(key, index)
            control = rng.choice(("before", "after"))
            link = self._link(rng, safe_kinds(node, control), control)
            mk_links.install(interp, link, node)
            batch["further"][key] = link
        elif kind == "hot_install_x":
            node = self._node(key, index)
            if batch["x"] is None:
                batch["x"] = self._link(rng, UNIVERSAL, "before")
            mk_links.install(interp, batch["x"], node)
        elif kind == "invalidate":
            x = batch["x"]
            x.set_control("after" if x.control == "before" else "before")
            x.set_arguments(tuple(rng.sample(UNIVERSAL, KINDS_PER_LINK)))
            mk_links.invalidate(interp, x)
        elif kind == "remove":
            link, node = batch["first"][key]
            mk_links.remove(interp, link, node)
        elif kind == "recompile":
            record = self._record(key)
            interp.recompile(key[0], key[1], record.original_source)
        elif kind == "uninstall":
            mk_links.uninstall(interp, batch["further"][key])
        elif kind == "uninstall_x":
            mk_links.uninstall(interp, batch["x"])
            batch["done"] = True

    # -- gates -------------------------------------------------------------

    def _twin_iff_links(self, key):
        record = self._record(key)
        linked = bool(self.interp.registry.linked_ids(record.node_ids))
        return (record.twin is not None) == linked

    def verify(self, op, token):
        kind, b, key, _index = op
        batch = self.batch
        bad = []
        touched = [key] if key is not None else list(batch["first"])
        if not all(self._twin_iff_links(k) for k in touched):
            bad.append("twin_iff_links")
        if kind == "recompile":
            if self._record(key).twin is None:
                bad.append("watch_lost")
            for k in list(batch["first"]) + [key]:
                if not self._answers(k):
                    bad.append("values")
                    break
            records = len(self.watch.history)
            self.stats["watch_records"] += records
            self.stats["fires"] += records
            del self.watch.history[:]
        if kind == "uninstall_x":
            for k in batch["first"]:
                record = self._record(k)
                if record.twin is not None or \
                        unparse(record.original_ast) != self.unparsed[k]:
                    bad.append("identity_restored")
                    break
        self.stats["fires"] += self.host_fires
        self.host_fires = 0
        interp = self.interp
        self.stats["hook_visits"] += interp.hook_visits - self.seen[0]
        self.stats["registry_consults"] += \
            interp.registry_consults - self.seen[1]
        self.seen = (interp.hook_visits, interp.registry_consults)
        return bad

    def _answers(self, key):
        interp = self.interp
        obj = interp.send(interp.class_named(key[0]), "new", [], None)
        value = interp.send(obj, key[1], [self.corpus.args[key]], None)
        return value == self.corpus.expected[key]

    def finish(self):
        """Remove the watch; then no method may keep a twin, and every
        original AST must unparse as it did after loading."""
        interp = self.interp
        self.watch.remove()
        bad = []
        for key, text in self.unparsed.items():
            record = self._record(key)
            if record.twin is not None or \
                    interp.registry.linked_ids(record.node_ids) or \
                    unparse(record.original_ast) != text:
                bad.append("identity_restored")
                break
        return bad
