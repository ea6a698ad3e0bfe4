"""Ready-made meta-programs built on metalinks.

Breakpoints (class-wide and per-object), variable watchpoints that can
survive recompilation, and a cross-cutting trace counter. Each tool is a
thin owner of one link plus the bookkeeping the link itself doesn't do.

A tool holds its interpreter weakly. The interpreter's registry holds the
tool's link, a watch's or a counter's link holds the tool through its
meta-object, and a program may keep a tool in a global. So a strong
reference back would make every interpreter with a tool cyclic garbage,
freed only by the cyclic GC.
"""

from __future__ import annotations

import weakref

from .errors import MkRuntimeError, UnknownVariable
from .links import MetaLink, install, uninstall
from .nodes import ASSIGNMENT, BLOCK, find_nodes
from .values import HostFunction


class _Tool:
    """Holds its interpreter weakly (see the module docstring)."""

    def __init__(self, interp):
        self._interp = weakref.ref(interp)

    @property
    def interp(self):
        """The tool's interpreter, or None once it is gone."""
        return self._interp()

    def remove(self):
        """Uninstall the tool's link. Once the interpreter is gone there is
        nothing to do: its links went with its registry."""
        interp = self.interp
        if interp is not None:
            uninstall(interp, self.link)


class Breakpoint(_Tool):
    """A before-link to Halt>>now on one or more nodes of a method."""

    def __init__(self, interp, link, sites, target=None):
        super().__init__(interp)
        self.link = link
        self.sites = sites
        self.target = target

    def describe(self):
        scope = "object-centric" if self.target is not None else "class-wide"
        return "a Breakpoint (%s, %d site%s)" % (
            scope, len(self.sites), "" if len(self.sites) == 1 else "s")


class VariableWatch(_Tool):
    """Records every write (optionally read) of one slot of a class.

    History entries are (owner object, value, method signature string),
    appended in execution order. A persistent watch re-installs itself on
    the fresh AST whenever a method of the watched class is recompiled."""

    def __init__(self, interp, class_name, var_name, include_reads):
        super().__init__(interp)
        self.class_name = class_name
        self.var_name = var_name
        self.history = []
        self.write_link = self._make_link(("object", "newValue", "method"))
        self.read_link = (self._make_link(("object", "value", "method"))
                          if include_reads else None)
        self._hook = None

    def _make_link(self, reifications):
        link = MetaLink()
        link.set_meta_object(HostFunction(self._record, "a watch recorder"))
        link.set_selector("value:value:value:")
        link.set_arguments(reifications)
        link.set_control("after")
        return link

    def _record(self, owner, value, method_mirror):
        if method_mirror is None:
            sig = "?"
        else:
            s = method_mirror.record.signature
            sig = "%s>>%s" % (s.class_name, s.selector)
        self.history.append((owner, value, sig))

    def attach(self, record):
        """Install on every access to the slot inside one method, but not
        where the method's params or temps, or a block's params, bind the
        name: there it names something else."""
        name = self.var_name
        root = record.original_ast
        stack = [] if name in root.params or name in root.temps else [root]
        while stack:
            node = stack.pop()
            if node.var_name == name:
                link = (self.write_link if node.kind == ASSIGNMENT
                        else self.read_link)
                if link is not None:
                    install(self.interp, link, node)
            if node.kind != BLOCK or name not in node.params:
                stack += node.children[::-1]

    def remove(self):
        interp = self.interp
        if interp is None:
            return
        uninstall(interp, self.write_link)
        if self.read_link is not None:
            uninstall(interp, self.read_link)
        if self._hook is not None:
            interp.recompile_hooks.remove(self._hook)
            self._hook = None

    def describe(self):
        return "a Watch (%s.%s, %d event%s)" % (
            self.class_name, self.var_name, len(self.history),
            "" if len(self.history) == 1 else "s")


class TraceCounter(_Tool):
    """One shared counting link across any set of nodes."""

    def __init__(self, interp):
        super().__init__(interp)
        self.counts = {}
        self.link = MetaLink()
        self.link.set_meta_object(HostFunction(self._bump, "a trace counter"))
        self.link.set_selector("value:")
        self.link.set_arguments(("node",))
        self.link.set_control("before")

    def _bump(self, node_mirror):
        nid = node_mirror.node.id
        self.counts[nid] = self.counts.get(nid, 0) + 1

    @property
    def total(self):
        return sum(self.counts.values())

    def describe(self):
        return "a TraceCounter (%d fire%s)" % (
            self.total, "" if self.total == 1 else "s")


def set_breakpoint(interp, class_name, selector, site="method-entry",
                   site_arg=None, target=None) -> Breakpoint:
    """Halt when control reaches the site, before the operation runs."""
    ast = interp.method_ast(class_name, selector)
    if site == "method-entry":
        nodes = [ast]
    elif site == "statement-at":
        nodes = find_nodes(ast, "statement-at", site_arg)
    elif site == "send-of":
        nodes = find_nodes(ast, "sends-of", site_arg)
    else:
        raise MkRuntimeError("unknown breakpoint site %r" % (site,))
    if not nodes:
        raise MkRuntimeError(
            "no %s site in %s>>%s" % (site, class_name, selector))
    link = MetaLink()
    link.set_meta_object(interp.classes["Halt"])
    link.set_selector("now")
    link.set_control("before")
    for node in nodes:
        install(interp, link, node, target)
    return Breakpoint(interp, link, nodes, target)


def set_breakpoint_for_object(interp, class_name, selector, target,
                              site="method-entry", site_arg=None):
    return set_breakpoint(interp, class_name, selector, site, site_arg,
                          target)


def watch_variable(interp, class_name, var_name, persistent=False,
                   include_reads=False) -> VariableWatch:
    cls = interp.class_named(class_name)
    if var_name not in cls.all_slot_names():
        raise UnknownVariable(
            "%s declares no slot named %s" % (class_name, var_name))
    watch = VariableWatch(interp, class_name, var_name, include_reads)
    from .interpreter import PrimitiveMethod
    for record in cls.methods.values():
        if not isinstance(record, PrimitiveMethod):
            watch.attach(record)
    if persistent:
        def hook(hook_interp, new_record):
            if new_record.signature.class_name == class_name:
                watch.attach(new_record)
        watch._hook = hook
        interp.recompile_hooks.append(hook)
    return watch


def trace_count(interp, nodes, condition=None) -> TraceCounter:
    counter = TraceCounter(interp)
    if condition is not None:
        counter.link.set_condition(condition)
    for node in nodes:
        install(interp, counter.link, node)
    return counter


# -- language surface -------------------------------------------------------

def install_tool_classes(interp):
    from .interpreter import ClassRecord
    from .kernel import _cprim, _prim

    obj = interp.classes["Object"]
    bp_cls = ClassRecord("Breakpoint", superclass=obj)
    watch_cls = ClassRecord("Watch", superclass=obj)
    counter_cls = ClassRecord("TraceCounter", superclass=obj)
    interp.classes["Breakpoint"] = bp_cls
    interp.classes["Watch"] = watch_cls
    interp.classes["TraceCounter"] = counter_cls

    def class_name_of(v):
        return v.name if isinstance(v, ClassRecord) else str(v)

    _cprim(bp_cls, "onClass:selector:",
           lambda i, r, a, s: set_breakpoint(i, class_name_of(a[0]),
                                             str(a[1])))
    _cprim(bp_cls, "onClass:selector:forObject:",
           lambda i, r, a, s: set_breakpoint(i, class_name_of(a[0]),
                                             str(a[1]), target=a[2]))
    _prim(bp_cls, "remove", lambda i, r, a, s: (r.remove(), r)[1])

    _cprim(watch_cls, "class:variable:persistent:",
           lambda i, r, a, s: watch_variable(i, class_name_of(a[0]),
                                             str(a[1]), a[2] is True))
    _prim(watch_cls, "remove", lambda i, r, a, s: (r.remove(), r)[1])
    _prim(watch_cls, "history",
          lambda i, r, a, s: i.new_array(
              [i.new_array([owner, value, sig]) for owner, value, sig
               in r.history], ordered=True))
    _prim(watch_cls, "size", lambda i, r, a, s: len(r.history))
