"""Object model and runtime: classes, method lookup, sends, blocks and
the trigger. Every method, woven or not, runs code compiled by `compiler`.

One Interpreter instance owns one strictly single-threaded execution:
classes, globals, the output sink, the link registry and the meta-level
counter. Distinct instances are fully independent; they share only the
kernel's AST, which nothing writes, and the parser's locked id counter.

The unlinked path is kept cheap:

* Each `ClassRecord` caches selector -> method as `lookup` finds it
  (Smalltalk-80's method lookup cache). Every change to a method table
  or a superclass link flushes all caches: loading classes
  (`_install_classes`) and `recompile`. The kernel and tool primitives
  are written straight into the tables, before any send.
* `send` and `class_of` find a value's class from its Python type, in one
  table (`kernel.TYPE_CLASSES`). `send` finds the method of a class or a
  host function, which are not in it, through `lookup_selector`.
* Temps are the compiler's: only a name no temp binds reaches the
  interpreter, `outer_scope` for a read and `write_var` for a write.
* `execute_method` runs a method's compiled statements itself, and a `^`
  among them answers directly. Only a `^` inside a block, or one carrying
  a link, raises `MethodReturn`.
* A method's activation does not refer to itself as its `home`, so
  reference counting frees it when it returns, without the cyclic GC.
  No node refers to its parent, so an unlinked interpreter is acyclic.
* Loading keeps nothing per node: a record holds its nodes' id range,
  and `node_owner` one entry per method.
* `run` evaluates the top level in a padded frame (`_evaluate_reserved`),
  so a recursion no longer maps and unmaps a CPython data-stack chunk
  each time its depth crosses a chunk's end. `send` is not padded: a host
  that sends one message at a time would pay for the map on every send.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass

from . import links as _links
from .compiler import compile_top, compiled
from .errors import (
    HaltSignal, MethodReturn, MkError, MkRuntimeError, SelectorMismatch,
    UnknownClass, UnknownSelector,
)
from .nodes import METHOD_DEF, MethodSignature, id_interval, value_selector
from .parser import parse, parse_method
from .reify import TriggerContext, resolve
from .values import Activation, Array, Block, HostFunction, Instance, Symbol


class PrimitiveMethod:
    """Host-implemented method; has no AST and therefore cannot be linked."""

    __slots__ = ("selector", "fn", "op")

    def __init__(self, selector, fn, op=None):
        self.selector = selector
        self.fn = fn
        # What compiled code runs in place of a send while this is the
        # method, `fn` being built on it: an Integer operator, a row of
        # `compiler.BRANCHES` or a flag of `compiler.LOOPS`.
        self.op = op


class CompiledMethodRecord:
    __slots__ = ("signature", "original_ast", "original_source", "twin",
                 "node_ids", "code", "shared")
    op = None   # no operator: compiled code sends to a method in a program

    def __init__(self, signature, original_ast, original_source):
        self.signature = signature
        self.original_ast = original_ast
        self.original_source = original_source
        self.twin = None
        self.node_ids = id_interval(original_ast)   # a range
        self.code = None    # `compiler.compiled` sets it at the first run
        self.shared = {}    # node id -> closure, for `compiler.compiled`


class ClassRecord:
    """A class; also the runtime value representing it.

    `cache` maps a selector to the method `lookup` found for it along the
    superclass chain. It is only valid while no method table and no
    superclass link changes: `Interpreter._flush_method_caches` empties it."""

    def __init__(self, name, superclass=None, slot_names=()):
        self.name = name
        self.superclass = superclass
        self.slot_names = list(slot_names)
        self.methods = {}
        self.class_methods = {}
        self.cache = {}

    def lineage(self):
        """This class, then its superclasses up to the root."""
        chain, cls = [], self
        while cls is not None:
            chain.append(cls)
            cls = cls.superclass
        return chain

    def all_slot_names(self):
        names = []
        for cls in reversed(self.lineage()):
            names += cls.slot_names
        return names

    def lookup(self, selector):
        m = self.cache.get(selector)
        if m is not None:
            return m
        cls = self
        while cls is not None:
            m = cls.methods.get(selector)
            if m is not None:
                self.cache[selector] = m
                return m
            cls = cls.superclass
        return None

    def __repr__(self):
        return "<class %s>" % self.name


@dataclass
class RunResult:
    output: str
    value: object
    signal: HaltSignal | None = None

    @property
    def trace(self):
        return self.signal.trace if self.signal is not None else []


class Interpreter:
    def __init__(self, seed=0):
        self.globals = {}
        self.classes = {}
        self.output = []
        self.meta_level = 0
        self.registry = _links.LinkRegistry()
        self.node_owner = _links.NodeOwner()
        self.compile_hooks = []   # callables(cls, record), per new method
        self.hook_visits = 0
        self.registry_consults = 0
        self.random = _random.Random(seed)
        self.kernel_classes = frozenset()
        from .kernel import TYPE_CLASSES, install_kernel
        install_kernel(self)
        classes = self.classes
        # A program may add methods to these, but not move them.
        self.kernel_classes = frozenset(classes)
        # Class of every value whose Python type fixes it; Instance and
        # Array carry their own, classes and host functions are Objects.
        self._type_classes = {t: classes[name]
                              for t, name in TYPE_CLASSES.items()}
        # Read by inlined sends: is the method still the kernel primitive?
        self.int_methods = classes["Integer"].methods
        self.bool_methods = classes["Boolean"].methods
        self.block_methods = classes["Block"].methods

    # -- program loading --------------------------------------------------

    def load(self, source, file="<string>"):
        """Parse and install class definitions; returns the Program."""
        program = parse(source, file)
        self._install_classes(program)
        return program

    def _install_classes(self, program):
        # Classes may refer to each other in any order, so slots are checked
        # once all are in, on every class. A failed check undoes the load so
        # far; methods compile only once every check has passed.
        self._flush_method_caches()
        classes = self.classes
        saved = {cdef.name: (cls, cls.superclass, len(cls.slot_names))
                 for cdef in program.classes
                 if (cls := classes.get(cdef.name)) is not None}
        try:
            for cdef in program.classes:
                if cdef.name not in classes:
                    classes[cdef.name] = ClassRecord(cdef.name)
            for cdef in program.classes:
                if cdef.name in self.globals:  # it would hide the class
                    raise MkRuntimeError("the global %s cannot become a "
                                         "class" % cdef.name)
                cls = classes[cdef.name]
                cls.slot_names += [t for t in dict.fromkeys(cdef.temps)
                                   if t not in cls.slot_names]
                if cdef.superclass is None and cls.superclass is not None:
                    continue  # reopened without `extends`: keeps superclass
                sup = classes.get(cdef.superclass or "Object")
                if sup is None:
                    raise UnknownClass("unknown superclass %s"
                                       % cdef.superclass)
                if cdef.name != "Object":
                    if cdef.name in self.kernel_classes \
                            and sup is not cls.superclass:
                        raise MkRuntimeError(
                            "class %s is defined by the kernel; its "
                            "superclass must stay %s"
                            % (cls.name, cls.superclass.name))
                    if cls in sup.lineage():
                        raise MkRuntimeError(
                            "class %s cannot inherit from itself" % cls.name)
                    cls.superclass = sup
            array = classes["Array"]
            for cls in classes.values():
                lineage = cls.lineage()
                for slot in cls.slot_names:
                    if array in lineage:  # `new` on it makes a slotless Array
                        raise MkRuntimeError(
                            "slot %s declared in %s, but Array and its "
                            "subclasses cannot have slots" % (slot, cls.name))
                    if any(slot in sup.slot_names for sup in lineage[1:]):
                        raise MkRuntimeError(
                            "slot %s already declared in a superclass of %s"
                            % (slot, cls.name))
        except MkError:
            for name in {cdef.name for cdef in program.classes} - saved.keys():
                del classes[name]
            for cls, sup, nslots in saved.values():
                cls.superclass = sup
                del cls.slot_names[nslots:]
            raise
        for cdef in program.classes:
            cls = classes[cdef.name]
            for mdef in cdef.children:
                if mdef.kind == METHOD_DEF:
                    self._compile_method(cls, mdef, program.source[
                        mdef.start:mdef.end])

    def _flush_method_caches(self):
        """Forget every cached lookup; run after any change to a method
        table or a superclass link."""
        for cls in self.classes.values():
            cls.cache.clear()

    def _compile_method(self, cls, mdef, source):
        sig = MethodSignature(cls.name, mdef.selector)
        record = CompiledMethodRecord(sig, mdef, source)
        old = cls.methods.get(mdef.selector)
        if isinstance(old, CompiledMethodRecord):
            self._forget_method(old)
        cls.methods[mdef.selector] = record
        self.node_owner.add(record)
        for hook in list(self.compile_hooks):
            hook(cls, record)
        return record

    def _forget_method(self, record):
        for nid in self.registry.linked_ids(record.node_ids):
            self.registry.drop_node(nid)
        self.node_owner.discard(record)
        record.twin = None

    # -- running ----------------------------------------------------------

    def run(self, source, file="<string>") -> RunResult:
        """Load class definitions and evaluate the top-level sequence."""
        mark = len(self.output)
        program = self.load(source, file)
        top = Activation(None, None, None, dict.fromkeys(program.main.temps))
        top.current_node = program.main
        try:
            try:
                value = _evaluate_reserved(self, program.main, top)
            except MethodReturn as mr:
                if mr.target is not top:
                    raise self.locate(MkRuntimeError(
                        "non-local return from an exited method"),
                        top) from None
                value = mr.value
            except RecursionError:
                raise self.locate(MkRuntimeError("stack overflow"),
                                  top) from None
        except HaltSignal as halt:
            return RunResult("".join(self.output[mark:]), None, halt)
        return RunResult("".join(self.output[mark:]), value, None)

    def output_text(self):
        return "".join(self.output)

    def write(self, text):
        self.output.append(text)

    # -- reflection API ---------------------------------------------------

    def class_named(self, name):
        cls = self.classes.get(name)
        if cls is None:
            raise UnknownClass("unknown class %s" % name)
        return cls

    def lookup_method(self, cls, selector):
        """First match along the superclass chain, or None."""
        if isinstance(cls, str):
            cls = self.class_named(cls)
        return cls.lookup(selector)

    def method_ast(self, class_name, selector):
        """The ORIGINAL (unwoven) MethodDef root, links notwithstanding."""
        cls = self.class_named(class_name)
        record = cls.lookup(selector)
        if record is None or not isinstance(record, CompiledMethodRecord):
            raise UnknownSelector(
                "%s has no compiled method #%s" % (class_name, selector))
        return record.original_ast

    def recompile(self, class_name, selector, new_source):
        """Replace a method; every link installed on its old AST is lost.

        Activations already running the old method finish with the old
        definition; only the next calls see the new one."""
        cls = self.class_named(class_name)
        old = cls.methods.get(selector)
        if old is None or not isinstance(old, CompiledMethodRecord):
            raise UnknownSelector(
                "%s has no compiled method #%s" % (class_name, selector))
        mdef = parse_method(new_source)
        if mdef.selector != selector:
            raise SelectorMismatch(
                "recompile of #%s got a method named #%s"
                % (selector, mdef.selector))
        record = self._compile_method(cls, mdef, new_source)
        self._flush_method_caches()
        return record

    def invalidate(self, link):
        """`links.invalidate` here, as `mkbench/linkset.py` calls it."""
        _links.invalidate(self, link)

    # -- dispatch ---------------------------------------------------------

    def class_of(self, v):
        t = type(v)
        if t is Instance or t is Array:
            return v.class_ref
        cls = self._type_classes.get(t)
        if cls is not None:
            return cls
        if isinstance(v, (ClassRecord, HostFunction)):
            return self.classes["Object"]
        raise MkRuntimeError("value of unknown type: %r" % (v,))

    def lookup_selector(self, receiver, selector):
        """Method record the receiver would run for selector, or None. A
        class runs its class side's method, else one of Object's."""
        if isinstance(receiver, HostFunction):
            return True
        if isinstance(receiver, ClassRecord):
            cls = receiver
            while cls is not None:
                m = cls.class_methods.get(selector)
                if m is not None:
                    return m
                cls = cls.superclass
            return self.classes["Object"].lookup(selector)
        return self.class_of(receiver).lookup(selector)

    def send(self, receiver, selector, args, sender=None, node=None):
        if node is not None and sender is not None:
            sender.current_node = node
        t = type(receiver)
        if t is Instance or t is Array:
            cls = receiver.class_ref
        else:
            cls = self._type_classes.get(t)
        try:
            if cls is not None:
                rec = cls.cache.get(selector)
                if rec is None:
                    rec = cls.lookup(selector)
            elif isinstance(receiver, HostFunction):
                return receiver.fn(*args)
            else:
                rec = self.lookup_selector(receiver, selector)
            if rec is None:
                self.does_not_understand(receiver, selector)
            if rec.__class__ is PrimitiveMethod:
                return rec.fn(self, receiver, args, sender)
        except MkError as exc:
            self.locate(exc, sender, node)
            raise
        return self.execute_method(rec, receiver, args, sender)

    def locate(self, exc, sender, node=None):
        """Stamp an error no inner send located with this send's span (or
        the sender's current node's) and the sender's trace; answer it."""
        if not exc.trace:
            node = node or (sender and sender.current_node)
            exc.span = node and node.span
            exc.trace = self.stack_snapshot(sender)
        return exc

    def does_not_understand(self, receiver, selector):
        cls = (receiver if isinstance(receiver, ClassRecord)
               else self.class_of(receiver))
        raise MkRuntimeError("%s doesNotUnderstand: #%s"
                             % (cls.name, selector))

    def execute_method(self, record, receiver, args, sender):
        mdef = record.original_ast
        if len(args) != len(mdef.params):
            raise MkRuntimeError(
                "wrong number of arguments for #%s: expected %d, got %d"
                % (record.signature.selector, len(mdef.params), len(args)))
        temps = dict(zip(mdef.params, args))
        for t in mdef.temps:
            temps[t] = None
        act = Activation(receiver, record, sender, temps)
        act.current_node = mdef
        statements, ret = (record.twin or record).code or compiled(record)
        try:
            for stmt in statements:
                stmt(self, act)
            if ret is not None:
                return ret(self, act)
        except MethodReturn as mr:
            if mr.target is act:
                return mr.value
            raise
        return receiver

    # -- variables --------------------------------------------------------

    def outer_scope(self, name, recv):
        """The mapping a read finds a name in that no temp binds: the
        receiver's slots, the globals or the classes; None if none does."""
        if isinstance(recv, Instance) and name in recv.slots:
            return recv.slots
        if name in self.globals:
            return self.globals
        if name in self.classes:
            return self.classes
        return None

    def write_var(self, name, value, act, node=None):
        """Bind `name`, which no temp binds, to `value` and answer `value`.
        The compiler writes temps itself. Only the top level creates and
        writes globals, and nothing rebinds a class name."""
        recv = act.receiver
        if isinstance(recv, Instance) and name in recv.slots:
            recv.slots[name] = value
            return value
        if name in self.classes:
            message = "class %s cannot be assigned"
        elif act.method is None:  # top level: assignments create globals
            self.globals[name] = value
            return value
        elif name in self.globals:
            message = "a method cannot assign the global %s"
        else:
            message = "undefined variable %s"
        raise MkRuntimeError(message % name, node and node.span,
                             self.stack_snapshot(act))

    def _send_super(self, receiver, selector, args, act, node):
        act.current_node = node
        method = act.method
        defining = self.classes.get(method.signature.class_name) \
            if method is not None else None
        start = defining.superclass if defining is not None else None
        rec = start.lookup(selector) if start is not None else None
        try:
            if rec is None:
                self.does_not_understand(receiver, selector)
            if rec.__class__ is PrimitiveMethod:
                return rec.fn(self, receiver, args, act)
        except MkError as exc:
            self.locate(exc, act, node)
            raise
        return self.execute_method(rec, receiver, args, act)

    # -- blocks -----------------------------------------------------------

    def call_block(self, block, args, sender):
        node = block.node
        if len(args) != len(node.params):
            raise MkRuntimeError(
                "block expects %d argument(s), got %d"
                % (len(node.params), len(args)))
        defining = block.defining_activation
        home = defining._home or defining
        act = Activation(home.receiver, home.method, sender,
                         dict(zip(node.params, args)), defining, home)
        act.current_node = node
        return block.code(self, act)

    # -- hooks and triggering ---------------------------------------------

    def _trigger(self, orig, act, perform, receiver=None, args=None,
                 value=None, after=True):
        """The registry consult of every hooked operation: run `perform` at
        `orig` under its class-wide, then the receiver's object-centric
        links; unlinked, just run it. Only it makes a `TriggerContext`."""
        self.registry_consults += 1
        reg = self.registry
        links = reg.class_wide.get(orig.id, ())
        per_obj = reg.object_centric.get(orig.id)
        if per_obj is not None:
            links += per_obj.get(act.receiver, ())
        if not links:
            return perform()
        ctx = TriggerContext()
        ctx.interp, ctx.node, ctx.activation = self, orig, act
        ctx.phase, ctx.perform, ctx.operation = "before", perform, None
        ctx.pending_receiver, ctx.pending_args = receiver, args
        ctx.pending_value, ctx.current_link = value, None
        try:
            return self.run_trigger(links, ctx, after)
        except MkError as exc:  # a link found invalid as it fires
            self.locate(exc, act, orig)
            raise

    def run_trigger(self, links, ctx, after=True):
        """Before/instead/after protocol over all applicable links, once per
        linked trigger: class-wide ones first (installation order), then
        object-centric ones. Before-links fire in that order, after-links in
        reverse. An instead-link's result replaces the node's value; the
        most specific (object-centric, latest installed) wins. If none
        fires, the base runs through the `Operation` a link reified, else
        `ctx.perform`; with before-links only, right after them. `after` is
        False at a return: control leaves with the value, no after phase.

        The before pass reads each link's registry snapshot when it reaches
        the link (revalidated if a setter changed the link), so a change a
        meta-object makes to a later link applies in the same trigger; the
        instead and after passes fire those snapshots. A link left with no
        snapshot here (uninstalled earlier in this trigger) is skipped."""
        configs = self.registry.configs
        later = ()
        for link in links:
            cfg = configs.get(link)
            if cfg is None:
                continue
            if cfg.version != link.version:
                cfg = self.registry.effective(self, link)
            if cfg.control == "before":
                self.fire_link(link, cfg, ctx)
            else:
                later += ((link, cfg),)
        if not later:      # before-links only: no instead or after pass
            op = ctx.operation
            return ctx.perform() if op is None else op.invoke_base()
        for link, cfg in reversed(later):
            if cfg.control == "instead":
                ctx.phase = "instead"
                fired, result = self.fire_link(link, cfg, ctx)
                if fired:
                    break
        else:
            if ctx.operation is None:
                result = ctx.perform()
                ctx.perform = None
            else:
                result = ctx.operation.invoke_base()
        if after:
            for link, cfg in reversed(later):
                if cfg.control == "after":
                    ctx.phase = "after"
                    ctx.pending_value = result
                    self.fire_link(link, cfg, ctx)
        return result

    def fire_link(self, link, cfg, ctx):
        """One attempt to fire a link, fired or not. Level- and
        condition-gated dispatch to the meta-object: the snapshot says if the
        condition is evaluated, and a host meta-object is called without a
        send. Returns (fired, value). The meta level is one higher for the
        whole activation (condition included), and restored on any exit."""
        level = self.meta_level
        if not link.enabled or level != cfg.level or cfg.blocked:
            return (False, None)
        ctx.current_link = link
        self.meta_level = level + 1
        try:
            if cfg.guarded:
                cond_vals = []
                for k in cfg.condition_args:
                    cond_vals.append(resolve(k, ctx))
                if self._check_condition(cfg.condition, cond_vals,
                                         ctx.activation) is not True:
                    return (False, None)
            args = []
            for k in cfg.arguments:
                args.append(resolve(k, ctx))
            if cfg.host is not None:
                return (True, cfg.host.fn(*args))
            return (True, self.send(cfg.meta_object, cfg.selector, args,
                                    ctx.activation))
        finally:
            self.meta_level = level

    def _check_condition(self, condition, cond_vals, act):
        if isinstance(condition, bool):
            return condition
        if isinstance(condition, Block):
            return self.call_block(condition, cond_vals, act)
        if isinstance(condition, HostFunction):
            return condition.fn(*cond_vals)
        return self.send(condition, value_selector(len(cond_vals)),
                         cond_vals, act)

    # -- helpers ----------------------------------------------------------

    def new_array(self, items=None, ordered=False):
        cls = self.classes["OrderedCollection" if ordered else "Array"]
        return Array(cls, items if items is not None else [])

    def stack_snapshot(self, act):
        lines = []
        a = act
        while a is not None:
            if a.method is not None:
                sig = a.method.signature
                where = "%s>>%s" % (sig.class_name, sig.selector)
            else:
                where = "top-level"
            node = a.current_node
            where += " (%s)" % (node.span if node is not None else "?")
            lines.append(where)
            a = a.sender
        return lines

    def halt(self, act):
        raise HaltSignal(self.stack_snapshot(act))

    def print_string(self, v, printing=()):
        """`printString` of a value; `printing` holds the collections
        whose printing encloses this one, which print as `...`."""
        if v is True:
            return "true"
        if v is False:
            return "false"
        if v is None:
            return "nil"
        if isinstance(v, Symbol):
            return "#" + str(v)
        if isinstance(v, int):
            return str(v)
        if isinstance(v, str):
            return v
        if isinstance(v, Array):
            if v in printing:
                return "..."
            printing += (v,)
            inner = " ".join(self.print_string(i, printing) for i in v.items)
            if v.class_ref.name == "Array":
                return "#(%s)" % inner
            return "%s (%s)" % (self._article(v.class_ref.name), inner)
        if isinstance(v, (Instance, Block)):
            return self._article(self.class_of(v).name)
        if isinstance(v, ClassRecord):
            return v.name
        if isinstance(v, HostFunction):
            return v.label
        describe = getattr(v, "describe", None)
        if callable(describe):
            return describe()
        return repr(v)

    @staticmethod
    def _article(name):
        return ("an " if name[:1] in "AEIOU" else "a ") + name


def _evaluate_reserved(interp, main, act):
    """Compile and run `main` in a frame that reserves a run's data stack."""
    return compile_top(main)(interp, act)


# CPython >= 3.11 keeps frames on a data stack of chunks. A frame that does
# not fit in the current chunk gets a new one: 16 KB, or doubled until it
# holds the frame plus 1000 slots. The chunk is unmapped when the frame at
# its base returns. `_evaluate_reserved` is padded with _FRAME_RESERVE
# slots of value stack it never touches, so its frame gets a 1 MB chunk (8
# bytes a slot) and leaves about _FRAME_RESERVE slots of it free. That
# holds every frame of a run: Python's recursion limit (1000 frames) times
# the largest evaluator frame (the compiler's `hooked_send`, 23 slots of
# locals and stack plus at most 8 of frame header) is 31,000 slots.
# Untouched pages cost nothing. On 3.10 frames are heap objects, and a code
# object reuses its last one, so the padding costs nothing there either.
_FRAME_RESERVE = 1 << 16
_evaluate_reserved.__code__ = _evaluate_reserved.__code__.replace(
    co_stacksize=_FRAME_RESERVE)


def run_program(source, seed=0) -> RunResult:
    """Convenience one-shot: fresh interpreter, parse, run."""
    return Interpreter(seed=seed).run(source)
