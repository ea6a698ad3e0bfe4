"""Builtin classes and methods.

Most of the kernel is host primitives; a small part (printing helpers,
counting loops) is written in the language itself so that those methods
have real ASTs and can carry links like any user method. That part is
parsed once per process (`kernel_program`): every interpreter compiles
its own method records over the same original nodes.
"""

from __future__ import annotations

import functools
import operator

from .compiler import BRANCHES, LOOPS
from .errors import MkRuntimeError
from .interpreter import ClassRecord, PrimitiveMethod
from .nodes import find_nodes, value_selector
from .parser import parse
from . import links as _links
from .links import MetaLink
from .reify import (
    ContextMirror, MethodMirror, NodeMirror, OperationWrapper, VariableMirror,
)
from .tools import (
    Breakpoint, TraceCounter, VariableWatch, install_tool_classes,
)
from .values import INT_MAX, INT_MIN, Array, Block, Instance, Symbol, identical

BUILTIN_CLASSES = (
    "Object", "Boolean", "Integer", "String", "Symbol", "UndefinedObject",
    "Block", "Array", "OrderedCollection", "Transcript", "Halt", "Random",
    "MetaLink", "Reflect", "NodeMirror", "MethodMirror", "ContextMirror",
    "VariableMirror", "Operation",
)

# Classes whose instances only the host makes: `new` answers none of them,
# nor an instance of any subclass (a MetaLink subclass included).
HOST_MADE = frozenset((
    "Boolean", "Integer", "String", "Symbol", "UndefinedObject", "Block",
    "NodeMirror", "MethodMirror", "ContextMirror", "VariableMirror",
    "Operation", "Breakpoint", "Watch", "TraceCounter", "MetaLink",
))

# The class of every value whose Python type fixes it, by name: the one
# rule `send`, `class_of` and `printString` share. An `Instance` or `Array`
# carries its own class; a class or a host function is an Object.
TYPE_CLASSES = {
    bool: "Boolean", int: "Integer", Symbol: "Symbol", str: "String",
    type(None): "UndefinedObject", Block: "Block", MetaLink: "MetaLink",
    NodeMirror: "NodeMirror", MethodMirror: "MethodMirror",
    ContextMirror: "ContextMirror", VariableMirror: "VariableMirror",
    OperationWrapper: "Operation", Breakpoint: "Breakpoint",
    VariableWatch: "Watch", TraceCounter: "TraceCounter",
}

KERNEL_SOURCE = """
class Object [
    logCr [ Transcript logCr: self printString ]
    logCr: anObject [ Transcript logCr: anObject printString ]
    log: anObject [ Transcript show: anObject printString ]
    halt [ Halt now ]
]
class Integer [
    timesRepeat: aBlock [
        | i |
        i := 0.
        [ i < self ] whileTrue: [ aBlock value. i := i + 1 ]
    ]
    to: stop do: aBlock [
        | i |
        i := self.
        [ i <= stop ] whileTrue: [ aBlock value: i. i := i + 1 ]
    ]
]
"""


@functools.cache
def kernel_program():
    """`KERNEL_SOURCE`, parsed once per process. Nothing writes its nodes:
    a link weaves a twin of its own, and link state lives in each
    interpreter's registry."""
    return parse(KERNEL_SOURCE, file="<kernel>")


def _prim(cls, selector, fn, op=None):
    cls.methods[selector] = PrimitiveMethod(selector, fn, op)


def _cprim(cls, selector, fn):
    cls.class_methods[selector] = PrimitiveMethod(selector, fn)


def _need_int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise MkRuntimeError("an Integer argument is required")
    return v


def _check_int(v):
    if not INT_MIN <= v <= INT_MAX:
        raise MkRuntimeError("integer overflow")
    return v


def _need_block(v):
    if not isinstance(v, Block):
        raise MkRuntimeError("a Block argument is required")
    return v


def _need_string(v):
    if not isinstance(v, str):
        raise MkRuntimeError("a String argument is required")
    return v


def _need_items(v):
    if not isinstance(v, Array):
        raise MkRuntimeError("a collection argument is required")
    return v.items


def _need_link(v):
    if not isinstance(v, MetaLink):
        raise MkRuntimeError("a MetaLink argument is required")
    return v


def install_kernel(interp):
    classes = interp.classes
    obj = ClassRecord("Object")
    classes["Object"] = obj
    for name in BUILTIN_CLASSES[1:]:
        classes[name] = ClassRecord(name, superclass=obj)
    classes["Symbol"].superclass = classes["String"]
    classes["OrderedCollection"].superclass = classes["Array"]

    _object_protocol(interp, obj)
    _boolean_protocol(interp, classes["Boolean"])
    _integer_protocol(interp, classes["Integer"])
    _string_protocol(interp, classes["String"], classes["Symbol"])
    _block_protocol(interp, classes["Block"])
    _collection_protocol(interp, classes["Array"],
                         classes["OrderedCollection"])
    _io_protocol(interp, classes["Transcript"], classes["Halt"],
                 classes["Random"])
    _reflection_protocol(interp, classes)

    interp._install_classes(kernel_program())
    install_tool_classes(interp)


# -- Object -----------------------------------------------------------------

def _object_protocol(interp, obj):
    def new(interp, recv, args, sender):
        if not isinstance(recv, ClassRecord):
            raise MkRuntimeError("only classes respond to #new")
        if recv.name == "MetaLink":
            return MetaLink()
        cls = recv
        while cls is not None:
            if cls.name == "Array":
                return Array(recv, [])
            if cls.name in HOST_MADE:
                raise MkRuntimeError("%s cannot be instantiated with #new"
                                     % recv.name)
            cls = cls.superclass
        inst = Instance(recv, {name: None for name in recv.all_slot_names()})
        init = recv.lookup("initialize")
        if init is not None and not isinstance(init, PrimitiveMethod):
            interp.execute_method(init, inst, [], sender)
        return inst

    _cprim(obj, "new", new)

    def lookup_sel(interp, recv, args, sender):
        if not isinstance(recv, ClassRecord):
            raise MkRuntimeError("only classes respond to #lookupSelector:")
        record = recv.lookup(str(args[0]))
        if record is None or isinstance(record, PrimitiveMethod):
            return None
        return MethodMirror(record)

    _cprim(obj, "lookupSelector:", lookup_sel)
    _prim(obj, "printString", lambda i, r, a, s: i.print_string(r))
    _prim(obj, "class", lambda i, r, a, s: i.class_of(r))
    _prim(obj, "==", lambda i, r, a, s: identical(r, a[0]))
    _prim(obj, "~~", lambda i, r, a, s: not identical(r, a[0]))
    _prim(obj, "=", lambda i, r, a, s: identical(r, a[0]))
    _prim(obj, "~=", lambda i, r, a, s: not identical(r, a[0]))
    _prim(obj, "isNil", lambda i, r, a, s: r is None)
    _prim(obj, "notNil", lambda i, r, a, s: r is not None)
    _prim(obj, "yourself", lambda i, r, a, s: r)
    _prim(obj, "respondsTo:",
          lambda i, r, a, s: i.lookup_selector(r, str(a[0])) is not None)

    def error(interp, recv, args, sender):
        raise MkRuntimeError(interp.print_string(args[0]))
    _prim(obj, "error:", error)

    def if_nil(interp, recv, args, sender):
        if recv is None:
            return interp.call_block(_need_block(args[0]), [], sender)
        return recv
    _prim(obj, "ifNil:", if_nil)

    def if_not_nil(interp, recv, args, sender):
        if recv is None:
            return None
        blk = _need_block(args[0])
        return interp.call_block(blk, [recv] if blk.arity == 1 else [], sender)
    _prim(obj, "ifNotNil:", if_not_nil)


# -- Boolean ----------------------------------------------------------------

def _boolean_protocol(interp, cls):
    def run(interp, block_or_value, sender):
        if isinstance(block_or_value, Block):
            return interp.call_block(block_or_value, [], sender)
        return block_or_value

    # Each of these primitives is built from its row of `BRANCHES`, which
    # compiled code reads to run a literal block itself.
    def branch(row):
        on_true, on_false, otherwise = row

        def fn(interp, r, a, s):
            arm = on_true if r else on_false
            return otherwise if arm is None else run(interp, a[arm], s)
        return fn

    for selector, row in BRANCHES.items():
        _prim(cls, selector, branch(row), row)
    _prim(cls, "not", lambda i, r, a, s: not r)
    _prim(cls, "&", lambda i, r, a, s: bool(r and a[0] is True))
    _prim(cls, "|", lambda i, r, a, s: bool(r or a[0] is True))


# -- Integer ----------------------------------------------------------------

def _integer_protocol(interp, cls):
    # Each of these primitives is built from its `op`, which compiled code
    # applies itself to two ints (`compiler._INLINED`).
    def arith(op):
        def fn(interp, r, a, s):
            # Checked inline: `_need_int` and `_check_int` only see the
            # failing cases, which they report as before.
            y = a[0]
            if y.__class__ is int:
                v = op(r, y)
                if INT_MIN <= v <= INT_MAX:
                    return v
            return _check_int(op(r, _need_int(y)))
        return fn

    def divide(op):
        def fn(interp, r, a, s):
            d = _need_int(a[0])
            if d == 0:
                raise MkRuntimeError("division by zero")
            return _check_int(op(r, d))
        return fn

    def compare(op):
        def fn(interp, r, a, s):
            y = a[0]
            return op(r, y if y.__class__ is int else _need_int(y))
        return fn

    def equal(op):
        unequal = op(0, 1)   # what a non-Integer argument answers

        def fn(interp, r, a, s):
            y = a[0]
            return op(r, y) if y.__class__ is int else unequal
        return fn

    for selector, make, op in (
            ("+", arith, operator.add), ("-", arith, operator.sub),
            ("*", arith, operator.mul), ("/", divide, operator.floordiv),
            ("//", divide, operator.floordiv),
            ("\\\\", divide, operator.mod),
            ("<", compare, operator.lt), ("<=", compare, operator.le),
            (">", compare, operator.gt), (">=", compare, operator.ge),
            ("=", equal, operator.eq), ("~=", equal, operator.ne)):
        _prim(cls, selector, make(op), op)
    _prim(cls, "max:", lambda i, r, a, s: max(r, _need_int(a[0])))
    _prim(cls, "min:", lambda i, r, a, s: min(r, _need_int(a[0])))
    _prim(cls, "abs", lambda i, r, a, s: _check_int(abs(r)))
    _prim(cls, "negated", lambda i, r, a, s: _check_int(-r))
    _prim(cls, "even", lambda i, r, a, s: r % 2 == 0)
    _prim(cls, "odd", lambda i, r, a, s: r % 2 == 1)


# -- String / Symbol --------------------------------------------------------

def _string_protocol(interp, string_cls, symbol_cls):
    _prim(string_cls, ",",
          lambda i, r, a, s: r + _need_string(a[0]))
    _prim(string_cls, "size", lambda i, r, a, s: len(r))
    _prim(string_cls, "=",
          lambda i, r, a, s: isinstance(a[0], str) and str(r) == str(a[0]))
    _prim(string_cls, "~=",
          lambda i, r, a, s: not (isinstance(a[0], str)
                                  and str(r) == str(a[0])))
    _prim(string_cls, "asSymbol", lambda i, r, a, s: Symbol(str(r)))
    _prim(string_cls, "asString", lambda i, r, a, s: "" + r)
    _prim(string_cls, "isEmpty", lambda i, r, a, s: len(r) == 0)


# -- Block ------------------------------------------------------------------

def _block_protocol(interp, cls):
    for n in range(5):
        _prim(cls, value_selector(n),
              lambda i, r, a, s: i.call_block(r, list(a), s), n)
    _prim(cls, "numArgs", lambda i, r, a, s: r.arity)

    # Built from `LOOPS`, as Boolean's primitives are from `BRANCHES`.
    def loop(go_on):
        def fn(interp, r, a, s):
            body = _need_block(a[0]) if a else None
            while (interp.call_block(r, [], s) is True) is go_on:
                if body is not None:
                    interp.call_block(body, [], s)
            return None
        return fn

    for selector, go_on in LOOPS.items():
        _prim(cls, selector, loop(go_on), go_on)
    _prim(cls, "whileTrue", loop(True))


# -- collections ------------------------------------------------------------

def _collection_protocol(interp, array_cls, oc_cls):
    def index(r, i):
        idx = _need_int(i)
        if not 1 <= idx <= len(r.items):
            raise MkRuntimeError("index %d out of bounds (size %d)"
                                 % (idx, len(r.items)))
        return idx - 1

    def at(interp, r, a, s):
        return r.items[index(r, a[0])]

    def at_put(interp, r, a, s):
        r.items[index(r, a[0])] = a[1]
        return a[1]

    def do(interp, r, a, s):
        blk = _need_block(a[0])
        for item in list(r.items):
            interp.call_block(blk, [item], s)
        return r

    def collect(interp, r, a, s):
        blk = _need_block(a[0])
        return Array(r.class_ref,
                     [interp.call_block(blk, [item], s)
                      for item in list(r.items)])

    def select(interp, r, a, s):
        blk = _need_block(a[0])
        return Array(r.class_ref,
                     [item for item in list(r.items)
                      if interp.call_block(blk, [item], s) is True])

    def detect_if_none(interp, r, a, s):
        blk = _need_block(a[0])
        for item in list(r.items):
            if interp.call_block(blk, [item], s) is True:
                return item
        return interp.call_block(_need_block(a[1]), [], s)

    _prim(array_cls, "at:", at)
    _prim(array_cls, "at:put:", at_put)
    _prim(array_cls, "size", lambda i, r, a, s: len(r.items))
    _prim(array_cls, "isEmpty", lambda i, r, a, s: not r.items)
    _prim(array_cls, "notEmpty", lambda i, r, a, s: bool(r.items))
    _prim(array_cls, "do:", do)
    _prim(array_cls, "collect:", collect)
    _prim(array_cls, "select:", select)
    _prim(array_cls, "detect:ifNone:", detect_if_none)
    _prim(array_cls, "includes:",
          lambda i, r, a, s: any(identical(x, a[0]) for x in r.items))
    _prim(array_cls, "first",
          lambda i, r, a, s: at(i, r, [1], s))
    _prim(array_cls, "last",
          lambda i, r, a, s: at(i, r, [len(r.items)], s))

    def add(interp, r, a, s):
        r.items.append(a[0])
        return a[0]

    def remove_first(interp, r, a, s):
        if not r.items:
            raise MkRuntimeError("collection is empty")
        return r.items.pop(0)

    _prim(oc_cls, "add:", add)
    _prim(oc_cls, "addAll:",
          lambda i, r, a, s: (r.items.extend(_need_items(a[0])), a[0])[1])
    _prim(oc_cls, "removeFirst", remove_first)
    _prim(oc_cls, "removeAll", lambda i, r, a, s: (r.items.clear(), r)[1])


# -- Transcript / Halt / Random ---------------------------------------------

def _io_protocol(interp, transcript, halt, random_cls):
    _cprim(transcript, "show:",
           lambda i, r, a, s: (i.write(i.print_string(a[0])), a[0])[1])
    _cprim(transcript, "log:",
           lambda i, r, a, s: (i.write(i.print_string(a[0])), a[0])[1])
    _cprim(transcript, "logCr:",
           lambda i, r, a, s: (i.write(i.print_string(a[0]) + "\n"), a[0])[1])
    _cprim(transcript, "cr", lambda i, r, a, s: i.write("\n"))

    _cprim(halt, "now", lambda i, r, a, s: i.halt(s))

    # Values come from the interpreter-owned stream so a fixed seed gives
    # one reproducible sequence across the whole run.
    _prim(random_cls, "next",
          lambda i, r, a, s: i.random.randrange(1000))


# -- reflection -------------------------------------------------------------

def _reflection_protocol(interp, classes):
    link_cls = classes["MetaLink"]

    def setter(method):
        def fn(interp, r, a, s):
            method(r, a[0])
            return r
        return fn

    _prim(link_cls, "metaObject:", setter(MetaLink.set_meta_object))
    _prim(link_cls, "selector:",
          lambda i, r, a, s: (r.set_selector(str(a[0])), r)[1])
    _prim(link_cls, "control:",
          lambda i, r, a, s: (r.set_control(str(a[0])), r)[1])
    _prim(link_cls, "level:",
          lambda i, r, a, s: (r.set_level(_need_int(a[0])), r)[1])
    _prim(link_cls, "arguments:",
          lambda i, r, a, s: (r.set_arguments(
              [str(x) for x in _need_items(a[0])]), r)[1])
    _prim(link_cls, "condition:",
          lambda i, r, a, s: (r.set_condition(a[0]), r)[1])
    _prim(link_cls, "condition:arguments:",
          lambda i, r, a, s: (r.set_condition(
              a[0], [str(x) for x in _need_items(a[1])]), r)[1])
    # Called by module attribute: a wrapper of `links.install` sees them.
    _prim(link_cls, "invalidate",
          lambda i, r, a, s: (_links.invalidate(i, r), r)[1])
    _prim(link_cls, "uninstall",
          lambda i, r, a, s: (_links.uninstall(i, r), r)[1])
    _prim(link_cls, "enable", lambda i, r, a, s: (r.enable(), r)[1])
    _prim(link_cls, "disable", lambda i, r, a, s: (r.disable(), r)[1])

    def reflect_class_selector(interp, r, a, s):
        cls = a[0]
        name = cls.name if isinstance(cls, ClassRecord) else str(cls)
        return NodeMirror(interp.method_ast(name, str(a[1])))

    _cprim(classes["Reflect"], "class:selector:", reflect_class_selector)

    node_cls = classes["NodeMirror"]

    def mirrors(interp, nodes):
        return interp.new_array([NodeMirror(n) for n in nodes])

    def query(name, with_arg):
        if with_arg:
            return lambda i, r, a, s: mirrors(
                i, find_nodes(r.node, name, str(a[0])))
        return lambda i, r, a, s: mirrors(i, find_nodes(r.node, name))

    _prim(node_cls, "link:",
          lambda i, r, a, s: (_links.install(i, _need_link(a[0]), r.node),
                              a[0])[1])
    _prim(node_cls, "link:forObject:",
          lambda i, r, a, s: (_links.install(i, _need_link(a[0]), r.node,
                                             a[1]), a[0])[1])
    _prim(node_cls, "removeLink:",
          lambda i, r, a, s: (_links.remove(i, _need_link(a[0]), r.node),
                              a[0])[1])
    _prim(node_cls, "removeLink:forObject:",
          lambda i, r, a, s: (_links.remove(i, _need_link(a[0]), r.node,
                                            a[1]), a[0])[1])
    _prim(node_cls, "allNodes", query("all-nodes", False))
    _prim(node_cls, "sends", query("all-sends", False))
    _prim(node_cls, "sendsOf:", query("sends-of", True))
    _prim(node_cls, "reads:", query("reads-of", True))
    _prim(node_cls, "writes:", query("writes-of", True))

    def statement_at(interp, r, a, s):
        found = find_nodes(r.node, "statement-at", _need_int(a[0]))
        return NodeMirror(found[0]) if found else None

    _prim(node_cls, "statementAt:", statement_at)
    _prim(node_cls, "selector",
          lambda i, r, a, s: Symbol(r.node.selector)
          if r.node.selector else None)
    _prim(node_cls, "name",
          lambda i, r, a, s: r.node.var_name)

    method_cls = classes["MethodMirror"]
    _prim(method_cls, "selector",
          lambda i, r, a, s: Symbol(r.record.signature.selector))
    _prim(method_cls, "className",
          lambda i, r, a, s: r.record.signature.class_name)
    _prim(method_cls, "node",
          lambda i, r, a, s: NodeMirror(r.record.original_ast))
    _prim(method_cls, "ast",
          lambda i, r, a, s: NodeMirror(r.record.original_ast))

    context_cls = classes["ContextMirror"]
    _prim(context_cls, "receiver", lambda i, r, a, s: r.receiver)
    _prim(context_cls, "selector",
          lambda i, r, a, s: Symbol(r.selector) if r.selector else None)
    _prim(context_cls, "sender", lambda i, r, a, s: r.sender())
    _prim(context_cls, "tempAt:",
          lambda i, r, a, s: r.temps.get(str(a[0])))

    variable_cls = classes["VariableMirror"]
    _prim(variable_cls, "name", lambda i, r, a, s: r.name)
    _prim(variable_cls, "value", lambda i, r, a, s: r.read())

    op_cls = classes["Operation"]
    _prim(op_cls, "value", lambda i, r, a, s: r.invoke())
