"""Closure compiler for unwoven method bodies and a run's top level.

In Reflectivity an unlinked method runs ordinary compiled code, and only
a linked one is recompiled with its meta-behaviour. Here an unwoven
method's body, and a run's top-level sequence, compile into Python
closures `fn(interp, act)` (closure generation: Feeley & Lapalme, "Using
Closures for Code Generation", 1987). A method compiles at its first
execution and keeps its code on its record (`record.code`). A woven twin
runs on the tree-walker, so every hook keeps the code it has.

* Each variable resolves once, here, against the names that fill each
  enclosing activation's `temps`: a method's parameters and temps, a
  block's parameters, the top level's temps. It resolves to the temps
  `d` lexical scopes up, or to no temp. A read of no temp looks in
  `Interpreter.outer_scope`, the tail of `scope_of`; a write of no temp
  goes through `write_var`.
* A send calls `send` or `_send_super` as the tree-walker does, with the
  same `current_node` and so the same error location, from a closure
  specialised by its argument count.
* A send of `+ - * < <= > >= = ~=`, or of `/ // \\\\` with a nonzero
  divisor, between two ints answers the `op` of Integer's primitive for
  the selector, while that primitive is still Integer's method for it (the
  special selectors of Deutsch & Schiffman, POPL 1984). What the primitive
  would reject, an overflow or a zero divisor, goes through `send`, and so
  does a send to a method a program put on Integer.

Nothing is stored on a node: the kernel's AST is shared by every
interpreter, and a closure kept on a node it captures would be a cycle.
A closure captures nodes, names and other closures, never an interpreter
or a class, so reference counting frees compiled code. The compiler keeps
its own stack, so a chain of any depth compiles; running one deeper than
Python's recursion limit is a stack overflow, as on the tree-walker.
"""

from __future__ import annotations

from .errors import MethodReturn
from .nodes import (
    ASSIGNMENT, BLOCK, LITERAL, LITERAL_ARRAY, MESSAGE_SEND, RETURN, SELF_REF,
    SEQUENCE, TEMP_DECL, VAR_READ,
)
from .values import INT_MAX, INT_MIN, Block


def compiled(record):
    """A method record's code, compiled now and kept on the record: the
    closures of the body's statements before its first statement `^`, in
    order, and that `^`'s expression (None if no statement is a `^`)."""
    mdef = record.original_ast
    scopes = ((*mdef.params, *mdef.temps),)
    statements = []
    ret = None
    for stmt in mdef.children[-1].children:
        if stmt.kind == RETURN:
            ret = _compile(stmt.children[0], scopes)
            break
        statements.append(_compile(stmt, scopes))
    record.code = tuple(statements), ret
    return record.code


def compile_top(main):
    """A run's top-level sequence as one closure answering its value."""
    return _compile(main, (main.temps,))


def _compile(root, scopes):
    """The closure of `root`, built children first from an explicit stack.
    `scopes` holds the names of each enclosing activation's temps,
    innermost first."""
    done = []
    todo = [(root, scopes, False)]
    while todo:
        node, scopes, children_done = todo.pop()
        children = node.children
        if not children:
            done.append(_FACTORIES[node.kind](node, (), scopes))
        elif children_done:
            first = len(done) - len(children)
            kids = done[first:]
            del done[first:]
            done.append(_FACTORIES[node.kind](node, kids, scopes))
        else:
            todo.append((node, scopes, True))
            if node.kind == BLOCK:
                scopes = (node.params, *scopes)
            for child in reversed(children):
                todo.append((child, scopes, False))
    return done[0]


def _depth(name, scopes):
    """How many lexical scopes up a temp binds `name`; None if none does."""
    for depth, names in enumerate(scopes):
        if name in names:
            return depth
    return None


def _self(interp, act):
    return act.receiver


def _nil(interp, act):
    return None


def _literal(node, kids, scopes):
    value = node.value

    def literal(interp, act):
        return value
    return literal


def _literal_array(node, kids, scopes):
    def literal_array(interp, act):
        return interp._eval_literal_array(node, act)
    return literal_array


def _var_read(node, kids, scopes):
    name = node.var_name
    depth = _depth(name, scopes)
    if depth is None:
        def read(interp, act):
            scope = interp.outer_scope(name, act.receiver)
            if scope is None:   # raises the tree-walker's error
                return interp._eval_var_read(node, act)
            return scope[name]
    elif depth == 0:
        def read(interp, act):
            return act.temps[name]
    elif depth == 1:
        def read(interp, act):
            return act.lexical_parent.temps[name]
    else:
        up = range(depth)

        def read(interp, act):
            for _ in up:
                act = act.lexical_parent
            return act.temps[name]
    return read


def _assignment(node, kids, scopes):
    name = node.var_name
    expr, = kids
    depth = _depth(name, scopes)
    if depth is None:
        def assign(interp, act):
            return interp.write_var(name, expr(interp, act), act, node)
    elif depth == 0:
        def assign(interp, act):
            value = act.temps[name] = expr(interp, act)
            return value
    else:
        up = range(depth)

        def assign(interp, act):
            value = expr(interp, act)
            for _ in up:
                act = act.lexical_parent
            act.temps[name] = value
            return value
    return assign


def _return(node, kids, scopes):
    """A `^` in a block or at the top level; a method's own statement `^`
    answers from `execute_method`."""
    expr, = kids

    def return_(interp, act):
        raise MethodReturn(act.home, expr(interp, act))
    return return_


def _sequence(node, kids, scopes):
    if not kids:
        return _nil
    if len(kids) == 1:
        return kids[0]
    *init, last = kids
    init = tuple(init)

    def sequence(interp, act):
        for stmt in init:
            stmt(interp, act)
        return last(interp, act)
    return sequence


def _block(node, kids, scopes):
    body = kids[0] if kids else _nil

    def block(interp, act):
        return Block(node, act, body)
    return block


def _message(node, kids, scopes):
    """A send's closure, from a factory by its shape: each factory's cells
    are only the ones its closure uses."""
    selector = node.selector
    # `super` makes a super send, as in `Interpreter._eval_message`.
    if node.children[0].var_name == "super":
        return _super_send(node, selector, kids[1:])
    if len(kids) == 2:
        return _INLINED.get(selector, _send1)(node, selector, *kids)
    if len(kids) == 1:
        return _send0(node, selector, *kids)
    if len(kids) == 3:
        return _send2(node, selector, *kids)
    return _send(node, selector, kids[0], kids[1:])


def _super_send(node, selector, args):
    def super_send(interp, act):
        values = []
        for arg in args:
            values.append(arg(interp, act))
        return interp._send_super(act.receiver, selector, values, act, node)
    return super_send


def _send0(node, selector, receiver):
    def send0(interp, act):
        return interp.send(receiver(interp, act), selector, [], act, node)
    return send0


def _send1(node, selector, receiver, arg):
    def send1(interp, act):
        return interp.send(receiver(interp, act), selector,
                           [arg(interp, act)], act, node)
    return send1


def _send2(node, selector, receiver, arg1, arg2):
    def send2(interp, act):
        return interp.send(receiver(interp, act), selector,
                           [arg1(interp, act), arg2(interp, act)], act, node)
    return send2


def _send(node, selector, receiver, args):
    def send(interp, act):
        r = receiver(interp, act)
        values = []
        for arg in args:
            values.append(arg(interp, act))
        return interp.send(r, selector, values, act, node)
    return send


# The inlined SmallInteger sends. Each sets `current_node` as its send
# would, since a later error in the activation reports it. A division has
# a closure of its own, so `+ - *` do not test a divisor.

def _arithmetic(node, selector, receiver, arg):
    def arithmetic(interp, act):
        r = receiver(interp, act)
        a = arg(interp, act)
        if r.__class__ is int and a.__class__ is int:
            act.current_node = node
            op = interp.int_methods[selector].op
            if op is not None:
                v = op(r, a)
                if INT_MIN <= v <= INT_MAX:
                    return v
        return interp.send(r, selector, [a], act, node)
    return arithmetic


def _division(node, selector, receiver, arg):
    def division(interp, act):
        r = receiver(interp, act)
        a = arg(interp, act)
        if r.__class__ is int and a.__class__ is int and a != 0:
            act.current_node = node
            op = interp.int_methods[selector].op
            if op is not None:
                v = op(r, a)
                if INT_MIN <= v <= INT_MAX:
                    return v
        return interp.send(r, selector, [a], act, node)
    return division


def _comparison(node, selector, receiver, arg):
    def comparison(interp, act):
        r = receiver(interp, act)
        a = arg(interp, act)
        if r.__class__ is int and a.__class__ is int:
            act.current_node = node
            op = interp.int_methods[selector].op
            if op is not None:
                return op(r, a)
        return interp.send(r, selector, [a], act, node)
    return comparison


_INLINED = {
    "+": _arithmetic, "-": _arithmetic, "*": _arithmetic,
    "/": _division, "//": _division, "\\\\": _division,
    "<": _comparison, "<=": _comparison, ">": _comparison,
    ">=": _comparison, "=": _comparison, "~=": _comparison,
}

# Node kind -> factory `f(node, kids, scopes)`, `kids` being the closures
# of the node's children. An original AST holds no MetaHook.
_FACTORIES = {
    LITERAL: _literal,
    SELF_REF: lambda node, kids, scopes: _self,
    TEMP_DECL: lambda node, kids, scopes: _nil,
    LITERAL_ARRAY: _literal_array,
    VAR_READ: _var_read,
    ASSIGNMENT: _assignment,
    RETURN: _return,
    SEQUENCE: _sequence,
    BLOCK: _block,
    MESSAGE_SEND: _message,
}
