"""Closure compiler, the one evaluator: every method body, woven or not,
and a run's top level compile into Python closures `fn(interp, act)`
(Feeley & Lapalme, "Using Closures for Code Generation", 1987).

As in Reflectivity, a linked method is compiled code like any other: a
method compiles at its first activation, as its twin if a link wove one.
A change to its links clears the twin's code, so it applies from the
next activation, and an activation runs the code it started with. A
subtree a twin shares with the original compiles once per record, so a
twin compiles only its spine, the copied path down to its hooks.

* Each variable, read or written, hooked or not, resolves once, to the
  temps `d` lexical scopes up. Only a name that no temp binds goes to the
  interpreter at run time: `Interpreter.outer_scope` for a read, and
  `write_var` for a write.
* A send calls `send` or `_send_super` from a closure specialised by its
  argument count. A send of `+ - * < <= > >= = ~=`, or of `/ // \\\\`
  with a nonzero divisor, between two ints answers the `op` of Integer's
  primitive while that is still Integer's method (Deutsch & Schiffman,
  POPL 1984); what the primitive would reject goes through `send`.
* A send of `BRANCHES` (`ifTrue:`, `and:`, ...) whose arguments are
  literal blocks without parameters, or of `LOOPS` (`whileTrue:`,
  `whileFalse:`) whose receiver is one too, runs those blocks' bodies
  itself, as Smalltalk-80 compilers do (Goldberg & Robson, 1983). Each
  body runs in the activation `call_block` would make. This holds while
  the receiver is a bool, for `BRANCHES`, and while the kernel primitive
  is still the method; otherwise the closure makes the blocks and sends.
* A hooked node compiles by its original's kind. Its closure runs the
  pending operation through `Interpreter._trigger`, which consults the
  registry as it runs. A hooked method root adds the method-entry
  trigger, and a hooked block the block-call trigger. A hooked control
  send, or one with a hooked block, is not inlined.

Nothing is stored on a node: the kernel's AST is shared by every
interpreter. A closure holds nodes, names and closures as parameter
defaults, never an interpreter or a class, so reference counting frees
compiled code; a free variable would cost a cell, one more object for
the cyclic GC to track. Closures are only ever called with
`(interp, act)`. The compiler keeps its own stack, so a chain of any
depth compiles.
"""

from __future__ import annotations

from functools import partial

from .errors import MethodReturn, MkRuntimeError
from .nodes import (
    ASSIGNMENT, BLOCK, LITERAL, LITERAL_ARRAY, MESSAGE_SEND, META_HOOK,
    RETURN, SELF_REF, SEQUENCE, TEMP_DECL, VAR_READ,
)
from .values import INT_MAX, INT_MIN, Activation, Array, Block


def compiled(record):
    """The code `execute_method` runs for a record, compiled now and kept
    on its twin if it has one, else on it: the closures of the body's
    statements before its first statement `^`, and that `^`'s expression
    (or None). A hooked root's code counts the visit, then answers what
    its entry trigger answers, which runs the body under the root's
    links."""
    twin = record.twin
    if twin is None:
        mdef, copies = record.original_ast, ()
    else:
        mdef, copies = twin.woven_ast, twin.copies
    shared = record.shared
    scopes = ((*mdef.params, *mdef.temps),)
    body = mdef.children[-1]
    statements = []
    ret = None
    # A hooked body sequence is one statement: its `^`s raise.
    for stmt in body.children if body.kind == SEQUENCE else (body,):
        if stmt.kind == RETURN:
            ret = _compile(stmt.children[0], scopes, copies, shared)
            break
        statements.append(_compile(stmt, scopes, copies, shared))
    code = tuple(statements), ret
    if mdef.kind == META_HOOK:
        code = (_visit,), _entry(mdef.original, _method_body(*code),
                                 mdef.params)
    (twin or record).code = code
    return code


def compile_top(main):
    """A run's top-level sequence as one closure answering its value."""
    return _compile(main, (main.temps,))


def _compile(root, scopes, copies=None, shared=None):
    """The closure of `root`, built children first from an explicit stack.
    `scopes` holds the names of each enclosing activation's temps,
    innermost first. Given a twin's `copies`, a node not among them is
    shared with the original: its closure comes from `shared`, or is
    compiled once and kept there."""
    done = []
    todo = [(root, scopes, False)]
    while todo:
        node, scopes, children_done = todo.pop()
        if node is None:    # the body of an empty arm
            done.append(_nil)
            continue
        if copies is not None and node.id not in copies:
            code = shared.get(node.id)
            if code is None:
                code = shared[node.id] = _compile(node, scopes)
            done.append(code)
            continue
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
            if (node.original or node).kind == BLOCK:
                scopes = (node.params, *scopes)
            arms = _arms(node)
            for child in reversed(children):
                if child in arms:    # its body, in an activation of its own
                    todo.append((child.children[0] if child.children
                                 else None, ((), *scopes), False))
                else:
                    todo.append((child, scopes, False))
    return done[0]


def _arms(node):
    """The literal blocks that an inlined control send runs itself, or ()
    if `node` is not one: an unhooked send of a `BRANCHES` selector whose
    arguments, or of a `LOOPS` selector whose receiver and argument, are
    literal blocks without parameters."""
    if node.kind != MESSAGE_SEND:
        return ()
    selector = node.selector
    if selector in BRANCHES:
        if node.children[0].var_name == "super":
            return ()
        blocks = node.children[1:]
    elif selector in LOOPS:
        blocks = node.children
    else:
        return ()
    for block in blocks:
        if block.kind != BLOCK or block.params:
            return ()
    return blocks


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


def _visit(interp, act):
    interp.hook_visits += 1


def _literal(node, kids, scopes):
    value = node.value

    def literal(interp, act, value=value):
        return value
    return literal


def _literal_array(node, kids, scopes):
    def literal_array(interp, act, node=node):
        return Array(interp.classes["Array"], list(node.value))
    return literal_array


def _var_read(node, kids, scopes):
    name = node.var_name
    depth = _depth(name, scopes)
    if depth is None:
        def read(interp, act, name=name, node=node):
            scope = interp.outer_scope(name, act.receiver)
            if scope is None:
                raise MkRuntimeError("undefined variable %s" % name,
                                     node.span, interp.stack_snapshot(act))
            return scope[name]
    elif depth == 0:
        def read(interp, act, name=name):
            return act.temps[name]
    elif depth == 1:
        def read(interp, act, name=name):
            return act.lexical_parent.temps[name]
    else:
        up = range(depth)

        def read(interp, act, name=name, up=up):
            for _ in up:
                act = act.lexical_parent
            return act.temps[name]
    return read


def _assignment(node, kids, scopes):
    name = node.var_name
    expr, = kids
    depth = _depth(name, scopes)
    if depth is None:
        def assign(interp, act, name=name, expr=expr, node=node):
            return interp.write_var(name, expr(interp, act), act, node)
    elif depth == 0:
        def assign(interp, act, name=name, expr=expr):
            value = act.temps[name] = expr(interp, act)
            return value
    else:
        up = range(depth)

        def assign(interp, act, name=name, expr=expr, up=up):
            value = expr(interp, act)
            for _ in up:
                act = act.lexical_parent
            act.temps[name] = value
            return value
    return assign


def _return(node, kids, scopes):
    """A `^` in a block, at the top level or in a hooked body sequence; a
    method's own statement `^` answers from `execute_method`."""
    expr, = kids

    def return_(interp, act, expr=expr):
        raise MethodReturn(act.home, expr(interp, act))
    return return_


def _sequence(node, kids, scopes):
    if not kids:
        return _nil
    if len(kids) == 1:
        return kids[0]
    *init, last = kids
    init = tuple(init)

    def sequence(interp, act, init=init, last=last):
        for stmt in init:
            stmt(interp, act)
        return last(interp, act)
    return sequence


def _block(node, kids, scopes):
    body = kids[0] if kids else _nil

    def block(interp, act, node=node, body=body):
        return Block(node, act, body)
    return block


def _message(node, kids, scopes):
    """A send's closure, from a factory by its shape, so that each closure
    holds only what it uses."""
    selector = node.selector
    # `super` makes a super send, hooked or not: a hook keeps the
    # `var_name` of the node it marks, and only `super` is so named.
    if node.children[0].var_name == "super":
        return _super_send(node, selector, kids[0], kids[1:])
    if _arms(node):
        if selector in LOOPS:
            return _loop(node, selector, *kids)
        return _branch(node, selector, kids[0], kids[1:])
    if len(kids) == 2:
        return _INLINED.get(selector, _send1)(node, selector, *kids)
    if len(kids) == 1:
        return _send0(node, selector, *kids)
    if len(kids) == 3:
        return _send2(node, selector, *kids)
    return _send(node, selector, kids[0], kids[1:])


def _super_send(node, selector, receiver, args):
    def super_send(interp, act, receiver=receiver, args=args,
                   selector=selector, node=node):
        r = receiver(interp, act)
        values = []
        for arg in args:
            values.append(arg(interp, act))
        return interp._send_super(r, selector, values, act, node)
    return super_send


def _send0(node, selector, receiver):
    def send0(interp, act, receiver=receiver, selector=selector, node=node):
        return interp.send(receiver(interp, act), selector, [], act, node)
    return send0


def _send1(node, selector, receiver, arg):
    def send1(interp, act, receiver=receiver, arg=arg, selector=selector,
              node=node):
        return interp.send(receiver(interp, act), selector,
                           [arg(interp, act)], act, node)
    return send1


def _send2(node, selector, receiver, arg1, arg2):
    def send2(interp, act, receiver=receiver, arg1=arg1, arg2=arg2,
              selector=selector, node=node):
        return interp.send(receiver(interp, act), selector,
                           [arg1(interp, act), arg2(interp, act)], act, node)
    return send2


def _send(node, selector, receiver, args):
    def send(interp, act, receiver=receiver, args=args, selector=selector,
             node=node):
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
    def arithmetic(interp, act, receiver=receiver, arg=arg,
                   selector=selector, node=node):
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
    def division(interp, act, receiver=receiver, arg=arg, selector=selector,
                 node=node):
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
    def comparison(interp, act, receiver=receiver, arg=arg,
                   selector=selector, node=node):
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


# The inlined control sends. Each runs only while its send would reach the
# kernel primitive, which `kernel` builds from the same table and keeps as
# the primitive's `op`; else it makes the blocks and sends. The primitive
# would run a block through `call_block`, so an arm's body runs in a block
# activation with the same fields, and a trace, a `^` from the arm,
# `#context` and `halt` see what they would see in the block.

# Boolean: selector -> the argument that runs for true, the one that runs
# for false (None if none does), and what the send answers if none runs.
BRANCHES = {
    "ifTrue:": (0, None, None),
    "ifFalse:": (None, 0, None),
    "ifTrue:ifFalse:": (0, 1, None),
    "ifFalse:ifTrue:": (1, 0, None),
    "and:": (0, None, False),
    "or:": (None, 0, True),
}

# Block: selector -> True if the loop goes on while its receiver answers
# true, False if it goes on while the receiver answers anything else.
LOOPS = {"whileTrue:": True, "whileFalse:": False}


def _branch(node, selector, receiver, bodies):
    """A Boolean send of `BRANCHES` whose arguments are literal blocks, each
    compiled as its `bodies` closure."""
    blocks = tuple(zip(node.children[1:], bodies))
    on_true, on_false, otherwise = BRANCHES[selector]
    true_arm = None if on_true is None else blocks[on_true]
    false_arm = None if on_false is None else blocks[on_false]

    def branch(interp, act, receiver=receiver, true_arm=true_arm,
               false_arm=false_arm, otherwise=otherwise, blocks=blocks,
               selector=selector, node=node):
        r = receiver(interp, act)
        if r.__class__ is bool \
                and interp.bool_methods[selector].op is not None:
            act.current_node = node
            arm = true_arm if r else false_arm
            if arm is None:
                return otherwise
            block, body = arm
            arm = Activation(act.receiver, act.method, act, {}, act,
                             act._home or act)
            arm.current_node = block
            return body(interp, arm)
        return interp.send(r, selector, [Block(block, act, body)
                                         for block, body in blocks],
                           act, node)
    return branch


def _loop(node, selector, condition, body):
    """A Block loop of `LOOPS` whose receiver and argument are literal
    blocks, compiled as their bodies `condition` and `body`."""
    test, block = node.children
    go_on = LOOPS[selector]

    def loop(interp, act, condition=condition, body=body, test=test,
             block=block, go_on=go_on, selector=selector, node=node):
        if interp.block_methods[selector].op is None:
            return interp.send(Block(test, act, condition), selector,
                               [Block(block, act, body)], act, node)
        act.current_node = node
        receiver, method, home = act.receiver, act.method, act._home or act
        while True:
            arm = Activation(receiver, method, act, {}, act, home)
            arm.current_node = test
            if (condition(interp, arm) is True) is not go_on:
                return None
            arm = Activation(receiver, method, act, {}, act, home)
            arm.current_node = block
            body(interp, arm)
    return loop


# -- hooks --------------------------------------------------------------
# A hooked node's closure counts the visit and runs its pending operation
# at the original node `orig` through `_trigger`. A factory of `_HOOKS`
# takes the same `(node, kids, scopes)` as one of `_FACTORIES`, and reads
# `orig` from `node.original`. No hooked send is inlined.

def _hooked(node, kids, scopes):
    """Any other kind: its own kind's closure is the operation."""
    orig = node.original
    perform = _FACTORIES[orig.kind](node, kids, scopes)

    def hooked(interp, act, perform=perform, orig=orig):
        interp.hook_visits += 1
        return interp._trigger(orig, act, partial(perform, interp, act))
    return hooked


def _hooked_send(node, kids, scopes):
    orig = node.original
    receiver, *args = kids
    selector = node.selector
    is_super = node.children[0].var_name == "super"

    def hooked_send(interp, act, receiver=receiver, args=args,
                    selector=selector, is_super=is_super, orig=orig):
        interp.hook_visits += 1
        r = receiver(interp, act)
        values = []
        for arg in args:
            values.append(arg(interp, act))
        send = interp._send_super if is_super else interp.send
        return interp._trigger(orig, act, partial(
            send, r, selector, values, act, orig), r, values)
    return hooked_send


def _hooked_assignment(node, kids, scopes):
    """The operation writes the temps the name resolved to, as
    `_assignment` does; only a name no temp binds goes to `write_var`."""
    orig = node.original
    name = node.var_name
    expr, = kids
    depth = _depth(name, scopes)

    def hooked_assignment(interp, act, name=name, expr=expr, orig=orig,
                          up=range(depth or 0), temp=depth is not None):
        interp.hook_visits += 1
        value = expr(interp, act)
        if temp:
            scope = act
            for _ in up:
                scope = scope.lexical_parent
            write = partial(_store, scope.temps, name, value)
        else:
            write = partial(interp.write_var, name, value, act, orig)
        return interp._trigger(orig, act, write, None, None, value)
    return hooked_assignment


def _store(temps, name, value):
    temps[name] = value
    return value


def _hooked_return(node, kids, scopes):
    """Control leaves with the value: no after phase."""
    orig = node.original
    expr, = kids

    def hooked_return(interp, act, expr=expr, orig=orig):
        interp.hook_visits += 1
        value = expr(interp, act)
        raise MethodReturn(act.home, interp._trigger(
            orig, act, lambda: value, None, None, value, False))
    return hooked_return


def _hooked_block(node, kids, scopes):
    """The block fires its links at each call, not at its creation."""
    entry = _entry(node.original, kids[0] if kids else _nil, node.params)

    def hooked_block(interp, act, node=node, entry=entry):
        interp.hook_visits += 1
        return Block(node, act, entry)
    return hooked_block


def _method_body(statements, ret):
    """A hooked root's body, run as in `execute_method` but inside the
    operation, so that a `^` precedes the after phase. The loop has two
    copies on purpose: when `execute_method` ran every body through this
    closure, a send/nolink execution took 305 bytecodes and 11 calls
    (`bench.counts`) instead of 299 and 9."""
    def body(interp, act, statements=statements, ret=ret):
        try:
            for stmt in statements:
                stmt(interp, act)
            if ret is not None:
                return ret(interp, act)
        except MethodReturn as mr:
            if mr.target is act:
                return mr.value
            raise
        return act.receiver
    return body


def _entry(orig, body, params):
    """The code of a hooked method root or block: it runs `body` under the
    entry links of `orig`, whose arguments are the values of `params`."""
    def entry(interp, act, body=body, orig=orig, params=params):
        return interp._trigger(orig, act, partial(body, interp, act), None,
                               list(map(act.temps.__getitem__, params)))
    return entry


_HOOKS = {
    MESSAGE_SEND: _hooked_send,
    ASSIGNMENT: _hooked_assignment,
    RETURN: _hooked_return,
    BLOCK: _hooked_block,
}

# Node kind -> factory `f(node, kids, scopes)`, `kids` being the closures
# of the node's children.
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
    META_HOOK: lambda node, kids, scopes: _HOOKS.get(
        node.original.kind, _hooked)(node, kids, scopes),
}
