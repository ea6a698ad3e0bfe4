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
* A send of `COUNTS` (`to:do:`, `timesRepeat:`) whose last argument is a
  literal block with the parameters the count binds runs the loop of the
  kernel's language method for it, with the block's body as its step. It
  makes the activations that method would: its own, holding its arguments
  and `i`, at its `whileTrue:` send, and at each step the `whileTrue:`
  arm's, at the send that calls the block, and the block's. This holds
  while the receiver, and for `to:do:` a stop below INT_MAX, are ints,
  Integer's method is still the kernel's and has no twin, and the
  primitives its loop runs are still the methods; otherwise the closure
  makes the `Block` and sends.
* A node is hooked when its id is a key of the twin's `hook_table`; a
  hook factory receives the original node. Its closure runs the pending
  operation through `Interpreter._trigger`, which consults the registry
  as it runs. A hooked method root adds the method-entry trigger, and a
  hooked block the block-call trigger. A hooked control send, or one with
  a hooked block, is not inlined.

Nothing is stored on a node: the kernel's AST is shared by every
interpreter. A closure holds nodes, names and closures as parameter
defaults, never an interpreter or a class, so reference counting frees
compiled code; a free variable would cost a cell, one more object for
the cyclic GC to track. Closures are only ever called with
`(interp, act)`. The compiler keeps its own stack, so a chain of any
depth compiles.
"""

from __future__ import annotations

from functools import cache, partial

from .errors import MethodReturn, MkRuntimeError
from .nodes import (
    ASSIGNMENT, BLOCK, LITERAL, LITERAL_ARRAY, MESSAGE_SEND, RETURN,
    SELF_REF, SEQUENCE, TEMP_DECL, VAR_READ, find_nodes, value_selector,
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
        mdef, copies, hooks = record.original_ast, (), {}
    else:
        mdef, copies, hooks = twin.woven_ast, twin.copies, twin.hook_table
    shared = record.shared
    scopes = ((*mdef.params, *mdef.temps),)
    body = mdef.children[-1]
    statements = []
    ret = None
    # A hooked body sequence is one statement, and a hooked `^` raises.
    for stmt in (body.children if body.kind == SEQUENCE
                 and body.id not in hooks else (body,)):
        if stmt.kind == RETURN and stmt.id not in hooks:
            ret = _compile(stmt.children[0], scopes, copies, shared, hooks)
            break
        statements.append(_compile(stmt, scopes, copies, shared, hooks))
    code = tuple(statements), ret
    if mdef.id in hooks:
        code = (_visit,), _entry(hooks[mdef.id], _method_body(*code),
                                 mdef.params)
    (twin or record).code = code
    return code


def compile_top(main):
    """A run's top-level sequence as one closure answering its value."""
    return _compile(main, (main.temps,))


def _compile(root, scopes, copies=None, shared=None, hooks={}):
    """The closure of `root`, built children first from an explicit stack.
    `scopes` holds the names of each enclosing activation's temps,
    innermost first. Given a twin's `copies`, a node not among them is
    shared with the original: its closure comes from `shared`, or is
    compiled once and kept there. A node whose id is in `hooks`, the
    twin's hook table, compiles by a factory of `_HOOKS`, given the
    original node."""
    done = []
    todo = [(root, scopes, None)]
    while todo:
        node, scopes, factory = todo.pop()
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
        if not children and node.id not in hooks:
            done.append(_FACTORIES[node.kind](node, (), scopes))
        elif factory is not None:   # its children are compiled
            first = len(done) - len(children)
            kids = done[first:]
            del done[first:]
            done.append(factory(node, kids, scopes))
        else:
            arms = _arms(node, hooks)
            if node.id in hooks:    # from here on, the original node
                factory = _HOOKS.get(node.kind, _hooked)
                node = hooks[node.id]
            elif arms:
                factory = _CONTROL[node.selector]
            else:
                factory = _FACTORIES[node.kind]
            if not children:        # a hooked leaf
                done.append(factory(node, (), scopes))
                continue
            todo.append((node, scopes, factory))
            if node.kind == BLOCK:
                scopes = (node.params, *scopes)
            for child in reversed(children):
                if child in arms:   # its body, in an activation of its own
                    todo.append((child.children[0] if child.children
                                 else None, (child.params, *scopes), None))
                else:
                    todo.append((child, scopes, None))
    return done[0]


def _arms(node, hooks):
    """The literal blocks that an inlined control send runs itself, or ()
    if `node` is not one: a send of a `BRANCHES` selector whose arguments,
    or of a `LOOPS` selector whose receiver and argument, are literal
    blocks without parameters, or of a `COUNTS` selector whose last
    argument is a literal block with the parameters it counts with, where
    neither the send nor a block is in `hooks`, the twin's hook table."""
    if node.kind != MESSAGE_SEND or node.id in hooks:
        return ()
    selector = node.selector
    if selector in LOOPS:
        blocks, arity = node.children, 0
    elif node.children[0].var_name == "super":
        return ()
    elif selector in BRANCHES:
        blocks, arity = node.children[1:], 0
    elif selector in COUNTS:
        blocks, arity = node.children[-1:], COUNTS[selector]
    else:
        return ()
    for block in blocks:
        if block.kind != BLOCK or len(block.params) != arity \
                or block.id in hooks:
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
    if node.children[0].var_name == "super":
        return _super_send(node, selector, kids[0], kids[1:])
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


def _branch(node, kids, scopes):
    """A Boolean send of `BRANCHES` whose arguments are literal blocks,
    each compiled as its body's closure in `kids`, after the receiver's."""
    selector = node.selector
    receiver, *bodies = kids
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


def _loop(node, kids, scopes):
    """A Block loop of `LOOPS` whose receiver and argument are literal
    blocks, compiled as their bodies' closures in `kids`."""
    selector = node.selector
    condition, body = kids
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


# Integer: selector -> the parameters of the block it is sent with. The
# kernel writes these loops in the language (`kernel.KERNEL_SOURCE`):
#   timesRepeat: aBlock [ | i | i := 0.
#       [ i < self ] whileTrue: [ aBlock value. i := i + 1 ] ]
#   to: stop do: aBlock [ | i | i := self.
#       [ i <= stop ] whileTrue: [ aBlock value: i. i := i + 1 ] ]
# An inlined count runs that loop in place of the send. Its trace, `halt`,
# `#context` and a `^` from the block see what they would see: the
# method's activation, with its arguments and `i`, at its `whileTrue:`
# send; the `whileTrue:` arm's activation at the send that calls the
# block; and the block's activation. Each holds the kernel's own nodes.
COUNTS = {"timesRepeat:": 0, "to:do:": 1}


@cache
def _kernel_count(selector):
    """What an inlined count needs of the kernel's `Integer>>selector`:
    its root, its `whileTrue:` send, the send calling the block, the names
    of its arguments and of `i`, and the selectors of the primitives its
    loop runs, which must still be the methods."""
    from .kernel import kernel_program  # the kernel imports this module
    mdef, = (m for c in kernel_program().classes if c.name == "Integer"
             for m in c.children if m.selector == selector)
    loop, = find_nodes(mdef, "sends-of", "whileTrue:")
    call = value_selector(COUNTS[selector])
    send, = find_nodes(mdef, "sends-of", call)
    compare, = find_nodes(loop.children[0], "all-sends")
    return mdef, loop, send, mdef.params, mdef.temps[0], \
        (compare.selector, "+"), ("whileTrue:", call)


def _kernel_record(interp, selector, mdef, ints, blocks):
    """Integer's record for `selector` while an inlined count may run in
    its place: the kernel's, with no twin, while the Integer primitives of
    `ints` and the Block ones of `blocks` that its loop runs are still the
    methods; else None. Like `_loop`, a count checks once, as it starts."""
    int_methods = interp.int_methods
    record = int_methods[selector]
    if record.original_ast is not mdef or record.twin is not None:
        return None
    for op in ints:
        if int_methods[op].op is None:
            return None
    block_methods = interp.block_methods
    for op in blocks:
        if block_methods[op].op is None:
            return None
    return record


def _to_do(node, kids, scopes):
    """`r to: s do: [:i | ...]`, the block compiled as its body's closure,
    last in `kids`. It runs inlined while `r` and `s` are ints and `s`
    is below INT_MAX, so the kernel's `i + 1` cannot overflow."""
    receiver, stop, body = kids
    block = node.children[-1]
    param, = block.params
    mdef, loop, send, (stop_name, block_name), i_name, ints, blocks = \
        _kernel_count(node.selector)

    def to_do(interp, act, receiver=receiver, stop=stop, body=body,
              block=block, param=param, node=node, mdef=mdef, loop=loop,
              send=send, stop_name=stop_name, block_name=block_name,
              i_name=i_name, ints=ints, blocks=blocks):
        r = receiver(interp, act)
        s = stop(interp, act)
        act.current_node = node
        code = Block(block, act, body)
        if r.__class__ is int and s.__class__ is int and s < INT_MAX:
            record = _kernel_record(interp, "to:do:", mdef, ints, blocks)
            if record is not None:
                method = Activation(r, record, act, {
                    stop_name: s, block_name: code, i_name: r})
                method.current_node = loop
                temps = method.temps
                home = act._home or act
                for i in range(r, s + 1):
                    temps[i_name] = i
                    arm = Activation(r, record, method, {}, method, method)
                    arm.current_node = send
                    arm = Activation(home.receiver, home.method, arm,
                                     {param: i}, act, home)
                    arm.current_node = block
                    body(interp, arm)
                return r
        return interp.send(r, "to:do:", [s, code], act, node)
    return to_do


def _times_repeat(node, kids, scopes):
    """`n timesRepeat: [ ... ]`, the block compiled as its body's closure,
    last in `kids`. It runs inlined while `n` is an int."""
    receiver, body = kids
    block = node.children[-1]
    mdef, loop, send, (block_name,), i_name, ints, blocks = \
        _kernel_count(node.selector)

    def times_repeat(interp, act, receiver=receiver, body=body, block=block,
                     node=node, mdef=mdef, loop=loop, send=send,
                     block_name=block_name, i_name=i_name, ints=ints,
                     blocks=blocks):
        r = receiver(interp, act)
        act.current_node = node
        code = Block(block, act, body)
        if r.__class__ is int:
            record = _kernel_record(interp, "timesRepeat:", mdef, ints,
                                    blocks)
            if record is not None:
                method = Activation(r, record, act, {block_name: code,
                                                     i_name: 0})
                method.current_node = loop
                temps = method.temps
                home = act._home or act
                for i in range(r):
                    temps[i_name] = i
                    arm = Activation(r, record, method, {}, method, method)
                    arm.current_node = send
                    arm = Activation(home.receiver, home.method, arm, {},
                                     act, home)
                    arm.current_node = block
                    body(interp, arm)
                return r
        return interp.send(r, "timesRepeat:", [code], act, node)
    return times_repeat


# -- hooks --------------------------------------------------------------
# A hooked node's closure counts the visit and runs its pending operation
# at the original node `orig` through `_trigger`. A factory of `_HOOKS`
# takes the same `(node, kids, scopes)` as one of `_FACTORIES`, but its
# node is the original, which `_compile` finds in the twin's hook table;
# `kids` are the closures of the twin's children. No hooked send is
# inlined.

def _hooked(orig, kids, scopes):
    """Any other kind: its own kind's closure is the operation."""
    perform = _FACTORIES[orig.kind](orig, kids, scopes)

    def hooked(interp, act, perform=perform, orig=orig):
        interp.hook_visits += 1
        return interp._trigger(orig, act, partial(perform, interp, act))
    return hooked


def _hooked_send(orig, kids, scopes):
    receiver, *args = kids
    selector = orig.selector
    is_super = orig.children[0].var_name == "super"

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


def _hooked_assignment(orig, kids, scopes):
    """The operation writes the temps the name resolved to, as
    `_assignment` does; only a name no temp binds goes to `write_var`."""
    name = orig.var_name
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


def _hooked_return(orig, kids, scopes):
    """Control leaves with the value: no after phase."""
    expr, = kids

    def hooked_return(interp, act, expr=expr, orig=orig):
        interp.hook_visits += 1
        value = expr(interp, act)
        raise MethodReturn(act.home, interp._trigger(
            orig, act, lambda: value, None, None, value, False))
    return hooked_return


def _hooked_block(orig, kids, scopes):
    """The block fires its links at each call, not at its creation; the
    `Block` it makes holds the original node."""
    entry = _entry(orig, kids[0] if kids else _nil, orig.params)

    def hooked_block(interp, act, orig=orig, entry=entry):
        interp.hook_visits += 1
        return Block(orig, act, entry)
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

# Selector -> factory of an inlined control send (`_arms`).
_CONTROL = {**dict.fromkeys(BRANCHES, _branch), **dict.fromkeys(LOOPS, _loop),
            "timesRepeat:": _times_repeat, "to:do:": _to_do}

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
}
