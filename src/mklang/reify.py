"""Reification of execution-context entities for firing links.

Each reification kind applies only to certain node categories; requesting
an inapplicable kind is rejected at install time and again at resolve
time. Some kinds additionally exist only in certain phases (a message
send's value does not exist before the send ran).

`APPLICABILITY` is the one copy of which kind applies where. `resolve`
is called once per reification (the traced benchmark counts the calls)
and finds its resolver with one lookup by kind and by the node's own
kind, in a table derived from `APPLICABILITY`; only a request that fails
works out the node's category, to name it in the error. A resolver that
reads one field of the `TriggerContext` is an `attrgetter`, and starts
no Python frame.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import AlreadyInvoked, InapplicableReification, PhaseUnavailable
from .nodes import (
    ASSIGNMENT, BLOCK, KINDS, MESSAGE_SEND, METHOD_DEF, RETURN, VAR_READ,
)
from .values import Instance, Symbol

_ANY = frozenset({"message", "method", "block", "variable", "assignment",
                  "return", "other"})

# Kind -> node categories it can be requested for. `index` is deliberately
# absent: the language has only named slots, so requesting it always fails.
APPLICABILITY = {
    "arguments": frozenset({"message", "method", "block"}),
    "class": _ANY,
    "receiver": frozenset({"message", "method"}),
    "entity": _ANY,
    "link": _ANY,
    "method": _ANY,
    "originalMethod": _ANY,
    "name": frozenset({"variable", "assignment"}),
    "newValue": frozenset({"variable", "assignment"}),
    "node": _ANY,
    "object": _ANY,
    "operation": _ANY,
    "selector": frozenset({"message", "method"}),
    "sender": frozenset({"message", "method"}),
    "context": _ANY,
    "value": frozenset({"variable", "assignment", "message", "return"}),
    "variable": _ANY,
}


def check_applicable(kind, node_table_kind):
    """Raise InapplicableReification unless `kind` may be reified at nodes
    of `node_table_kind`."""
    allowed = APPLICABILITY.get(kind)
    if allowed is None:
        raise InapplicableReification("unsupported reification #%s" % kind)
    if node_table_kind not in allowed:
        raise InapplicableReification(
            "#%s is not applicable to %s nodes" % (kind, node_table_kind))


_TABLE_KIND = {
    MESSAGE_SEND: "message",
    METHOD_DEF: "method",
    BLOCK: "block",
    VAR_READ: "variable",
    ASSIGNMENT: "assignment",
    RETURN: "return",
}


def table_kind(node) -> str:
    return _TABLE_KIND.get(node.kind, "other")


class TriggerContext:
    """Everything a firing link may reify at one hook activation.

    `Interpreter._trigger` is the one place that makes a context. It has
    no `__init__`, so making one starts no Python frame: `_trigger` sets
    every field itself. `node` is the original node the hook copies, whose
    kind files its resolvers. `perform` is the pending base operation. Its
    `OperationWrapper` is built on the first `#operation` request and kept
    in `operation`, so every link of one trigger gets the same object, and
    a trigger whose links ask for none builds none. Once the base ran
    without a wrapper, `perform` is None."""

    __slots__ = ("interp", "node", "activation", "phase", "perform",
                 "pending_receiver", "pending_args", "pending_value",
                 "operation", "current_link")


class OperationWrapper:
    """One-shot executable wrapper around the pending base operation; a
    wrapper without a thunk stands for one that already ran."""

    __slots__ = ("node", "_thunk", "invoked", "result")

    def __init__(self, thunk, node):
        self._thunk = thunk
        self.node = node
        self.invoked = thunk is None
        self.result = None

    def invoke(self):
        if self.invoked:
            raise AlreadyInvoked("the base operation was already performed")
        self.invoked = True
        self.result = self._thunk()
        return self.result

    def invoke_base(self):
        """Evaluator-side entry: if a link already performed the operation
        through the wrapper, reuse its value instead of running twice."""
        if self.invoked:
            return self.result
        return self.invoke()

    def describe(self):
        return "an Operation(%s)" % self.node.kind


# --- mirrors ---------------------------------------------------------------

class NodeMirror:
    """Language-level handle on an original (unwoven) AST node."""

    __slots__ = ("node",)

    def __init__(self, node):
        self.node = node

    def describe(self):
        extra = self.node.selector or self.node.var_name or ""
        if extra:
            return "%s(%s)" % (self.node.kind, extra)
        return self.node.kind


class MethodMirror:
    """Handle on a compiled method; `woven=True` mirrors the executing
    twin, otherwise the original definition."""

    __slots__ = ("record", "woven")

    def __init__(self, record, woven=False):
        self.record = record
        self.woven = woven

    @property
    def ast_root(self):
        if self.woven and self.record.twin is not None:
            return self.record.twin.woven_ast
        return self.record.original_ast

    def describe(self):
        sig = self.record.signature
        tag = " (woven)" if self.woven and self.record.twin else ""
        return "%s>>%s%s" % (sig.class_name, sig.selector, tag)


class ContextMirror:
    """Read-only view of an activation: receiver, selector, a snapshot of
    the temps, and the sender chain."""

    __slots__ = ("receiver", "selector", "temps", "sender_activation")

    def __init__(self, activation):
        self.receiver = activation.receiver
        self.selector = (activation.method.signature.selector
                         if activation.method is not None else None)
        self.temps = dict(activation.temps)
        self.sender_activation = activation.sender

    def sender(self):
        if self.sender_activation is None:
            return None
        return ContextMirror(self.sender_activation)

    def describe(self):
        return "context(%s)" % (self.selector or "top-level")


class VariableMirror:
    """The binding a variable node reads or writes, read live from the
    mapping `Interpreter.scope_of` found the name in."""

    __slots__ = ("kind", "name", "scope")

    def __init__(self, kind, name, scope):
        self.kind = kind       # 'temp' | 'slot' | 'global' | 'class'
        self.name = name
        self.scope = scope     # temps | slots | globals | classes

    def read(self):
        return self.scope.get(self.name)

    def describe(self):
        return "variable(%s %s)" % (self.kind, self.name)


# --- resolution ------------------------------------------------------------

def _phase_error(kind, ctx):
    raise PhaseUnavailable(
        "#%s is not available on a %s node in %s phase"
        % (kind, table_kind(ctx.node), ctx.phase))


def resolve(kind, ctx: TriggerContext):
    """Produce the reified value for `kind` from a trigger context. One
    lookup by the node's kind finds the resolver and checks applicability;
    only an inapplicable request works out the node's category."""
    try:
        resolver = _RESOLVERS[kind][ctx.node.kind]
    except KeyError:
        check_applicable(kind, table_kind(ctx.node))
        raise
    return resolver(ctx)


def _arguments(ctx):
    return ctx.interp.new_array(list(ctx.pending_args))


def _receiver(ctx):
    if ctx.node.kind == MESSAGE_SEND:
        return ctx.pending_receiver
    return ctx.activation.receiver


def _new_value(ctx):
    if ctx.node.kind != ASSIGNMENT:
        _phase_error("newValue", ctx)  # a read never changes the value
    return ctx.pending_value


def _selector(ctx):
    if ctx.node.kind == MESSAGE_SEND:
        return Symbol(ctx.node.selector)
    return Symbol(ctx.activation.method.signature.selector)


def _sender(ctx):
    sender = ctx.activation.sender
    if sender is None:
        return None
    return ContextMirror(sender)


def _resolve_value(ctx):
    nk = ctx.node.kind
    phase = ctx.phase
    if nk == ASSIGNMENT:
        return ctx.pending_value
    if nk == RETURN:
        if phase in ("before", "instead"):
            return ctx.pending_value
        _phase_error("value", ctx)
    # message sends and variable reads produce their value only afterwards
    if phase != "after":
        _phase_error("value", ctx)
    return ctx.pending_value


def _operation(ctx):
    op = ctx.operation
    if op is None:
        op = ctx.operation = OperationWrapper(ctx.perform, ctx.node)
    return op


def _variable_mirror(ctx):
    """The binding a read of the node's name finds now. A name bound
    nowhere yet mirrors the global a top-level write would create."""
    if ctx.node.kind not in (VAR_READ, ASSIGNMENT):
        return None
    interp = ctx.interp
    name = ctx.node.var_name
    scope = interp.scope_of(name, ctx.activation)
    if scope is None or scope is interp.globals:
        return VariableMirror("global", name, interp.globals)
    if scope is interp.classes:
        return VariableMirror("class", name, scope)
    recv = ctx.activation.receiver
    if isinstance(recv, Instance) and scope is recv.slots:
        return VariableMirror("slot", name, scope)
    return VariableMirror("temp", name, scope)


# Kind -> function of the trigger context. A field of the context is read
# by an `attrgetter`, which starts no Python frame.
_RESOLVERS = {
    "arguments": _arguments,
    "class": lambda ctx: ctx.interp.class_of(ctx.activation.receiver),
    "receiver": _receiver,
    "entity": lambda ctx: MethodMirror(ctx.activation.method),
    "link": attrgetter("current_link"),
    "method": lambda ctx: MethodMirror(ctx.activation.method, woven=True),
    "originalMethod": lambda ctx: MethodMirror(ctx.activation.method),
    "name": attrgetter("node.var_name"),
    "newValue": _new_value,
    "node": lambda ctx: NodeMirror(ctx.node),
    "object": attrgetter("activation.receiver"),
    "operation": _operation,
    "selector": _selector,
    "sender": _sender,
    "context": lambda ctx: ContextMirror(ctx.activation),
    "value": _resolve_value,
    "variable": _variable_mirror,
}
# ... filed under each node kind whose category the kind applies to, so
# `resolve`'s one lookup by `node.kind` checks applicability too.
_RESOLVERS = {kind: {nk: fn for nk in KINDS
                     if _TABLE_KIND.get(nk, "other") in APPLICABILITY[kind]}
              for kind, fn in _RESOLVERS.items()}
