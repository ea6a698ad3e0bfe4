"""Reification of execution-context entities for firing links.

Each reification kind applies only to certain node categories; requesting
an inapplicable kind is rejected at install time and again at resolve
time. Some kinds additionally exist only in certain phases (a message
send's value does not exist before the send ran).
"""

from __future__ import annotations

from .errors import AlreadyInvoked, InapplicableReification, PhaseUnavailable
from .nodes import (
    ASSIGNMENT, BLOCK, MESSAGE_SEND, METHOD_DEF, RETURN, VAR_READ,
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
    """Everything a firing link may reify at one hook activation."""

    __slots__ = ("interp", "node", "table_kind", "activation", "phase",
                 "pending_receiver", "pending_args", "pending_value",
                 "operation", "current_link")

    def __init__(self, interp, node, activation, pending_receiver=None,
                 pending_args=None, pending_value=None, operation=None):
        self.interp = interp
        self.node = node
        self.table_kind = _TABLE_KIND.get(node.kind, "other")
        self.activation = activation
        self.phase = "before"
        self.pending_receiver = pending_receiver
        self.pending_args = pending_args
        self.pending_value = pending_value
        self.operation = operation
        self.current_link = None


class OperationWrapper:
    """One-shot executable wrapper around the pending base operation."""

    __slots__ = ("node", "_thunk", "invoked", "result")
    mk_class_name = "Operation"

    def __init__(self, thunk, node):
        self._thunk = thunk
        self.node = node
        self.invoked = False
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

    __slots__ = ("interp", "node")
    mk_class_name = "NodeMirror"

    def __init__(self, interp, node):
        self.interp = interp
        self.node = node

    def describe(self):
        extra = self.node.selector or self.node.var_name or ""
        if extra:
            return "%s(%s)" % (self.node.kind, extra)
        return self.node.kind


class MethodMirror:
    """Handle on a compiled method; `woven=True` mirrors the executing
    twin, otherwise the original definition."""

    __slots__ = ("interp", "record", "woven")
    mk_class_name = "MethodMirror"

    def __init__(self, interp, record, woven=False):
        self.interp = interp
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

    __slots__ = ("interp", "receiver", "selector", "temps", "sender_activation")
    mk_class_name = "ContextMirror"

    def __init__(self, interp, activation):
        self.interp = interp
        self.receiver = activation.receiver
        self.selector = (activation.method.signature.selector
                         if activation.method is not None else None)
        self.temps = dict(activation.temps)
        self.sender_activation = activation.sender

    def sender(self):
        if self.sender_activation is None:
            return None
        return ContextMirror(self.interp, self.sender_activation)

    def describe(self):
        return "context(%s)" % (self.selector or "top-level")


class VariableMirror:
    """A variable (slot, temp, or global) with a live read path."""

    __slots__ = ("interp", "kind", "name", "holder")
    mk_class_name = "VariableMirror"

    def __init__(self, interp, kind, name, holder):
        self.interp = interp
        self.kind = kind       # 'slot' | 'temp' | 'global'
        self.name = name
        self.holder = holder   # Instance | Activation | Interpreter

    def read(self):
        if self.kind == "slot":
            return self.holder.slots.get(self.name)
        if self.kind == "temp":
            return self.holder.temps.get(self.name)
        return self.interp.globals.get(self.name)

    def describe(self):
        return "variable(%s %s)" % (self.kind, self.name)


# --- resolution ------------------------------------------------------------

def _phase_error(kind, ctx):
    raise PhaseUnavailable(
        "#%s is not available on a %s node in %s phase"
        % (kind, ctx.table_kind, ctx.phase))


def resolve(kind, ctx: TriggerContext):
    """Produce the reified value for `kind` from a trigger context."""
    node_kind = ctx.table_kind
    allowed = APPLICABILITY.get(kind)
    if allowed is None:
        raise InapplicableReification("unsupported reification #%s" % kind)
    if node_kind not in allowed:
        raise InapplicableReification(
            "#%s is not applicable to %s nodes" % (kind, node_kind))
    return _RESOLVERS[kind](ctx)


def _arguments(ctx):
    args = ctx.pending_args
    if ctx.table_kind == "message":
        return ctx.interp.new_array(list(args or ()))
    return ctx.interp.new_array(
        list(args if args is not None else ctx.activation.arguments))


def _receiver(ctx):
    if ctx.table_kind == "message":
        return ctx.pending_receiver
    return ctx.activation.receiver


def _new_value(ctx):
    if ctx.table_kind != "assignment":
        _phase_error("newValue", ctx)  # a read never changes the value
    return ctx.pending_value


def _selector(ctx):
    if ctx.table_kind == "message":
        return Symbol(ctx.node.selector)
    return Symbol(ctx.activation.method.signature.selector)


def _sender(ctx):
    sender = ctx.activation.sender
    if sender is None:
        return None
    return ContextMirror(ctx.interp, sender)


def _resolve_value(ctx):
    nk = ctx.table_kind
    phase = ctx.phase
    if nk == "assignment":
        return ctx.pending_value
    if nk == "return":
        if phase in ("before", "instead"):
            return ctx.pending_value
        _phase_error("value", ctx)
    # message sends and variable reads produce their value only afterwards
    if phase != "after":
        _phase_error("value", ctx)
    return ctx.pending_value


def _owning_method_mirror(ctx, woven):
    record = ctx.interp.node_owner.get(ctx.node.id)
    if record is None:
        return None
    return MethodMirror(ctx.interp, record, woven=woven)


def _variable_mirror(ctx):
    if ctx.table_kind not in ("variable", "assignment"):
        return None
    interp = ctx.interp
    name = ctx.node.var_name
    act = ctx.activation
    a = act
    while a is not None:
        if name in a.temps:
            return VariableMirror(interp, "temp", name, a)
        a = a.lexical_parent
    recv = act.receiver
    if isinstance(recv, Instance) and name in recv.slots:
        return VariableMirror(interp, "slot", name, recv)
    return VariableMirror(interp, "global", name, interp)


# Kind -> function of the trigger context; `resolve` has already checked
# that the kind applies to the node.
_RESOLVERS = {
    "arguments": _arguments,
    "class": lambda ctx: ctx.interp.class_of(ctx.activation.receiver),
    "receiver": _receiver,
    "entity": lambda ctx: _owning_method_mirror(ctx, False),
    "link": lambda ctx: ctx.current_link,
    "method": lambda ctx: _owning_method_mirror(ctx, True),
    "originalMethod": lambda ctx: _owning_method_mirror(ctx, False),
    "name": lambda ctx: ctx.node.var_name,
    "newValue": _new_value,
    "node": lambda ctx: NodeMirror(ctx.interp, ctx.node),
    "object": lambda ctx: ctx.activation.receiver,
    "operation": lambda ctx: ctx.operation,
    "selector": _selector,
    "sender": _sender,
    "context": lambda ctx: ContextMirror(ctx.interp, ctx.activation),
    "value": _resolve_value,
    "variable": _variable_mirror,
}
