"""Runtime values of the toy language.

Integers, booleans, strings and nil are plain Python int/bool/str/None.
Everything else is one of the classes below, beside `Activation`, the
record of a running method or block. Identity (`==` in the language) is
Python object identity for reference types and value equality for
immediates; Symbols are interned so both coincide.
"""

from __future__ import annotations

# The range of an Integer: an operation whose result leaves it fails with
# "integer overflow".
INT_MIN = -(2 ** 63)
INT_MAX = 2 ** 63 - 1

_SYMBOLS: dict[str, "Symbol"] = {}


class Symbol(str):
    """Interned selector-like atom (`#foo`)."""

    __slots__ = ()
    is_symbol = True

    def __new__(cls, name):
        existing = _SYMBOLS.get(name)
        if existing is not None:
            return existing
        sym = super().__new__(cls, name)
        _SYMBOLS[name] = sym
        return sym


class Instance:
    """Ordinary object: a class reference plus named slots."""

    __slots__ = ("class_ref", "slots")

    def __init__(self, class_ref, slots):
        self.class_ref = class_ref
        self.slots = slots


class Array:
    """Growable ordered collection; also backs literal arrays."""

    __slots__ = ("class_ref", "items")

    def __init__(self, class_ref, items=None):
        self.class_ref = class_ref
        self.items = items if items is not None else []


class Block:
    """Closure over its defining activation. Its `code` runs its body, under
    the block's links if it was made from a hooked Block node."""

    __slots__ = ("node", "defining_activation", "code")

    def __init__(self, node, defining_activation, code):
        self.node = node
        self.defining_activation = defining_activation
        self.code = code

    @property
    def arity(self):
        return len(self.node.params)


class Activation:
    """One running method or block. A block's activation shares its home
    method activation's `receiver` and `method`."""

    __slots__ = ("receiver", "method", "temps", "sender", "current_node",
                 "lexical_parent", "_home")

    def __init__(self, receiver, method, sender, temps=None,
                 lexical_parent=None, home=None):
        self.receiver = receiver
        self.method = method
        self.temps = {} if temps is None else temps
        self.sender = sender
        self.current_node = None
        self.lexical_parent = lexical_parent
        # None for a method's own activation: pointing at itself would
        # make every activation a reference cycle, left to the cyclic GC.
        self._home = home

    @property
    def home(self):
        """The activation of the method this one runs in; `^` returns
        from it."""
        return self._home or self


class HostFunction:
    """Host-side callable exposed as a language value.

    Answers any selector by calling `fn(*args)`. Used by tools and tests
    to observe triggers without writing meta-behavior in the toy language.
    """

    __slots__ = ("fn", "label")

    def __init__(self, fn, label="a HostFunction"):
        self.fn = fn
        self.label = label


def identical(a, b) -> bool:
    """Language-level identity (`==`): two ints, or two plain strings,
    are identical when equal; any other two values only when they are
    one object (Symbols are interned, so equal Symbols are one)."""
    t = type(a)
    if t is type(b) and (t is int or t is str):
        return a == b
    return a is b
