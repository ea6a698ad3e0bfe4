"""Seeded mklang classes with a plain-Python reference evaluator.

A generated class is a tree of tuples. `render_class` turns it into mklang
source and `Evaluator` computes what its methods answer without mklang.
The seed picks literals, variables, operators and sites; the *shape* of
every method (statements, expression depth, calls) is fixed by its size
class, so every seed gives methods with the same node counts and the
same amount of work.

Expressions:
    ("lit", int) | ("slot", name) | ("param",) | ("temp", name)
    ("bin", op, left, right)         -> ((left op right) \\\\ 997)
    ("if", a, b, then, else)         -> ((a < b) ifTrue: [then] ifFalse: [else])
    ("call", selector, arg)          -> (self selector arg)
Statements:
    ("set", name, expr)              -> name := expr   (slot or temp)
    ("ret", expr)                    -> ^ expr
"""

from __future__ import annotations

from dataclasses import dataclass, field

MOD = 997
OPS = ("+", "-", "*")


@dataclass(frozen=True)
class Shape:
    """Fixed structure of one method: `assigns` statements whose right
    sides are full binary trees of `depth`, then a conditional return."""

    assigns: int
    depth: int


SMALL = Shape(assigns=2, depth=2)
MEDIUM = Shape(assigns=4, depth=3)
LARGE = Shape(assigns=8, depth=4)


@dataclass
class GenMethod:
    selector: str              # always one keyword argument, `p`
    temps: list
    body: list                 # statements


@dataclass
class GenClass:
    name: str
    slots: list
    init: dict                 # slot -> initial integer
    methods: list = field(default_factory=list)


def _leaf(rng, slots, temps):
    roll = rng.randrange(4)
    if roll == 0:
        return ("lit", rng.randrange(10))
    if roll == 1:
        return ("param",)
    if roll == 2 and temps:
        return ("temp", rng.choice(temps))
    return ("slot", rng.choice(slots))


def gen_expr(rng, slots, temps, depth):
    """Full binary tree: 2**depth leaves, every inner node one operator."""
    if depth == 0:
        return _leaf(rng, slots, temps)
    return ("bin", rng.choice(OPS), gen_expr(rng, slots, temps, depth - 1),
            gen_expr(rng, slots, temps, depth - 1))


def gen_method(rng, selector, slots, shape, callee=None, first_target=None):
    """One method of the given shape. `callee` (a selector) adds exactly one
    call in the return expression; `first_target` forces the slot the first
    slot assignment writes (used to guarantee a watched slot is written)."""
    temps = []
    body = []
    for i in range(shape.assigns):
        expr = gen_expr(rng, slots, temps, shape.depth)
        if i % 2 == 0:
            name = "t%d" % i
            temps.append(name)
        elif i == 1 and first_target is not None:
            name = first_target
        else:
            name = rng.choice(slots)
        body.append(("set", name, expr))
    branch = max(shape.depth - 1, 0)
    cond = ("if", _leaf(rng, slots, temps), _leaf(rng, slots, temps),
            gen_expr(rng, slots, temps, branch),
            gen_expr(rng, slots, temps, branch))
    tail = gen_expr(rng, slots, temps, branch)
    if callee is not None:
        tail = ("bin", rng.choice(OPS), tail,
                ("call", callee, gen_expr(rng, slots, temps, 1)))
    body.append(("ret", ("bin", rng.choice(OPS), cond, tail)))
    return GenMethod(selector, temps, body)


def gen_class(rng, name, slots, shapes, chain=False, watched=None):
    """A class with one method per entry of `shapes`, named m0:, m1:, ...
    With `chain`, method i calls method i-1, so one call of the last runs
    every method once."""
    cls = GenClass(name, list(slots), {s: rng.randrange(10) for s in slots})
    for i, shape in enumerate(shapes):
        callee = "m%d:" % (i - 1) if chain and i > 0 else None
        cls.methods.append(gen_method(rng, "m%d:" % i, cls.slots, shape,
                                      callee, first_target=watched))
    return cls


# -- rendering ------------------------------------------------------------

def render_expr(e):
    tag = e[0]
    if tag == "lit":
        return str(e[1])
    if tag == "slot" or tag == "temp":
        return e[1]
    if tag == "param":
        return "p"
    if tag == "bin":
        return "((%s %s %s) \\\\ %d)" % (render_expr(e[2]), e[1],
                                       render_expr(e[3]), MOD)
    if tag == "if":
        return "((%s < %s) ifTrue: [ %s ] ifFalse: [ %s ])" % (
            render_expr(e[1]), render_expr(e[2]), render_expr(e[3]),
            render_expr(e[4]))
    if tag == "call":
        return "(self %s %s)" % (e[1], render_expr(e[2]))
    raise ValueError("unknown expression %r" % (tag,))


def render_method(m):
    stmts = []
    for s in m.body:
        if s[0] == "set":
            stmts.append("%s := %s" % (s[1], render_expr(s[2])))
        else:
            stmts.append("^ %s" % render_expr(s[1]))
    temps = "| %s | " % " ".join(m.temps) if m.temps else ""
    return "%s p [ %s%s ]" % (m.selector, temps, ". ".join(stmts))


def render_class(cls):
    init = ". ".join("%s := %d" % (s, cls.init[s]) for s in cls.slots)
    lines = ["class %s [ | %s |" % (cls.name, " ".join(cls.slots)),
             "    initialize [ %s ]" % init]
    lines += ["    " + render_method(m) for m in cls.methods]
    lines.append("]")
    return "\n".join(lines)


# -- reference evaluation -------------------------------------------------

class Evaluator:
    """Plain-Python semantics of generated methods on one object."""

    def __init__(self, cls):
        self.methods = {m.selector: m for m in cls.methods}
        self.slots = dict(cls.init)

    def send(self, selector, p):
        m = self.methods[selector]
        temps = {}
        for s in m.body:
            if s[0] == "set":
                value = self._eval(s[2], p, temps)
                if s[1] in m.temps:
                    temps[s[1]] = value
                else:
                    self.slots[s[1]] = value
            else:
                return self._eval(s[1], p, temps)
        raise ValueError("method %s has no return" % selector)

    def _eval(self, e, p, temps):
        tag = e[0]
        if tag == "lit":
            return e[1]
        if tag == "slot":
            return self.slots[e[1]]
        if tag == "temp":
            return temps[e[1]]
        if tag == "param":
            return p
        if tag == "bin":
            left = self._eval(e[2], p, temps)
            right = self._eval(e[3], p, temps)
            if e[1] == "+":
                v = left + right
            elif e[1] == "-":
                v = left - right
            else:
                v = left * right
            return v % MOD
        if tag == "if":
            a = self._eval(e[1], p, temps)
            b = self._eval(e[2], p, temps)
            return self._eval(e[3] if a < b else e[4], p, temps)
        if tag == "call":
            return self.send(e[1], self._eval(e[2], p, temps))
        raise ValueError("unknown expression %r" % (tag,))


def fresh_value(cls, selector, p):
    """What `selector` answers on a freshly initialized instance."""
    return Evaluator(cls).send(selector, p)
