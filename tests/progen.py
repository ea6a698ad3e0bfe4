"""Random small-program and link-set generator shared by the tests.

Programs are deterministic functions of the RNG: a few classes with
slots and methods (arithmetic kept modular so values never overflow),
plus a driver that prints results. Methods only call methods defined
before them, so every generated program terminates.
"""

from __future__ import annotations

from mklang.links import MetaLink, ReflectiveMethod, _copy, _wrap, descend
from mklang.nodes import CLASS_DEF, TEMP_DECL
from mklang.reify import APPLICABILITY, table_kind
from mklang.values import HostFunction

MOD = 997


def gen_expr(rng, slots, params, callables, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return str(rng.randint(0, 9))
    if roll < 0.5 and slots:
        return rng.choice(slots)
    if roll < 0.6 and params:
        return rng.choice(params)
    if roll < 0.8 and callables:
        sel, arity = rng.choice(callables)
        if arity:
            return "(self %s %s)" % (
                sel, gen_expr(rng, slots, params, callables, depth - 1))
        return "(self %s)" % sel
    op = rng.choice("+-*")
    left = gen_expr(rng, slots, params, callables, depth - 1)
    right = gen_expr(rng, slots, params, callables, depth - 1)
    return "(%s %s %s \\\\ %d)" % (left, op, right, MOD)


def gen_method(rng, index, slots, callables):
    arity = rng.choice((0, 0, 1))
    sel = "m%d:" % index if arity else "m%d" % index
    decl = "m%d: p" % index if arity else sel
    params = ["p"] if arity else []
    temps = []
    stmts = []
    for si in range(rng.randint(1, 3)):
        expr = gen_expr(rng, slots, params, callables)
        roll = rng.random()
        if roll < 0.35 and slots:
            stmts.append("%s := %s" % (rng.choice(slots), expr))
        elif roll < 0.55:
            temp = "t%d" % si
            temps.append(temp)
            stmts.append("%s := %s" % (temp, expr))
        elif roll < 0.7:
            stmts.append("(%s) logCr" % expr)
        else:
            stmts.append(expr)
    # Every method answers an integer, so generated call results can
    # always feed arithmetic.
    stmts.append("^ %s" % gen_expr(rng, slots, params, callables))
    head = "| %s | " % " ".join(temps) if temps else ""
    return sel, arity, "    %s [ %s%s ]" % (decl, head, ". ".join(stmts))


def gen_program(rng):
    """Returns (source, class_specs) where class_specs is
    [(class_name, [(selector, arity), ...]), ...]."""
    specs = []
    chunks = []
    for ci in range(rng.randint(1, 2)):
        cname = "Gen%d" % ci
        slots = ["c%ds%d" % (ci, k) for k in range(rng.randint(1, 2))]
        init = ". ".join("%s := %d" % (s, rng.randint(0, 9)) for s in slots)
        lines = ["    initialize [ %s ]" % init]
        callables = []
        for mi in range(rng.randint(2, 4)):
            sel, arity, line = gen_method(rng, mi, slots, callables)
            lines.append(line)
            callables.append((sel, arity))
        chunks.append("class %s [ | %s |\n%s\n]"
                      % (cname, " ".join(slots), "\n".join(lines)))
        specs.append((cname, callables))
    drv = ["| %s |" % " ".join("v%d" % k for k in range(len(specs)))]
    for k, (cname, _) in enumerate(specs):
        drv.append("v%d := %s new." % (k, cname))
    for _ in range(rng.randint(2, 5)):
        k = rng.randrange(len(specs))
        cname, callables = specs[k]
        sel, arity = rng.choice(callables)
        call = ("v%d %s %d" % (k, sel, rng.randint(0, 9)) if arity
                else "v%d %s" % (k, sel))
        drv.append("(%s) logCr." % call)
    return "\n".join(chunks) + "\n" + "\n".join(drv) + "\n", specs


def user_records(interp):
    from mklang.interpreter import PrimitiveMethod
    records = []
    for name, cls in sorted(interp.classes.items()):
        if name.startswith("Gen"):
            for sel in sorted(cls.methods):
                rec = cls.methods[sel]
                if not isinstance(rec, PrimitiveMethod):
                    records.append(rec)
    return records


def woven_from_scratch(interp, record):
    """A reference twin of `record`, built from the registry alone: the
    root copied, then the path down to each node that has links, and the
    hook table mapping each such id to its original node; None if no node
    of the method has one. Twins edited in place must equal it."""
    linked = interp.registry.linked_ids(record.node_ids)
    if not linked:
        return None
    twin = ReflectiveMethod()
    root = record.original_ast
    twin.woven_ast = twin.copies[root.id] = _copy(root)
    for node_id in linked:
        _wrap(twin, *descend(root, node_id))
    return twin


def installable_nodes(record):
    return [n for n in record.original_ast.walk()
            if n.kind not in (CLASS_DEF, TEMP_DECL)]


def safe_reifications(node, control):
    """Reification kinds that can actually resolve when the link fires."""
    tk = table_kind(node)
    kinds = [k for k, allowed in sorted(APPLICABILITY.items())
             if tk in allowed]
    if tk != "assignment":
        kinds = [k for k in kinds if k != "newValue"]
    if control != "after" and tk in ("message", "variable"):
        kinds = [k for k in kinds if k != "value"]
    return kinds


def gen_link(rng, node, sink, allow_instead=True):
    """A deterministic link whose meta-object appends to `sink`."""
    control = rng.choice(("before", "after", "after", "instead")
                         if allow_instead else ("before", "after"))
    kinds = safe_reifications(node, control)
    n = rng.randint(0, min(3, len(kinds)))
    reifs = rng.sample(kinds, n)
    link = MetaLink()
    if control == "instead":
        link.set_meta_object(HostFunction(lambda *a: 7, "an instead meta"))
    else:
        link.set_meta_object(HostFunction(
            lambda *a: sink.append(len(a)), "a recording meta"))
    link.set_selector("value" if n == 0 else "value:" * n)
    link.set_arguments(tuple(reifs))
    link.set_control(control)
    if rng.random() < 0.3:
        link.set_condition(rng.random() < 0.5)
    return link
