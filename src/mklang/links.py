"""Metalinks, the link registry, and dual-method weaving.

A MetaLink is a first-class, mutable annotation. Installing one on an AST
node creates (or extends) the owning method's woven twin: a deep copy of
the original AST in which every linked node is wrapped in a MetaHook.
The evaluator executes the twin when present; the original AST and source
are never touched.

Only a method's first link copies its AST. Later installs wrap one more
node in place; removing a node's last link unwraps that one hook in
place, and the twin disappears with its last hook. Invalidating a link
never re-weaves: hooks consult the registry when they run, so the woven
shape depends only on which nodes have links.

A hook fires from what the registry and the links already hold: the
registry says where links sit (an immutable tuple of links per node, and
per node and target), and each link's `LinkConfig` snapshot says how it
fires. A setter only marks its link dirty; the next trigger that reaches
the link revalidates it against the sites it sits on and takes a new
snapshot, or keeps firing the old one if the new definition is invalid.
Nothing is cached per node, so a change to a link applies at every site
it sits on, in every interpreter it is installed in.
"""

from __future__ import annotations

from .errors import (
    ArityMismatch, InsteadConflict, LinkError, MkRuntimeError,
    NodeNotInstallable,
)
from .nodes import META_HOOK, NOT_INSTALLABLE, AstNode, selector_arity
from .reify import APPLICABILITY, table_kind
from .values import Array, Block, HostFunction, Instance

CONTROLS = ("before", "after", "instead")


class LinkConfig:
    """Immutable snapshot of a link's definition, captured at install or
    (re)validation time. The evaluator fires from the snapshot so that a
    failed invalidate leaves the previously woven definition active."""

    __slots__ = ("meta_object", "selector", "control", "arguments",
                 "condition", "condition_args", "level")

    def __init__(self, link):
        self.meta_object = link.meta_object
        self.selector = link.selector
        self.control = link.control
        self.arguments = tuple(link.reification_requests)
        self.condition = link.condition
        self.condition_args = tuple(link.condition_args)
        self.level = link.level


class MetaLink:
    """First-class behavioral annotation (meta-object, selector, control,
    reification requests, condition, execution level)."""

    mk_class_name = "MetaLink"

    def __init__(self):
        self.meta_object = None
        self.selector = None
        self.control = "before"
        self.reification_requests = ()
        self.condition = None
        self.condition_args = ()
        self.level = 0
        self.enabled = True
        self.dirty = False          # changed since `_config` was taken
        self.installed_on = set()   # {(node_id, target-or-None)}
        self._config = None

    # Setters are unchecked; validity is established at install/invalidate
    # (or lazily at the next trigger for an already-installed link).

    def set_meta_object(self, value):
        self.meta_object = value
        self._touch()

    def set_selector(self, selector):
        self.selector = str(selector) if selector is not None else None
        self._touch()

    def set_control(self, control):
        control = str(control)
        if control not in CONTROLS:
            raise MkRuntimeError("unknown link control #%s" % control)
        self.control = control
        self._touch()

    def set_arguments(self, kinds):
        self.reification_requests = tuple(str(k) for k in kinds)
        self._touch()

    def set_condition(self, condition, kinds=()):
        self.condition = condition
        self.condition_args = tuple(str(k) for k in kinds)
        self._touch()

    def set_level(self, level):
        if not isinstance(level, int) or isinstance(level, bool) or level < 0:
            raise MkRuntimeError("link level must be a non-negative integer")
        self.level = level
        self._touch()

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def _touch(self):
        self.dirty = True

    def _snapshot(self):
        """Fire from the current definition from now on."""
        self._config = LinkConfig(self)
        self.dirty = False

    def effective(self, interp):
        """Current firing configuration; lazily revalidates a dirty link.

        If the mutated definition is invalid, the previous snapshot stays
        active (same contract as a failed explicit invalidate)."""
        if self._config is None or self.dirty:
            try:
                validate_link(interp, self, self._installed_nodes(interp))
            except LinkError:
                if self._config is None:
                    raise
                return self._config
            self._snapshot()
        return self._config

    def _installed_nodes(self, interp):
        nodes = []
        for node_id, _target in self.installed_on:
            record = interp.node_owner.get(node_id)
            if record is not None:
                nodes.append(record.node_index[node_id])
        return nodes

    def describe(self):
        return "a MetaLink"

    def __repr__(self):
        return "<MetaLink %s->%s %s level=%d sites=%d>" % (
            self.control, self.selector, list(self.reification_requests),
            self.level, len(self.installed_on))


class LinkRegistry:
    """Installed links per node id, split by scope.

    Entries exist only for nodes of methods that currently have a twin.
    Buckets are tuples in installation order; `add` and `remove` replace
    them, so a trigger iterating one never sees it change, and a trigger
    can fire from a bucket without copying it."""

    def __init__(self):
        self.class_wide = {}      # node_id -> (MetaLink, ...)
        self.object_centric = {}  # node_id -> {target: (MetaLink, ...)}

    def add(self, node_id, link, target=None):
        if target is None:
            bucket = self.class_wide.get(node_id, ())
            if link not in bucket:
                self.class_wide[node_id] = bucket + (link,)
        else:
            per_obj = self.object_centric.setdefault(node_id, {})
            bucket = per_obj.get(target, ())
            if link not in bucket:
                per_obj[target] = bucket + (link,)

    def remove(self, node_id, link, target=None):
        if target is None:
            if link in self.class_wide.get(node_id, ()):
                _discard(self.class_wide, node_id, link)
        else:
            per_obj = self.object_centric.get(node_id)
            if per_obj and link in per_obj.get(target, ()):
                _discard(per_obj, target, link)
                if not per_obj:
                    del self.object_centric[node_id]

    def drop_node(self, node_id):
        """Forget every entry for a node (recompilation path); shrinks the
        installation sets of the affected links."""
        for link in self.class_wide.pop(node_id, ()):
            link.installed_on.discard((node_id, None))
        for target, links in self.object_centric.pop(node_id, {}).items():
            for link in links:
                link.installed_on.discard((node_id, target))

    def has_links(self, node_id):
        return node_id in self.class_wide or node_id in self.object_centric

    def linked_ids(self, node_ids):
        return {nid for nid in node_ids if self.has_links(nid)}

    def instead_installed(self, node_id, target=None):
        if target is None:
            bucket = self.class_wide.get(node_id, ())
        else:
            bucket = self.object_centric.get(node_id, {}).get(target, ())
        return [l for l in bucket if l.control == "instead"]


def _discard(buckets, key, link):
    """Replace `buckets[key]` by the tuple without `link`; drop it once
    empty."""
    bucket = buckets[key]
    i = bucket.index(link)
    bucket = bucket[:i] + bucket[i + 1:]
    if bucket:
        buckets[key] = bucket
    else:
        del buckets[key]


class ReflectiveMethod:
    """Woven twin of a compiled method; replaces it at execution time."""

    def __init__(self, record):
        self.record = record
        self.woven_ast = None
        self.copies = {}      # original node id -> woven copy node
        self.hook_table = {}  # original node id -> MetaHook node


def copy_tree(node: AstNode, copies: dict) -> AstNode:
    """Deep-copy `node` with parent links, recording each copy under its
    original's id. Iterative, so a long send chain cannot exhaust the
    Python stack halfway through a weave."""
    root = copies[node.id] = _copy_node(node, None)
    stack = [(node, root)]
    while stack:
        node, dup = stack.pop()
        for child in node.children:
            copy = copies[child.id] = _copy_node(child, dup)
            dup.children.append(copy)
            if child.children:
                stack.append((child, copy))
    return root


def _copy_node(node, parent):
    return AstNode(
        kind=node.kind, span=node.span, id=node.id,
        selector=node.selector, var_name=node.var_name, value=node.value,
        name=node.name, superclass=node.superclass,
        params=list(node.params), temps=list(node.temps), parent=parent)


def weave(interp, record) -> "ReflectiveMethod | None":
    """Build the twin from scratch from the current registry state.

    This is the cold path, taken by a method's first link; every later
    change to the twin is made in place by `add_hook` and `drop_hook`."""
    linked = interp.registry.linked_ids(record.node_ids)
    if not linked:
        record.twin = None
        return None
    twin = ReflectiveMethod(record)
    twin.woven_ast = copy_tree(record.original_ast, twin.copies)
    for node_id in linked:
        _wrap(twin, node_id, record.node_index[node_id])
    record.twin = twin
    return twin


def _wrap(twin, node_id, original):
    target = twin.copies[node_id]
    hook = AstNode(kind=META_HOOK, span=target.span, id=-node_id,
                   children=[target], original=original)
    parent = target.parent
    if parent is None:
        twin.woven_ast = hook
    else:
        parent.children[parent.children.index(target)] = hook
    hook.parent = parent
    target.parent = hook
    twin.hook_table[node_id] = hook


def add_hook(interp, record, node_id):
    """Hook one more node into the twin; only the first link of a method
    weaves (copies its AST).

    Avoids re-copying the whole method, which is what makes a second
    install on an already-instrumented method (hot path) cheap."""
    if record.twin is None:
        weave(interp, record)
        return
    twin = record.twin
    if node_id in twin.hook_table:
        return
    _wrap(twin, node_id, record.node_index[node_id])


def drop_hook(interp, node_id):
    """Mirror of `add_hook`: once a node has no link left, put it back
    where its hook was in the twin, and drop the twin with its last hook.

    The hook keeps its child, so an activation that is evaluating the hook
    right now finishes on it; later evaluations see the bare node."""
    record = interp.node_owner.get(node_id)
    if record is None or record.twin is None \
            or interp.registry.has_links(node_id):
        return
    twin = record.twin
    hook = twin.hook_table.pop(node_id, None)
    if hook is None:
        return
    target = hook.children[0]
    parent = hook.parent
    if parent is None:
        twin.woven_ast = target
    else:
        parent.children[parent.children.index(hook)] = target
    target.parent = parent
    if not twin.hook_table:
        record.twin = None


def validate_link(interp, link, nodes):
    """Full validity check: configuration completeness, selector arity vs.
    reification count, meta-object lookup, and per-node applicability."""
    if link.meta_object is None or link.selector is None:
        raise ArityMismatch("link is not fully configured "
                            "(missing meta-object or selector)")
    want = selector_arity(link.selector)
    have = len(link.reification_requests)
    if want != have:
        raise ArityMismatch(
            "selector #%s takes %d argument(s) but %d reification(s) "
            "requested" % (link.selector, want, have))
    if not _understands(interp, link.meta_object, link.selector, want):
        raise ArityMismatch("meta-object does not understand #%s"
                            % link.selector)
    if isinstance(link.condition, Block) \
            and link.condition.arity != len(link.condition_args):
        raise ArityMismatch(
            "condition block takes %d argument(s) but %d reification(s) "
            "requested" % (link.condition.arity, len(link.condition_args)))
    for node in nodes:
        kind = table_kind(node)
        for req in link.reification_requests + link.condition_args:
            check_applicable(req, kind)


def check_applicable(reification, node_table_kind):
    from .errors import InapplicableReification
    allowed = APPLICABILITY.get(reification)
    if allowed is None:
        raise InapplicableReification(
            "unsupported reification #%s" % reification)
    if node_table_kind not in allowed:
        raise InapplicableReification(
            "#%s is not applicable to %s nodes"
            % (reification, node_table_kind))


def _understands(interp, meta_object, selector, arity):
    if isinstance(meta_object, HostFunction):
        return True
    if isinstance(meta_object, Block):
        expected = "value" if arity == 0 else "value:" * arity
        return selector == expected and meta_object.arity == arity
    return interp.lookup_selector(meta_object, selector) is not None


def install(interp, link, node, target=None):
    if node.kind in NOT_INSTALLABLE:
        raise NodeNotInstallable("links cannot be installed on %s nodes"
                                 % node.kind)
    record = interp.node_owner.get(node.id)
    if record is None or record.node_index.get(node.id) is not node:
        raise NodeNotInstallable(
            "node #%d does not belong to a method of a loaded class"
            % node.id)
    if target is not None and not isinstance(
            target, (Instance, Array, Block)) \
            and type(target).__name__ != "ClassRecord":
        raise MkRuntimeError("object-centric targets must be reference "
                             "objects with stable identity")
    # A new snapshot applies at every site, so a new or mutated definition
    # is checked against all of them; a clean link's snapshot already is,
    # and checking only the new node keeps installing it on n nodes linear.
    fresh = link._config is None or link.dirty
    nodes = [node]
    if fresh:
        nodes += link._installed_nodes(interp)
    validate_link(interp, link, nodes)
    if link.control == "instead":
        conflict = [l for l in interp.registry.instead_installed(
            node.id, target) if l is not link]
        if conflict:
            raise InsteadConflict(
                "an instead-link is already installed on node #%d for this "
                "scope" % node.id)
    interp.registry.add(node.id, link, target)
    link.installed_on.add((node.id, target))
    if fresh:
        link._snapshot()
    add_hook(interp, record, node.id)


def remove(interp, link, node, target=None):
    interp.registry.remove(node.id, link, target)
    link.installed_on.discard((node.id, target))
    drop_hook(interp, node.id)


def uninstall(interp, link):
    for node_id, target in list(link.installed_on):
        interp.registry.remove(node_id, link, target)
        drop_hook(interp, node_id)
    link.installed_on.clear()


def invalidate(interp, link):
    """Revalidate a mutated link and snapshot its new definition.

    Nothing is re-woven: the hooks stay where the link's nodes are and
    fire from the new snapshot."""
    if link.installed_on:
        validate_link(interp, link, link._installed_nodes(interp))
        link._snapshot()
