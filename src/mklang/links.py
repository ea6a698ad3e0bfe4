"""Metalinks, the link registry, and dual-method weaving.

A MetaLink is a first-class, mutable annotation. Installing one on an AST
node creates (or extends) the owning method's woven twin, which the
evaluator executes instead. The twin copies only its spine: the path from
the method root to each linked node (path copying, Driscoll et al. 1989).
Every other subtree is the original's own nodes. A copy has its
original's fields and its own `children` list, whose slots take the
copies of the children below it. No field of a node is written once it
is made. The twin's `hook_table` maps the id of each linked node to that
original node; it is the one record of which nodes are hooked, and the
compiler reads it. The original AST and source are never touched.

A method keeps no map of its nodes. Its nodes' ids are an interval
(`record.node_ids`), so `NodeOwner` finds the method that owns an id with
one bisect over the methods' root ids, and `descend` finds the node in
one walk down from the root; the same child indices then lead down the
twin. So loading a method costs nothing per node.

Only a method's first link weaves; a later install copies its path up to
the spine. Removing a node's last link drops it from the hook table (the
spine stays), and the twin disappears with its last hook. Invalidating a
link never re-weaves: hooks consult the registry when they run, so the
woven twin depends only on which nodes have links.

A link is a definition only. Each interpreter's `LinkRegistry` says
where the link sits there (an immutable tuple of links per node, and per
node and target, plus each link's sites) and which `LinkConfig` snapshot
it fires from there. A setter only bumps the link's version; the next
trigger in each interpreter that reaches the link revalidates it on that
interpreter's sites and takes a new snapshot, or keeps firing the old one
if the new definition is invalid there. Nothing is cached per node, so a
change to a link applies at every site it sits on, in every interpreter
it is installed in, and nothing of an interpreter is kept on a link.

A snapshot also carries what firing the link takes, decided once when
it is taken: a host meta-object to call directly, and whether the
condition needs evaluating at all. A fire then pays only for what the
link asks for: the reifications it requests, no `Operation` unless one
of them is `#operation`, and no message send to a host meta-object.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import (
    ArityMismatch, InsteadConflict, LinkError, MkRuntimeError,
    NodeNotInstallable,
)
from .nodes import NOT_INSTALLABLE, AstNode, selector_arity, value_selector
from .reify import check_applicable, table_kind
from .values import Array, Block, HostFunction, Instance

CONTROLS = ("before", "after", "instead")


class LinkConfig:
    """Immutable snapshot of a link's definition, validated on the link's
    sites in one interpreter and stamped with the link's `version`; an
    invalid definition is never snapshot, so the old one keeps firing.

    It also holds what a fire needs to know of the definition, worked out
    once here rather than at every fire:

    * `host`: the meta-object if it is a `HostFunction`, which a fire
      calls directly instead of sending to it; else None.
    * `guarded`: the condition must be evaluated at each fire. It is not
      for `nil` (always fires), nor for a constant `true` or `false`
      without condition arguments.
    * `blocked`: the condition is a constant `false` without condition
      arguments, so the link never fires; such a fire ends before the
      meta level is raised. With arguments, they are still reified first.
    """

    __slots__ = ("meta_object", "selector", "control", "arguments",
                 "condition", "condition_args", "level", "version",
                 "host", "guarded", "blocked")

    def __init__(self, link):
        self.meta_object = link.meta_object
        self.selector = link.selector
        self.control = link.control
        self.arguments = tuple(link.reification_requests)
        self.condition = cond = link.condition
        self.condition_args = tuple(link.condition_args)
        self.level = link.level
        self.version = link.version
        self.host = (self.meta_object
                     if isinstance(self.meta_object, HostFunction) else None)
        constant = cond is None or (
            (cond is True or cond is False) and not self.condition_args)
        self.guarded = not constant
        self.blocked = constant and cond is False


class MetaLink:
    """First-class behavioral annotation (meta-object, selector, control,
    reification requests, condition, execution level). Only a definition:
    each interpreter's `LinkRegistry` keeps the link's sites and snapshot."""

    def __init__(self):
        self.meta_object = None
        self.selector = None
        self.control = "before"
        self.reification_requests = ()
        self.condition = None
        self.condition_args = ()
        self.level = 0
        self.enabled = True
        self.version = 0            # bumped by every setter

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
        self.version += 1

    def describe(self):
        return "a MetaLink"

    def __repr__(self):
        return "<MetaLink %s->%s %s level=%d>" % (
            self.control, self.selector, list(self.reification_requests),
            self.level)


class LinkRegistry:
    """One interpreter's installed links: per node id, split by scope, and
    per link, its sites and the snapshot it fires from here.

    Node entries exist only for nodes of methods that currently have a
    twin. Buckets are tuples in installation order; `add` and `remove`
    replace them, so a trigger iterating one never sees it change, and a
    trigger can fire from a bucket without copying it. A link is in
    `sites` and `configs` from its first site here to its last, so
    nothing of an interpreter outlives it on a link."""

    def __init__(self):
        self.class_wide = {}      # node_id -> (MetaLink, ...)
        self.object_centric = {}  # node_id -> {target: (MetaLink, ...)}
        self.sites = {}           # MetaLink -> {(node_id, target): node}
        self.configs = {}         # MetaLink -> LinkConfig

    def add(self, node, link, target=None):
        node_id = node.id
        if target is None:
            bucket = self.class_wide.get(node_id, ())
            if link not in bucket:
                self.class_wide[node_id] = bucket + (link,)
        else:
            per_obj = self.object_centric.setdefault(node_id, {})
            bucket = per_obj.get(target, ())
            if link not in bucket:
                per_obj[target] = bucket + (link,)
        self.sites.setdefault(link, {})[(node_id, target)] = node

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
        self._forget_site(link, node_id, target)

    def drop_node(self, node_id):
        """Forget every entry for a node (recompilation path)."""
        for link in self.class_wide.pop(node_id, ()):
            self._forget_site(link, node_id, None)
        for target, links in self.object_centric.pop(node_id, {}).items():
            for link in links:
                self._forget_site(link, node_id, target)

    def _forget_site(self, link, node_id, target):
        sites = self.sites.get(link)
        if sites is not None:
            sites.pop((node_id, target), None)
            if not sites:
                del self.sites[link]
                self.configs.pop(link, None)

    def effective(self, interp, link):
        """Retake the snapshot of a link a setter changed, validated on this
        interpreter's sites only; if the new definition is invalid, the
        old snapshot keeps firing (as after a failed `invalidate`)."""
        try:
            validate_link(interp, link, self.sites[link].values())
        except LinkError:
            return self.configs[link]
        cfg = self.configs[link] = LinkConfig(link)
        return cfg

    def has_links(self, node_id):
        return node_id in self.class_wide or node_id in self.object_centric

    def linked_ids(self, node_ids):
        """The set of ids in the range `node_ids` that have links."""
        found = _within(self.class_wide, node_ids)
        if self.object_centric:
            found |= _within(self.object_centric, node_ids)
        return found


def _within(table, node_ids):
    """The ids of `table` in the range `node_ids`, from the smaller side:
    the registry's few linked ids, or the range of a method's ids."""
    if len(table) <= len(node_ids):
        return {nid for nid in table if nid in node_ids}
    return table.keys() & node_ids      # iterates the range


class NodeOwner:
    """The live compiled methods of one interpreter, one entry each, by
    root id. A method's nodes hold the ids `record.node_ids`, the interval
    that ends at its root's id, and no two methods' intervals meet; so an
    id belongs to the method with the least root id at or above it, if
    that method's interval reaches down to it."""

    __slots__ = ("roots", "records")

    def __init__(self):
        self.roots = []     # root ids, ascending
        self.records = []   # the record of each root, in the same order

    def add(self, record):
        root = record.original_ast.id
        i = bisect_left(self.roots, root)
        self.roots.insert(i, root)
        self.records.insert(i, record)

    def discard(self, record):
        i = bisect_left(self.roots, record.original_ast.id)
        if i < len(self.records) and self.records[i] is record:
            del self.roots[i], self.records[i]

    def get(self, node_id):
        """The record of the method whose nodes include id `node_id`, or
        None."""
        i = bisect_left(self.roots, node_id)
        if i < len(self.records):
            record = self.records[i]
            if node_id in record.node_ids:
                return record
        return None

    def __len__(self):
        return len(self.records)


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

    def __init__(self):
        self.woven_ast = None
        self.copies = {}      # node id -> its copy on the spine
        self.hook_table = {}  # hooked node id -> the original node
        self.code = None      # `compiler.compiled` sets it at the next run


def descend(root, node_id):
    """`(node, path)`: the node with id `node_id` in the tree under `root`
    (None if there is none), and the child indices that lead down to it.
    A subtree's ids are the interval that ends at its root's, and children
    come in increasing id order, so the node lies under the first child
    whose id is at least `node_id`."""
    node, path = root, []
    while node.id != node_id:
        i = 0
        for child in node.children:
            if child.id >= node_id:
                break
            i += 1
        else:
            return None, path
        path.append(i)
        node = child
    return node, path


def weave(record, node, path) -> ReflectiveMethod:
    """Build the twin of a method that has none for its first linked node,
    `node` at `path` (`descend`'s child indices): copy the root, then the
    path down to `node`. A method without a twin has no other linked node,
    so this one path is the whole twin. Only a method's first link takes
    this cold path; `add_hook` and `drop_hook` edit the twin."""
    twin = ReflectiveMethod()
    root = record.original_ast
    twin.woven_ast = twin.copies[root.id] = _copy(root)
    _wrap(twin, node, path)
    record.twin = twin
    return twin


def _wrap(twin, original, path):
    """Make `original` a hook of the twin: copy the path down to it and
    file it in `hook_table`. `path` holds the child indices from the
    method root down to `original` (`descend`), and the twin has the
    original's shape, so they lead down the twin too. Each node on the way
    that the twin still shares with the original is copied (copy-on-write)
    into its slot of its parent copy's `children`."""
    copies = twin.copies
    node = twin.woven_ast
    for i in path:
        children = node.children
        node = children[i]
        if node.id not in copies:
            node = _copy(node)
            children[i] = copies[node.id] = node
    twin.hook_table[original.id] = original
    twin.code = None


def _copy(node):
    """A spine node: `node`'s fields, with its own `children` (a leaf's is
    the shared `()`). A copy has its original's id."""
    dup = object.__new__(AstNode)
    dup.kind = node.kind
    dup.start = node.start
    dup.end = node.end
    dup.file = node.file
    dup.id = node.id
    dup.children = node.children[:]
    dup.selector = node.selector
    dup.var_name = node.var_name
    dup.value = node.value
    dup.name = node.name
    dup.superclass = node.superclass
    dup.params = node.params
    dup.temps = node.temps
    return dup


def add_hook(interp, record, node, path):
    """Make one more node a hook of the twin; only the first link of a
    method weaves, down the `path` (the child indices to `node`) that
    `install` found. A later one copies just the part of `path` below the
    spine, which keeps a hot install cheap."""
    twin = record.twin
    if twin is None:
        weave(record, node, path)
    elif node.id not in twin.hook_table:
        _wrap(twin, node, path)


def drop_hook(interp, node_id):
    """Mirror of `add_hook`: once a node has no link left, drop it from the
    twin's hook table (its copy stays on the spine), and drop the twin with
    its last hook.

    An activation runs the code it started with: a hook in it whose link
    is gone finds no link and just performs its operation. The next
    activation compiles the twin without the hook."""
    record = interp.node_owner.get(node_id)
    if record is None or record.twin is None \
            or interp.registry.has_links(node_id):
        return
    if record.twin.hook_table.pop(node_id, None) is None:
        return
    record.twin.code = None
    if not record.twin.hook_table:
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
    cond, n = link.condition, len(link.condition_args)
    selector = value_selector(n)
    if cond is not None and not isinstance(cond, bool) \
            and not _understands(interp, cond, selector, n):
        raise ArityMismatch("condition does not understand #%s" % selector)
    for node in nodes:
        kind = table_kind(node)
        for req in link.reification_requests + link.condition_args:
            check_applicable(req, kind)


def _understands(interp, meta_object, selector, arity):
    if isinstance(meta_object, HostFunction):
        return True
    if isinstance(meta_object, Block):
        return selector == value_selector(arity) \
            and meta_object.arity == arity
    return interp.lookup_selector(meta_object, selector) is not None


def install(interp, link, node, target=None):
    if node.kind in NOT_INSTALLABLE:
        raise NodeNotInstallable("links cannot be installed on %s nodes"
                                 % node.kind)
    # The node must be its method's own: a node of a method since
    # recompiled or reloaded has an id no live method's interval holds.
    record = interp.node_owner.get(node.id)
    if record is not None:
        found, path = descend(record.original_ast, node.id)
    if record is None or found is not node:
        raise NodeNotInstallable(
            "node #%d does not belong to a method of a loaded class"
            % node.id)
    if target is not None and not isinstance(
            target, (Instance, Array, Block)) \
            and type(target).__name__ != "ClassRecord":
        raise MkRuntimeError("object-centric targets must be reference "
                             "objects with stable identity")
    # A new snapshot applies at every site here, so a new or changed
    # definition is checked against all of them; a current one already is,
    # and checking only the new node keeps installing it on n nodes linear.
    reg = interp.registry
    cfg = reg.configs.get(link)
    fresh = cfg is None or cfg.version != link.version
    nodes = [node]
    if fresh:
        nodes += reg.sites.get(link, {}).values()
    validate_link(interp, link, nodes)
    if link.control == "instead":
        bucket = (reg.class_wide.get(node.id, ()) if target is None else
                  reg.object_centric.get(node.id, {}).get(target, ()))
        if any(l.control == "instead" and l is not link for l in bucket):
            raise InsteadConflict(
                "an instead-link is already installed on node #%d for this "
                "scope" % node.id)
    reg.add(node, link, target)
    if fresh:
        reg.configs[link] = LinkConfig(link)
    add_hook(interp, record, node, path)


def remove(interp, link, node, target=None):
    interp.registry.remove(node.id, link, target)
    drop_hook(interp, node.id)


def uninstall(interp, link):
    """Remove `link` from every site it has in `interp`; its sites in
    other interpreters stay."""
    for node_id, target in list(interp.registry.sites.get(link, ())):
        interp.registry.remove(node_id, link, target)
        drop_hook(interp, node_id)


def invalidate(interp, link):
    """Revalidate a mutated link on its sites in `interp` and snapshot its
    new definition there; other interpreters revalidate it lazily.

    Nothing is re-woven: the hooks stay where the link's nodes are and
    fire from the new snapshot."""
    sites = interp.registry.sites.get(link)
    if sites:
        validate_link(interp, link, sites.values())
        interp.registry.configs[link] = LinkConfig(link)
