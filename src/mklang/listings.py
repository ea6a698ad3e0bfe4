"""Bundled example programs with expected observable behavior.

Each entry exercises one piece of the link API end to end from inside
the language: breakpoint configuration and installation, uninstallation,
reifications, conditions, object-centric scoping, and execution levels.
Where the originals opened IDE tools (browse/inspect), the ports print a
structured description instead; the observable contract — what is
reified and when — is unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import MkError
from .interpreter import Interpreter

BREAKPOINT_SETUP = """\
metalink := MetaLink new.
metalink metaObject: Halt.
metalink selector: #now.
metalink control: #before.
"""

REIFY_SETUP = """\
metalink := MetaLink new.
metalink arguments: #(receiver arguments).
metalink metaObject: [:receiver :arguments |
    Transcript logCr: 'browse: ', receiver class printString.
    Transcript logCr: 'inspect: ', receiver printString.
    Transcript logCr: 'inspect: ', arguments printString ].
metalink selector: #value:value:.
metalink control: #before.
node := (Object lookupSelector: #logCr:) ast.
node link: metalink.
collection := OrderedCollection new.
collection add: Random new next.
collection add: Random new next.
"""


@dataclass
class ListingResult:
    index: int
    title: str
    passed: bool
    expected: str
    actual: str
    notes: str = ""
    error: str = ""     # the message of an MkError the listing raised


def listing_1(seed=0):
    """Configuring a breakpoint link: meta-object Halt, #now, before."""
    interp = Interpreter(seed=seed)
    r = interp.run("| metalink |\n%smetalink logCr" % BREAKPOINT_SETUP)
    expected = "a MetaLink\n"
    ok = r.signal is None and r.output == expected
    return ok, expected, r.output


def listing_2(seed=0):
    """Installing the breakpoint on Object>>logCr halts before the body."""
    interp = Interpreter(seed=seed)
    r = interp.run("""| metalink node |
%snode := (Object lookupSelector: #logCr) ast.
node link: metalink.
Object new logCr
""" % BREAKPOINT_SETUP)
    ok = r.signal is not None and r.output == ""
    return (ok, "<halt, no output>", r.output or "<no output>",
            "halted" if r.signal else "did not halt")


def listing_3(seed=0):
    """removeLink: plus uninstall restore normal printing."""
    interp = Interpreter(seed=seed)
    r = interp.run("""| metalink node |
%snode := (Object lookupSelector: #logCr) ast.
node link: metalink.
node removeLink: metalink.
metalink uninstall.
Object new logCr
""" % BREAKPOINT_SETUP)
    expected = "an Object\n"
    ok = r.signal is None and r.output == expected
    return ok, expected, r.output


def _two_draws(seed):
    rng = random.Random(seed)
    return rng.randrange(1000), rng.randrange(1000), rng.randrange(1000)


def listing_4(seed=0):
    """Reifying receiver and arguments of a method into a meta block."""
    interp = Interpreter(seed=seed)
    r = interp.run("""| metalink node collection |
%scollection logCr: 'Size: ', collection size printString.
""" % REIFY_SETUP)
    a, b, _ = _two_draws(seed)
    expected = ("browse: OrderedCollection\n"
                "inspect: an OrderedCollection (%d %d)\n"
                "inspect: #(Size: 2)\n"
                "Size: 2\n" % (a, b))
    ok = r.signal is None and r.output == expected
    return ok, expected, r.output


def listing_5(seed=0):
    """A condition over a reification gates the meta-behavior."""
    interp = Interpreter(seed=seed)
    r = interp.run("""| metalink node collection |
%smetalink condition: [:receiver | receiver size > 2] arguments: #(receiver).
metalink invalidate.
collection logCr: 'Size: ', collection size printString.
collection add: Random new next.
collection logCr: 'Size: ', collection size printString.
""" % REIFY_SETUP)
    a, b, c = _two_draws(seed)
    expected = ("Size: 2\n"
                "browse: OrderedCollection\n"
                "inspect: an OrderedCollection (%d %d %d)\n"
                "inspect: #(Size: 3)\n"
                "Size: 3\n" % (a, b, c))
    ok = r.signal is None and r.output == expected
    return ok, expected, r.output


def listing_6(seed=0):
    """Object-centric breakpoint: one instance halts, the other prints."""
    interp = Interpreter(seed=seed)
    r = interp.run("""| metalink node collection_1 collection_2 |
%scollection_1 := OrderedCollection new.
collection_2 := OrderedCollection new.
node := (Object lookupSelector: #logCr:) ast.
node link: metalink forObject: collection_1.
collection_2 logCr: 'No break'.
collection_1 logCr: 'Break'
""" % BREAKPOINT_SETUP)
    expected = "No break\n"
    ok = (r.signal is not None and r.output == expected
          and any(line.startswith("Object>>logCr:") for line in r.trace))
    return (ok, expected + "<halt at Object>>logCr:>", r.output,
            "halted" if r.signal else "did not halt")


def listing_7(seed=0):
    """A level-0 link stays quiet when reached from meta-level code."""
    interp = Interpreter(seed=seed)
    r = interp.run("""class Job [ run [ Transcript logCr: 'job done' ] ]
| metalink node |
metalink := MetaLink new.
metalink metaObject: [ Transcript logCr: 'meta'. Job new run ].
metalink selector: #value.
metalink arguments: #().
metalink control: #instead.
metalink level: 0.
node := (Job lookupSelector: #run) ast.
node link: metalink.
Job new run
""")
    expected = "meta\njob done\n"
    ok = (r.signal is None and r.output == expected
          and interp.meta_level == 0)
    return ok, expected, r.output


# (title, listing): a listing answers (passed, expected, actual[, notes]).
LISTINGS = (
    ("breakpoint link configuration", listing_1),
    ("link installation halts before the method", listing_2),
    ("uninstallation restores behavior", listing_3),
    ("contextual reifications", listing_4),
    ("conditional link activation", listing_5),
    ("object-centric breakpoint", listing_6),
    ("execution levels stop meta-recursion", listing_7),
)


def run_listing(index, seed=0) -> ListingResult:
    """Run listing `index` (from 1). One whose run raises an `MkError`
    fails, with the error's message."""
    if not 1 <= index <= len(LISTINGS):
        raise ValueError("no listing %d" % index)
    title, listing = LISTINGS[index - 1]
    try:
        return ListingResult(index, title, *listing(seed))
    except MkError as exc:
        return ListingResult(index, title, False, "", "", error=str(exc))


def run_all(seed=0) -> list[ListingResult]:
    return [run_listing(index, seed) for index in range(1, len(LISTINGS) + 1)]
