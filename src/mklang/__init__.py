"""A small dynamic object language with metalink-based behavioral reflection.

The package bundles a parser and closure-compiling interpreter for a
Smalltalk-flavored toy language, plus a reflection layer: first-class
metalinks annotating AST nodes, dual reflective methods woven on demand,
object-centric link scoping, execution levels, and a benchmark harness
for instrumentation overhead and install cost.
"""

from .errors import (
    AlreadyInvoked,
    ArityMismatch,
    BudgetExceeded,
    HaltSignal,
    InapplicableReification,
    InsteadConflict,
    MkError,
    MkRuntimeError,
    MkSyntaxError,
    NodeNotInstallable,
    PhaseUnavailable,
    SelectorMismatch,
    UnknownClass,
    UnknownSelector,
    UnknownVariable,
)
from .interpreter import Interpreter, RunResult
from .links import MetaLink
from .nodes import AstNode, SourceSpan, find_nodes, unparse
from .parser import parse

__all__ = [
    "AlreadyInvoked",
    "ArityMismatch",
    "AstNode",
    "BudgetExceeded",
    "HaltSignal",
    "InapplicableReification",
    "InsteadConflict",
    "Interpreter",
    "MetaLink",
    "MkError",
    "MkRuntimeError",
    "MkSyntaxError",
    "NodeNotInstallable",
    "PhaseUnavailable",
    "RunResult",
    "SelectorMismatch",
    "SourceSpan",
    "UnknownClass",
    "UnknownSelector",
    "UnknownVariable",
    "find_nodes",
    "parse",
    "unparse",
]
