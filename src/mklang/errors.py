"""Exception hierarchy shared by the parser, runtime and link machinery."""


class MkError(Exception):
    """Base class for every user-visible error of the language kit.

    Carries the source span of the failing node and a snapshot of the
    activation chain (innermost first) when available. An error raised
    under a send without them gets both from that send
    (`Interpreter.locate`)."""

    def __init__(self, message, span=None, trace=None):
        super().__init__(message)
        self.span = span
        self.trace = list(trace or [])


class MkSyntaxError(MkError):
    def __str__(self):
        base = super().__str__()
        if self.span is not None:
            return "%s at %s" % (base, self.span)
        return base


class MkRuntimeError(MkError):
    """Runtime failure (doesNotUnderstand, undefined variable, overflow...)."""


class UnknownClass(MkError):
    pass


class UnknownSelector(MkError):
    pass


class UnknownVariable(MkError):
    pass


class SelectorMismatch(MkError):
    pass


class LinkError(MkError):
    """Base class for metalink configuration/installation errors."""


class ArityMismatch(LinkError):
    pass


class InsteadConflict(LinkError):
    pass


class NodeNotInstallable(LinkError):
    pass


class InapplicableReification(LinkError):
    pass


class PhaseUnavailable(LinkError):
    pass


class AlreadyInvoked(LinkError):
    pass


class BudgetExceeded(MkError):
    pass


class HaltSignal(MkError):
    """Kernel signal raised by `Halt now`; carries a stack snapshot.

    Not an error per se: the CLI prints the trace and exits with a
    dedicated code, embedding hosts may intercept it.
    """

    def __init__(self, trace=None):
        super().__init__("Halt", trace=trace)


class MethodReturn(Exception):
    """Internal control-flow signal for `^`; never user-visible."""

    __slots__ = ("target", "value")

    def __init__(self, target, value):
        self.target = target
        self.value = value
