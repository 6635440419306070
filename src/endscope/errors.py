"""Exception hierarchy shared by all endscope modules."""


class EndscopeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EndscopeError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class DanglingReferenceError(EndscopeError):
    def __init__(self, name):
        super().__init__(f"reference to undeclared group '{name}'")
        self.name = name


class InvalidEdgeLabelError(EndscopeError):
    """A malformed diagram or group description, named by the message: an
    edge label below 2, a duplicate vertex or edge, a self-loop, a bad order
    or rank."""

    @classmethod
    def for_label(cls, label, *position):
        return cls(f"edge label must be an integer >= 2, got {label!r}", *position)


class DiagramParseError(ParseError, InvalidEdgeLabelError):
    """A malformed diagram at its place in the text: a duplicate vertex or
    edge, a self-loop or an edge label below 2."""


class DuplicateNameError(EndscopeError):
    def __init__(self, name):
        super().__init__(f"duplicate group name '{name}'")
        self.name = name


class UnknownVertexError(EndscopeError):
    def __init__(self, vertex):
        super().__init__(f"unknown vertex {vertex!r}")
        self.vertex = vertex


class EmptyDiagramError(EndscopeError):
    pass


class MemoryCapExceededError(EndscopeError):
    def __init__(self, cap):
        super().__init__(f"ball construction exceeded element cap {cap}")
        self.cap = cap


class WindowTooSmallError(EndscopeError):
    pass


class UnknownProfileError(EndscopeError):
    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} has an incomplete profile")
        self.vertex = vertex


class DisconnectedGraphError(EndscopeError):
    pass


class NotFlagError(EndscopeError):
    pass


class ExcludedComplexError(EndscopeError):
    pass


class IndexOutOfRangeError(EndscopeError):
    pass


class ContradictionError(EndscopeError):
    """Both polarities of a fact were derived.

    Carries the two certificate trees so a report can show both derivations.
    """

    def __init__(self, group, atom, cert_holds, cert_fails):
        super().__init__(f"contradiction: {atom} both holds and fails for '{group}'")
        self.group = group
        self.atom = atom
        self.cert_holds = cert_holds
        self.cert_fails = cert_fails


class FactNotDerivedError(EndscopeError):
    def __init__(self, group, atom):
        super().__init__(f"fact ({group}, {atom}) was not derived")
        self.group = group
        self.atom = atom
