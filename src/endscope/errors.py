"""The six exceptions endscope raises on purpose.  Each carries the exit
code of the command line as `exit_code`: bad input (2, with a position when it
comes from a parser), a contradiction (3), and an exceeded element cap,
Coxeter key width or Coxeter label bound (4)."""


class EndscopeError(Exception):
    """Bad input, named by the message; the base of the other five."""

    exit_code = 2


class ParseError(EndscopeError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ContradictionError(EndscopeError):
    """Both polarities of a fact were derived.

    Carries the two certificate trees so a report can show both derivations.
    """

    exit_code = 3

    def __init__(self, group, atom, cert_holds, cert_fails):
        super().__init__(f"contradiction: {atom} both holds and fails for '{group}'")
        self.group = group
        self.atom = atom
        self.cert_holds = cert_holds
        self.cert_fails = cert_fails


class MemoryCapExceededError(EndscopeError):
    exit_code = 4

    def __init__(self, cap):
        super().__init__(f"ball construction exceeded element cap {cap}")


class KeyWidthExceededError(EndscopeError):
    """A Coxeter key's coordinate outgrew its field (see cayley.CoxeterOracle)."""

    exit_code = 4

    def __init__(self, width):
        super().__init__(f"a Coxeter key coordinate outgrew its {width}-bit field")


class LabelLcmExceededError(EndscopeError):
    """A Coxeter oracle's labels have an lcm above its bound (see cayley.CoxeterOracle)."""

    exit_code = 4

    def __init__(self, lcm, bound):
        super().__init__(f"the Coxeter labels have lcm {lcm}, above the oracle's bound {bound}")
