"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: ParseError -> 2, PreconditionError -> 3,
NumericalError -> 4; an input it cannot read (OSError, UnicodeDecodeError)
is 2 as well.
"""


class SunadaLabError(Exception):
    """Base class for all library errors."""


class ParseError(SunadaLabError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        prefix = ""
        if path is not None:
            prefix += str(path)
        if line is not None:
            prefix += f":{line}"
        super().__init__(f"{prefix}: {message}" if prefix else message)


class PreconditionError(SunadaLabError):
    """An operation's stated precondition does not hold for the given input."""


class GroupSizeError(PreconditionError):
    """Closure exceeded the maximum group order, ``permgrp.MAX_ORDER``."""


class BudgetExceededError(PreconditionError):
    """Subgroup enumeration or search exceeded its configured budget."""


class NotASubgroupError(PreconditionError):
    """Element set is not closed, lacks the identity, or is not contained in the parent."""


class NonFreeActionError(PreconditionError):
    """Operation requires a free action but some vertex has a non-trivial stabilizer."""


class DisconnectedGraphError(PreconditionError):
    """Operation requires a connected graph."""


class NumericalError(SunadaLabError):
    """A numerical validation failed beyond tolerance."""


class NonIntegralError(NumericalError):
    """A quantity that must be a nonnegative integer was not, beyond tolerance."""


class EigenDecompositionError(NumericalError):
    """Simultaneous diagonalization of the class-multiplication matrices failed."""


class TailBoundError(NumericalError):
    """Truncation tail bound exceeds the requested tolerance; increase nmax."""
