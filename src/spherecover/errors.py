"""Exception types shared across the library."""


class SphereCoverError(Exception):
    """Base class for all library errors."""


class NotReal(SphereCoverError):
    """A cyclotomic expression is not fixed by complex conjugation."""


class DivisionByZero(SphereCoverError):
    """Exact division by a scalar whose canonical form is zero."""


class CapExceeded(SphereCoverError):
    """A closure or enumeration exceeded its configured element cap."""

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or f"closure exceeded cap of {cap} elements")


class NotMember(SphereCoverError):
    """An element was expected to belong to a group but does not."""


class WrongAmbient(SphereCoverError):
    """A group is not presented inside the expected ambient subgroup."""


class ConductorMismatch(WrongAmbient, NotMember):
    """An exact element is looked up in a group over a field it does not embed in.

    It is also a NotMember, so callers that treat absence as an error keep
    catching it.
    """


class SpecViolation(SphereCoverError):
    """Construction parameters violate their arithmetic constraints."""


class ParseError(SphereCoverError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ValidationError(SphereCoverError):
    """A structurally well-formed diagram fails a consistency check."""


class NotAKnot(SphereCoverError):
    """The construction produced a link with more than one component."""


class NotIndexTwo(SphereCoverError):
    """The meridian parity map of a presented group is not onto Z/2."""


class UnclassifiedFiniteGroup(SphereCoverError):
    """A finite cover group fits none of the three expected families."""


class InternalInconsistency(SphereCoverError):
    """Two independent computation routes disagree; this is a bug trap."""


class OracleMismatch(SphereCoverError):
    """A closed-form profile disagrees with its metric oracle."""
