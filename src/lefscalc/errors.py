"""Typed errors shared across the package.

Every rejection the library performs deliberately gets its own class so
callers can tell failures apart without string matching.  Each class
carries the command line's exit code for it: 2 unless it says otherwise.
A refusal prints the value it refuses through `shown`.
"""


def shown(value) -> str:
    """A user's value as a refusal prints it: its repr, but an int past 64
    bits by its size, since Python refuses to print one of more than 4300
    digits, and a value holding such an int by its type."""
    if isinstance(value, int) and not isinstance(value, bool) and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    try:
        return repr(value)
    except ValueError:
        return f"a {type(value).__name__} holding an integer too large to print"


class LefscalcError(Exception):
    """Base class for all deliberate rejections."""

    exit_code = 2


class ParseError(LefscalcError):
    """Malformed problem file or report payload."""


class InvalidComplexError(LefscalcError):
    """A simplicial complex failed validation (see validate() for details)."""


class CellSpaceUnsupportedError(LefscalcError):
    """Operation needs simplicial incidence data but got a bare cell space."""


class NonSimplicialMapError(LefscalcError):
    """A vertex map sends some simplex to a non-simplex of the target."""

    exit_code = 6


class FixedPointNotSimplicialError(LefscalcError):
    """The map has geometric fixed points that are not fixed vertices.

    Remedy: re-express the problem on a barycentric subdivision so the
    offending fixed points become vertices.
    """

    exit_code = 3


class NotHyperbolicError(LefscalcError):
    """det(I - A) = 0 for some component's normal matrix A."""

    exit_code = 4


class GenericityError(LefscalcError):
    """A vertex functional takes equal values on the ends of an edge."""

    exit_code = 5

    def __init__(self, message: str, edges=()):
        super().__init__(message)
        self.edges = tuple(edges)


class NoApplicableRegimeError(LefscalcError):
    """No hypothesis justifies equating the cycle table with the fixed-point
    cycle: spectrum meets [1, oo) and neither the complex-model nor the
    non-characteristic assertion was supplied."""

    exit_code = 4


class DegenerateInputError(LefscalcError):
    """A library reader refused an argument (a bad literal, level, table,
    family, matrix or permutation), or input is structurally inconsistent
    (mismatched parents, missing normal data, out-of-range size bounds)."""
