"""Exception hierarchy, and the family grammar that its messages quote.

Gate violations (an input exceeding an enumeration or size limit) and
numerical failures are distinct classes so the CLI can map them to distinct
exit codes. This module imports nothing, so the CLI reads it at start-up.
"""

#: The family spec grammar that ``graph.parse_family`` quotes in its errors
#: and the CLI in ``--graph``'s help.
FAMILY_GRAMMAR = (
    "complete:n | bipartite:a:b | star:leaves | path:edges | cycle:g | "
    "hypercube:s | er:n:p:seed | regular:n:d:seed | gw:p0,p1,...:height:seed | "
    "gadget:a:b:g"
)


class ColorGraphError(Exception):
    """Base class for all library errors."""


# -- graph construction / generation ----------------------------------------

class OutOfRangeError(ColorGraphError):
    """An edge endpoint is not an integer in [0, n)."""


class SelfLoopError(ColorGraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(ColorGraphError):
    """The same unordered pair appears twice in an edge list."""


class InfeasibleSpecError(ColorGraphError):
    """A graph family specification violates its own constraints."""


class GenerationTimeoutError(ColorGraphError):
    """A rejection-sampling generator exhausted its retry budget."""


# -- gates -------------------------------------------------------------------

class GateExceededError(ColorGraphError):
    """Base class for hard enumeration/size gates."""


class EnumerationGateExceededError(GateExceededError):
    """An exact enumeration would visit more states than permitted."""

    def __init__(self, message: str, total: int):
        super().__init__(message)
        self.total = total


class SizeGateExceededError(GateExceededError):
    """A dense computation was requested above its size limit."""


class PatternTooLargeError(GateExceededError):
    """A pattern exceeds the size supported by exact canonicalization."""


# -- census / extremal preconditions ----------------------------------------

class UnsupportedLengthError(ColorGraphError):
    """Cycle length outside the supported range [3, 8]."""


class PreconditionViolatedError(ColorGraphError):
    """An operation's structural precondition does not hold."""


class NoSpanningCycleEdgeFactorError(ColorGraphError):
    """The pattern has no spanning disjoint union of cycles and edges."""


class SolutionMismatchError(ColorGraphError):
    """A fractional solution is not feasible for the given graph."""


# -- numerics ----------------------------------------------------------------

class ConvergenceFailureError(ColorGraphError):
    """An eigenvalue computation failed to converge or failed validation."""


class BadColorVectorError(ColorGraphError):
    """A color assignment has the wrong length or invalid entries."""


class WrongLawKindError(ColorGraphError):
    """An operation was applied to a limit law of an unsupported kind."""


class DomainExceededError(ColorGraphError):
    """An input lies outside the domain a computation handles exactly.

    An MGF argument outside the region of finiteness, a Poisson mean too
    large for CDF inversion, or more colors than 53-bit uniforms resolve.
    """


class AmbiguousRegimeError(ColorGraphError):
    """The diagnostics do not clearly select one limit regime."""
