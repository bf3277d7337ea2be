"""Exception hierarchy, the family grammar its messages quote, ``Params`` and ``lazy``.

Gate violations (an input past an enumeration or size limit) and numerical
failures are distinct classes, so the CLI maps them to distinct exit codes.
``Params`` is the base of every parameter dataclass: family specs,
statistics, laws. This module imports only the standard library, so the
CLI reads it at start-up and the laws load no graph.

``lazy(name)`` is the package's one way to defer an import: a module that
needs numpy, a standard-library module or another part of the package only
in some of its functions binds it once, at module level, as
``np = lazy("numpy")``, and no function body imports. The handle is the
module itself when it is already loaded; otherwise the standard library's
``importlib.util.LazyLoader`` registers it in ``sys.modules``, and the
module runs on its first attribute read, so a command whose path never
reads ``np.`` never loads numpy. A later ``import`` returns the same
module, and so does ``from . import rng`` in a module of this package,
which loads it through ``colorgraph.__getattr__``.
A module must not read a handle at load time: no ``dtype=np.float64``
default, no class attribute from it. Before Python 3.12 that first read is
not thread-safe; a program that calls the package from several threads at
once imports numpy first.
"""
import importlib.util
import numbers
import sys
from collections import namedtuple
from types import ModuleType
from typing import Callable

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
    """A family spec's fields are each valid but cannot go together, such as an odd n*d for a regular graph."""


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


class WorkerDiedError(ColorGraphError):
    """A worker process exited before it returned its block of samples (a crash or the OOM killer)."""


def lazy(name: str) -> ModuleType:
    """The module ``name``: from ``sys.modules`` when it is there, else a handle that loads it on its first read.

    ``name`` is a top-level module or a ``colorgraph`` module. A submodule of another package would not be
    bound on that package, where a later ``import`` of it reads it, and ``find_spec`` would import the package.
    """
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


dataclasses = lazy("dataclasses")  # read by the first Params built: the CLI starts without it

# -- parameter dataclasses ------------------------------------------------------


def _plain(cls: type) -> Callable[[object], bool]:
    """Whether a value is an instance of ``cls`` and neither a bool nor NaN."""
    return lambda x: isinstance(x, cls) and not isinstance(x, bool) and x == x  # NaN != NaN


_Kind = namedtuple("_Kind", "fits noun read")  # read: how a spec-string argument reads

# field annotation -> the kind of value it holds; annotations not listed are not checked
FIELD_KINDS = {
    "int": _Kind(_plain(numbers.Integral), "an integer", int),
    "float": _Kind(_plain(numbers.Real), "a number other than NaN", float),
    "tuple[float, ...]": _Kind(lambda x: isinstance(x, tuple) and all(map(_plain(numbers.Real), x)),
                               "a tuple of numbers other than NaN",
                               lambda text: tuple(float(v) for v in text.split(","))),
}


class Params:
    """Base of the frozen parameter dataclasses: each checks its fields when built, and converts none.

    A field annotated with a kind of ``FIELD_KINDS`` must hold a value of that kind, and a field in ``ranges``
    must then pass its (predicate, description) rule; a failed check raises ValueError.
    """

    ranges: dict[str, tuple[Callable[[object], bool], str]] = {}

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for fits, noun, *_ in filter(None, (FIELD_KINDS.get(f.type), self.ranges.get(f.name))):
                if not fits(value):
                    raise ValueError(f"{type(self).__name__}.{f.name} must be {noun}, got {value!r:.80}")
