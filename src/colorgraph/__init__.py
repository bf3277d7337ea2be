"""colorgraph: monochromatic-subgraph statistics of uniform random colorings.

README's library tour lists the submodules, and each submodule's docstring
states its design. Submodules load on first access: ``import colorgraph``
loads none of them, and ``colorgraph.census`` or ``from colorgraph import
census`` imports ``census`` (and what it imports) then.
"""
import importlib

__version__ = "0.1.0"

_SUBMODULES = ("census", "cli", "colorsim", "errors", "extremal", "graph", "limits", "moments", "rng",
               "spectral", "stats")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
