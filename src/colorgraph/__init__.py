"""colorgraph: monochromatic-subgraph statistics of uniform random colorings.

Submodules:

* ``graph``    - graph type, family generators, edge-list interchange
* ``census``   - exact cycle/subgraph/edge-tuple censuses and pattern classes
* ``extremal`` - fractional stable number, deficiency, structure reports
* ``spectral`` - adjacency spectra and spectral cycle bounds
* ``colorsim`` - reproducible coloring simulation and the enumeration oracle
* ``moments``  - exact rational conditional moments
* ``limits``   - limit laws: construction, evaluation, sampling
* ``stats``    - distances and empirical moment summaries
* ``rng``      - the counter-based random streams
* ``errors``   - the exception hierarchy
* ``cli``      - the ``colorgraph`` command-line interface

Submodules load on first access: ``import colorgraph`` loads none of them,
and ``colorgraph.census`` or ``from colorgraph import census`` imports
``census`` (and what it imports) then.
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
