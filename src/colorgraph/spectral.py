"""Adjacency spectra, trace powers, and spectral cycle bounds.

The full symmetric eigendecomposition is delegated to LAPACK via
``numpy.linalg.eigvalsh`` behind a hard dense-size gate; the returned
spectrum is validated against the exact trace identities sum(lambda) = 0 and
sum(lambda^2) = 2m before it is handed out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, SizeGateExceededError
from .graph import Graph

__all__ = ["Spectrum", "eigenvalues", "check_dense_size", "cycle_upper_bound", "CycleBound"]

DENSE_SIZE_GATE = 4000
_TRACE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Real adjacency eigenvalues, sorted descending."""

    eigenvalues: np.ndarray

    @property
    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.eigenvalues**2)))

    @property
    def normalized(self) -> np.ndarray:
        """eigenvalues / l2 norm; zeros when the spectrum is all zero."""
        norm = self.l2_norm
        if norm == 0.0:
            return np.zeros_like(self.eigenvalues)
        return self.eigenvalues / norm

    @property
    def max_abs(self) -> float:
        if self.eigenvalues.size == 0:
            return 0.0
        return float(np.max(np.abs(self.eigenvalues)))

    @property
    def usn_ratio(self) -> float:
        """max |lambda| / l2 norm; the uniform spectral negligibility ratio."""
        norm = self.l2_norm
        if norm == 0.0:
            return 0.0
        return self.max_abs / norm

    def trace_power(self, g: int) -> float:
        """sum(lambda^g) = tr(A^g), the closed-walk count of length g."""
        return float(np.sum(self.eigenvalues**g))


def check_dense_size(g: Graph) -> None:
    """Raise SizeGateExceededError when ``g`` is too large for :func:`eigenvalues`."""
    if g.n > DENSE_SIZE_GATE:
        raise SizeGateExceededError(
            f"dense eigendecomposition is gated at n <= {DENSE_SIZE_GATE}, got n = {g.n}"
        )


def eigenvalues(g: Graph) -> Spectrum:
    """Full adjacency spectrum of ``g`` (dense; gated at n <= 4000)."""
    check_dense_size(g)
    if g.n == 0:
        vals = np.zeros(0)
    else:
        try:
            vals = np.linalg.eigvalsh(g.adjacency_matrix(np.float64))
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailureError(f"eigendecomposition failed: {exc}") from exc
    vals = np.sort(vals)[::-1].copy()
    vals.setflags(write=False)
    spec = Spectrum(vals)
    if abs(float(np.sum(vals))) > _TRACE_TOL:
        raise ConvergenceFailureError("spectrum failed the zero-trace identity")
    two_m = 2.0 * g.m
    if abs(float(np.sum(vals**2)) - two_m) > _TRACE_TOL * (1.0 + two_m):
        raise ConvergenceFailureError("spectrum failed the tr(A^2) = 2m identity")
    return spec


@dataclass(frozen=True)
class CycleBound:
    """Upper bounds on the number of g-cycles.

    ``edge_bound`` is (2m)^{g/2} / (2g); ``trace_bound`` is the sharper
    intermediate tr(A^g) / (2g), present when a spectrum was supplied.
    """

    edge_bound: float
    trace_bound: float | None = None


def cycle_upper_bound(g: Graph, length: int, spectrum: Spectrum | None = None) -> CycleBound:
    """Closed-walk bounds on the g-cycle count (length >= 3)."""
    if length < 3:
        raise ValueError(f"cycle bound needs length >= 3, got {length}")
    edge_bound = (2.0 * g.m) ** (length / 2.0) / (2.0 * length)
    trace_bound = None
    if spectrum is not None:
        trace_bound = spectrum.trace_power(length) / (2.0 * length)
    return CycleBound(edge_bound=edge_bound, trace_bound=trace_bound)
