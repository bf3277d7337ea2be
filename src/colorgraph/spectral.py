"""Adjacency spectra, trace powers, and spectral cycle bounds.

A graph is the blow-up of its k twin classes, a step graphon, so its spectrum is that of a
k x k matrix plus known class eigenvalues (Lovasz 2012, *Large Networks and Graph Limits*,
ch. 5). LAPACK's ``numpy.linalg.eigvalsh`` takes the k x k matrix behind a hard gate on k; the
spectrum is validated against the trace identities sum(lambda) = 0 and sum(lambda^2) = 2m.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailureError, SizeGateExceededError
from .graph import Graph

__all__ = ["Spectrum", "eigenvalues", "cycle_upper_bound", "CycleBound"]

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
        return float(np.abs(self.eigenvalues).max(initial=0.0))

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


def eigenvalues(g: Graph) -> Spectrum:
    """Full adjacency spectrum of ``g`` from its ``Blowup`` (gated at k <= 4000 twin classes).

    Vectors constant on each class give the eigenvalues of D^1/2 B D^1/2 - diag q, D = diag(sizes);
    those summing to zero on class j give -q_j, s_j - 1 times. On a twin-free host that matrix is A."""
    quotient = g.twin_quotient(DENSE_SIZE_GATE)
    if quotient is None:
        raise SizeGateExceededError(f"the spectrum is gated at k <= {DENSE_SIZE_GATE} twin classes; n = {g.n} has more")
    # B sqrt(s_i s_j), written over the float64 scale; sqrt is exact on a square product, so K_{3,3} gives +-3
    clique, sizes = quotient.blocks.diagonal().astype(np.float64), quotient.sizes.astype(np.float64)
    scale = np.multiply.outer(sizes, sizes)
    blocks = np.multiply(quotient.blocks, np.sqrt(scale, out=scale), out=scale)
    blocks[np.diag_indices(quotient.k)] -= clique
    try:
        vals = np.linalg.eigvalsh(blocks)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(f"eigendecomposition failed: {exc}") from exc
    vals = np.sort(np.concatenate((vals, np.repeat(0.0 - clique, quotient.sizes - 1))))[::-1].copy()  # 0.0 - q: no -0.0
    vals.setflags(write=False)
    if abs(float(np.sum(vals))) > _TRACE_TOL:
        raise ConvergenceFailureError("spectrum failed the zero-trace identity")
    two_m = 2.0 * g.m
    if abs(float(np.sum(vals**2)) - two_m) > _TRACE_TOL * (1.0 + two_m):
        raise ConvergenceFailureError("spectrum failed the tr(A^2) = 2m identity")
    return Spectrum(vals)


@dataclass(frozen=True)
class CycleBound:
    """Upper bounds on the number of g-cycles: (2m)^{g/2} / (2g) and, given a spectrum, the sharper tr(A^g) / (2g)."""

    edge_bound: float
    trace_bound: float | None = None


def cycle_upper_bound(g: Graph, length: int, spectrum: Spectrum | None = None) -> CycleBound:
    """Closed-walk bounds on the g-cycle count (length >= 3)."""
    if not (isinstance(length, numbers.Integral) and length >= 3):  # True is 1, so no bool passes
        raise ValueError(f"cycle bound needs an integer length >= 3, got {length!r}")
    edge_bound = (2.0 * g.m) ** (length / 2.0) / (2.0 * length)
    trace_bound = None
    if spectrum is not None:
        trace_bound = spectrum.trace_power(length) / (2.0 * length)
    return CycleBound(edge_bound=edge_bound, trace_bound=trace_bound)
