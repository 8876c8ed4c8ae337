"""Radial grids and piecewise-linear assembly of 1-D self-adjoint weak forms.

A grid is a strictly increasing set of interior nodes of either the polar
interval (0, pi) or an arclength interval (0, T).  Endpoints are never nodes:
the coordinate singularities at the poles are handled by a small offset plus
either an essential zero condition at both walls (``pinned``) or a natural
condition at both, chosen per angular mode by the callers.

The assembly discretizes

    a(u, v) = int p u' v' + q u v dx ,     m(u, v) = int w u v dx

with P1 elements and a two-point Gauss rule per cell, which is exact for the
polynomial part and keeps both matrices tridiagonal.  ``quadrature_points``
alone lays out the Gauss points and ``assemble_weak_form`` takes p, q, w
already sampled there, so a caller deriving all three from one geometry
samples it once.

Every matrix stays in LAPACK band storage (``BandedSymmetric``) from
assembly to eigensolve, the eigensolver's iterative route included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialGrid",
    "BandedSymmetric",
    "make_grid",
    "quadrature_points",
    "assemble_mass",
    "assemble_weak_form",
]

_GAUSS_OFFSETS = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))
# (left hat, right hat) of a cell at each Gauss point
_HATS = tuple((1.0 - g, g) for g in _GAUSS_OFFSETS)

MIN_NODES = 16


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing interior nodes of (0, span)."""

    nodes: np.ndarray
    coordinate_kind: str  # "polar" | "arclength"
    span: float  # full domain is the open interval (0, span)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < MIN_NODES:
            raise ValueError("node count too small")
        if not np.all(np.diff(nodes) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] >= self.span:
            raise ValueError("grid nodes must lie strictly inside (0, span)")


@dataclass(frozen=True)
class BandedSymmetric:
    """Symmetric banded matrix in LAPACK lower storage.

    ``bands[d, j] = A[j + d, j]`` for d = 0..bandwidth; entries past the
    matrix edge are zero padding.  Only the lower triangle is stored, the
    matrix is symmetric by construction.
    """

    bands: np.ndarray

    def __post_init__(self):
        bands = np.asarray(self.bands, dtype=float)
        if bands.ndim != 2:
            raise ValueError("bands must be a 2-d array")
        object.__setattr__(self, "bands", bands)

    @property
    def size(self) -> int:
        return self.bands.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.bands.shape[0] - 1

    @classmethod
    def from_tridiagonal(cls, diag: np.ndarray, sub: np.ndarray) -> "BandedSymmetric":
        m = len(diag)
        bands = np.zeros((2, m))
        bands[0] = diag
        bands[1, : m - 1] = sub
        return cls(bands)

    @classmethod
    def from_diagonal(cls, diag: np.ndarray) -> "BandedSymmetric":
        return cls(np.asarray(diag, dtype=float)[None, :].copy())

    def to_dense(self) -> np.ndarray:
        m = self.size
        dense = np.diag(self.bands[0])
        for d in range(1, self.bandwidth + 1):
            i = np.arange(m - d)
            dense[i + d, i] = dense[i, i + d] = self.bands[d, : m - d]
        return dense

    def matvec(self, x: np.ndarray) -> np.ndarray:
        m = self.size
        y = self.bands[0] * x
        for d in range(1, self.bandwidth + 1):
            band = self.bands[d, : m - d]
            y[d:] += band * x[: m - d]
            y[: m - d] += band * x[d:]
        return y

    def scaled(self, c: float) -> "BandedSymmetric":
        return BandedSymmetric(c * self.bands)

    def add_scaled(self, other: "BandedSymmetric", c: float) -> "BandedSymmetric":
        """Return self + c * other, aligning bandwidths."""
        bw = max(self.bandwidth, other.bandwidth)
        m = self.size
        if other.size != m:
            raise ValueError("size mismatch")
        bands = np.zeros((bw + 1, m))
        bands[: self.bandwidth + 1] += self.bands
        bands[: other.bandwidth + 1] += c * other.bands
        return BandedSymmetric(bands)


def make_grid(kind: str, N: int, *, length: float | None = None) -> RadialGrid:
    """Build a uniform radial grid with N interior nodes at span*i/(N+1).

    ``kind`` is "polar" (domain (0, pi)) or "arclength" (domain (0, length),
    ``length`` required).  Grids that resolve the nose are built from the
    profile's arclength map instead (``experiments.nose_resolving_grid``).
    """
    if N < MIN_NODES:
        raise ValueError("node count too small")
    if kind == "polar":
        span = math.pi
        if length is not None:
            raise ValueError("length applies to arclength grids only")
    elif kind == "arclength":
        if length is None or length <= 0.0:
            raise ValueError("arclength grids require a positive length")
        span = float(length)
    else:
        raise ValueError(f"unknown coordinate kind {kind!r}")
    nodes = span * np.arange(1, N + 1) / (N + 1)
    return RadialGrid(nodes=nodes, coordinate_kind=kind, span=span)


def _wall_cells(grid: RadialGrid, pinned: bool):
    """(wall, width, adjacent node) of both wall cells of a pinned grid, left
    first; none for a free one."""
    if not pinned:
        return []
    nodes = grid.nodes
    return [(0.0, nodes[0], 0), (nodes[-1], grid.span - nodes[-1], nodes.size - 1)]


def quadrature_points(grid: RadialGrid, pinned: bool = False) -> np.ndarray:
    """The first Gauss point of every cell, then the second of every cell,
    then, when ``pinned``, both points of each wall cell (left wall first)."""
    left = grid.nodes[:-1]
    he = np.diff(grid.nodes)
    points = [left + g * he for g in _GAUSS_OFFSETS]
    for wall, hb, _ in _wall_cells(grid, pinned):
        points.append(np.array([wall + g * hb for g in _GAUSS_OFFSETS]))
    return np.concatenate(points)


def _samples(grid: RadialGrid, pinned: bool, **coefficients):
    """Each coefficient, checked to hold one finite value per point of
    ``quadrature_points(grid, pinned)``, as its samples split into one row
    per Gauss point and one row per wall cell."""
    m = grid.nodes.size
    shape = (2 * (m - 1) + 2 * len(_wall_cells(grid, pinned)),)  # the points' shape
    for name, vals in coefficients.items():
        vals = np.asarray(vals, dtype=float)
        if vals.shape != shape:
            raise ValueError(f"coefficient {name!r} has shape {vals.shape}, expected {shape}")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            k = int(bad[0])  # name the cell, not the position in the point array
            where = f"cell {k % (m - 1)}" if k < 2 * (m - 1) else "a wall cell"
            x = quadrature_points(grid, pinned)[k]
            raise ValueError(f"non-finite coefficient {name!r} at {where} (x = {x:.6g})")
        yield vals[: 2 * (m - 1)].reshape(2, -1), vals[2 * (m - 1) :].reshape(-1, 2)


def assemble_mass(grid: RadialGrid, w, pinned: bool = False) -> BandedSymmetric:
    """Assemble the tridiagonal mass M of m(u, v) = int w u v dx from w
    sampled at ``quadrature_points(grid, pinned)``, the boundary cells of
    pinned ends included as in ``assemble_weak_form``."""
    ((interior, at_walls),) = _samples(grid, pinned, w=w)
    m = grid.nodes.size
    wq = 0.5 * np.diff(grid.nodes)
    m_diag = np.zeros(m)
    m_sub = np.zeros(m - 1)
    for (phi0, phi1), wv in zip(_HATS, interior):
        m_diag[:-1] += wq * wv * phi0 * phi0
        m_diag[1:] += wq * wv * phi1 * phi1
        m_sub += wq * wv * phi0 * phi1
    for (_, hb, idx), samples in zip(_wall_cells(grid, pinned), at_walls):
        for (phi0, phi1), wv in zip(_HATS, samples):
            phi = phi1 if idx == 0 else phi0  # rises toward the interior
            m_diag[idx] += 0.5 * hb * wv * phi * phi
    return BandedSymmetric.from_tridiagonal(m_diag, m_sub)


def assemble_weak_form(
    grid: RadialGrid, p, q, w, pinned: bool = False
) -> tuple[BandedSymmetric, BandedSymmetric]:
    """Assemble the tridiagonal pair (A, M) from p, q, w sampled at
    ``quadrature_points(grid, pinned)``; M is ``assemble_mass``'s.

    Pinned ends hold the solution to zero at both domain walls: the boundary
    cell between each wall and its first node is included, with the wall
    value's row and column eliminated.  Free ends simply truncate the
    integrals at the offset nodes, which is the right treatment for the
    coordinate poles where the measure weight vanishes.

    Both returned matrices are exactly symmetric by construction.
    """
    (p_in, p_walls), (q_in, q_walls) = _samples(grid, pinned, p=p, q=q)
    M = assemble_mass(grid, w, pinned)
    m = grid.nodes.size
    he = np.diff(grid.nodes)
    wq = 0.5 * he
    a_diag = np.zeros(m)
    a_sub = np.zeros(m - 1)
    for (phi0, phi1), pv, qv in zip(_HATS, p_in, q_in):
        stiff = wq * pv / he**2
        a_diag[:-1] += stiff + wq * qv * phi0 * phi0
        a_diag[1:] += stiff + wq * qv * phi1 * phi1
        a_sub += -stiff + wq * qv * phi0 * phi1

    # boundary cells of pinned ends (the hat rises from 0 at the wall)
    for (_, hb, idx), *samples in zip(_wall_cells(grid, pinned), p_walls, q_walls):
        for (phi0, phi1), pv, qv in zip(_HATS, *samples):
            phi = phi1 if idx == 0 else phi0
            a_diag[idx] += 0.5 * hb * (pv / hb**2 + qv * phi * phi)
    return BandedSymmetric.from_tridiagonal(a_diag, a_sub), M
