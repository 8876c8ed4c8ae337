"""Radial conformal factors on the round sphere and their warped-product form.

The blowup family rescales the round metric g0 by F_L(r)^2 where r is the
polar distance from the blowup point:

    F_L(r) = 1                  for r >= 1,
    F_L(r) = exp(s(2(1-r)) * log(1/r))   on the transition [1/2, 1],
    F_L(r) = 1/r                on [e^-L, 1/2]   (the cylindrical nose),
    F_L(r) = 1/q(r)             below e^-L        (a smooth cap),

with s the quintic smoothstep.  The cap uses q' = s((r-a)/(b-a)) on
[a, b] = [e^-L/2, e^-L], so q levels off C2-smoothly to the constant
3*e^-L/4 while keeping q >= r, hence F_L <= 1/r everywhere below the nose
and F_L(0) = (4/3)e^L.  All derivatives are available in closed form, and
the arclength map t(r) = int F dr is evaluated piecewise exactly (Gauss
quadrature only across the two smoothstep windows, where its inverse is a
safeguarded Newton solve with the closed-form slope dt/dr = F).

In arclength the metric is dt^2 + h(t)^2 g_{S^{n-1}} with h = F sin r, and

    Scal = (n-1) [ (n-2)(1 - h'^2)/h^2 - 2 h''/h ].

``WarpedData.jet`` returns h, h' and h'' at arbitrary arclengths from one
arclength inverse, which is how the intrinsic assembly samples a whole
sweep row's geometry at once (the per-row record in ``operators``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from confspec.grid import RadialGrid

__all__ = [
    "ConformalProfile",
    "WarpedData",
    "profile_infinity",
    "profile_L",
    "constant_profile",
    "volume",
    "warped_reparametrize",
    "scalar_curvature_warped",
    "warped_curvature",
    "sphere_volume_constant",
    "ArclengthInversionError",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_NEWTON_MAX_ITER = 20


class ArclengthInversionError(RuntimeError):
    """The Newton inverse of t(r) left points above its residual tolerance."""


def _smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (6.0 * x - 15.0))


def _dsmoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return 30.0 * x * x * (1.0 - x) ** 2


def _d2smoothstep(x):
    x = np.clip(x, 0.0, 1.0)
    return 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


def _smoothstep_antiderivative(x):
    # S(0) = 0, S(1) = 1/2
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (2.5 + x * (x - 3.0))


def _gl_cumulative(fn, a: float, targets: np.ndarray) -> np.ndarray:
    """int_a^x fn for each target x, one 32-point Gauss rule per target."""
    targets = np.atleast_1d(np.asarray(targets, dtype=float))
    half = 0.5 * (targets - a)
    pts = a + half[:, None] * (_GL_NODES[None, :] + 1.0)
    vals = fn(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GL_WEIGHTS)


def _transition_logF(r):
    return _smoothstep(2.0 * (1.0 - r)) * np.log(1.0 / r)


def _transition_F(r):
    return np.exp(_transition_logF(r))


def _cap_speed(rho):
    # dt/drho across the cap window, independent of L
    return 0.5 / (0.75 + 0.5 * _smoothstep_antiderivative(rho))


class _ProfileEvaluator:
    """Piecewise closed-form F, F', F'' for the blowup profile."""

    def __init__(self, L: float):
        self.L = float(L)
        self.finite = math.isfinite(L)
        self.b = math.exp(-L) if self.finite else 0.0
        self.a = 0.5 * self.b

    def _cap_q(self, r):
        rho = (r - self.a) / (self.b - self.a)
        q = self.b * (0.75 + 0.5 * _smoothstep_antiderivative(rho))
        return q, rho

    def F(self, r):
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        if self.finite:
            m = r < self.a
            out[m] = 1.0 / (0.75 * self.b)
            m = (r >= self.a) & (r < self.b)
            q, _ = self._cap_q(r[m])
            out[m] = 1.0 / q
            m = (r >= self.b) & (r < 0.5)
        else:
            m = (r > 0.0) & (r < 0.5)
            out[r == 0.0] = np.inf
        out[m] = 1.0 / r[m]
        m = (r >= 0.5) & (r < 1.0)
        out[m] = _transition_F(r[m])
        return out

    def dF(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.finite:
            m = (r >= self.a) & (r < self.b)
            q, rho = self._cap_q(r[m])
            out[m] = -_smoothstep(rho) / q**2
            m = (r >= self.b) & (r < 0.5)
        else:
            m = (r > 0.0) & (r < 0.5)
        out[m] = -1.0 / r[m] ** 2
        m = (r >= 0.5) & (r < 1.0)
        rm = r[m]
        lg = np.log(1.0 / rm)
        sv = _smoothstep(2.0 * (1.0 - rm))
        dsv = _dsmoothstep(2.0 * (1.0 - rm))
        gp = -2.0 * dsv * lg - sv / rm
        out[m] = np.exp(sv * lg) * gp
        return out

    def d2F(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        if self.finite:
            m = (r >= self.a) & (r < self.b)
            q, rho = self._cap_q(r[m])
            qp = _smoothstep(rho)
            qpp = _dsmoothstep(rho) / (self.b - self.a)
            out[m] = (2.0 * qp**2 - q * qpp) / q**3
            m = (r >= self.b) & (r < 0.5)
        else:
            m = (r > 0.0) & (r < 0.5)
        out[m] = 2.0 / r[m] ** 3
        m = (r >= 0.5) & (r < 1.0)
        rm = r[m]
        lg = np.log(1.0 / rm)
        sv = _smoothstep(2.0 * (1.0 - rm))
        dsv = _dsmoothstep(2.0 * (1.0 - rm))
        d2sv = _d2smoothstep(2.0 * (1.0 - rm))
        gp = -2.0 * dsv * lg - sv / rm
        gpp = 4.0 * d2sv * lg + 4.0 * dsv / rm + sv / rm**2
        out[m] = np.exp(sv * lg) * (gpp + gp * gp)
        return out


class _ArclengthMap:
    """t(r) = int_0^r F and its inverse, piecewise exact except across the
    two smoothstep windows, where the inverse is a bracketed Newton solve.

    For L = infinity the nose is infinitely long, so the origin is moved to
    t(1) = 0 and t diverges to -infinity at the blowup point.
    """

    def __init__(self, ev: _ProfileEvaluator):
        self.ev = ev
        b, a = ev.b, ev.a
        if ev.finite:
            self.t_a = 2.0 / 3.0
            self.t_b = self.t_a + float(_gl_cumulative(_cap_speed, 0.0, np.array([1.0]))[0])
            self.t_half = self.t_b + math.log(0.5 / b)
        else:
            self.t_half = None
        self.len_transition = float(
            _gl_cumulative(_transition_F, 0.5, np.array([1.0]))[0]
        )
        if ev.finite:
            self.t_one = self.t_half + self.len_transition
        else:
            self.t_one = 0.0
            self.t_half = -self.len_transition

    def t_of_r(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        ev = self.ev
        out = np.empty_like(r)
        if ev.finite:
            m = r < ev.a
            out[m] = r[m] / (0.75 * ev.b)
            m = (r >= ev.a) & (r < ev.b)
            if np.any(m):
                rho = (r[m] - ev.a) / (ev.b - ev.a)
                out[m] = self.t_a + _gl_cumulative(_cap_speed, 0.0, rho)
            m = (r >= ev.b) & (r < 0.5)
            out[m] = self.t_b + np.log(r[m] / ev.b)
        else:
            m = (r > 0.0) & (r < 0.5)
            out[m] = self.t_half + np.log(2.0 * r[m])
            out[r == 0.0] = -np.inf
        m = (r >= 0.5) & (r < 1.0)
        if np.any(m):
            out[m] = self.t_half + _gl_cumulative(_transition_F, 0.5, r[m])
        m = r >= 1.0
        out[m] = self.t_one + (r[m] - 1.0)
        return out

    def _invert_window(self, t, lo, hi, t_lo, t_hi):
        """Safeguarded Newton solve of t_of_r(r) = t for r in [lo, hi], which
        t_of_r maps onto [t_lo, t_hi]; the slope dt/dr is F in closed form."""
        r = lo + (hi - lo) * (t - t_lo) / (t_hi - t_lo)
        tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(t), 1.0)
        for _ in range(_NEWTON_MAX_ITER):
            f = self.t_of_r(r) - t
            lo = np.where(f < 0.0, r, lo)
            hi = np.where(f < 0.0, hi, r)
            done = np.abs(f) <= tol
            step = r - f / self.ev.F(r)
            # converged points take their last step too unless it leaves the
            # bracket: the tolerance spans several ulps of t, the step does not
            r = np.where((step > lo) & (step < hi), step, np.where(done, r, 0.5 * (lo + hi)))
            if done.all():
                return r
        raise ArclengthInversionError(
            f"arclength inverse left {np.count_nonzero(~done)} point(s) unconverged "
            f"after {_NEWTON_MAX_ITER} Newton steps"
        )

    def r_of_t(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        ev = self.ev
        out = np.empty_like(t)
        if ev.finite:
            m = t < self.t_a
            out[m] = 0.75 * ev.b * t[m]
            m = (t >= self.t_a) & (t < self.t_b)
            if np.any(m):
                out[m] = self._invert_window(t[m], ev.a, ev.b, self.t_a, self.t_b)
            m = (t >= self.t_b) & (t < self.t_half)
            out[m] = ev.b * np.exp(t[m] - self.t_b)
        else:
            m = t < self.t_half
            out[m] = 0.5 * np.exp(t[m] - self.t_half)
        m = (t >= self.t_half) & (t < self.t_one)
        if np.any(m):
            out[m] = self._invert_window(t[m], 0.5, 1.0, self.t_half, self.t_one)
        m = t >= self.t_one
        out[m] = 1.0 + (t[m] - self.t_one)
        return out

    def total(self) -> float:
        if not self.ev.finite:
            return math.inf
        return self.t_one + (math.pi - 1.0)


@dataclass(frozen=True)
class ConformalProfile:
    """Rotationally symmetric conformal factor r -> F(r) > 0 on (0, pi].

    F, dF, d2F are vectorized closed-form evaluators.  The arclength map
    t(r) = int_0^r F (origin shifted to t(1) = 0 when L is infinite) is
    exposed through the method API.  ``kink_radii`` lists the radii where F
    is only C2 (region boundaries); quadrature grids should place nodes
    there so no cell straddles a derivative jump.
    """

    n: int
    L: float
    F: Callable[[np.ndarray], np.ndarray]
    dF: Callable[[np.ndarray], np.ndarray]
    d2F: Callable[[np.ndarray], np.ndarray]
    kink_radii: tuple[float, ...] = ()
    _arc: object = field(repr=False, default=None)

    def arclength_of_r(self, r):
        return self._arc.t_of_r(r)

    def r_of_arclength(self, t):
        return self._arc.r_of_t(t)

    def total_arclength(self) -> float:
        return self._arc.total()


def profile_infinity(n: int) -> ConformalProfile:
    """The complete blowup profile F(r) = 1/r below the transition."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    ev = _ProfileEvaluator(math.inf)
    return ConformalProfile(
        n=n, L=math.inf, F=ev.F, dF=ev.dF, d2F=ev.d2F,
        kink_radii=(0.5, 1.0), _arc=_ArclengthMap(ev),
    )


def profile_L(n: int, L: float) -> ConformalProfile:
    """Nose-length-L profile: equals the blowup profile on r >= e^-L, smooth
    bounded cap below."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not L >= 1.0:
        raise ValueError("nose length L must be at least 1")
    ev = _ProfileEvaluator(float(L))
    b = math.exp(-float(L))
    return ConformalProfile(
        n=n, L=float(L), F=ev.F, dF=ev.dF, d2F=ev.d2F,
        kink_radii=(0.5 * b, b, 0.5, 1.0), _arc=_ArclengthMap(ev),
    )


class _ConstantArc:
    def __init__(self, c):
        self.c = c

    def t_of_r(self, r):
        return self.c * np.atleast_1d(np.asarray(r, dtype=float))

    def r_of_t(self, t):
        return np.atleast_1d(np.asarray(t, dtype=float)) / self.c

    def total(self):
        return self.c * math.pi


def constant_profile(c: float, n: int = 3) -> ConformalProfile:
    """F identically c: the constant rescaling g -> c^2 g."""
    if c <= 0.0:
        raise ValueError("constant conformal factor must be positive")

    def F(r):
        return np.full_like(np.asarray(r, dtype=float), c)

    def zero(r):
        return np.zeros_like(np.asarray(r, dtype=float))

    return ConformalProfile(n=n, L=0.0, F=F, dF=zero, d2F=zero, _arc=_ConstantArc(c))


def sphere_volume_constant(n: int) -> float:
    """Volume of the unit round S^(n-1) (the girth constant of the nose)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def volume(profile: ConformalProfile, grid: RadialGrid) -> float:
    """vol(S^n, F^2 g0) = omega_{n-1} int_0^pi F^n sin^(n-1) r dr.

    Second-order composite Gauss quadrature on the grid cells, extended by
    the two end cells so the full interval (0, pi) is covered.
    """
    if math.isinf(profile.L):
        raise ValueError("infinite volume")
    if grid.coordinate_kind != "polar":
        raise ValueError("volume quadrature expects a polar grid")
    cap = math.exp(-profile.L)
    if grid.nodes[0] > cap * (1.0 + 1e-12) or grid.nodes[-1] < 1.0:
        raise ValueError("grid does not resolve the nose interval [e^-L, 1]")
    n = profile.n
    edges = np.concatenate([[0.0], grid.nodes, [math.pi]])
    he = np.diff(edges)
    left = edges[:-1]
    total = 0.0
    for g in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
        x = left + g * he
        total += np.sum(0.5 * he * profile.F(x) ** n * np.sin(x) ** (n - 1))
    return sphere_volume_constant(n) * float(total)


@dataclass(frozen=True)
class WarpedData:
    """Arclength presentation dt^2 + h(t)^2 g_{S^(n-1)} of a profile metric.

    Carries nodal samples of h, h', h'' plus ``jet``, which returns all
    three at arbitrary arclengths, so assembly routines can query their
    quadrature points.
    """

    t_nodes: np.ndarray
    h: np.ndarray
    dh: np.ndarray
    d2h: np.ndarray
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)


def warped_reparametrize(profile: ConformalProfile, grid: RadialGrid) -> WarpedData:
    """Warped-product data of the profile metric on a grid.

    Polar grids are pushed forward through t(r); arclength grids are used
    as-is (nodal values obtained through the inverse map).  Each ``jet``
    call runs the arclength inverse once.
    """

    def jet_of_r(r):
        F, dF, sin = profile.F(r), profile.dF(r), np.sin(r)
        h = F * sin
        dh = (dF * sin + F * np.cos(r)) / F
        d2h = (F * profile.d2F(r) * sin + F * dF * np.cos(r) - F * F * sin - dF * dF * sin) / F**3
        return h, dh, d2h

    if grid.coordinate_kind == "polar":
        r_nodes = grid.nodes
        t_nodes = profile.arclength_of_r(r_nodes)
    else:
        t_nodes = grid.nodes
        r_nodes = profile.r_of_arclength(t_nodes)
    h, dh, d2h = jet_of_r(r_nodes)
    return WarpedData(
        t_nodes=t_nodes,
        h=h,
        dh=dh,
        d2h=d2h,
        jet=lambda t: jet_of_r(profile.r_of_arclength(t)),
    )


def warped_curvature(h, dh, d2h, n: int) -> np.ndarray:
    """Scalar curvature of dt^2 + h^2 g_{S^(n-1)} from samples of h, h', h''."""
    return (n - 1.0) * ((n - 2.0) * (1.0 - dh**2) / h**2 - 2.0 * d2h / h)


def scalar_curvature_warped(warped: WarpedData, n: int) -> np.ndarray:
    """Nodewise scalar curvature of the warped metric."""
    return warped_curvature(warped.h, warped.dh, warped.d2h, n)
