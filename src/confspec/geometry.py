"""Radial conformal factors on the round sphere and their warped-product form.

The blowup family rescales the round metric g0 by F_L(r)^2, for a finite
nose length L >= 1, where r is the polar distance from the blowup point:

    F_L(r) = 1                  for r >= 1,
    F_L(r) = exp(s(2(1-r)) * log(1/r))   on the transition [1/2, 1],
    F_L(r) = 1/r                on [e^-L, 1/2]   (the cylindrical nose),
    F_L(r) = 1/q(r)             below e^-L        (a smooth cap),

with s the quintic smoothstep.  The cap uses q' = s((r-a)/(b-a)) on
[a, b] = [e^-L/2, e^-L], so q levels off C2-smoothly to the constant
3*e^-L/4 while keeping q >= r, hence F_L <= 1/r everywhere below the nose
and F_L(0) = (4/3)e^L.  All derivatives are available in closed form, and
the arclength map t(r) = int F dr is evaluated piecewise exactly except
across the two smoothstep windows.  Their speeds do not depend on L, so
each window is tabulated once per process (arclength and slope at uniform
knots): t(r) is the nearest knot's value plus a short Gauss rule, and the
inverse is a safeguarded Newton solve on that window's own forward map and
closed-form slope dt/dr = F, started from a quintic-Hermite inverse of the
table.  Each profile family is one private subclass of ``ConformalProfile``
that answers ``F``, ``jet``, ``t_of_r``, ``r_of_t`` and ``total_arclength``
and lists its kinks: ``_Nose`` for ``profile_L`` and ``_Constant`` for
``constant_profile``.  The kinks are the one rule for what a grid must
resolve: ``ConformalProfile.arclength_nodes`` puts a node on each, and
``volume`` rejects a polar grid that does not reach from the first to the
last.

In arclength the metric is dt^2 + h(t)^2 g_{S^{n-1}} with h = F sin r, and

    Scal = (n-1) [ (n-2)(1 - h'^2)/h^2 - 2 h''/h ].

``warped_jet`` returns h, h' and h'' at polar distances.  The intrinsic
assembly (``operators.intrinsic_record``) maps a row's arclength nodes and
sample points to polar distances with one ``r_of_arclength`` call and
reads the whole row's geometry from there; ``warped_reparametrize`` gives
the same data for an arbitrary grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from confspec.grid import _GAUSS_OFFSETS, MIN_NODES, RadialGrid

__all__ = [
    "ConformalProfile",
    "WarpedData",
    "profile_L",
    "constant_profile",
    "volume",
    "warped_jet",
    "warped_reparametrize",
    "warped_curvature",
    "sphere_volume_constant",
    "ArclengthInversionError",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_NEWTON_MAX_ITER = 20
# Each smoothstep window is tabulated at _WINDOW_KNOTS + 1 uniform knots; a
# point's arclength is its nearest knot's plus a _LOCAL_ORDER-point rule over
# at most half a spacing.  With 512 and 6 the forward map agrees with one
# 32-point rule from the window start to 4e-15 at L in {1, 4, 8, 30}, and the
# quintic Hermite start of the inverse lies within 2.2e-16 of the root in t.
_WINDOW_KNOTS = 512
_LOCAL_ORDER = 6
_LOCAL_NODES, _LOCAL_WEIGHTS = np.polynomial.legendre.leggauss(_LOCAL_ORDER)


class ArclengthInversionError(RuntimeError):
    """The Newton inverse of t(r) left points above its residual tolerance."""


# The smoothstep helpers take x in [0, 1] as they are: every caller passes
# points of a window (a masked region of the profile or a bracketed Newton
# iterate), so no clip is needed on the hot paths.
def _smoothstep(x):
    return x * x * x * (10.0 + x * (6.0 * x - 15.0))


def _dsmoothstep(x):
    return 30.0 * x * x * (1.0 - x) ** 2


def _d2smoothstep(x):
    return 60.0 * x * (1.0 - x) * (1.0 - 2.0 * x)


def _smoothstep_antiderivative(x):
    # S(0) = 0, S(1) = 1/2
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


def _transition_jet(r):
    """F, F' and F'' on the transition window [1/2, 1], whose F does not
    depend on L."""
    lg = np.log(1.0 / r)
    x = 2.0 * (1.0 - r)
    sv, dsv, d2sv = _smoothstep(x), _dsmoothstep(x), _d2smoothstep(x)
    e = np.exp(sv * lg)
    gp = -2.0 * dsv * lg - sv / r
    gpp = 4.0 * d2sv * lg + 4.0 * dsv / r + sv / r**2
    return e, e * gp, e * (gpp + gp * gp)


def _cap_speed(rho):
    # dt/drho across the cap window, independent of L
    return 0.5 / (0.75 + 0.5 * _smoothstep_antiderivative(rho))


def _cap_dspeed(rho):
    return -0.25 * _smoothstep(rho) / (0.75 + 0.5 * _smoothstep_antiderivative(rho)) ** 2


class _WindowTable:
    """Arclength t(u) = int_u0^u speed across one smoothstep window, whose
    speed does not depend on L, tabulated once per process.

    The knots carry t from one 32-point rule each, so ``t_of_u`` integrates
    only from the nearest knot.  ``u_guess`` inverts by the quintic Hermite
    interpolant between knots of u, the slope du/dt = 1/speed and the
    curvature d2u/dt2 = -speed'(u) / speed(u)^3 (``dspeed`` is speed's
    closed-form derivative), stored per knot interval as coefficients in
    s = (t - t_j) / (t_j+1 - t_j).  The start lies within rounding of the
    root (2.2e-16 in t over 2e5 points per window), so the Newton solve's
    first convergence check passes and a window point costs one forward
    evaluation; without the curvature terms it lay up to 1.6e-12 off and
    took two.
    """

    def __init__(self, speed, dspeed, u0: float, u1: float):
        self.speed, self.u0 = speed, u0
        self.spacing = (u1 - u0) / _WINDOW_KNOTS
        self.u = np.linspace(u0, u1, _WINDOW_KNOTS + 1)
        self.t = _gl_cumulative(speed, u0, self.u)
        self.total = float(self.t[-1])
        v = speed(self.u)
        curvature = -dspeed(self.u) / v**3
        self.dt = np.diff(self.t)
        # value, slope and curvature at both ends of each interval, in s
        du = np.diff(self.u)
        v0, v1 = self.dt / v[:-1], self.dt / v[1:]
        a0, a1 = self.dt**2 * curvature[:-1], self.dt**2 * curvature[1:]
        # highest power first, for Horner's rule
        self.coefficients = np.stack([
            6.0 * du - 3.0 * (v0 + v1) - 0.5 * (a0 - a1),
            -15.0 * du + 8.0 * v0 + 7.0 * v1 + 1.5 * a0 - a1,
            10.0 * du - 6.0 * v0 - 4.0 * v1 - 1.5 * a0 + 0.5 * a1,
            0.5 * a0,
            v0,
            self.u[:-1],
        ], axis=1)

    def t_of_u(self, u):
        k = np.rint((u - self.u0) / self.spacing).astype(int)
        half = 0.5 * (u - self.u[k])
        pts = (self.u[k] + half)[:, None] + half[:, None] * _LOCAL_NODES[None, :]
        vals = self.speed(pts.ravel()).reshape(pts.shape)
        return self.t[k] + half * (vals @ _LOCAL_WEIGHTS)

    def u_guess(self, t):
        j = np.searchsorted(self.t, t, side="right") - 1
        j = np.minimum(np.maximum(j, 0), _WINDOW_KNOTS - 1)
        s = (t - self.t[j]) / self.dt[j]
        c = self.coefficients[j]
        u = c[:, 0]
        for k in range(1, 6):
            u = u * s + c[:, k]
        return u


_CAP_WINDOW = _WindowTable(_cap_speed, _cap_dspeed, 0.0, 1.0)  # u = rho = (r - a)/(b - a)
_TRANSITION_WINDOW = _WindowTable(_transition_F, lambda r: _transition_jet(r)[1], 0.5, 1.0)  # u = r


class ConformalProfile:
    """Rotationally symmetric conformal factor r -> F(r) > 0 on (0, pi] of
    the round S^n, one subclass per profile family.

    A family answers ``F`` and ``jet`` (F, F' and F'' together), vectorized
    and in closed form, and the arclength map ``t_of_r`` = int_0^r F with
    its inverse ``r_of_t`` and its ``total_arclength``, t(pi).  The checked
    public methods ``arclength_of_r`` and ``r_of_arclength`` raise
    ``ValueError`` for a NaN or a value outside [0, pi] (for t(r)) or
    [0, total_arclength()] (for the inverse) before they call the family's
    map.
    ``kink_radii`` lists the polar distances where F is only C2, in
    increasing order, and ``kink_arclengths`` their images under t(r).
    ``arclength_nodes`` places a node on every kink, so no quadrature cell
    straddles a derivative jump, and ``volume`` asks a polar grid to reach
    from the first kink radius to the last.
    """

    kink_radii: tuple[float, ...] = ()
    kink_arclengths: tuple[float, ...] = ()

    def __init__(self, n: int):
        self.n = n

    def arclength_of_r(self, r):
        r = np.atleast_1d(np.asarray(r, dtype=float))
        bad = ~((r >= 0.0) & (r <= math.pi))  # a NaN is outside too
        if bad.any():
            raise ValueError(f"polar distance {r[bad][0]:g} outside [0, pi]")
        return self.t_of_r(r)

    def r_of_arclength(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        total = self.total_arclength()
        bad = ~((t >= 0.0) & (t <= total))
        if bad.any():
            raise ValueError(f"arclength {t[bad][0]:g} outside [0, {total:g}]")
        return self.r_of_t(t)

    def arclength_nodes(self, N: int, exponent: float = 1.0) -> np.ndarray:
        """The N arclength nodes T (i/(N+1))^exponent, i = 1..N, with every
        kink snapped onto the nearest node that no earlier kink took, so two
        kinks that share a nearest node both land on nodes.  A polar grid
        built from them is their image, bit for bit."""
        if N < MIN_NODES:
            raise ValueError("node count too small")
        t = self.total_arclength() * (np.arange(1, N + 1) / (N + 1)) ** exponent
        taken = np.zeros(N, dtype=bool)
        for tk in self.kink_arclengths:
            j = int(np.argmin(np.where(taken, np.inf, np.abs(t - tk))))
            t[j], taken[j] = tk, True
        t.sort()
        return t


class _Nose(ConformalProfile):
    """The blowup profile of nose length L, in closed form: ``F`` alone, or
    F, F' and F'' from ``jet``, and the arclength map ``t_of_r`` =
    int_0^r F with its inverse ``r_of_t`` and its ``total_arclength``.
    t(r) is exact except across the two smoothstep windows, where it is read
    from the window tables and the inverse is a bracketed Newton solve
    started from them."""

    def __init__(self, n: int, L: float):
        super().__init__(n)
        self.b = math.exp(-L)
        self.a = 0.5 * self.b
        # t(r) at the kinks a, b, 1/2 and 1
        self.t_a = 2.0 / 3.0
        self.t_b = self.t_a + _CAP_WINDOW.total
        self.t_half = self.t_b + math.log(0.5 / self.b)
        self.t_one = self.t_half + _TRANSITION_WINDOW.total
        self.kink_radii = (self.a, self.b, 0.5, 1.0)
        self.kink_arclengths = (self.t_a, self.t_b, self.t_half, self.t_one)

    def _cap(self, r):
        """rho = (r - a)/(b - a) and q(r) on the cap window [a, b]."""
        rho = (r - self.a) / (self.b - self.a)
        return rho, self.b * (0.75 + 0.5 * _smoothstep_antiderivative(rho))

    def _cap_forward(self, r):
        """t(r) and the slope dt/dr = F = 1/q across the cap window [a, b]."""
        rho, q = self._cap(r)
        return self.t_a + _CAP_WINDOW.t_of_u(rho), 1.0 / q

    def _transition_forward(self, r):
        """t(r) and the slope dt/dr = F across the transition window [1/2, 1]."""
        return self.t_half + _TRANSITION_WINDOW.t_of_u(r), _transition_F(r)

    def F(self, r):
        r = np.asarray(r, dtype=float)
        out = np.ones_like(r)
        m = r < self.a
        out[m] = 1.0 / (0.75 * self.b)
        m = (r >= self.a) & (r < self.b)
        out[m] = 1.0 / self._cap(r[m])[1]
        m = (r >= self.b) & (r < 0.5)
        out[m] = 1.0 / r[m]
        m = (r >= 0.5) & (r < 1.0)
        out[m] = _transition_F(r[m])
        return out

    def jet(self, r):
        """F, F' and F'' at r, sharing the region masks and window terms."""
        r = np.asarray(r, dtype=float)
        F, dF, d2F = np.ones_like(r), np.zeros_like(r), np.zeros_like(r)
        m = r < self.a
        F[m] = 1.0 / (0.75 * self.b)
        m = (r >= self.a) & (r < self.b)
        rho, q = self._cap(r[m])
        qp = _smoothstep(rho)
        qpp = _dsmoothstep(rho) / (self.b - self.a)
        F[m] = 1.0 / q
        dF[m] = -qp / q**2
        d2F[m] = (2.0 * qp**2 - q * qpp) / q**3
        m = (r >= self.b) & (r < 0.5)
        rm = r[m]
        F[m] = 1.0 / rm
        dF[m] = -1.0 / rm**2
        d2F[m] = 2.0 / rm**3
        m = (r >= 0.5) & (r < 1.0)
        F[m], dF[m], d2F[m] = _transition_jet(r[m])
        return F, dF, d2F

    def t_of_r(self, r):
        out = np.empty_like(r)
        m = r < self.a
        out[m] = r[m] / (0.75 * self.b)
        m = (r >= self.a) & (r < self.b)
        if np.any(m):
            out[m] = self._cap_forward(r[m])[0]
        m = (r >= self.b) & (r < 0.5)
        out[m] = self.t_b + np.log(r[m] / self.b)
        m = (r >= 0.5) & (r < 1.0)
        if np.any(m):
            out[m] = self._transition_forward(r[m])[0]
        m = r >= 1.0
        out[m] = self.t_one + (r[m] - 1.0)
        return out

    def _invert_window(self, t, r, lo, hi, forward):
        """Safeguarded Newton solve of t(r) = t for r in [lo, hi] from the
        starting points r.  ``forward`` is the window's own closed-form map
        and slope, which agree with ``t_of_r`` and F bit for bit on the
        window, its ends included, so no step reads the other regions."""
        r = np.minimum(np.maximum(r, lo), hi)
        tol = 4.0 * np.finfo(float).eps * np.maximum(np.abs(t), 1.0)
        done = np.zeros(r.shape, dtype=bool)  # what a cap of 0 steps reports
        for _ in range(_NEWTON_MAX_ITER):
            t_r, slope = forward(r)
            f = t_r - t
            lo = np.where(f < 0.0, r, lo)
            hi = np.where(f < 0.0, hi, r)
            done = np.abs(f) <= tol
            step = r - f / slope
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
        out = np.empty_like(t)
        m = t < self.t_a
        out[m] = 0.75 * self.b * t[m]
        m = (t >= self.t_a) & (t < self.t_b)
        if np.any(m):
            r0 = self.a + (self.b - self.a) * _CAP_WINDOW.u_guess(t[m] - self.t_a)
            out[m] = self._invert_window(t[m], r0, self.a, self.b, self._cap_forward)
        m = (t >= self.t_b) & (t < self.t_half)
        out[m] = self.b * np.exp(t[m] - self.t_b)
        m = (t >= self.t_half) & (t < self.t_one)
        if np.any(m):
            r0 = _TRANSITION_WINDOW.u_guess(t[m] - self.t_half)
            out[m] = self._invert_window(t[m], r0, 0.5, 1.0, self._transition_forward)
        m = t >= self.t_one
        out[m] = 1.0 + (t[m] - self.t_one)
        return out

    def total_arclength(self) -> float:
        return self.t_one + (math.pi - 1.0)


class _Constant(ConformalProfile):
    """F identically c, so t = c r; it has no kinks."""

    def __init__(self, n: int, c: float):
        super().__init__(n)
        self.c = c

    def F(self, r):
        return np.full_like(np.asarray(r, dtype=float), self.c)

    def jet(self, r):
        zero = np.zeros_like(np.asarray(r, dtype=float))
        return self.F(r), zero, zero

    def t_of_r(self, r):
        return self.c * r

    def r_of_t(self, t):
        return t / self.c

    def total_arclength(self) -> float:
        return self.c * math.pi


def profile_L(n: int, L: float) -> ConformalProfile:
    """Nose-length-L profile: 1/r on the nose [e^-L, 1/2], a smooth bounded
    cap below it and the fixed transition to 1 above."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    if not (math.isfinite(L) and L >= 1.0):
        raise ValueError(f"nose length L must be finite and at least 1, got {L:g}")
    return _Nose(n, float(L))


def constant_profile(c: float, n: int = 3) -> ConformalProfile:
    """F identically c: the constant rescaling g -> c^2 g."""
    if c <= 0.0:
        raise ValueError("constant conformal factor must be positive")
    return _Constant(n, c)


def sphere_volume_constant(n: int) -> float:
    """Volume of the unit round S^(n-1) (the girth constant of the nose)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def volume(profile: ConformalProfile, grid: RadialGrid) -> float:
    """vol(S^n, F^2 g0) = omega_{n-1} int_0^pi F^n sin^(n-1) r dr.

    Second-order composite Gauss quadrature on the grid cells, extended by
    the two end cells so the full interval (0, pi) is covered.  The grid
    must reach from the profile's first kink radius to its last, so that
    neither end cell holds a kink; the first node, a kink's image under
    the arclength inverse, may lie a rounding above it.
    """
    if grid.coordinate_kind != "polar":
        raise ValueError("volume quadrature expects a polar grid")
    kinks = profile.kink_radii
    if kinks and (grid.nodes[0] > kinks[0] * (1.0 + 1e-12) or grid.nodes[-1] < kinks[-1]):
        raise ValueError(f"grid does not resolve the kinks [{kinks[0]:g}, {kinks[-1]:g}]")
    n = profile.n
    edges = np.concatenate([[0.0], grid.nodes, [math.pi]])
    he = np.diff(edges)
    left = edges[:-1]
    total = 0.0
    for g in _GAUSS_OFFSETS:
        x = left + g * he
        total += np.sum(0.5 * he * profile.F(x) ** n * np.sin(x) ** (n - 1))
    return sphere_volume_constant(n) * float(total)


@dataclass(frozen=True)
class WarpedData:
    """Arclength presentation dt^2 + h(t)^2 g_{S^(n-1)} of a profile metric.

    Carries the grid nodes in arclength and h there, the total arclength
    ``span`` (the metric lives on [0, span]), plus ``jet``, which returns h,
    h' and h'' at arbitrary arclengths, so assembly routines can query their
    quadrature points.
    """

    t_nodes: np.ndarray
    h: np.ndarray
    span: float
    jet: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)


def warped_jet(profile: ConformalProfile, r) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h = F sin r and its arclength derivatives h' and h'' at polar distances r."""
    (F, dF, d2F), sin, cos = profile.jet(r), np.sin(r), np.cos(r)
    h = F * sin
    dh = (dF * sin + F * cos) / F
    g = dF / F  # in ratios: F d2F alone grows like e^(4L) on the cap
    d2h = ((d2F / F) * sin + g * cos - sin - g * g * sin) / F
    return h, dh, d2h


def warped_reparametrize(profile: ConformalProfile, grid: RadialGrid) -> WarpedData:
    """Warped-product data of the profile metric on a grid.

    Polar grids are pushed forward through t(r); arclength grids are used
    as-is (nodal h obtained through the inverse map).  Each ``jet`` call
    runs the arclength inverse once.  A sweep row does not go through
    here: ``operators.intrinsic_record`` samples nodes and quadrature
    points with one inverse of its own.
    """
    if grid.coordinate_kind == "polar":
        r_nodes = grid.nodes
        t_nodes = profile.arclength_of_r(r_nodes)
    else:
        t_nodes = grid.nodes
        r_nodes = profile.r_of_arclength(t_nodes)
    return WarpedData(
        t_nodes=t_nodes,
        h=profile.F(r_nodes) * np.sin(r_nodes),
        span=profile.total_arclength(),
        jet=lambda t: warped_jet(profile, profile.r_of_arclength(t)),
    )


def warped_curvature(h, dh, d2h, n: int) -> np.ndarray:
    """Scalar curvature of dt^2 + h^2 g_{S^(n-1)} from samples of h, h', h''."""
    return (n - 1.0) * ((n - 2.0) * (1.0 - dh**2) / h**2 - 2.0 * d2h / h)
