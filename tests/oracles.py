"""Independent reference implementations used only by the tests.

Nothing here calls the package's solver or assembly code, and none of it
uses LAPACK eigenvalue drivers: eigenvalues come from Sylvester inertia
counts of the shifted pencil (Sturm-style bisection), and the independent
discretization is a plain central finite-difference scheme.
"""

from __future__ import annotations

import numpy as np

_PIVMIN = 1e-290


def tridiag_pencil_count_below(da, ea, db, eb, lam) -> np.ndarray:
    """Number of eigenvalues of (A, B) below each lam (A, B tridiagonal,
    B positive definite), via the inertia of A - lam B.

    Vectorized over an array of shifts.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    m = len(da)
    count = np.zeros(lam.shape, dtype=int)
    d = da[0] - lam * db[0]
    d = np.where(np.abs(d) < _PIVMIN, -_PIVMIN, d)
    count += d < 0
    for i in range(1, m):
        off = ea[i - 1] - lam * eb[i - 1]
        d = (da[i] - lam * db[i]) - off * off / d
        d = np.where(np.abs(d) < _PIVMIN, -_PIVMIN, d)
        count += d < 0
    return count


def tridiag_pencil_eigs(da, ea, db, eb, first: int, last: int, tol=1e-13) -> np.ndarray:
    """Eigenvalues number ``first``..``last`` (0-based, ascending) of the
    tridiagonal pencil, by bisection on the inertia count."""
    da = np.asarray(da, dtype=float)
    ea = np.asarray(ea, dtype=float)
    db = np.asarray(db, dtype=float)
    eb = np.asarray(eb, dtype=float)
    # (-radius, radius) brackets the wanted eigenvalues, not the whole
    # spectrum, whose top can lie many doublings further out
    radius = 1.0
    while True:
        low, high = tridiag_pencil_count_below(da, ea, db, eb, [-radius, radius])
        if low <= first and high > last:
            break
        radius *= 2.0
        if radius > 1e300:
            raise RuntimeError("failed to bracket the wanted eigenvalues")
    targets = np.arange(first, last + 1)
    lo = np.full(targets.shape, -radius)
    hi = np.full(targets.shape, radius)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        cnt = tridiag_pencil_count_below(da, ea, db, eb, mid)
        below = cnt <= targets  # k-th eigenvalue is above mid
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if np.all(hi - lo <= tol * np.maximum(1.0, np.abs(mid))):
            break
    return 0.5 * (lo + hi)


def banded_to_tridiag(A) -> tuple[np.ndarray, np.ndarray]:
    """Extract (diag, sub) from a bandwidth-<=1 BandedSymmetric."""
    if A.bandwidth > 1:
        raise ValueError("oracle handles tridiagonal pencils only")
    m = A.size
    diag = A.bands[0].copy()
    sub = A.bands[1, : m - 1].copy() if A.bandwidth >= 1 else np.zeros(m - 1)
    return diag, sub


def pencil_eigs_of_banded(A, B, first=None, last=None) -> np.ndarray:
    da, ea = banded_to_tridiag(A)
    db, eb = banded_to_tridiag(B)
    m = len(da)
    if first is None:
        first, last = 0, m - 1
    return tridiag_pencil_eigs(da, ea, db, eb, first, last)


def fd_radial_eigs(p_fn, q_fn, w_fn, N: int, span: float, count: int,
                   dirichlet: bool = False) -> np.ndarray:
    """Independent finite-difference discretization of
    -(p u')' + q u = lam w u on (0, span): conservative central differences
    on a uniform grid, eigenvalues by pencil bisection.

    With ``dirichlet`` both end values are pinned; otherwise the scheme is
    the natural (reflecting) one, appropriate when w vanishes at the ends.
    """
    h = span / (N + 1)
    x = h * np.arange(1, N + 1)
    x_half = h * (np.arange(0, N + 1) + 0.5)  # cell faces x_{i+1/2}
    p_half = np.asarray(p_fn(x_half), dtype=float)
    q_i = np.asarray(q_fn(x), dtype=float)
    w_i = np.asarray(w_fn(x), dtype=float)
    da = (p_half[:-1] + p_half[1:]) / h + h * q_i
    if not dirichlet:
        # natural ends: no flux through the outer faces
        da[0] -= p_half[0] / h
        da[-1] -= p_half[-1] / h
    ea = -p_half[1:-1] / h
    db = h * w_i
    eb = np.zeros(N - 1)
    return tridiag_pencil_eigs(da, ea, db, eb, 0, count - 1)


# closed-form reference profile ----------------------------------------------


def blowup_factor(r) -> np.ndarray:
    """The complete blowup factor that every nose-length-L profile follows
    on r >= e^-L: 1/r below 1/2, exp(s(2(1-r)) log(1/r)) on [1/2, 1) with
    s(x) = 6x^5 - 15x^4 + 10x^3 the quintic smoothstep, and 1 from 1 on."""
    r = np.asarray(r, dtype=float)
    x = np.clip(2.0 * (1.0 - r), 0.0, 1.0)
    smooth = 6.0 * x**5 - 15.0 * x**4 + 10.0 * x**3
    return np.where(r < 0.5, 1.0 / r, np.where(r < 1.0, np.exp(-smooth * np.log(r)), 1.0))


def cap_speed(rho) -> np.ndarray:
    """dt/drho across the cap [e^-L/2, e^-L] of a nose-length-L profile, in
    rho = (r - a)/(b - a): the cap factor is 1/(b (3/4 + S(rho)/2)) with
    S(x) = x^6 - 3x^5 + 5x^4/2 the antiderivative of the smoothstep, and
    dr/drho = b/2."""
    rho = np.asarray(rho, dtype=float)
    return 0.5 / (0.75 + 0.5 * (rho**6 - 3.0 * rho**5 + 2.5 * rho**4))


def gauss_integral(fn, a: float, upper) -> np.ndarray:
    """int_a^x fn for each x in ``upper``: a composite Gauss-Legendre rule of
    64 equal panels with 24 points each."""
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    nodes, weights = np.polynomial.legendre.leggauss(24)
    edges = a + (upper[:, None] - a) * np.linspace(0.0, 1.0, 65)[None, :]
    half = 0.5 * np.diff(edges, axis=1)
    mid = edges[:, :-1] + half
    pts = mid[:, :, None] + half[:, :, None] * nodes
    return np.sum(half * (fn(pts) @ weights), axis=1)


def blowup_arclength(r, L: float) -> np.ndarray:
    """t(r) = int_0^r F_L for r in the cap [e^-L/2, e^-L) or the transition
    [1/2, 1) of a nose-length-L profile: the flat core contributes 2/3, the
    cap int cap_speed, the nose log(1/2) + L, the transition the integral of
    the blowup factor."""
    r = np.asarray(r, dtype=float)
    b = np.exp(-L)
    cap = (r >= 0.5 * b) & (r < b)
    trans = (r >= 0.5) & (r < 1.0)
    if not np.all(cap | trans):
        raise ValueError("the oracle covers the cap and the transition windows only")
    out = np.empty_like(r)
    out[cap] = 2.0 / 3.0 + gauss_integral(cap_speed, 0.0, (r[cap] - 0.5 * b) / (0.5 * b))
    t_half = 2.0 / 3.0 + gauss_integral(cap_speed, 0.0, 1.0)[0] + np.log(0.5) + L
    out[trans] = t_half + gauss_integral(blowup_factor, 0.5, r[trans])
    return out


# closed-form reference ladders ------------------------------------------------


def sphere_laplacian_level(n: int, j: int) -> float:
    return float(j * (j + n - 1))


def conformal_laplacian_level(n: int, j: int) -> float:
    return sphere_laplacian_level(n, j) + n * (n - 2) / 4.0


def paneitz_level(n: int, j: int) -> float:
    mu = sphere_laplacian_level(n, j)
    a = (n * n - 2 * n - 4) / 2.0
    q_const = n * (n * n - 4) / 8.0
    return mu * mu + a * mu + (n - 4) / 2.0 * q_const


def paneitz_cylinder_bottom(n: int) -> float:
    """Bottom of the Paneitz spectrum on the cylinder S^(n-1) x R, by
    numerical minimization of the l = 0 symbol over the frequency xi >= 0.

    The symbol comes from the Paneitz-Branson form
    P = Delta^2 + delta (a_n R g + b_n Ric) d + (n-4)/2 Q with
    a_n = ((n-2)^2 + 4) / (2 (n-1)(n-2)), b_n = -4/(n-2) and
    Q = Delta R / (2(n-1)) + c_n R^2 - 2 |Ric|^2 / (n-2)^2,
    c_n = (n^3 - 4n^2 + 16n - 16) / (8 (n-1)^2 (n-2)^2), evaluated on the
    product metric: R = (n-1)(n-2), Ric_tt = 0, |Ric|^2 = (n-1)(n-2)^2 and
    Delta R = 0.  On u = e^(i xi t), Delta u = xi^2 u and the tensor term
    reads (a_n R + b_n Ric_tt) xi^2 u."""
    R = (n - 1) * (n - 2)
    ric_tt = 0.0
    ric_squared = (n - 1) * (n - 2) ** 2
    a_n = ((n - 2) ** 2 + 4) / (2.0 * (n - 1) * (n - 2))
    b_n = -4.0 / (n - 2)
    c_n = (n**3 - 4 * n**2 + 16 * n - 16) / (8.0 * (n - 1) ** 2 * (n - 2) ** 2)
    q = c_n * R**2 - 2.0 * ric_squared / (n - 2) ** 2
    second = a_n * R + b_n * ric_tt

    def symbol(xi):
        return xi**4 + second * xi**2 + (n - 4) / 2.0 * q

    # coarse grid, then golden-section search on the bracket of its minimum
    xi = np.linspace(0.0, 2.0 * n, 4001)
    i = int(np.argmin(symbol(xi)))
    a, b = xi[max(i - 1, 0)], xi[min(i + 1, xi.size - 1)]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        if symbol(c) <= symbol(d):
            b = d
        else:
            a = c
    return float(min(symbol(a), symbol(b), symbol(xi[i])))


def sphere_volume(n: int) -> float:
    """omega_n, the volume of the round unit S^n: 2 pi^((n+1)/2) / Gamma((n+1)/2)."""
    import math

    return 2.0 * math.pi ** ((n + 1) / 2.0) / math.gamma((n + 1) / 2.0)


def conformal_lower_bound(kind: str, n: int) -> float:
    """The infimum of lambda_1^+ vol^(k/n) over the conformal class of the
    round S^n, which the round metric attains: the Yamabe/Sobolev constant
    n(n-2)/4 omega_n^(2/n) for the conformal Laplacian (k = 2), and Hijazi's
    (n/2) omega_n^(1/n) for Dirac (k = 1; Baer's lambda^2 area >= 4 pi on
    S^2)."""
    if kind == "conformal-laplacian":
        return n * (n - 2) / 4.0 * sphere_volume(n) ** (2.0 / n)
    if kind == "dirac":
        return n / 2.0 * sphere_volume(n) ** (1.0 / n)
    raise ValueError(f"no conformal lower bound for {kind!r}")


def dirac_sphere_level(m: int) -> float:
    return float(m + 1)


def harmonic_dimension(n: int, ell: int) -> int:
    """dim of degree-ell spherical harmonics on S^(n-1), by the quotient
    formula (2 ell + n - 2)/(n - 2) * C(ell + n - 3, ell)."""
    import math

    if ell == 0:
        return 1
    num = (2 * ell + n - 2) * math.comb(ell + n - 3, ell)
    assert num % (n - 2) == 0
    return num // (n - 2)


def sphere_ladder(kind: str, n: int, levels: int) -> list[tuple[float, int]]:
    """(eigenvalue, multiplicity) of the lowest ``levels`` levels of the round
    S^n, the Dirac ones on S^2 only and one sign each.

    Multiplicities come from the mode structure rather than a closed form: a
    degree-j harmonic on S^n splits into degree-l harmonics of S^(n-1) for
    l = 0..j, and on S^2 the Dirac level m + 1 gathers one value from each
    half-integer Fourier mode k and radial index p with |k| + 1/2 + p = m + 1.
    """
    out = []
    for j in range(levels):
        if kind == "dirac":
            if n != 2:
                raise ValueError("the Dirac ladder oracle covers S^2 only")
            modes = [k + 0.5 for k in range(-j - 1, j + 1)]  # |k| <= j + 1/2
            mult = sum(1 for k in modes for p in range(j + 1) if abs(k) + 0.5 + p == j + 1)
            out.append((dirac_sphere_level(j), mult))
            continue
        level = conformal_laplacian_level if kind == "conformal-laplacian" else paneitz_level
        out.append((level(n, j), sum(harmonic_dimension(n, ell) for ell in range(j + 1))))
    return out
