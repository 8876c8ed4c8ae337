import ast
import ctypes
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.linalg import lapack
from hypothesis import given, settings, strategies as st

from confspec import eigensolve
from confspec.eigensolve import (
    EigenPair,
    NotPositiveDefiniteError,
    SolverConvergenceError,
    aggregate,
    solve_generalized,
)
from confspec.grid import BandedSymmetric, assemble_weak_form, make_grid, quadrature_points
from confspec.experiments import (
    convergence_study,
    covariance_crosscheck,
    cylinder_surrogate_study,
    nose_resolving_grid,
    pinocchio_sweep,
    scaling_check,
    validate_sphere,
)
from confspec.geometry import constant_profile, profile_L
from confspec.operators import (
    conformal_laplacian,
    covariance_record,
    covariance_reduce,
    dirac_operator,
    intrinsic_assemble,
    make_mode,
    mode_groups,
    paneitz_operator,
)

import oracles

EPS = np.finfo(float).eps


def relative_residual(A, B, lam, x):
    """||Ax - lam Bx|| / (||Ax|| + |lam| ||Bx||), recomputed from a returned pair."""
    ax, bx = A.matvec(x), B.matvec(x)
    denom = np.linalg.norm(ax) + abs(lam) * np.linalg.norm(bx)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(ax - lam * bx) / denom)


def random_pencil(rng, m, bandwidth=1):
    """Seeded symmetric banded pair with B positive definite."""
    bands_a = np.zeros((bandwidth + 1, m))
    bands_a[0] = rng.uniform(-1.0, 1.0, m)
    for d in range(1, bandwidth + 1):
        bands_a[d, : m - d] = rng.uniform(-0.5, 0.5, m - d)
    bands_b = np.zeros((bandwidth + 1, m))
    bands_b[0] = rng.uniform(1.0, 2.0, m)
    for d in range(1, bandwidth + 1):
        bands_b[d, : m - d] = rng.uniform(-0.2, 0.2, m - d)
    return BandedSymmetric(bands_a), BandedSymmetric(bands_b)


def unit_laplacian(grid, pinned):
    """The pencil of -u'' = lam u on the grid, both ends pinned or both free."""
    ones = np.ones_like(quadrature_points(grid, pinned))
    return assemble_weak_form(grid, ones, 0.0 * ones, ones, pinned)


def test_diagonal_pencil_is_exact():
    A = BandedSymmetric.from_tridiagonal(np.array([1.0, 2.0, 3.0] + [5.0] * 13), np.zeros(15))
    B = BandedSymmetric.from_tridiagonal(np.ones(16), np.zeros(15))
    pairs = solve_generalized(A, B, count=3)
    assert [p.value for p in pairs] == [1.0, 2.0, 3.0]


def test_diagonal_operator_on_every_route():
    # a bandwidth-0 A: dsbtrd hands back its diagonal with a zero sub-diagonal
    A = BandedSymmetric.from_diagonal(np.array([3.0, 1.0, 2.0, -4.0] + [9.0] * 20))
    B = BandedSymmetric.from_diagonal(np.full(24, 2.0))
    for pairs, expected in (
        (solve_generalized(A, B, count=3), [0.5, 1.0, 1.5]),
        (solve_generalized(A, B, window=(-3.0, 1.6)), [-2.0, 0.5, 1.0, 1.5]),
        (solve_generalized(A, B, window=(-3.0, 1.6), lowest=2), [0.5, 1.0]),
    ):
        assert [p.value for p in pairs] == pytest.approx(expected, rel=1e-15)


def test_second_difference_dirichlet():
    A, M = unit_laplacian(make_grid("polar", 2000), pinned=True)
    pairs = solve_generalized(A, M, count=3)
    for m, pair in enumerate(pairs, start=1):
        assert pair.value == pytest.approx(m * m, abs=1e-4)


def test_matches_bisection_oracle_full_spectrum():
    rng = np.random.default_rng(42)
    m = 200
    A, B = random_pencil(rng, m)
    reference = oracles.pencil_eigs_of_banded(A, B)
    pairs = solve_generalized(A, B, count=m, method="dense")
    scale = np.max(np.abs(reference))
    assert np.allclose([p.value for p in pairs], reference, atol=1e-10 * scale, rtol=1e-10)


def test_dense_and_iterative_paths_agree():
    rng = np.random.default_rng(3)
    for m in (80, 400, 1500):
        A, B = random_pencil(rng, m)
        dense = solve_generalized(A, B, count=5, method="dense", seed=1)
        iterative = solve_generalized(A, B, count=5, method="iterative", seed=1)
        for a, b in zip(dense, iterative):
            assert a.value == pytest.approx(b.value, abs=1e-8, rel=1e-8)


def test_residuals_and_b_orthogonality():
    rng = np.random.default_rng(11)
    A, B = random_pencil(rng, 600)
    pairs = solve_generalized(A, B, count=6)
    for pair in pairs:
        assert pair.residual <= 1e-9
        # recomputable from the returned data
        assert relative_residual(A, B, pair.value, pair.vector) == pytest.approx(
            pair.residual, abs=1e-12
        )
    for i, a in enumerate(pairs):
        for b in pairs[i + 1 :]:
            assert abs(a.vector @ B.matvec(b.vector)) <= 1e-8


def _route_solve(route, rng):
    """A pencil and the pairs one solver route returns for it."""
    if route == "window":
        A, B = diagonal_mass_pencil(rng, 300)
        return B, solve_generalized(A, B, window=(-0.3, 0.3), seed=1)
    if route == "chiral-window":
        A, B = chiral_pencil(rng, 300)
        return B, solve_generalized(A, B, window=(-1.2, 1.2), seed=1)
    A, B = random_pencil(rng, 700)
    if route == "nearest-diagonal":
        B = BandedSymmetric.from_diagonal(B.bands[0])
    method = "iterative" if route == "iterative" else "auto"
    return B, solve_generalized(A, B, count=6, method=method, seed=1)


@pytest.mark.parametrize(
    "route", ["window", "chiral-window", "nearest-diagonal", "nearest-reduced", "iterative"]
)
def test_every_route_returns_b_orthonormal_vectors(route):
    # each route B-orthonormalizes its own vectors; nothing re-touches them
    B, pairs = _route_solve(route, np.random.default_rng(8))
    assert len(pairs) >= 6
    V = np.array([p.vector for p in pairs])
    gram = V @ np.array([B.matvec(v) for v in V]).T
    assert np.abs(gram - np.eye(len(pairs))).max() <= 1e-12


def test_shift_exactness():
    rng = np.random.default_rng(5)
    A, B = random_pencil(rng, 300)
    c = 0.8125  # exactly representable
    shifted = A.add_scaled(B, c)
    base = solve_generalized(A, B, count=4, seed=2)
    moved = solve_generalized(shifted, B, count=4, window=(c, c), seed=2)
    base_sorted = sorted(p.value for p in base)
    moved_sorted = sorted(p.value for p in moved)
    for a, b in zip(base_sorted, moved_sorted):
        assert b - a == pytest.approx(c, abs=1e-9)


def test_window_selection():
    diag = np.arange(1.0, 41.0)
    A = BandedSymmetric.from_tridiagonal(diag, np.zeros(39))
    B = BandedSymmetric.from_tridiagonal(np.ones(40), np.zeros(39))
    pairs = solve_generalized(A, B, count=3, window=(17.2, 18.8))
    assert sorted(round(p.value) for p in pairs) == [17, 18, 19]


def test_not_positive_definite_reports_pivot():
    diag = np.ones(20)
    diag[7] = -1.0
    A = BandedSymmetric.from_tridiagonal(np.ones(20), np.zeros(19))
    B = BandedSymmetric.from_tridiagonal(diag, np.zeros(19))
    with pytest.raises(NotPositiveDefiniteError) as err:
        solve_generalized(A, B, count=2)
    assert err.value.pivot_index == 7


@pytest.mark.parametrize("bad", [None, (7, -1.0), (7, 0.0), (0, -0.0), (3, -1e-300)])
@pytest.mark.parametrize("bandwidth", [0, 1])
def test_diagonal_mass_factor_matches_dpbtrf(bandwidth, bad):
    # a diagonal B (a zero sub-diagonal too) is scaled away by its square
    # root without dpbtrf: B^-1/2 is 1 over dpbtrf's factor bit for bit, and
    # the first entry that is not positive raises at dpbtrf's pivot
    diag = np.random.default_rng(5).uniform(1e-3, 1e3, 20)
    if bad is not None:
        diag[bad[0]] = bad[1]
        diag[bad[0] + 5] = -2.0  # a later bad entry is not the one reported
    bands = np.zeros((bandwidth + 1, 20))
    bands[0] = diag
    A = BandedSymmetric.from_tridiagonal(np.ones(20), np.full(19, 0.5))
    factor, info = lapack.dpbtrf(bands, lower=1)
    if bad is None:
        assert info == 0
        _, _, s = eigensolve._scaled_standard(A, BandedSymmetric(bands))
        assert np.array_equal(s, 1.0 / factor[0])
    else:
        with pytest.raises(NotPositiveDefiniteError) as err:
            eigensolve._scaled_standard(A, BandedSymmetric(bands))
        assert err.value.pivot_index == info - 1 == bad[0]


def test_deterministic_given_seed():
    rng = np.random.default_rng(9)
    A, B = random_pencil(rng, 900)
    first = solve_generalized(A, B, count=4, seed=123)
    second = solve_generalized(A, B, count=4, seed=123)
    for a, b in zip(first, second):
        assert a.value == b.value
        assert np.array_equal(a.vector, b.vector)


def test_singular_shift_recovers():
    # A has an exact zero eigenvalue; shift-invert at 0 must not hang
    grid = make_grid("polar", 1200)
    A, M = unit_laplacian(grid, pinned=False)
    pairs = solve_generalized(A, M, count=2, method="iterative")
    assert pairs[0].value == pytest.approx(0.0, abs=1e-9)
    # natural ends truncate the domain to [h, pi - h]; Neumann mode cos(x)
    h = grid.nodes[0]
    assert pairs[1].value == pytest.approx((math.pi / (math.pi - 2 * h)) ** 2, abs=1e-4)


@pytest.mark.parametrize("bandwidth", [1, 2])
@pytest.mark.parametrize("m, count", [(3, 2), (3, 3), (3, 33), (50, 49), (50, 50), (50, 80)])
def test_iterative_route_matches_dense_at_any_count(m, count, bandwidth):
    # the shift-invert Krylov route has no count limit: up to the whole
    # spectrum (a count above m takes all m pairs) it finds the count route's
    # values, and every pair passes the gate
    A, B = random_pencil(np.random.default_rng(m), m, bandwidth)
    dense = solve_generalized(A, B, count=count, method="dense")
    krylov = solve_generalized(A, B, count=count, method="iterative")
    assert len(krylov) == len(dense) == min(count, m)
    values = [p.value for p in dense]
    assert [p.value for p in krylov] == pytest.approx(values, rel=1e-12, abs=1e-14)
    assert max(p.residual for p in krylov) <= 1e-13


def test_krylov_basis_cap_is_an_error_even_with_enough_pairs(monkeypatch):
    # a Krylov basis that reaches its cap unconverged is a failure, not a
    # source of partial pairs, even though it holds as many Ritz pairs as
    # were asked for; no pair reaches the polish or the gate
    rng = np.random.default_rng(4)
    A, B = random_pencil(rng, 700)
    assert len(solve_generalized(A, B, count=2, method="iterative")) == 2
    polished = []
    inverse_iteration = eigensolve._inverse_iteration

    def spy(*args, **kwargs):
        polished.append(args)
        return inverse_iteration(*args, **kwargs)

    monkeypatch.setattr(eigensolve, "_inverse_iteration", spy)
    monkeypatch.setattr(eigensolve, "_KRYLOV_EXTRA", 2)  # a basis of 4 vectors
    with pytest.raises(SolverConvergenceError) as err:
        solve_generalized(A, B, count=2, method="iterative")
    assert eigensolve._RITZ_TOL < err.value.achieved_residual < math.inf
    assert not polished


def test_dense_rejects_non_finite_bands():
    rng = np.random.default_rng(12)
    A, B = random_pencil(rng, 50)
    A.bands[0, 17] = np.nan
    with pytest.raises(ValueError):
        solve_generalized(A, B, count=3, method="dense")
    diagonal = BandedSymmetric.from_diagonal(B.bands[0])  # a scaled T, on both routes
    with pytest.raises(ValueError):
        solve_generalized(A, diagonal, count=3)
    with pytest.raises(ValueError):
        solve_generalized(A, diagonal, window=(-1.0, 1.0))


_ROUTES = {
    "window": ({"window": (-1.0, 1.0)}, True),
    "dense": ({"count": 3}, False),
    "iterative": ({"count": 3, "method": "iterative"}, False),
}


@pytest.mark.parametrize(
    "route, mass",
    [
        (route, mass)
        for route, (_, diagonal_only) in _ROUTES.items()
        for mass in (["diagonal"] if diagonal_only else ["diagonal", "banded"])
    ],
)
def test_standard_form_that_overflows_is_a_value_error(route, mass):
    # finite bands whose spectrum lies beyond double range: the scaling, the
    # dsbgst reduction or the Krylov projection overflows, which is the same
    # ValueError on every route under every warning filter (the suite turns
    # RuntimeWarning into an error); a NaN norm would give the count
    # route's bracket a NaN top, whose counts mean nothing
    A, B = random_pencil(np.random.default_rng(12), 50)
    B = BandedSymmetric.from_diagonal(B.bands[0]) if mass == "diagonal" else B
    A, B = BandedSymmetric(A.bands * 1e307), BandedSymmetric(B.bands * 1e-5)
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_generalized(A, B, **_ROUTES[route][0])


@pytest.mark.parametrize(
    "diag, sub", [(1e308, 0.0), (0.0, 2e307)], ids=["positive-definite", "indefinite"]
)
def test_count_solve_whose_bracket_top_overflows_raises_before_refining(monkeypatch, diag, sub):
    # ||T|| is finite, but the bracket's top 2 (||T|| - tau) overflows to inf,
    # where the count is 0 (tau = 0) or m - 1 (tau = -2 ||T||), not m: the
    # top count stops the solve before any value is isolated or refined
    def refuse(*args, **kwargs):
        raise AssertionError("the value stage ran on a bracket that misses values")

    monkeypatch.setattr(eigensolve, "_refined_values", refuse)
    A = BandedSymmetric.from_tridiagonal(np.full(50, diag), np.full(49, sub))
    with pytest.raises(SolverConvergenceError):
        solve_generalized(A, BandedSymmetric.from_diagonal(np.ones(50)), count=3)


@pytest.mark.parametrize("matrix", ["A", "B"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("route", list(_ROUTES))
def test_non_finite_bands_are_a_value_error_on_every_route(
    monkeypatch, capfd, route, bad, matrix
):
    # the front door checks A and B once for every route: no route is
    # handed a NaN, which a Fortran eigensolver reports as a DLASCL argument
    # error and a failure to converge
    def refuse(*args, **kwargs):
        raise AssertionError("a route was handed a non-finite band")

    for name in ("_window_path", "_nearest_path", "_iterative_path"):
        monkeypatch.setattr(eigensolve, name, refuse)
    kwargs, diagonal = _ROUTES[route]
    A, B = (diagonal_mass_pencil if diagonal else random_pencil)(np.random.default_rng(12), 50)
    (A if matrix == "A" else B).bands[0, 17] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_generalized(A, B, **kwargs)
    out, err = capfd.readouterr()
    assert "DLASCL" not in out + err


@pytest.mark.parametrize(
    "route, mass, factored",
    [
        ("window", "diagonal", []), ("dense", "diagonal", []),
        ("dense", "banded", ["_dpbstf"]), ("iterative", "banded", ["_dpbtrf"]),
    ],
    ids=["window", "dense-diagonal", "dense-banded", "iterative"],
)
def test_each_route_factors_b_at_most_once(monkeypatch, route, mass, factored):
    # a diagonal B is scaled by its square root; any other is factored by
    # the one route that reads the factor: dpbstf inside the count route's
    # reduction, dpbtrf as the iterative route's positive definiteness check
    called = []
    for name in ("_dpbtrf", "_dpbstf"):
        routine = getattr(eigensolve, name)

        def recording(*args, _name=name, _routine=routine):
            called.append(_name)
            return _routine(*args)

        monkeypatch.setattr(eigensolve, name, recording)
    A, B = random_pencil(np.random.default_rng(7), 200)
    B = BandedSymmetric.from_diagonal(B.bands[0]) if mass == "diagonal" else B
    assert solve_generalized(A, B, **_ROUTES[route][0])
    assert called == factored


@pytest.mark.parametrize("method, pivot", [("dense", 15), ("iterative", 3)])
def test_banded_mass_reports_its_routes_pivot(method, pivot):
    # rows 3 and 15 of a tridiagonal B are negative: dpbtrf (iterative route)
    # stops at the first, dpbstf (count route) factors the bottom half first
    # and stops at the second
    diag = np.ones(20)
    diag[[3, 15]] = -1.0
    A = BandedSymmetric.from_tridiagonal(np.ones(20), np.zeros(19))
    B = BandedSymmetric.from_tridiagonal(diag, np.full(19, 0.1))
    with pytest.raises(NotPositiveDefiniteError) as err:
        solve_generalized(A, B, count=2, method=method)
    assert err.value.pivot_index == pivot


@pytest.mark.parametrize("window", [(1.0, 1.0), (1.0, -1.0)], ids=["point", "inverted"])
def test_empty_window_still_checks_the_mass(window):
    # the window route scales B before it finds its window empty
    diag = np.ones(20)
    diag[7] = 0.0
    A = BandedSymmetric.from_tridiagonal(np.ones(20), np.zeros(19))
    with pytest.raises(NotPositiveDefiniteError) as err:
        solve_generalized(A, BandedSymmetric.from_diagonal(diag), window=window)
    assert err.value.pivot_index == 7


@pytest.mark.parametrize(
    "window", [(0.5, -0.5), (math.nan, math.nan), (1.0, math.inf)],
    ids=["inverted", "nan", "infinite"],
)
def test_count_solve_rejects_a_window_without_a_nearest_value(window):
    # every eigenvalue is infinitely far from an infinite end, and none is
    # nearest an inverted or NaN window: the count solve names the window
    # rather than failing inside its value engine or picking by index
    A, B = random_pencil(np.random.default_rng(5), 60)
    for mass in (B, BandedSymmetric.from_diagonal(B.bands[0])):
        with pytest.raises(ValueError, match="finite window with lo <= hi"):
            solve_generalized(A, mass, count=3, window=window)


@pytest.mark.parametrize("lowest", [None, 1])
@pytest.mark.parametrize(
    "window", [(math.nan, 1.0), (-1.0, math.nan), (-1.0, math.inf), (-math.inf, 1.0)],
    ids=["nan-lo", "nan-hi", "infinite-hi", "infinite-lo"],
)
def test_window_solve_rejects_a_window_without_finite_ends(window, lowest):
    # a NaN end would leave every count comparison false and the window
    # empty, and an infinite one a kernel threshold of 1e-8 * inf: the
    # window solve names the window rather than returning no pairs
    A, B = diagonal_mass_pencil(np.random.default_rng(5), 50)
    with pytest.raises(ValueError, match="finite window"):
        solve_generalized(A, B, window=window, lowest=lowest)


def test_dense_beyond_old_cap_keeps_bands(monkeypatch):
    # the direct route reduces the bands themselves: no m x m array, no cap
    rng = np.random.default_rng(6000)
    A, B = random_pencil(rng, 6000, bandwidth=2)

    def no_dense(self):
        raise AssertionError("densified a banded matrix")

    monkeypatch.setattr(BandedSymmetric, "to_dense", no_dense)
    dense = solve_generalized(A, B, count=4, method="dense", seed=3)
    iterative = solve_generalized(A, B, count=4, method="iterative", seed=3)
    for a, b in zip(dense, iterative):
        assert a.value == pytest.approx(b.value, abs=1e-8, rel=1e-8)
    assert all(p.residual <= 1e-9 for p in dense)


def test_dense_separates_repeated_values_with_coupled_mass():
    # two uncoupled copies of one tridiagonal pencil: every value is double
    rng = np.random.default_rng(21)
    A, B = random_pencil(rng, 60)
    twice = lambda M: BandedSymmetric(np.concatenate([M.bands, M.bands], axis=1))
    A2, B2 = twice(A), twice(B)
    single = solve_generalized(A, B, count=3, method="dense")
    pairs = solve_generalized(A2, B2, count=6, method="dense", seed=5)
    expected = np.repeat([p.value for p in single], 2)
    assert np.allclose([p.value for p in pairs], expected, rtol=1e-10, atol=1e-12)
    for i, a in enumerate(pairs):
        assert a.residual <= 1e-9
        for b in pairs[i + 1 :]:
            assert abs(a.vector @ B2.matvec(b.vector)) <= 1e-8


def test_zero_operator_on_both_vector_routes():
    # every vector is an eigenvector of A = 0; the inverse-iteration shift
    # must not land exactly on the zero spectrum
    A = BandedSymmetric(np.zeros((2, 50)))
    B = BandedSymmetric.from_tridiagonal(np.full(50, 2.0), np.full(49, 0.3))
    direct = solve_generalized(A, B, count=3, method="dense")
    window = solve_generalized(A, BandedSymmetric.from_diagonal(B.bands[0]), window=(-1.0, 1.0))
    assert [p.value for p in direct] == [0.0] * 3
    assert len(window) == 50 and all(p.value == 0.0 for p in window)


def ladder_pencil(seed, m):
    """perfbench's `pencils` pencil of size m: the ladder of 24 sizes from 100
    to 1000 plus 2500, bandwidth alternating 1 and 2, drawn in order from one
    rng."""
    rng = np.random.default_rng(seed)
    sizes = np.rint(np.geomspace(100, 1000, 24)).astype(int).tolist() + [2500]
    for i, size in enumerate(sizes):
        A, B = random_pencil(rng, size, 2 if i % 2 else 1)
        if size == m:
            return A, B
    raise ValueError(f"no pencil of size {m}")


def nearest_dense_values(A, B, count):
    values = sla.eigh(A.to_dense(), B.to_dense(), eigvals_only=True)
    return np.sort(values[np.argsort(np.abs(values), kind="stable")[:count]])


@pytest.mark.parametrize(
    "seed, m, diagonal",
    [(207, 606, True), (104, 100, False), (87, 149, False)],
    ids=["diagonal-mass", "coupled-mass-100", "coupled-mass-149"],
)
def test_count_solve_survives_a_shift_on_an_eigenvalue(seed, m, diagonal):
    # on these pencils a shift is an eigenvalue to working precision, and the
    # shifted LU meets an exactly zero pivot
    A, B = ladder_pencil(seed, m)
    if diagonal:
        B = BandedSymmetric.from_diagonal(B.bands[0])
    pairs = solve_generalized(A, B, count=4, seed=seed)
    expected = nearest_dense_values(A, B, 4)
    assert np.allclose([p.value for p in pairs], expected, rtol=1e-12, atol=1e-14)
    assert all(p.residual <= 1e-9 for p in pairs)


@pytest.mark.parametrize(
    "mass, window",
    [
        (BandedSymmetric.from_tridiagonal(np.full(50, 2.0), np.full(49, 0.5)), (0.0, 0.0)),
        (BandedSymmetric.from_diagonal(np.ones(50)), (3.0, 3.0)),
    ],
    ids=["coupled-mass", "diagonal-mass"],
)
def test_iterative_route_survives_a_shift_on_an_eigenvalue(mass, window):
    # A - sigma B is exactly singular at the window's centre: its LU meets an
    # exactly zero pivot, which the shifted solver perturbs as inverse
    # iteration does
    A = BandedSymmetric.from_tridiagonal(np.arange(50.0), np.zeros(49))
    dense = solve_generalized(A, mass, count=3, window=window, method="dense")
    pairs = solve_generalized(A, mass, count=3, window=window, method="iterative")
    assert np.allclose(
        [p.value for p in pairs], [p.value for p in dense], rtol=1e-12, atol=1e-12
    )
    assert all(p.residual <= 1e-9 for p in pairs)


def test_iterative_route_factors_once_at_the_centre_and_once_per_pair(monkeypatch):
    # the Krylov basis grows on one banded LU of A - sigma B at the window's
    # centre; each Ritz vector then takes one inverse-iteration step on an
    # LU of its own, a few ulps off its value
    A, B = random_pencil(np.random.default_rng(17), 400, bandwidth=2)
    shifts = []
    factor = eigensolve._ShiftedSolver.factor

    def spy(self, sigma, tiny):
        shifts.append(sigma)
        return factor(self, sigma, tiny)

    monkeypatch.setattr(eigensolve._ShiftedSolver, "factor", spy)
    pairs = solve_generalized(A, B, count=4, window=(0.25, 0.25), method="iterative", seed=2)
    assert len(pairs) == 4
    assert len(shifts) == 1 + 4 and shifts[0] == 0.25
    for shift, pair in zip(shifts[1:], pairs):
        assert abs(shift - pair.value) <= 1e-10 * abs(pair.value)


def test_count_solve_bisects_only_the_wanted_block(monkeypatch):
    # the count route reduces a coupled mass to a tridiagonal T and isolates
    # and refines the 2 count values around the window, never the whole
    # spectrum nor the rest of the bracket that holds them
    A, B = random_pencil(np.random.default_rng(2500), 2500)
    refined = []
    refine = eigensolve._Twisted.refine

    def spy(rep, left, right, n_left):
        refined.append(n_left)
        return refine(rep, left, right, n_left)

    monkeypatch.setattr(eigensolve._Twisted, "refine", spy)
    pairs = solve_generalized(A, B, count=4, method="dense")
    assert len(pairs) == 4
    (below,) = oracles.tridiag_pencil_count_below(
        *oracles.banded_to_tridiag(A), *oracles.banded_to_tridiag(B), [0.0]
    )
    assert sorted(refined) == list(range(below - 4, below + 4))


@pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal-mass", "coupled-mass"])
def test_dense_means_auto(diagonal):
    A, B = random_pencil(np.random.default_rng(31), 400, bandwidth=2)
    if diagonal:
        B = BandedSymmetric.from_diagonal(B.bands[0])
    auto = solve_generalized(A, B, count=5, window=(0.1, 0.2), seed=4)
    dense = solve_generalized(A, B, count=5, window=(0.1, 0.2), method="dense", seed=4)
    assert len(auto) == len(dense) == 5
    for a, d in zip(auto, dense):
        assert a.value == d.value and a.residual == d.residual
        assert np.array_equal(a.vector, d.vector)


@pytest.mark.parametrize("m, count", [(20, 20), (150, 10), (300, 10)])
def test_bandwidth_three_matches_dense_eigh(m, count):
    A, B = random_pencil(np.random.default_rng(m), m, bandwidth=3)
    pairs = solve_generalized(A, B, count=count)
    expected = nearest_dense_values(A, B, count)
    scale = np.abs(expected).max()
    assert np.abs(np.array([p.value for p in pairs]) - expected).max() <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(5))
def test_count_solve_on_a_band_reduced_scaled_pencil(seed):
    # a diagonal mass and a bandwidth-2 A: dsbtrd reduces the scaled T, and
    # that moves its values up to 28 eps ||T|| off their quotients, so they
    # are held to a reduced T's slack; at 8 eps ||T|| every one of these
    # solves failed as a slide
    A, B = random_pencil(np.random.default_rng(seed), 400, bandwidth=2)
    A = A.add_scaled(BandedSymmetric.from_diagonal(np.ones(400)), 3.0)
    B = BandedSymmetric.from_diagonal(B.bands[0])
    dense = solve_generalized(A, B, count=40, window=(3.3, 3.3))
    iterative = solve_generalized(A, B, count=40, window=(3.3, 3.3), method="iterative")
    assert len(dense) == len(iterative) == 40
    assert all(p.residual <= 1e-9 for p in dense)
    for a, b in zip(dense, iterative):
        assert abs(a.value - b.value) <= 1e-8


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("coupled", [False, True], ids=["diagonal-mass", "coupled-mass"])
def test_count_solve_on_the_smallest_tridiagonal_pencils(m, coupled):
    # Toeplitz tridiagonal A = (a; c) and B = (b; d) share the eigenvectors
    # sin(i t_k), t_k = k pi / (m + 1), so the pencil's eigenvalues are
    # (a + 2c cos t_k) / (b + 2d cos t_k); every tridiagonal shift, m = 2
    # included, is factored by dgttrf
    a, c, b, d = 2.0, -1.0, 1.0, (0.25 if coupled else 0.0)
    t = np.arange(1, m + 1) * math.pi / (m + 1)
    exact = (a + 2.0 * c * np.cos(t)) / (b + 2.0 * d * np.cos(t))
    A = BandedSymmetric.from_tridiagonal(np.full(m, a), np.full(m - 1, c))
    B = BandedSymmetric.from_tridiagonal(np.full(m, b), np.full(m - 1, d))
    for count in range(1, m + 1):
        values = [p.value for p in solve_generalized(A, B, count=count)]
        nearest = np.sort(exact[np.argsort(np.abs(exact), kind="stable")[:count]])
        assert np.allclose(values, nearest, rtol=1e-14, atol=0.0)


# ------------------------------------------------------------------ window mode


def diagonal_mass_pencil(rng, m, bandwidth=1):
    A, B = random_pencil(rng, m, bandwidth)
    return A, BandedSymmetric.from_diagonal(B.bands[0])


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_window_returns_every_pair_inside(seed):
    rng = np.random.default_rng(seed)
    A, B = diagonal_mass_pencil(rng, 300)
    lo, hi = -0.3, 0.4
    da, ea = oracles.banded_to_tridiag(A)
    db, eb = np.asarray(B.bands[0]), np.zeros(A.size - 1)
    first, stop = oracles.tridiag_pencil_count_below(da, ea, db, eb, [lo, hi])
    pairs = solve_generalized(A, B, window=(lo, hi), seed=seed)
    assert len(pairs) == stop - first > 0
    reference = oracles.pencil_eigs_of_banded(A, B, first, stop - 1)
    assert np.allclose([p.value for p in pairs], reference, rtol=1e-10, atol=1e-10)
    for i, a in enumerate(pairs):
        assert a.residual <= 1e-9
        for b in pairs[i + 1 :]:
            assert abs(a.vector @ B.matvec(b.vector)) <= 1e-8


def test_window_on_bandwidth_two_matches_dense():
    rng = np.random.default_rng(17)
    A, B = diagonal_mass_pencil(rng, 500, bandwidth=2)
    window = (-0.2, 0.25)
    pairs = solve_generalized(A, B, window=window, seed=4)
    assert pairs
    dense = solve_generalized(A, B, count=len(pairs), window=window, method="dense")
    assert np.allclose([p.value for p in pairs], [p.value for p in dense], rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shift, window", [(0.0, (-0.5, 0.5)), (3.0, (3.0, 4.0))],
                         ids=["indefinite", "definite"])
def test_window_on_a_reduced_T_holds_its_values_to_the_reduction(seed, shift, window):
    # dsbtrd's reduction moves a definite pencil's values 12-18 eps ||T||
    # off the quotients of its vectors, which a slack of 8 eps ||T|| took
    # for slides; a reduced T's refined values get the 64 eps ||T|| of the
    # count route's reduced T
    A, B = diagonal_mass_pencil(np.random.default_rng(seed), 400, bandwidth=2)
    A = A.add_scaled(B, shift)
    pairs = solve_generalized(A, B, window=window, seed=seed)
    dense = sla.eigh(A.to_dense(), B.to_dense(), eigvals_only=True)
    inside = dense[(dense > window[0]) & (dense < window[1])]
    assert len(pairs) == len(inside) > 10
    assert [p.value for p in pairs] == pytest.approx(inside, rel=1e-12, abs=1e-12)
    assert all(p.residual <= 1e-9 for p in pairs)


def test_window_separates_a_repeated_eigenvalue():
    A = BandedSymmetric.from_tridiagonal(np.array([1.0, 1.0, 2.0] + [5.0] * 13), np.zeros(15))
    B = BandedSymmetric.from_diagonal(np.full(16, 4.0))
    pairs = solve_generalized(A, B, window=(0.0, 1.0))
    assert [p.value for p in pairs] == [0.25, 0.25, 0.5]
    assert abs(pairs[0].vector @ B.matvec(pairs[1].vector)) <= 1e-12


def test_empty_window_returns_nothing():
    rng = np.random.default_rng(8)
    A, B = diagonal_mass_pencil(rng, 200)
    assert solve_generalized(A, B, window=(50.0, 60.0)) == []
    assert solve_generalized(A, B, window=(0.1, 0.1)) == []


def zero_diagonal_pencil(sub, mass=1.0):
    m = len(sub) + 1
    A = BandedSymmetric.from_tridiagonal(np.zeros(m), mass * np.asarray(sub, dtype=float))
    return A, BandedSymmetric.from_diagonal(np.full(m, mass))


@pytest.mark.parametrize("mass", [1.0, 7.0], ids=["unit-mass", "scaled-mass"])
@pytest.mark.parametrize(
    "sub, expected",
    [
        ([1.0, 0.0, 0.5], [-0.5, 0.5]),
        ([1.0, 0.0, 0.5, 0.0], [-0.5, 0.0, 0.5]),
        ([0.0, 1.0, 0.0, 1.0, 0.0], [0.0, 0.0]),
    ],
    ids=["chiral", "odd-size", "two-zeros"],
)
def test_window_excludes_eigenvalues_on_its_ends(sub, expected, mass):
    # every pencil has the eigenvalues -1 and 1, on the ends of the open
    # window; with mass 7 the scaled matrix puts them 1 ulp inside it, and
    # only the Rayleigh quotients show that they lie on the ends.  A zero
    # eigenvalue certifies against the norms of A and B and must not overflow.
    A, B = zero_diagonal_pencil(sub, mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [p.value for p in solve_generalized(A, B, window=(-1.0, 1.0))]
    assert values == pytest.approx(expected, abs=1e-12)


def test_exact_zero_eigenvalue_certifies_against_the_norms():
    # at lam = 0 with A x = 0, ||Ax - lam Bx|| / (||Ax|| + |lam| ||Bx||) is 1
    # for any x; the residual is then taken against (||A|| + |lam| ||B||) ||x||
    A, B = zero_diagonal_pencil([0.0, 1.0, 0.0, 1.0, 0.0])
    windowed = solve_generalized(A, B, window=(-1.5, 1.5))
    nearest = solve_generalized(A, B, count=2)
    assert [p.value for p in windowed] == pytest.approx([-1, -1, 0, 0, 1, 1], abs=1e-12)
    assert nearest[0].value == pytest.approx(0.0, abs=1e-12)
    assert nearest[1].value == pytest.approx(0.0, abs=1e-12)
    assert all(p.residual <= 1e-15 for p in windowed + nearest)


def test_window_solve_needs_diagonal_mass_and_window():
    rng = np.random.default_rng(6)
    A, B = random_pencil(rng, 100)
    with pytest.raises(ValueError, match="diagonal B"):
        solve_generalized(A, B, window=(-1.0, 1.0))
    with pytest.raises(ValueError, match="window"):
        solve_generalized(A, BandedSymmetric.from_diagonal(B.bands[0]))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda A, D: solve_generalized(A, BandedSymmetric.from_diagonal(np.ones(99)), count=1),
         "sizes differ"),
        (lambda A, D: solve_generalized(A, D, window=(-1.0, 1.0), method="dense"),
         "method applies to solves with a count"),
        (lambda A, D: solve_generalized(A, D, count=0), "count must be at least 1"),
        (lambda A, D: solve_generalized(A, D, count=2, method="lanczos"),
         "unknown method 'lanczos'"),
    ],
    ids=["sizes-differ", "method-on-window", "count-0", "unknown-method"],
)
def test_solve_generalized_rejects_malformed_requests(call, match):
    rng = np.random.default_rng(6)
    A, B = random_pencil(rng, 100)
    with pytest.raises(ValueError, match=match):
        call(A, BandedSymmetric.from_diagonal(B.bands[0]))


@pytest.mark.parametrize(
    "op", [conformal_laplacian(3), dirac_operator(2)], ids=["conformal-laplacian", "dirac"]
)
def test_collect_modes_solves_each_mode_once(monkeypatch, op):
    calls = []
    real = eigensolve.solve_generalized

    def counting(A, B, **kwargs):
        calls.append(kwargs)
        return real(A, B, **kwargs)

    monkeypatch.setattr(eigensolve, "solve_generalized", counting)
    (row,) = pinocchio_sweep(op, [2.0], N=400, path="intrinsic")
    assert row.error is None
    assert len(calls) == row.n_modes_used
    assert all("count" not in kw for kw in calls)


# ------------------------------------------------------------------ aggregate


def eigenpairs(*values):
    """Eigenpairs with the given values, empty vectors and zero residuals."""
    return [EigenPair(value=v, vector=np.empty(0), residual=0.0) for v in values]


def test_aggregate_merges_modes_with_multiplicity():
    op = conformal_laplacian(3)
    report = aggregate(
        [
            (make_mode(op, 0), eigenpairs(0.75)),
            (make_mode(op, 1), eigenpairs(3.75)),
        ]
    )
    assert [e.value for e in report.entries] == [0.75, 3.75]
    assert [e.multiplicity for e in report.entries] == [1, 3]
    assert report.lambda_1_plus == 0.75
    assert report.lambda_minus(1) is None


def test_aggregate_dirac_symmetric():
    op = dirac_operator(2)
    report = aggregate(
        [
            (make_mode(op, 0.5), eigenpairs(-1.0, 1.0)),
            (make_mode(op, -0.5), eigenpairs(-1.0, 1.0)),
        ]
    )
    near_one = [e for e in report.entries if abs(e.value - 1.0) < 1e-12]
    assert sum(e.multiplicity for e in near_one) == 2
    assert report.lambda_1_plus == 1.0
    assert report.lambda_minus(1) == -1.0


def test_aggregate_without_positive_part():
    op = dirac_operator(2)
    report = aggregate([(make_mode(op, 0.5), eigenpairs(-2.0, -1.0))])
    assert report.lambda_1_plus is None
    assert report.lambda_minus(1) == -1.0


def test_lambda_j_counts_multiplicity():
    op = conformal_laplacian(3)
    report = aggregate(
        [
            (make_mode(op, 0), eigenpairs(0.75, 3.75)),
            (make_mode(op, 1), eigenpairs(3.75)),
        ]
    )
    assert report.lambda_plus(1) == 0.75
    assert report.lambda_plus(2) == 3.75  # multiplicity-3 entry covers j = 2..4
    assert report.lambda_plus(5) == 3.75
    assert report.lambda_plus(6) is None


def test_kernel_tolerance_default_scales():
    op = conformal_laplacian(3)
    report = aggregate([(make_mode(op, 0), eigenpairs(1e-12, 2.0))])
    # 1e-12 sits below 1e-8 * spectral scale, so it is treated as kernel
    assert report.lambda_1_plus == 2.0


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=12
    )
)
def test_aggregate_sorted_and_extraction_consistent(values):
    op = conformal_laplacian(3)
    report = aggregate([(make_mode(op, 0), eigenpairs(*values))])
    got = [e.value for e in report.entries]
    assert got == sorted(got)
    tol = report.kernel_tolerance
    assert tol == 1e-8 * max(abs(v) for v in values)
    positives = [v for v in got if v > tol]
    negatives = [v for v in got if v < -tol]
    assert report.lambda_1_plus == (min(positives) if positives else None)
    assert report.lambda_minus(1) == (max(negatives) if negatives else None)


# ------------------------------------------------------------ certificates


def test_nan_vector_is_not_certified():
    # a non-finite vector from a route must fail the gate, not come back as a
    # pair with value and residual NaN, even at the iterative route's
    # infinite slack
    A, B = random_pencil(np.random.default_rng(4), 50)
    with pytest.raises(SolverConvergenceError):
        eigensolve._certify(A, B, [0.0], [np.full(50, np.nan)], [math.inf])


def test_certificate_rejects_a_vector_off_its_eigenvector():
    # at the iterative route's infinite slack any quotient passes the slide
    # gate; a vector 1e-6 off the exact eigenvector must then fail the
    # residual certificate, which raises that pair's residual
    A, B = random_pencil(np.random.default_rng(4), 50)
    values, vectors = sla.eigh(A.to_dense(), B.to_dense())
    off = vectors[:, 1] + 1e-6 * np.random.default_rng(5).standard_normal(50)
    lam = float(off @ A.matvec(off)) / float(off @ B.matvec(off))
    with pytest.raises(SolverConvergenceError) as err:
        eigensolve._certify(A, B, values[:2], [vectors[:, 0], off], [math.inf] * 2)
    assert err.value.achieved_residual == relative_residual(A, B, lam, off) > 1e-8


def test_certify_drops_a_quotient_on_a_window_end():
    # eigenvalues +-0.5 and +-1, mass 7, window (-0.5, 1): -0.5's exact vector
    # has its quotient on the lower end; a B-normal vector 8 ulps off 1's has
    # it 1 ulp inside the upper end in double and on it in extended precision
    A, B = zero_diagonal_pencil([1.0, 0.0, 0.5], 7.0)
    near = np.array([1.0, 1.0 - 8.0 * EPS, 0.0, 0.0]) / math.sqrt(14.0)
    assert float(near @ A.matvec(near)) / float(near @ B.matvec(near)) == 1.0 - EPS / 2
    vectors = [np.array([0.0, 0.0, 1.0, -1.0]), np.array([0.0, 0.0, 1.0, 1.0]), near]
    pairs = eigensolve._certify(A, B, [-0.5, 0.5, 1.0], vectors, [8.0 * EPS] * 3, (-0.5, 1.0))
    assert [p.value for p in pairs] == [0.5]


def test_certificate_matches_recomputed_residuals():
    # the certificate computes A x and B x once per pair; its residuals are
    # the ones relative_residual recomputes from the returned pair
    rng = np.random.default_rng(31)
    A, B = diagonal_mass_pencil(rng, 400, bandwidth=2)
    pairs = solve_generalized(A, B, window=(-0.3, 0.3), seed=2)
    pairs += solve_generalized(A, B, count=3, method="dense", seed=2)
    assert pairs
    for pair in pairs:
        assert pair.residual == relative_residual(A, B, pair.value, pair.vector)


# ------------------------------------------------------------ coarse window


def _joined_copies(A, B, coupling):
    """Two copies of a tridiagonal pencil with diagonal B, joined by one
    off-diagonal entry of A."""
    m = A.size
    bands = np.concatenate([A.bands, A.bands], axis=1)
    bands[1, m - 1] = coupling
    return BandedSymmetric(bands), BandedSymmetric(np.concatenate([B.bands, B.bands], axis=1))


def test_window_splits_values_closer_than_its_tolerance():
    rng = np.random.default_rng(13)
    A, B = diagonal_mass_pencil(rng, 150)
    single = solve_generalized(A, B, window=(-0.3, 0.3), seed=1)
    A2, B2 = _joined_copies(A, B, 1e-10)
    pairs = solve_generalized(A2, B2, window=(-0.3, 0.3), seed=1)
    assert len(pairs) == 2 * len(single) > 0
    expected = np.repeat([p.value for p in single], 2)
    assert np.allclose([p.value for p in pairs], expected, rtol=0, atol=1e-9)
    for i, a in enumerate(pairs):
        assert a.residual <= 1e-9
        for b in pairs[i + 1 :]:
            assert abs(a.vector @ B2.matvec(b.vector)) <= 1e-8
            assert not np.allclose(np.abs(a.vector), np.abs(b.vector))


def test_chiral_window_splits_values_closer_than_its_tolerance(iterated):
    # the same split on the half-size bidiagonal: the coupling sits on an
    # odd sub-diagonal entry, so the joined pencil stays chiral, and an
    # interval that converges holding two values gives two shifts
    A, B = chiral_pencil(np.random.default_rng(13), 150)
    window = (-1.2, 1.2)
    single = solve_generalized(A, B, window=window, seed=1)
    A2, B2 = _joined_copies(A, B, 1e-10)
    iterated.clear()
    pairs = solve_generalized(A2, B2, window=window, seed=1)
    assert len(pairs) == 2 * len(single) > 0
    assert iterated == [len(single)]
    expected = np.repeat([p.value for p in single], 2)
    assert np.allclose([p.value for p in pairs], expected, rtol=0, atol=1e-9)
    V = np.array([p.vector for p in pairs])
    gram = V @ np.array([B2.matvec(v) for v in V]).T
    assert np.abs(gram - np.eye(len(pairs))).max() <= 1e-8
    assert all(p.residual <= 1e-9 for p in pairs)


def test_window_rejects_iteration_that_lands_on_a_neighbour():
    # the value 2 comes back with the vector of 2.001, outside the window,
    # whose residual the certificate alone would accept; ||T|| is 17
    diag = np.array([0.01, 2.0, 2.001] + [5.0 + k for k in range(13)])
    A = BandedSymmetric.from_tridiagonal(diag, np.zeros(15))
    B = BandedSymmetric.from_diagonal(np.ones(16))
    window = (0.0, 2.0005)
    assert [round(p.value, 6) for p in solve_generalized(A, B, window=window)] == [0.01, 2.0]
    with pytest.raises(SolverConvergenceError):  # at 8 eps ||T||
        eigensolve._certify(A, B, [0.01, 2.0], list(np.eye(16)[[0, 2]]), [8 * EPS * 17] * 2, window)


def test_count_rejects_iteration_that_lands_on_a_neighbour():
    # the same slide on the reduced T of a coupled B: the second shift of 2
    # converges to 2.001, which would come back in place of 0.01
    diag = np.array([0.01, 2.0, 2.001] + [5.0 + k for k in range(13)])
    A = BandedSymmetric.from_tridiagonal(diag, np.zeros(15))
    B = BandedSymmetric.from_tridiagonal(np.ones(16), np.full(15, 1e-7))
    assert [round(p.value, 6) for p in solve_generalized(A, B, count=2)] == [0.01, 2.0]
    _, vectors = sla.eigh(A.to_dense(), B.to_dense())
    with pytest.raises(SolverConvergenceError):  # at a reduced T's 64 eps ||T||
        eigensolve._certify(A, B, [2.0, 2.0], [vectors[:, 1], vectors[:, 2]], [64 * EPS * 17] * 2)


def test_slack_rejects_a_slide_to_a_neighbour_1e_10_away():
    # the slide of the tests above, to a neighbour 1e-10 away: on a scaled T
    # (diagonal B) the slack of a count or window value is 8 eps ||T||,
    # 3e-14, so the gate itself must hold near its size
    diag = np.array([1e-5, 1e-3, 1e-3 + 1e-10] + [5.0 + k for k in range(13)])
    A = BandedSymmetric.from_tridiagonal(diag, np.zeros(15))
    B = BandedSymmetric.from_diagonal(np.ones(16))
    window = (0.0, 1e-3 + 0.5e-10)
    e, tol = np.eye(16), 8.0 * EPS * 17.0
    for kw, end in (({"count": 2}, None), ({"window": window}, window)):
        values = [p.value for p in solve_generalized(A, B, **kw)]
        assert values == pytest.approx([1e-5, 1e-3], rel=1e-12)
        assert len(eigensolve._certify(A, B, [1e-5, 1e-3], [e[0], e[1]], [tol, tol], end)) == 2
        with pytest.raises(SolverConvergenceError):
            eigensolve._certify(A, B, [1e-5, 1e-3], [e[0], e[2]], [tol, tol], end)


@pytest.mark.parametrize(
    "bandwidth, diagonal, factor", [(1, True, 8.0), (2, True, 64.0), (1, False, 64.0)],
    ids=["scaled", "dsbtrd-reduced", "dsbgst-reduced"],
)
def test_front_end_sets_the_slack(bandwidth, diagonal, factor):
    # an isolated value's slack is 8 eps ||T|| on a scaled tridiagonal T and
    # 64 eps ||T|| on one that dsbtrd or dsbgst reduced, whose values lie up
    # to 28 eps ||T|| off their quotients; a cluster's copies add the
    # isolation tolerance
    A, B = random_pencil(np.random.default_rng(bandwidth), 60, bandwidth)
    B = BandedSymmetric.from_diagonal(B.bands[0]) if diagonal else B
    T, scale, reduced, _ = eigensolve._standard_form(A, B, diagonal)
    assert T.shape == (2, 60) and reduced == (factor == 64.0)
    rep = eigensolve._ShiftedTridiagonal(T, scale)
    bracket = (rep.rep(-scale), rep.rep(scale), 0, 60)
    base = factor * EPS * scale
    _, twisted, slack = eigensolve._refined_values(rep, *bracket, 0, 1, 1e-6, reduced, scale)
    assert list(slack) == [base] and twisted[0] is not None
    # a tolerance wider than the spectrum leaves one cluster of all 60,
    # which gives a copy for each of the block's two indices only
    tol = 4.0 * scale
    _, twisted, slack = eigensolve._refined_values(rep, *bracket, 0, 2, tol, reduced, scale)
    assert list(slack) == [tol + base, tol + base] and twisted == [None, None]


@pytest.fixture
def no_iterative_route(monkeypatch):
    """Make any call of the iterative route fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("the iterative route ran on a pencil the program built")

    monkeypatch.setattr(eigensolve, "_iterative_path", refuse)


@pytest.mark.parametrize(
    "op, ell_max",
    [(conformal_laplacian(3), 8), (dirac_operator(2), 5)],
    ids=["conformal-laplacian", "dirac"],
)
def test_experiments_never_call_arpack_and_sweep_rows_certify_at_1e9(
    no_iterative_route, op, ell_max
):
    # no experiment workload calls the iterative route, and every
    # sweep row, L = 1..8 and 30, succeeds with residuals <= 1e-9
    L_grid = [float(L) for L in range(1, 9)] + [30.0]
    rows = pinocchio_sweep(op, L_grid, N=2000, path="intrinsic")
    assert all(r.error is None for r in rows)
    assert all(r.max_residual <= 1e-9 for r in rows)
    assert convergence_study(op, 1, [2.0, 4.0, 6.0, 8.0, 10.0], N=2000).trajectories
    rows = covariance_crosscheck(op, 4.0, [500, 1000, 2000])
    assert rows[-1].discrepancy <= 1e-3 and all(r.ratio >= 3.0 for r in rows[1:])
    assert validate_sphere(op, N=2000, ell_max=ell_max).passed
    assert all(scaling_check(op, c).passed for c in (0.5, 2.0, 3.0))


def test_criterion_workloads_never_call_arpack(no_iterative_route):
    # the criterion workloads beyond the two sweep operators: the Paneitz
    # validation and scaling check, and the exact-cylinder law
    op = paneitz_operator(5)
    assert validate_sphere(op, N=2000, ell_max=4).passed
    assert all(scaling_check(op, c).passed for c in (0.5, 2.0, 3.0))
    _, law_dev = cylinder_surrogate_study([5.0, 10.0, 15.0, 20.0, 25.0, 30.0], N=2000)
    assert law_dev <= 1e-3


def test_inverse_iteration_certifies_where_norm_dwarfs_the_value():
    # ||T|| is 2.3e11 and the lowest value 2.547: a shift offset of
    # 4 eps ||T|| sat 2e-4 off it, where three steps left residuals of 4e-9
    op = conformal_laplacian(3)
    profile = profile_L(3, 4.0)
    grid = nose_resolving_grid(profile, 2000, exponent=2.0)
    asm = covariance_reduce(op, profile, make_mode(op, 1), grid)
    reference = [p.value for p in solve_generalized(asm.A, asm.B, count=3, method="iterative")]
    for pairs in (
        solve_generalized(asm.A, asm.B, count=3, method="dense"),
        solve_generalized(asm.A, asm.B, count=3),
        solve_generalized(asm.A, asm.B, window=(-4.16, 4.16)),
    ):
        assert [p.value for p in pairs] == pytest.approx(reference, rel=1e-10)
        assert all(p.residual <= 1e-11 for p in pairs)


@pytest.mark.parametrize("L", [1.0, 4.0, 8.0])
def test_count_solve_isolates_low_values_of_a_stiff_pencil(L):
    # ||T|| of the Paneitz n=5 covariance pencil at N=2000 is about 1.7e23:
    # an isolation tolerance of 4 eps ||T|| (1.5e8) would make its lowest
    # values (4.4, 17 and 72 at L=1) one cluster, and inverse iteration
    # from the cluster's midpoint leaves residuals near 2e-2
    op = paneitz_operator(5)
    profile = profile_L(5, L)
    grid = nose_resolving_grid(profile, 2000, exponent=2.0)
    asm = covariance_reduce(op, profile, make_mode(op, 0), grid)
    pairs = solve_generalized(asm.A, asm.B, count=3)
    values = [p.value for p in pairs]
    hi = 1.0001 * values[-1]
    assert values == [p.value for p in solve_generalized(asm.A, asm.B, window=(-hi, hi))]
    iterative = solve_generalized(asm.A, asm.B, count=3, method="iterative")
    assert values == pytest.approx([p.value for p in iterative], rel=1e-7)
    assert all(p.residual <= 2e-6 for p in pairs)


# ------------------------------------------------------------ chiral split


def chiral_pencil(rng, m):
    """Zero-diagonal tridiagonal A with a positive diagonal B.  The even
    off-diagonals dominate the odd ones, so the spectrum keeps away from 0."""
    sub = rng.uniform(-0.5, 0.5, m - 1)
    sub[0::2] = rng.choice([-1.0, 1.0], sub[0::2].size) * rng.uniform(1.0, 2.0, sub[0::2].size)
    A = BandedSymmetric.from_tridiagonal(np.zeros(m), sub)
    return A, BandedSymmetric.from_diagonal(rng.uniform(1.0, 2.0, m))


def half_bidiagonal(A, B):
    """The half-size bidiagonal of the chiral pencil (A, B), built from its
    scaled T as a window solve builds it."""
    T, scale, _ = eigensolve._scaled_standard(A, B)
    return eigensolve._chiral_half(T, scale)


# powers of 2 near 1e+-163 scale T and its eigenvalues exactly; T's squared
# entries overflow or underflow unless T is divided by its norm first
_EXTREME_FACTORS = pytest.mark.parametrize(
    "factor", [1.0, 2.0**540, 2.0**-540], ids=["unit", "times-1e163", "times-1e-163"]
)


@_EXTREME_FACTORS
@pytest.mark.parametrize("m", [2, 4, 10, 64, 300])
def test_half_size_count_matches_the_full_pencil_oracle(m, factor):
    # the half-size count of (0, x) is the full chiral pencil's count below
    # x less its m/2 negative values
    rng = np.random.default_rng(m)
    A, B = chiral_pencil(rng, m)
    da, ea = oracles.banded_to_tridiag(A)
    xs = rng.uniform(0.0, 3.0, 64)  # the spectrum lies within (-2.5, 2.5)
    below = oracles.tridiag_pencil_count_below(
        da, ea, np.asarray(B.bands[0]), np.zeros(m - 1), xs
    )
    half = half_bidiagonal(BandedSymmetric(A.bands * factor), B)
    assert [half.count(half.rep(factor * x)) for x in xs] == list(below - m // 2)


@_EXTREME_FACTORS
def test_half_size_count_leaves_out_a_value_it_sits_on(factor):
    # 2x2 blocks [[0, a], [a, 0]] with dyadic a, so that a^2 and a^2 / a are
    # exact: the oracle's pivot at x = |a| is exactly 0, which it counts as
    # below, while dlaneg counts the values strictly below its shift
    rng = np.random.default_rng(4)
    p = 40
    a = rng.choice(np.arange(512, 2048), p, replace=False) / 1024.0
    sub = np.zeros(2 * p - 1)
    sub[0::2] = a * rng.choice([-1.0, 1.0], p)
    A = BandedSymmetric.from_tridiagonal(np.zeros(2 * p), sub)
    B = BandedSymmetric.from_diagonal(np.ones(2 * p))
    da, ea = oracles.banded_to_tridiag(A)
    at_or_below = oracles.tridiag_pencil_count_below(
        da, ea, np.ones(2 * p), np.zeros(2 * p - 1), a
    )
    half = half_bidiagonal(BandedSymmetric(A.bands * factor), B)
    counts = [half.count(half.rep(factor * x)) for x in a]
    assert counts == list(at_or_below - p - 1)
    assert sorted(counts) == list(range(p))


def _representation(kind, rng, m):
    """A random tridiagonal A (with B = I), the L D L^T a window solve builds
    for it, and two exact eigenvalues at its tail: two decoupled 1x1
    blocks, or on a chiral A two 2x2 blocks [[0, a], [a, 0]] with dyadic a,
    whose positive values are a."""
    sub = rng.uniform(-0.5, 0.5, m - 1)
    if kind == "chiral-half":
        sub[0::2] = rng.choice([-1.0, 1.0], m // 2) * rng.uniform(1.0, 2.0, m // 2)
        exact = [1.25, 1.75]
        sub[m - 5 :] = [0.0, exact[0], 0.0, exact[1]]
        diag = np.zeros(m)
    else:
        low = 2.0 if kind == "definite" else -1.0
        diag = rng.uniform(low, low + 2.0, m)
        exact = [low + 0.5, low + 1.5]
        diag[m - 2 :], sub[m - 3 :] = exact, 0.0
    A = BandedSymmetric.from_tridiagonal(diag, sub)
    B = BandedSymmetric.from_diagonal(np.ones(m))
    T, scale, _ = eigensolve._scaled_standard(A, B)
    if kind == "chiral-half":
        return A, B, eigensolve._chiral_half(T, scale), exact
    return A, B, eigensolve._ShiftedTridiagonal(T, scale), exact


@pytest.mark.parametrize("kind", ["chiral-half", "definite", "indefinite"])
def test_window_counts_match_the_oracle(kind):
    # every count of a window solve is a dlaneg count on its one L D L^T, of
    # T's eigenvalues below x (in (0, x) on a chiral half), while the oracle
    # counts those at or below x: an eigenvalue on x is one apart.  The count
    # at a window's lower end is taken below the next double up from x's
    # representation value and takes an eigenvalue on x in.
    rng = np.random.default_rng(len(kind))
    m = 200
    A, B, rep, exact = _representation(kind, rng, m)
    if kind != "chiral-half":
        assert (rep.tau == 0.0) == (kind == "definite")
    da, ea = oracles.banded_to_tridiag(A)
    xs = np.concatenate([rng.uniform(-2.0, 4.0, 64), exact])
    if kind == "chiral-half":
        xs = np.abs(xs)
    at_or_below = oracles.tridiag_pencil_count_below(da, ea, np.ones(m), np.zeros(m - 1), xs)
    negative = m // 2 if kind == "chiral-half" else 0
    on_value = np.isin(xs, exact).astype(int)
    assert [rep.count(rep.rep(x)) for x in xs] == list(at_or_below - negative - on_value)
    if kind != "chiral-half":
        lower = [rep.count(np.nextafter(rep.rep(x), np.inf)) for x in xs]
        assert lower == list(at_or_below)
    # a window whose ends are the two exact eigenvalues holds neither
    if kind == "chiral-half":
        window, inside = (-exact[1], exact[1]), 2 * (at_or_below[-1] - 1 - negative)
    else:
        window, inside = tuple(exact), at_or_below[-1] - 1 - at_or_below[-2]
    assert inside > 0
    assert len(solve_generalized(A, B, window=window)) == inside


def test_intrinsic_dirac_modes_certify_near_roundoff():
    # the chiral half's vectors: u from the twisted factorization, v = s C^-1 u
    # by one bidiagonal solve; v = C^T u / s would amplify u's rounding by
    # ||C|| / s and left these residuals near 2e-11
    rows = pinocchio_sweep(dirac_operator(2), [1.0, 30.0], N=2000, path="intrinsic")
    assert all(r.error is None and r.max_residual <= 1e-12 for r in rows)


def test_rayleigh_iteration_keeps_to_its_interval():
    # on this pencil the first Rayleigh step from the midpoint of the
    # interval that isolates the lowest value heads for 1.29, outside it;
    # unguarded, the iteration converges there and 0.823 is lost.  A step
    # that would leave the interval is replaced by a bisection step.
    rng = np.random.default_rng(18)
    m = int(rng.integers(4, 12))
    diag, sub = rng.uniform(0.1, 3.0, m), rng.uniform(-1.0, 1.0, m - 1)
    window = (0.0, float(rng.uniform(0.5, 3.0)))
    A = BandedSymmetric.from_tridiagonal(diag, sub)
    B = BandedSymmetric.from_diagonal(np.ones(m))
    first, stop = oracles.tridiag_pencil_count_below(diag, sub, np.ones(m), np.zeros(m - 1), window)
    reference = oracles.pencil_eigs_of_banded(A, B, first, stop - 1)
    assert stop - first >= 5
    full = [p.value for p in solve_generalized(A, B, window=window)]
    lowest = [p.value for p in solve_generalized(A, B, window=window, lowest=1)]
    assert full == pytest.approx(reference, rel=1e-12)
    assert lowest == pytest.approx(reference[:1], rel=1e-12)


def test_rayleigh_iteration_cap_is_a_solver_failure(monkeypatch):
    # a value that is still moving when the step cap is reached is not
    # returned; the certificate never sees it
    A, B = chiral_pencil(np.random.default_rng(3), 300)
    assert solve_generalized(A, B, window=(-1.2, 1.2), lowest=1)
    monkeypatch.setattr(eigensolve, "_RQI_STEPS", 2)
    with pytest.raises(SolverConvergenceError):
        solve_generalized(A, B, window=(-1.2, 1.2), lowest=1)


def test_rayleigh_twist_reuse_keeps_vectors_orthogonal(monkeypatch):
    # a Rayleigh step after an accepted correction reuses the previous
    # step's twist; the step whose value and vector refine returns always
    # searches afresh (r = 0).  A rule that reused the twist through
    # bisection steps too let B-orthogonality on these pencils fall to
    # 1.9e-10 and residuals rise to 1.3e-10.  Every pair of full windows of
    # 33 random indefinite pencils (diagonal B, m = 200..2000) stays within
    # the worst values measured with a fresh twist at every step:
    # |x_i^T B x_j| 5.49e-11 and residual 1.59e-11, both at m = 2000.
    # The worst product always lies between near neighbours in value, so
    # only those within 8 places are formed.
    last = {}
    dlar1v = eigensolve._dlar1v

    def spy(*args):
        n, mu, z, r, nrminv, rqcorr = (args[i] for i in (0, 3, 10, 15, 17, 19))
        twist = r.value
        dlar1v(*args)
        vector = np.ctypeslib.as_array((ctypes.c_double * n.value).from_address(z))
        last.update(twist=twist, shift=mu.value + rqcorr.value, vector=vector * nrminv.value)

    refine = eigensolve._Twisted.refine
    returned = []

    def checked(rep, left, right, n_left):
        value, y = refine(rep, left, right, n_left)
        returned.append(
            last["twist"] == 0 and value == rep.value(last["shift"])
            and np.array_equal(y, last["vector"])
        )
        return value, y

    monkeypatch.setattr(eigensolve, "_dlar1v", spy)
    monkeypatch.setattr(eigensolve._Twisted, "refine", checked)
    worst_product = worst_residual = 0.0
    for seed, m in [(seed, 200) for seed in range(30)] + [(30, 500), (31, 1000), (32, 2000)]:
        rng = np.random.default_rng(seed)
        A, B = diagonal_mass_pencil(rng, m)
        pairs = solve_generalized(A, B, window=(-3.0, 3.0))
        assert len(pairs) == m
        X = np.array([p.vector for p in pairs])
        BX = X * B.bands[0]
        for k in range(1, 9):
            products = np.einsum("ij,ij->i", BX[:-k], X[k:])
            worst_product = max(worst_product, np.abs(products).max())
        worst_residual = max(worst_residual, max(p.residual for p in pairs))
    assert len(returned) > 9000 and all(returned)  # of 9500 pairs, all but clusters' copies
    assert worst_product <= 5.5e-11
    assert worst_residual <= 1.6e-11


def test_no_route_calls_dstebz(monkeypatch):
    # every LAPACK routine the solver calls is one of its module-level
    # bindings; each is wrapped to record its calls.  Counts, values and
    # vectors of window, chiral and count solves come from one L D L^T
    # (dpttrf, dlaneg and dlar1v) or from inverse iteration, and the
    # iterative route's from its Krylov basis (numpy's eigh on the
    # projection): no route reaches dstebz
    called = set()
    for name, routine in list(vars(eigensolve).items()):
        if isinstance(routine, ctypes._CFuncPtr):

            def recording(*args, _name=name, _routine=routine):
                called.add(_name)
                return _routine(*args)

            monkeypatch.setattr(eigensolve, name, recording)
    rng = np.random.default_rng(23)
    chiral = chiral_pencil(rng, 300)
    indefinite = diagonal_mass_pencil(rng, 300)
    definite = (indefinite[0].add_scaled(indefinite[1], 3.0), indefinite[1])
    wide = diagonal_mass_pencil(rng, 300, bandwidth=2)
    joined = _joined_copies(*diagonal_mass_pencil(rng, 150), 1e-10)
    for (A, B), window in [
        (chiral, (-1.2, 1.2)), (indefinite, (-0.3, 0.3)), (definite, (1.5, 2.5)),
        (wide, (-0.2, 0.25)), (joined, (-0.3, 0.3)), (indefinite, (50.0, 60.0)),
    ]:
        for lowest in (None, 2):
            for pair in solve_generalized(A, B, window=window, lowest=lowest):
                assert pair.residual <= 1e-9
    coupled = random_pencil(rng, 300, bandwidth=2)
    for A, B in (indefinite, wide, coupled):
        for method in ("dense", "iterative"):
            for pair in solve_generalized(A, B, count=4, window=(0.1, 0.1), method=method):
                assert pair.residual <= 1e-9
    assert called == {
        "_dpbtrf", "_dpbstf", "_dsbgst", "_dsbtrd", "_dlaneg", "_dpttrf", "_dlar1v",
        "_dgttrf", "_dgttrs", "_dgbtrf", "_dgbtrs", "_dtbtrs",
    }
    assert not any("stebz" in name for name in vars(eigensolve))


@pytest.mark.parametrize("size", [1e154, 1e155])
@pytest.mark.parametrize(
    "count, method", [(None, "auto"), (3, "auto"), (3, "iterative")],
    ids=["window", "count", "iterative"],
)
def test_certificate_keeps_a_huge_pencil_in_range(count, method, size):
    # ||A x||^2 overflows once the entries pass about 1e154; the certificate
    # scales each vector by a power of 2 before its norm, so every route
    # certifies a zero-diagonal tridiagonal pencil there
    m = 50
    A = BandedSymmetric(np.vstack([np.zeros(m), np.r_[np.full(m - 1, size), 0.0]]))
    B = BandedSymmetric(np.ones((1, m)))
    window = (-3.0 * size, 3.0 * size) if count is None else None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pairs = solve_generalized(A, B, count=count, window=window, method=method)
    assert len(pairs) == (count or m)
    # the spectrum is 2 size cos(pi k / (m + 1)), k = 1..m
    exact = 2.0 * size * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    for p in pairs:
        assert np.min(np.abs(exact - p.value)) <= 1e-13 * size
        assert p.residual <= 1e-14


@pytest.mark.parametrize("factor", [1e150, 1e-150])
def test_inverse_iteration_keeps_extreme_masses_in_range(factor):
    # the iterate grows like ||B|| over the shift's distance; scaled by a
    # power of 2 before each B-product, it neither overflows nor underflows
    # where the pencil's entries lie near the ends of double range.  The
    # count route and a window on a dsbtrd-reduced T iterate on the pencil,
    # and the iterative route scales its Krylov directions the same way.
    op = dirac_operator(2)
    mode = next(mode_groups(op))[0]
    base = intrinsic_assemble(covariance_record(op, constant_profile(1.0, 2), make_grid("polar", 400)), mode)
    wide = BandedSymmetric(np.vstack([base.A.bands, np.zeros((1, base.A.size))]))

    def values(A, B, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            count = solve_generalized(A, B, count=4)
            window = solve_generalized(A, B, window=(-3.0 * scale, 3.0 * scale))
            krylov = solve_generalized(A, B, count=4, method="iterative")
        return np.array([p.value for p in count + window + krylov]) / scale

    reference = values(wide, base.B, 1.0)
    assert len(reference) == 12
    for A, B, scale in [
        (wide, base.B.scaled(factor), 1.0 / factor),  # the values scale by 1 / factor
        (BandedSymmetric(wide.bands * factor), base.B.scaled(factor), 1.0),
    ]:
        assert values(A, B, scale) == pytest.approx(reference, rel=1e-12)


@pytest.fixture
def iterated(monkeypatch):
    """Number of values each window solve refines and so finds a vector for."""
    counts = []
    real = eigensolve._refined_values

    def counting(*args):
        vals, twisted, slack = real(*args)
        counts.append(len(vals))
        return vals, twisted, slack

    monkeypatch.setattr(eigensolve, "_refined_values", counting)
    return counts


@pytest.mark.parametrize("seed", [0, 1])
def test_chiral_window_mirrors_the_positive_half(seed, iterated):
    rng = np.random.default_rng(seed)
    A, B = chiral_pencil(rng, 300)
    lo, hi = -1.2, 1.2
    da, ea = oracles.banded_to_tridiag(A)
    first, stop = oracles.tridiag_pencil_count_below(
        da, ea, np.asarray(B.bands[0]), np.zeros(A.size - 1), [lo, hi]
    )
    pairs = solve_generalized(A, B, window=(lo, hi), seed=seed)
    assert len(pairs) == stop - first > 0
    assert iterated == [len(pairs) // 2]
    values = np.array([p.value for p in pairs])
    reference = oracles.pencil_eigs_of_banded(A, B, first, stop - 1)
    assert np.allclose(values, reference, rtol=1e-10, atol=1e-10)
    # mirrored bit for bit: S x has the Rayleigh quotient of x, negated
    assert np.array_equal(values, -values[::-1])
    for i, a in enumerate(pairs):
        assert a.residual <= 1e-9
        for b in pairs[i + 1 :]:
            assert abs(a.vector @ B.matvec(b.vector)) <= 1e-8


@pytest.mark.parametrize("split", [False, True], ids=["odd-size", "split-at-zero"])
def test_chiral_window_keeps_a_zero_eigenvalue(split, iterated):
    # a zero eigenvalue has no mirror: an odd size always has one, and a zero
    # even off-diagonal splits an even size into two odd blocks with one each
    rng = np.random.default_rng(5)
    A, B = chiral_pencil(rng, 60 if split else 61)
    if split:
        A.bands[1, 10] = 0.0
    zeros = 2 if split else 1
    pairs = solve_generalized(A, B, window=(-1.0, 1.0), seed=3)
    values = np.array([p.value for p in pairs])
    assert np.sum(np.abs(values) <= 1e-12) == zeros
    assert iterated == [len(pairs)]
    da, ea = oracles.banded_to_tridiag(A)
    first, stop = oracles.tridiag_pencil_count_below(
        da, ea, np.asarray(B.bands[0]), np.zeros(A.size - 1), [-1.0, 1.0]
    )
    assert len(pairs) == stop - first
    reference = oracles.pencil_eigs_of_banded(A, B, first, stop - 1)
    assert np.allclose(values, reference, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize(
    "sub, hi, zeros",
    [([1.0, 0.0, 0.5, 0.0], 1.0, 1), ([3.0, 4.0, 0.0, 3.0, 4.0], 5.0, 2)],
    ids=["odd-size", "even-size"],
)
def test_chiral_window_keeps_zeros_when_hi_is_an_eigenvalue(sub, hi, zeros, iterated):
    # the Sturm counts of (0, hi] and (-hi, hi] both include the eigenvalue
    # at hi, and give a mirrored count although zeros are present
    m = len(sub) + 1
    A = BandedSymmetric.from_tridiagonal(np.zeros(m), np.array(sub))
    B = BandedSymmetric.from_diagonal(np.ones(m))
    values = np.array([p.value for p in solve_generalized(A, B, window=(-hi, hi))])
    assert np.sum(np.abs(values) <= 1e-12) == zeros
    assert iterated == [len(values)]


@pytest.mark.parametrize(
    "op, ratio", [(conformal_laplacian(3), 1), (dirac_operator(2), 2)],
    ids=["conformal-laplacian", "dirac"],
)
def test_intrinsic_dirac_modes_iterate_half_their_pairs(monkeypatch, iterated, op, ratio):
    returned = []
    real = eigensolve.solve_generalized

    def counting(A, B, **kwargs):
        pairs = real(A, B, **kwargs)
        returned.append(len(pairs))
        return pairs

    monkeypatch.setattr(eigensolve, "solve_generalized", counting)
    (row,) = pinocchio_sweep(op, [4.0], N=400, path="intrinsic")
    assert row.error is None
    solved = [n for n in returned if n]
    assert solved and [ratio * k for k in iterated] == solved


def test_chiral_window_rejects_iteration_that_lands_on_a_neighbour(iterated):
    # 2x2 blocks [[0, a], [a, 0]] with eigenvalues +-a and eigenvectors
    # e_2j +- e_2j+1; the value 2 comes back with the vector of 2.001
    sub = np.zeros(31)
    sub[0::2] = [0.01, 2.0, 2.001] + [5.0 + k for k in range(13)]
    A, B = zero_diagonal_pencil(sub)
    window = (-2.0005, 2.0005)
    values = [round(p.value, 6) for p in solve_generalized(A, B, window=window)]
    assert values == [-2.0, -0.01, 0.01, 2.0]
    assert iterated == [2]
    e, tol = np.eye(32) * math.sqrt(0.5), 8.0 * EPS * 17.0
    vectors = [e[0] + e[1], e[4] + e[5], e[0] - e[1], e[4] - e[5]]
    with pytest.raises(SolverConvergenceError):
        eigensolve._certify(A, B, [0.01, 2.0, -0.01, -2.0], vectors, [tol] * 4, window)


def test_chiral_window_takes_no_count_at_zero(monkeypatch):
    # a zero eigenvalue is read off the sub-diagonal, not off a count; every
    # count and bisection runs on the half-size bidiagonal, none on T
    counts = []
    real = eigensolve._HalfBidiagonal.count

    def spy(half, mu):
        counts.append(mu)
        return real(half, mu)

    def refuse(*args, **kwargs):
        raise AssertionError("a chiral window was counted or bisected on T")

    monkeypatch.setattr(eigensolve._HalfBidiagonal, "count", spy)
    monkeypatch.setattr(eigensolve._ShiftedTridiagonal, "count", refuse)
    A, B = chiral_pencil(np.random.default_rng(2), 300)
    for lowest in (None, 3):
        counts.clear()
        assert solve_generalized(A, B, window=(-1.2, 1.2), seed=2, lowest=lowest)
        assert counts and 0.0 not in counts


# ------------------------------------------------------------ lowest pairs


def positive_part(pairs, window):
    tau = 1e-8 * max(abs(window[0]), abs(window[1]))
    return [p for p in pairs if p.value > tau]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("k", [1, 3, 8, 1000])
def test_lowest_matches_the_full_window(seed, k, iterated):
    # many values on either side of 0 inside the window; k = 1000 asks for
    # more than the window holds and gets all of its positive part, and no
    # value above the k lowest is refined
    rng = np.random.default_rng(seed)
    A, B = diagonal_mass_pencil(rng, 400, bandwidth=1 + seed % 2)
    window = (-0.4, 0.5)
    full = positive_part(solve_generalized(A, B, window=window, seed=seed), window)
    assert len(full) > 8
    iterated.clear()
    lowest = solve_generalized(A, B, window=window, seed=seed, lowest=k)
    assert iterated == [min(k, len(full))]
    assert len(lowest) == min(k, len(full))
    assert [p.value for p in lowest] == pytest.approx(
        [p.value for p in full[:k]], rel=1e-12, abs=1e-12
    )
    assert all(p.residual <= 1e-9 for p in lowest)


@pytest.mark.parametrize("k", [1, 4])
def test_lowest_on_a_chiral_pencil_mirrors_the_k_lowest(k, iterated):
    A, B = chiral_pencil(np.random.default_rng(7), 300)
    window = (-1.2, 1.2)
    full = solve_generalized(A, B, window=window, seed=1)
    iterated.clear()
    pairs = solve_generalized(A, B, window=window, seed=1, lowest=k)
    assert iterated == [k]
    values = np.array([p.value for p in pairs])
    expected = [p.value for p in positive_part(full, window)][:k]
    assert values[k:] == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert np.array_equal(values, -values[::-1])


@pytest.mark.parametrize(
    "diag, window",
    [([1.0, 2.0, 3.0] * 10, (50.0, 60.0)), ([-0.5, -0.2] + [3.0 + k for k in range(14)], (-1, 1))],
    ids=["beyond-the-spectrum", "negative-values-only"],
)
def test_lowest_on_an_empty_window_takes_counts_only(monkeypatch, diag, window):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty window was bisected, refined or iterated")

    monkeypatch.setattr(eigensolve, "_isolate", refuse)
    monkeypatch.setattr(eigensolve._Twisted, "refine", refuse)
    monkeypatch.setattr(eigensolve, "_inverse_iteration", refuse)
    m = len(diag)
    A = BandedSymmetric.from_tridiagonal(np.array(diag), np.zeros(m - 1))
    B = BandedSymmetric.from_diagonal(np.full(m, 2.0))
    assert solve_generalized(A, B, window=window, lowest=1) == []


@pytest.mark.parametrize("mass", [1.0, 7.0], ids=["unit-mass", "scaled-mass"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_lowest_excludes_an_eigenvalue_on_hi(mass, k):
    # values 0.25 and 1 (on hi) below, 3 and up above; the chiral pencil
    # has +-0.5 and +-1
    diag = np.array([0.25, 1.0] + [3.0 + j for j in range(10)])
    A = BandedSymmetric.from_tridiagonal(mass * diag, np.zeros(diag.size - 1))
    B = BandedSymmetric.from_diagonal(np.full(diag.size, mass))
    assert [p.value for p in solve_generalized(A, B, window=(-1.0, 1.0), lowest=k)] == [0.25]
    # with mass 7 the scaled value of 1 sits 1 ulp inside the window and the
    # quotient returned lies on hi; the full window drops it too
    assert [p.value for p in solve_generalized(A, B, window=(-1.0, 1.0))] == [0.25]
    A, B = zero_diagonal_pencil([1.0, 0.0, 0.5], mass)
    values = [p.value for p in solve_generalized(A, B, window=(-1.0, 1.0), lowest=k)]
    assert values == pytest.approx([-0.5, 0.5], abs=1e-12)


def test_lowest_keeps_the_lowest_of_an_unsplit_cluster():
    # 2 and 2 + 1e-10 sit closer than the bisection tolerance, so bisection
    # stops with an interval that holds both, and only one of them is in the
    # block of the lowest two; its one copy is inverse-iterated in the
    # cluster's eigenspace, so its quotient can be any value of that span
    diag = np.array([1.0, 2.0, 2.0 + 1e-10, 5.0, 7.0])
    A = BandedSymmetric.from_tridiagonal(diag, np.zeros(diag.size - 1))
    B = BandedSymmetric.from_diagonal(np.ones(diag.size))
    values = [p.value for p in solve_generalized(A, B, window=(-10.0, 10.0), lowest=2)]
    assert len(values) == 2
    assert values[0] == pytest.approx(1.0, abs=1e-12)
    assert 2.0 - 1e-12 <= values[1] <= 2.0 + 1e-10 + 1e-12
    assert 5.0 not in values


def test_lowest_needs_a_window_solve():
    A, B = diagonal_mass_pencil(np.random.default_rng(3), 50)
    with pytest.raises(ValueError, match="lowest applies"):
        solve_generalized(A, B, count=2, lowest=1)
    with pytest.raises(ValueError, match="at least 1"):
        solve_generalized(A, B, window=(-1.0, 1.0), lowest=0)


# ------------------------------------------------------------ LAPACK binding


@pytest.mark.parametrize("m", [3, 17, 500])
@pytest.mark.parametrize("bw", [0, 1, 2, 3])
def test_bound_lapack_routines_match_scipy_wrappers(bw, m):
    # every directly bound routine against scipy.linalg.lapack's wrapper, bit
    # for bit: a band read transposed, a 64-bit pivot array or an input
    # overwritten and reused would each change a value
    rng = np.random.default_rng(100 * bw + m)
    A, B = random_pencil(rng, m, bandwidth=bw)
    a_bands, b_bands = A.bands.copy(), B.bands.copy()

    factor = np.array(B.bands, order="F")
    info = ctypes.c_int(0)
    n, kd, ld = ctypes.c_int(m), ctypes.c_int(bw), ctypes.c_int(bw + 1)
    eigensolve._dpbtrf(b"L", n, kd, factor.ctypes.data, ld, info)
    wrapped, wrapped_info = lapack.dpbtrf(B.bands, lower=1)
    assert info.value == wrapped_info == 0
    assert np.array_equal(factor, wrapped)
    rhs = rng.standard_normal((2, m))  # rows: two column-major right-hand sides
    solved = rhs.copy()
    eigensolve._dtbtrs(
        b"L", b"T", b"N", n, kd, ctypes.c_int(2), factor.ctypes.data, ld, solved.ctypes.data,
        n, info,
    )
    wrapped_x, wrapped_info = lapack.dtbtrs(wrapped, rhs.T, uplo=b"L", trans=b"T")
    assert info.value == wrapped_info == 0
    assert np.array_equal(solved, wrapped_x.T)

    # a diagonal B scales A by 1 over its IEEE square root, bit for bit
    tridiagonal, _, s = eigensolve._scaled_standard(A, BandedSymmetric.from_diagonal(B.bands[0]))
    assert np.array_equal(s, 1.0 / np.sqrt(B.bands[0]))
    T = A.bands * s
    for k in range(bw + 1):
        T[k, : m - k] *= s[k:]
    T_before = T.copy()
    # dsbevx finds every value of a banded T, with abstol 0, by dsterf on
    # dsbtrd's tridiagonal: the one the count and window routes work on
    w, _, found, _, info = lapack.dsbevx(T, 0.0, 0.0, 1, m, compute_v=0, range=0, lower=1)
    assert info == 0 and found == m
    assert np.array_equal(eigensolve._tridiagonal(T), tridiagonal)
    values, info = lapack.dsterf(tridiagonal[0], tridiagonal[1, :-1])
    assert info == 0
    assert np.array_equal(values, w[:found])
    assert np.array_equal(T, T_before)

    solver = eigensolve._ShiftedSolver(A, B)
    for sigma in (0.3, -0.7):  # the second shift overwrites the first's factors
        solver.factor(sigma, 1e-300)
        shifted = np.ascontiguousarray(solver.b_full * -sigma + solver.a_full)
        if bw == 1:
            dl, d, du, du2, ipiv, _ = lapack.dgttrf(shifted[3, :-1], shifted[2], shifted[1, 1:])
            assert np.array_equal(solver.lu[3, :-1], dl) and np.array_equal(solver.lu[2], d)
            assert np.array_equal(solver.lu[1, 1:], du)
            assert np.array_equal(solver.du2[: m - 2], du2)
            wrapped_solve = lambda r: lapack.dgttrs(dl, d, du, du2, ipiv, r)[0]  # noqa: E731
            pivots = ipiv
        else:
            lu, ipiv, _ = lapack.dgbtrf(shifted, bw, bw)
            assert np.array_equal(solver.lu, lu)
            wrapped_solve = lambda r: lapack.dgbtrs(lu, bw, bw, r, ipiv)[0]  # noqa: E731
            pivots = ipiv + 1  # this wrapper counts its pivots from 0, LAPACK from 1
        assert solver.ipiv.dtype == np.int32 and np.array_equal(solver.ipiv, pivots)
        for _ in range(2):  # the factors serve every solve of their shift
            r = rng.standard_normal(m)
            assert np.array_equal(solver.solve(r.copy()), wrapped_solve(r))
    assert np.array_equal(solver.a_full, eigensolve._full_storage(A, bw))
    assert np.array_equal(solver.b_full, eigensolve._full_storage(B, bw))

    solve_generalized(A, B, count=min(3, m))
    assert np.array_equal(A.bands, a_bands) and np.array_equal(B.bands, b_bands)


@pytest.mark.parametrize("m", [2, 17, 500])
def test_dpttrf_binding_matches_scipy_wrapper(m):
    # the window route's L D L^T of a positive definite tridiagonal T, and
    # the failure it reports on an indefinite one
    rng = np.random.default_rng(m)
    d, e = rng.uniform(2.0, 3.0, m), rng.uniform(-0.5, 0.5, m - 1)
    for shift in (0.0, 3.0):
        ours_d, ours_e, info = d - shift, e.copy(), ctypes.c_int(0)
        eigensolve._dpttrf(ctypes.c_int(m), ours_d.ctypes.data, ours_e.ctypes.data, info)
        wrapped_d, wrapped_e, wrapped_info = lapack.dpttrf(d - shift, e)
        assert info.value == wrapped_info == (0 if shift == 0.0 else 1)
        if shift == 0.0:
            assert np.array_equal(ours_d, wrapped_d) and np.array_equal(ours_e, wrapped_e)


def run_isolated(code):
    """Run ``code`` in a fresh interpreter that imports confspec from this
    checkout; the suite's own process has scipy.linalg loaded already."""
    src = pathlib.Path(eigensolve.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_cli_import_loads_neither_scipy_linalg_nor_sparse():
    # LAPACK comes from scipy's Cython table alone, on every route, the
    # iterative one included; a later import of scipy.linalg shares the one
    # table module
    result = run_isolated(
        "import sys\n"
        "import numpy as np\n"
        "import confspec.cli\n"
        "from confspec import BandedSymmetric, solve_generalized\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
        "assert 'scipy.linalg' not in loaded and 'scipy.sparse' not in loaded, loaded\n"
        "A = BandedSymmetric.from_tridiagonal(np.arange(1.0, 41.0), np.full(39, 0.1))\n"
        "B = BandedSymmetric.from_diagonal(np.ones(40))\n"
        "dense = [p.value for p in solve_generalized(A, B, count=3)]\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "krylov = [p.value for p in solve_generalized(A, B, count=3, method='iterative')]\n"
        "loaded = sorted(name for name in sys.modules if name.startswith('scipy'))\n"
        "assert 'scipy.linalg' not in loaded and 'scipy.sparse' not in loaded, loaded\n"
        "assert np.allclose(krylov, dense, rtol=1e-12, atol=0.0)\n"
        "import scipy.linalg\n"
        "from confspec import eigensolve\n"
        "assert scipy.linalg.cython_lapack is eigensolve._LAPACK\n"
        "assert sys.modules['scipy.linalg.cython_lapack'] is eigensolve._LAPACK\n"
        "assert np.allclose(scipy.linalg.eigh(A.to_dense(), eigvals_only=True)[:3], dense)\n"
        "print('ok')\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_missing_lapack_table_is_an_import_error(tmp_path):
    # no fallback to another LAPACK binding: the import fails and names the
    # directory it searched
    (tmp_path / "linalg").mkdir()
    result = run_isolated(
        "import importlib.machinery, importlib.util\n"
        "real = importlib.util.find_spec\n"
        "def find_spec(name, *args):\n"
        "    if name != 'scipy':\n"
        "        return real(name, *args)\n"
        "    spec = importlib.machinery.ModuleSpec('scipy', None, is_package=True)\n"
        f"    spec.submodule_search_locations = [{str(tmp_path)!r}]\n"
        "    return spec\n"
        "importlib.util.find_spec = find_spec\n"
        "try:\n"
        "    import confspec.eigensolve\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('imported without a LAPACK table')\n"
    )
    assert result.returncode == 0, result.stderr
    assert str(tmp_path / "linalg") in result.stdout


# ------------------------------------------------------------ module boundaries


def _imports(nodes):
    """Dotted names each import statement among ``nodes`` brings in."""
    for node in nodes:
        if isinstance(node, ast.Import):
            yield [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield [f"{node.module}.{alias.name}" for alias in node.names]


def test_only_the_eigensolver_imports_scipy_sparse():
    # every module keeps its matrices in band storage, so none imports
    # scipy.sparse, the eigensolver included and not even in a function
    # body, and none imports scipy.linalg, whose LAPACK table the
    # eigensolver loads without it
    importers = set()
    for path in pathlib.Path(eigensolve.__file__).parent.glob("*.py"):
        for names in _imports(ast.walk(ast.parse(path.read_text()))):
            for name in names:
                if name.startswith(("scipy.sparse", "scipy.linalg")):
                    importers.add((path.name, name))
    assert not importers
