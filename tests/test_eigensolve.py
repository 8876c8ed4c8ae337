import math
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from confspec import eigensolve
from confspec.eigensolve import (
    NotPositiveDefiniteError,
    SolverConvergenceError,
    aggregate,
    relative_residual,
    solve_generalized,
)
from confspec.grid import BandedSymmetric, WeakForm1D, assemble_weak_form, make_grid
from confspec.experiments import pinocchio_sweep
from confspec.operators import conformal_laplacian, dirac_operator, make_mode

import oracles


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


def test_diagonal_pencil_is_exact():
    A = BandedSymmetric.from_tridiagonal(np.array([1.0, 2.0, 3.0] + [5.0] * 13), np.zeros(15))
    B = BandedSymmetric.from_tridiagonal(np.ones(16), np.zeros(15))
    pairs = solve_generalized(A, B, count=3)
    assert [p.value for p in pairs] == [1.0, 2.0, 3.0]


def test_second_difference_dirichlet():
    grid = make_grid("polar", 2000)
    form = WeakForm1D(
        p=lambda x: np.ones_like(x),
        q=lambda x: np.zeros_like(x),
        w=lambda x: np.ones_like(x),
        essential_left=True,
        essential_right=True,
    )
    A, M = assemble_weak_form(form, grid)
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
    form = WeakForm1D(
        p=lambda x: np.ones_like(x),
        q=lambda x: np.zeros_like(x),
        w=lambda x: np.ones_like(x),
    )
    A, M = assemble_weak_form(form, grid)
    pairs = solve_generalized(A, M, count=2, method="iterative")
    assert pairs[0].value == pytest.approx(0.0, abs=1e-9)
    # natural ends truncate the domain to [h, pi - h]; Neumann mode cos(x)
    h = grid.nodes[0]
    assert pairs[1].value == pytest.approx((math.pi / (math.pi - 2 * h)) ** 2, abs=1e-4)


def test_arpack_no_convergence_is_an_error_even_with_enough_pairs(monkeypatch):
    # a non-converged ARPACK call is a failure, not a source of partial pairs,
    # even when those pairs are exact
    rng = np.random.default_rng(4)
    A, B = random_pencil(rng, 700)
    exact = solve_generalized(A, B, count=3, method="dense")
    vals = np.array([p.value for p in exact])
    vecs = np.column_stack([p.vector for p in exact])

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", vals, vecs)

    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(SolverConvergenceError):
        solve_generalized(A, B, count=2, method="iterative")


def test_dense_rejects_non_finite_bands():
    rng = np.random.default_rng(12)
    A, B = random_pencil(rng, 50)
    A.bands[0, 17] = np.nan
    with pytest.raises(ValueError):
        solve_generalized(A, B, count=3, method="dense")


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
    # eigenvalue certifies with relative residual 1 but must not overflow.
    A, B = zero_diagonal_pencil(sub, mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values = [p.value for p in solve_generalized(A, B, window=(-1.0, 1.0))]
    assert values == pytest.approx(expected, abs=1e-12)


def test_window_solve_needs_diagonal_mass_and_window():
    rng = np.random.default_rng(6)
    A, B = random_pencil(rng, 100)
    with pytest.raises(ValueError, match="diagonal B"):
        solve_generalized(A, B, window=(-1.0, 1.0))
    with pytest.raises(ValueError, match="window"):
        solve_generalized(A, BandedSymmetric.from_diagonal(B.bands[0]))


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


def test_aggregate_merges_modes_with_multiplicity():
    op = conformal_laplacian(3)
    report = aggregate(
        [
            (make_mode(op, 0), [0.75]),
            (make_mode(op, 1), [3.75]),
        ]
    )
    assert [e.value for e in report.entries] == [0.75, 3.75]
    assert [e.multiplicity for e in report.entries] == [1, 3]
    assert report.lambda_1_plus == 0.75
    assert report.lambda_1_minus is None


def test_aggregate_dirac_symmetric():
    op = dirac_operator(2)
    report = aggregate(
        [
            (make_mode(op, 0.5), [-1.0, 1.0]),
            (make_mode(op, -0.5), [-1.0, 1.0]),
        ]
    )
    near_one = [e for e in report.entries if abs(e.value - 1.0) < 1e-12]
    assert sum(e.multiplicity for e in near_one) == 2
    assert report.lambda_1_plus == 1.0
    assert report.lambda_1_minus == -1.0


def test_aggregate_without_positive_part():
    op = dirac_operator(2)
    report = aggregate([(make_mode(op, 0.5), [-2.0, -1.0])])
    assert report.lambda_1_plus is None
    assert report.lambda_1_minus == -1.0


def test_lambda_j_counts_multiplicity():
    op = conformal_laplacian(3)
    report = aggregate(
        [
            (make_mode(op, 0), [0.75, 3.75]),
            (make_mode(op, 1), [3.75]),
        ]
    )
    assert report.lambda_plus(1) == 0.75
    assert report.lambda_plus(2) == 3.75  # multiplicity-3 entry covers j = 2..4
    assert report.lambda_plus(5) == 3.75
    assert report.lambda_plus(6) is None


def test_kernel_tolerance_default_scales():
    op = conformal_laplacian(3)
    report = aggregate([(make_mode(op, 0), [1e-12, 2.0])])
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
    report = aggregate([(make_mode(op, 0), values)], kernel_tolerance=1e-9)
    got = [e.value for e in report.entries]
    assert got == sorted(got)
    positives = [v for v in got if v > 1e-9]
    negatives = [v for v in got if v < -1e-9]
    assert report.lambda_1_plus == (min(positives) if positives else None)
    assert report.lambda_1_minus == (max(negatives) if negatives else None)


# ------------------------------------------------------------ certificates


def test_nan_vector_is_not_certified(monkeypatch):
    # a non-finite vector from an inner solve must fail the certificate, not
    # come back as a pair with value and residual NaN
    rng = np.random.default_rng(4)
    A, B = random_pencil(rng, 700)
    real = spla.eigsh

    def one_nan(*args, **kwargs):
        vals, vecs = real(*args, **kwargs)
        vecs[:, 0] = np.nan
        return vals, vecs

    monkeypatch.setattr(spla, "eigsh", one_nan)
    with pytest.raises(SolverConvergenceError):
        solve_generalized(A, B, count=2, method="iterative")


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


def test_window_rejects_iteration_that_lands_on_a_neighbour(monkeypatch):
    # bisection hands the shift of 2 twice: the second vector, kept
    # B-orthogonal to the first, converges to 2.001 outside the window, with
    # a residual the certificate alone would accept, while 0.01 is lost
    diag = np.array([0.01, 2.0, 2.001] + [5.0 + k for k in range(13)])
    A = BandedSymmetric.from_tridiagonal(diag, np.zeros(15))
    B = BandedSymmetric.from_diagonal(np.ones(16))
    window = (0.0, 2.0005)
    assert [round(p.value, 6) for p in solve_generalized(A, B, window=window)] == [0.01, 2.0]
    real = eigensolve.lapack.dsbevx

    def repeated(*args, **kwargs):
        w, z, found, ifail, info = real(*args, **kwargs)
        w[0] = w[1]
        return w, z, found, ifail, info

    monkeypatch.setattr(eigensolve.lapack, "dsbevx", repeated)
    with pytest.raises(SolverConvergenceError):
        solve_generalized(A, B, window=window)


@pytest.mark.parametrize(
    "op", [conformal_laplacian(3), dirac_operator(2)], ids=["conformal-laplacian", "dirac"]
)
def test_sweep_rows_need_no_polish(monkeypatch, op):
    # the window pairs leave inverse iteration already certified: the sparse
    # LU of the polish step never runs
    def no_lu(*args, **kwargs):
        raise AssertionError("polish factorized a sweep pencil")

    monkeypatch.setattr(spla, "splu", no_lu)
    rows = pinocchio_sweep(op, [8.0, 30.0], N=2000, path="intrinsic")
    assert all(r.error is None for r in rows)
    assert all(r.max_residual <= 1e-9 for r in rows)


# ------------------------------------------------------------ chiral split


def chiral_pencil(rng, m):
    """Zero-diagonal tridiagonal A with a positive diagonal B.  The even
    off-diagonals dominate the odd ones, so the spectrum keeps away from 0."""
    sub = rng.uniform(-0.5, 0.5, m - 1)
    sub[0::2] = rng.choice([-1.0, 1.0], sub[0::2].size) * rng.uniform(1.0, 2.0, sub[0::2].size)
    A = BandedSymmetric.from_tridiagonal(np.zeros(m), sub)
    return A, BandedSymmetric.from_diagonal(rng.uniform(1.0, 2.0, m))


@pytest.fixture
def iterated(monkeypatch):
    """Number of values each window or count solve inverse-iterates."""
    counts = []
    real = eigensolve._inverse_iteration

    def counting(A, B, vals, *args):
        counts.append(len(vals))
        return real(A, B, vals, *args)

    monkeypatch.setattr(eigensolve, "_inverse_iteration", counting)
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
    # mirrored exactly; B-orthonormalizing every pair moves a value by rounding
    assert np.abs(values + values[::-1]).max() <= 4 * np.finfo(float).eps * np.abs(values).max()
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


def test_chiral_window_rejects_iteration_that_lands_on_a_neighbour(monkeypatch, iterated):
    # 2x2 blocks [[0, a], [a, 0]] with eigenvalues +-a; bisection hands the
    # shift of 2 twice, and the second vector converges to 2.001
    sub = np.zeros(31)
    sub[0::2] = [0.01, 2.0, 2.001] + [5.0 + k for k in range(13)]
    A = BandedSymmetric.from_tridiagonal(np.zeros(32), sub)
    B = BandedSymmetric.from_diagonal(np.ones(32))
    window = (-2.0005, 2.0005)
    values = [round(p.value, 6) for p in solve_generalized(A, B, window=window)]
    assert values == [-2.0, -0.01, 0.01, 2.0]
    assert iterated == [2]
    real = eigensolve.lapack.dsbevx

    def repeated(*args, **kwargs):
        w, z, found, ifail, info = real(*args, **kwargs)
        w[0] = w[1]
        return w, z, found, ifail, info

    monkeypatch.setattr(eigensolve.lapack, "dsbevx", repeated)
    with pytest.raises(SolverConvergenceError):
        solve_generalized(A, B, window=window)
