import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confspec.eigensolve import solve_generalized
from confspec.grid import (
    MIN_NODES,
    BandedSymmetric,
    RadialGrid,
    assemble_mass,
    assemble_weak_form,
    make_grid,
    quadrature_points,
)

import oracles


def ones(x):
    return np.ones_like(x)


def zeros(x):
    return np.zeros_like(x)


def assemble_callables(grid, p, q, w, pinned=False):
    """``assemble_weak_form`` with p, q and w sampled at the quadrature points."""
    x = quadrature_points(grid, pinned)
    return assemble_weak_form(grid, p(x), q(x), w(x), pinned)


# ---------------------------------------------------------------- make_grid


def test_rejects_tiny_node_count():
    with pytest.raises(ValueError, match="node count too small"):
        make_grid("polar", 3)


def test_uniform_polar_partition():
    grid = make_grid("polar", 17)
    assert np.allclose(grid.nodes, np.pi * np.arange(1, 18) / 18, rtol=0, atol=0)


def test_arclength_needs_length():
    with pytest.raises(ValueError):
        make_grid("arclength", 100)
    grid = make_grid("arclength", 100, length=7.5)
    assert grid.span == 7.5
    assert grid.nodes[0] > 0 and grid.nodes[-1] < 7.5


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: RadialGrid(np.linspace(0.1, 3.0, MIN_NODES - 1), "polar", math.pi),
         "node count too small"),
        (lambda: RadialGrid(np.linspace(3.0, 0.1, MIN_NODES), "polar", math.pi),
         "strictly increasing"),
        (lambda: RadialGrid(np.linspace(0.0, 3.0, MIN_NODES), "polar", math.pi),
         r"strictly inside \(0, span\)"),
        (lambda: RadialGrid(np.linspace(0.1, math.pi, MIN_NODES), "polar", math.pi),
         r"strictly inside \(0, span\)"),
        (lambda: make_grid("polar", 100, length=2.0), "length applies to arclength grids only"),
        (lambda: make_grid("spherical", 100), "unknown coordinate kind 'spherical'"),
    ],
    ids=["too-few-nodes", "decreasing", "node-at-0", "node-at-span", "polar-length",
         "unknown-kind"],
)
def test_grid_constructors_reject_malformed_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()


# ------------------------------------------------------------- assembly


def test_dirichlet_laplacian_spectrum():
    grid = make_grid("polar", 2000)
    A, M = assemble_callables(grid, ones, zeros, ones, True)
    pairs = solve_generalized(A, M, count=3)
    for m, pair in enumerate(pairs, start=1):
        assert pair.value == pytest.approx(m * m, abs=1e-4)


def test_essential_ends_give_second_difference_stiffness():
    grid = make_grid("polar", 17)
    A, _ = assemble_callables(grid, ones, zeros, ones, True)
    h = np.pi / 18
    assert np.allclose(A.bands[0], 2.0 / h)
    assert np.allclose(A.bands[1, :-1], -1.0 / h)


def test_constant_shift_moves_spectrum_exactly():
    grid = make_grid("polar", 300)
    A0, M = assemble_callables(grid, ones, zeros, ones, True)
    A1, M1 = assemble_callables(grid, ones, lambda x: np.full_like(x, 2.5), ones, True)
    assert np.allclose(M1.bands, M.bands, rtol=0, atol=0)
    ev0 = solve_generalized(A0, M, count=4)
    ev1 = solve_generalized(A1, M, count=4, window=(2.5, 2.5 + 10.0))
    for a, b in zip(ev0, ev1):
        assert b.value - a.value == pytest.approx(2.5, abs=1e-9)


def test_sphere_radial_modes_against_fd_oracle():
    # radial S^3 Laplacian, angular mode 0: eigenvalues j(j+2)
    n = 3
    grid = make_grid("polar", 2000)
    A, M = assemble_callables(
        grid, lambda r: np.sin(r) ** (n - 1), zeros, lambda r: np.sin(r) ** (n - 1)
    )
    computed = [p.value for p in solve_generalized(A, M, count=3)]
    for lam, expected in zip(computed, [0.0, 3.0, 8.0]):
        assert lam == pytest.approx(expected, abs=1e-3)
    # independent oracle: conservative finite differences at double resolution
    reference = oracles.fd_radial_eigs(
        lambda r: np.sin(r) ** 2, lambda r: np.zeros_like(r), lambda r: np.sin(r) ** 2,
        N=4000, span=math.pi, count=3,
    )
    assert np.allclose(reference, [0.0, 3.0, 8.0], atol=3e-4)
    assert np.allclose(computed, reference, atol=1e-3)


def test_assembled_matrices_exactly_symmetric():
    # graded toward the left pole, so no two cells share a width
    nodes = math.pi * (np.arange(1, 201) / 201) ** 2
    grid = RadialGrid(nodes=nodes, coordinate_kind="polar", span=math.pi)
    rng = np.random.default_rng(7)
    coef = rng.uniform(0.5, 2.0, size=3)
    A, M = assemble_callables(
        grid,
        lambda x: coef[0] + np.sin(3 * x) ** 2,
        lambda x: coef[1] * np.cos(x),
        lambda x: coef[2] + x,
    )
    for mat in (A, M):
        dense = mat.to_dense()
        assert np.array_equal(dense, dense.T)


def test_non_finite_coefficient_reports_cell():
    grid = make_grid("polar", 32)

    def bad_q(x):
        out = np.zeros_like(x)
        out[5] = np.inf
        return out

    with pytest.raises(ValueError, match="cell 5"):
        assemble_callables(grid, ones, bad_q, ones)


def test_non_finite_coefficient_at_second_gauss_point_reports_cell():
    # all Gauss points of a grid are sampled as one array; the message must
    # still name the cell, not the position in that array
    grid = make_grid("polar", 32)
    lo, hi = grid.nodes[20], grid.nodes[21]
    second = lo + (0.5 + 0.5 / math.sqrt(3.0)) * (hi - lo)

    def bad_q(x):
        return np.where(np.abs(x - second) < 1e-12, np.inf, 0.0)

    for pinned in (False, True):
        with pytest.raises(ValueError, match=r"at cell 20 \(x = "):
            assemble_callables(grid, ones, bad_q, ones, pinned)


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
def test_mass_alone_is_the_weak_form_mass(pinned):
    # the mass half of the weak form, wall cells included, bit for bit, and
    # its weight checked as the weak form checks it
    nodes = math.pi * (np.arange(1, 101) / 101) ** 1.5
    grid = RadialGrid(nodes=nodes, coordinate_kind="polar", span=math.pi)
    x = quadrature_points(grid, pinned)
    w = 1.0 + np.sin(x) ** 2
    _, M = assemble_weak_form(grid, np.ones_like(x), np.cos(x), w, pinned)
    assert np.array_equal(assemble_mass(grid, w, pinned).bands, M.bands)
    with pytest.raises(ValueError, match=r"coefficient 'w' has shape \(7,\)"):
        assemble_mass(grid, np.ones(7), pinned)
    bad = w.copy()
    bad[-1] = np.nan
    where = "a wall cell" if pinned else "cell 98"
    with pytest.raises(ValueError, match=f"non-finite coefficient 'w' at {where}"):
        assemble_mass(grid, bad, pinned)


@settings(max_examples=15, deadline=None)
@given(amplitude=st.floats(min_value=0.0, max_value=5.0), seed=st.integers(0, 2**16))
def test_nonnegative_potential_increment_never_lowers_eigenvalues(amplitude, seed):
    # min-max principle: q -> q + (nonnegative bump) raises every eigenvalue
    grid = make_grid("polar", 80)
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.5, 2.5)

    def bump(x):
        return amplitude * np.exp(-((x - center) ** 2) * 8.0)

    A0, M = assemble_callables(grid, ones, zeros, ones, True)
    A1, _ = assemble_callables(grid, ones, bump, ones, True)
    ev0 = oracles.pencil_eigs_of_banded(A0, M, 0, 4)
    ev1 = oracles.pencil_eigs_of_banded(A1, M, 0, 4)
    assert np.all(ev1 >= ev0 - 1e-11)


def test_refinement_second_order():
    # doubling N cuts the error against a 4x-resolution reference by >= 3
    def run(N):
        grid = make_grid("polar", N)
        A, M = assemble_callables(
            grid,
            lambda x: 1.0 + 0.3 * np.sin(x),
            lambda x: np.cos(x) ** 2,
            lambda x: 1.0 + 0.1 * x,
            True,
        )
        return solve_generalized(A, M, count=2)[0].value

    reference = run(2000)
    err_coarse = abs(run(250) - reference)
    err_fine = abs(run(500) - reference)
    assert err_coarse / err_fine >= 3.0


def test_banded_container_roundtrip():
    diag = np.array([2.0, 3.0, 4.0, 5.0])
    sub = np.array([-1.0, -0.5, -0.25])
    A = BandedSymmetric.from_tridiagonal(diag, sub)
    dense = A.to_dense()
    x = np.array([1.0, 2.0, -1.0, 0.5])
    assert np.allclose(A.matvec(x), dense @ x)
    assert np.allclose(A.scaled(2.0).to_dense(), 2 * dense)
    assert np.allclose(A.add_scaled(A, 0.5).to_dense(), 1.5 * dense)
