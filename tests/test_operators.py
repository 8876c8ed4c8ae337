import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confspec.eigensolve import solve_generalized
from confspec.experiments import arclength_grid, nose_resolving_grid
from confspec.geometry import constant_profile, profile_L, warped_curvature
from confspec.grid import assemble_weak_form, make_grid, quadrature_points
from confspec.operators import (
    OPERATORS,
    OperatorKind,
    RowRecord,
    conformal_laplacian,
    covariance_record,
    covariance_reduce,
    cylinder_threshold,
    dirac_operator,
    intrinsic_assemble,
    intrinsic_record,
    make_mode,
    mode_groups,
    mode_multiplicity,
    paneitz_constants,
    paneitz_operator,
)

import oracles


def nose_grid(L, N=2000):
    return nose_resolving_grid(profile_L(3, L), N)


# ------------------------------------------------------------ kinds and constants


def test_dimension_constraints():
    with pytest.raises(ValueError, match="n >= 3"):
        conformal_laplacian(2)
    with pytest.raises(ValueError, match="n >= 5"):
        paneitz_operator(4)
    with pytest.raises(ValueError, match="n = 2"):
        dirac_operator(3)
    assert conformal_laplacian(3).order == 2
    assert paneitz_operator(5).order == 4
    assert dirac_operator(2).order == 1


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_every_table_row_starts_at_its_smallest_dimension(kind):
    facts = OPERATORS[kind]
    op = OperatorKind(kind, facts.n_min)
    assert (op.order, op.spinor, op.intrinsic) == (facts.order, facts.spinor, facts.intrinsic)
    with pytest.raises(ValueError, match=f"n [>]?= {facts.n_min}"):
        OperatorKind(kind, facts.n_min - 1)
    with pytest.raises(ValueError, match="unknown operator kind"):
        OperatorKind("laplacian", 3)


def test_mode_groups_open_with_the_lowest_modes():
    groups = mode_groups(conformal_laplacian(4))
    assert [[m.index for m in next(groups)] for _ in range(3)] == [[0.0], [1.0], [2.0]]
    assert next(mode_groups(paneitz_operator(5))) == (make_mode(paneitz_operator(5), 0),)
    groups = mode_groups(dirac_operator(2))
    assert [[m.index for m in next(groups)] for _ in range(2)] == [[0.5, -0.5], [1.5, -1.5]]


def test_cylinder_thresholds_closed_form():
    assert cylinder_threshold(conformal_laplacian(3)) == 0.25
    assert cylinder_threshold(conformal_laplacian(4)) == 1.0
    assert cylinder_threshold(paneitz_operator(5)) == 1.5625
    assert cylinder_threshold(dirac_operator(2)) == 0.5


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_paneitz_cylinder_threshold_matches_symbol_oracle(n):
    # the oracle minimizes the l = 0 symbol of the Paneitz-Branson form on
    # S^(n-1) x R; the threshold is its bottom, not the cylinder's Q-curvature
    bottom = oracles.paneitz_cylinder_bottom(n)
    assert cylinder_threshold(paneitz_operator(n)) == pytest.approx(bottom, rel=1e-12, abs=1e-12)


def test_paneitz_constants():
    a, q_const = paneitz_constants(5)
    assert a == 5.5
    assert q_const == 13.125
    assert paneitz_constants(6)[1] == 24.0
    # cross-check against n(n^2-4)/8 and the constant-section bottom
    for n in range(5, 12):
        assert paneitz_constants(n)[1] == n * (n * n - 4) / 8.0
    assert (5 - 4) / 2.0 * paneitz_constants(5)[1] == 6.5625
    with pytest.raises(ValueError):
        paneitz_constants(4)


def test_mode_multiplicities():
    op3 = conformal_laplacian(3)
    assert mode_multiplicity(op3, 0) == 1
    assert mode_multiplicity(op3, 2) == 5
    assert mode_multiplicity(dirac_operator(2), 0.5) == 1
    with pytest.raises(ValueError):
        mode_multiplicity(op3, -1)
    with pytest.raises(ValueError):
        mode_multiplicity(dirac_operator(2), 1.0)  # integer modes excluded


@settings(max_examples=50, deadline=None)
@given(n=st.integers(min_value=3, max_value=12), ell=st.integers(min_value=0, max_value=20))
def test_multiplicity_matches_quotient_formula(n, ell):
    assert mode_multiplicity(conformal_laplacian(n), ell) == oracles.harmonic_dimension(n, ell)


def test_scalar_mode_total_multiplicity_on_s3():
    # levels of S^3 carry total multiplicity (j+1)^2
    op = conformal_laplacian(3)
    for j in range(6):
        total = sum(mode_multiplicity(op, ell) for ell in range(j + 1))
        assert total == (j + 1) ** 2


# ------------------------------------------------------------ covariance path


def test_round_sphere_conformal_laplacian_ladder():
    op = conformal_laplacian(3)
    grid = make_grid("polar", 2000)
    one = constant_profile(1.0, 3)
    for ell in (0, 1):
        pairs = solve_generalized(
            *_ab(covariance_reduce(op, one, make_mode(op, ell), grid)), count=3
        )
        expected = [oracles.conformal_laplacian_level(3, j) for j in range(ell, ell + 3)]
        for pair, ref in zip(pairs, expected):
            assert pair.value == pytest.approx(ref, rel=1e-3)
    # headline values
    pairs = solve_generalized(*_ab(covariance_reduce(op, one, make_mode(op, 0), grid)), count=3)
    assert [round(p.value, 3) for p in pairs] == [0.75, 3.75, 8.75]


def _ab(assembled):
    return assembled.A, assembled.B


def test_constant_factor_scales_mass_only():
    op = conformal_laplacian(3)
    grid = make_grid("polar", 400)
    mode = make_mode(op, 0)
    base = covariance_reduce(op, constant_profile(1.0, 3), mode, grid)
    scaled = covariance_reduce(op, constant_profile(2.0, 3), mode, grid)
    assert np.array_equal(base.A.bands, scaled.A.bands)
    assert np.allclose(scaled.B.bands, 4.0 * base.B.bands, rtol=1e-15)
    ev0 = solve_generalized(base.A, base.B, count=3)
    ev1 = solve_generalized(scaled.A, scaled.B, count=3)
    for a, b in zip(ev0, ev1):
        assert b.value == pytest.approx(a.value / 4.0, rel=1e-13)


def test_intrinsic_rejects_paneitz():
    op = paneitz_operator(5)
    grid = make_grid("arclength", 64, length=math.pi)
    with pytest.raises(ValueError, match="intrinsic Paneitz"):
        intrinsic_assemble(
            intrinsic_record(op, constant_profile(1.0, 5), grid), make_mode(op, 0)
        )


def test_paneitz_round_ladder():
    op = paneitz_operator(5)
    grid = make_grid("polar", 2000)
    one = constant_profile(1.0, 5)
    asm = covariance_reduce(op, one, make_mode(op, 0), grid)
    assert asm.A.bandwidth == 2
    pairs = solve_generalized(asm.A, asm.B, count=3)
    expected = [oracles.paneitz_level(5, j) for j in range(3)]
    for pair, ref in zip(pairs, expected):
        assert pair.value == pytest.approx(ref, rel=1e-3)
    assert pairs[0].value == pytest.approx(6.5625, abs=1e-4)


@pytest.mark.parametrize("ell", [0, 1, 3])
@pytest.mark.parametrize("n", [5, 6])
def test_paneitz_bands_match_dense_product(n, ell):
    # A = K D^-1 K + a K + c M entry by entry, with K and the unit mass M
    # rebuilt from sin r and the product taken densely
    op = paneitz_operator(n)
    profile = profile_L(n, 1.0)
    grid = nose_resolving_grid(profile, 300)
    mode = make_mode(op, ell)
    asm = intrinsic_assemble(covariance_record(op, profile, grid), mode)

    pinned = ell != 0
    r = quadrature_points(grid, pinned)
    h = np.sin(r)
    w = h ** (n - 1)
    q = w * mode.angular_eigenvalue / h**2
    K, M = assemble_weak_form(grid, w, q, w, pinned)
    _, weighted = assemble_weak_form(grid, w, q, profile.F(r) ** 4 * w, pinned)
    k, m = K.to_dense(), M.to_dense()
    a, q_const = paneitz_constants(n)
    expected = k @ np.diag(1.0 / m.sum(axis=1)) @ k + a * k + (n - 4) / 2.0 * q_const * m

    assert asm.A.bandwidth == 2
    dense = asm.A.to_dense()
    assert np.abs(dense - expected).max() <= 1e-13 * np.abs(dense).max()
    assert asm.B.bandwidth == 0
    assert asm.B.bands[0] == pytest.approx(weighted.to_dense().sum(axis=1), rel=1e-14)


# ------------------------------------------------------------ intrinsic path


def test_intrinsic_round_sphere_matches_ladder():
    op = conformal_laplacian(3)
    grid = make_grid("arclength", 2000, length=math.pi)  # t = r on the unit sphere
    asm = intrinsic_assemble(
        intrinsic_record(op, constant_profile(1.0, 3), grid), make_mode(op, 0)
    )
    pairs = solve_generalized(asm.A, asm.B, count=3)
    for pair, ref in zip(pairs, [0.75, 3.75, 8.75]):
        assert pair.value == pytest.approx(ref, rel=1e-3)


def test_intrinsic_conformal_laplacian_samples_geometry_once(monkeypatch):
    # the nodes and the Gauss points of a mode with pinned ends go through
    # one arclength inverse; p, q, w and the curvature reuse those samples
    prof = profile_L(3, 4.0)
    op = conformal_laplacian(3)
    grid = make_grid("arclength", 400, length=prof.total_arclength())
    cls = type(prof)
    inverse = cls.r_of_arclength
    calls = []

    def counted(self, t):
        calls.append(np.size(t))
        return inverse(self, t)

    monkeypatch.setattr(cls, "r_of_arclength", counted)
    record = intrinsic_record(op, prof, grid)
    asm = intrinsic_assemble(record, make_mode(op, 1))
    assert calls == [grid.nodes.size + quadrature_points(grid, pinned=True).size]
    assert asm.A.size == grid.nodes.size
    assert np.array_equal(record.r_nodes, inverse(prof, grid.nodes))


def test_intrinsic_record_needs_an_arclength_grid_over_the_profile():
    # the walls of the record's grid are the images of the poles: a polar
    # grid, or an arclength grid shorter or longer than the profile, is refused
    prof = profile_L(3, 2.0)
    op = conformal_laplacian(3)
    T = prof.total_arclength()
    for grid in (
        make_grid("polar", 100),
        make_grid("arclength", 100, length=0.9 * T),
        make_grid("arclength", 100, length=1.1 * T),
    ):
        with pytest.raises(ValueError, match="arclength grid over the whole profile"):
            intrinsic_record(op, prof, grid)
    record = intrinsic_record(op, prof, make_grid("arclength", 100, length=T))
    t = quadrature_points(record.grid, pinned=True)
    assert t.min() >= 0.0 and t.max() <= T
    for index in (0, 1):  # free ends, then pinned
        asm = intrinsic_assemble(record, make_mode(op, index))
        assert np.isfinite(asm.A.bands).all() and np.isfinite(asm.B.bands).all()


@pytest.mark.parametrize(
    "op", [conformal_laplacian(3), dirac_operator(2), paneitz_operator(5)],
    ids=["conformal-laplacian", "dirac", "paneitz"],
)
def test_covariance_record_rejects_an_arclength_grid(op):
    prof = profile_L(op.n, 2.0)
    with pytest.raises(ValueError, match="covariance path assembles on a polar grid"):
        covariance_record(op, prof, arclength_grid(prof, 400))


def test_intrinsic_dirac_samples_geometry_once(monkeypatch):
    # h and h' on one point set, the nodes then the cell midpoints, from one inverse
    prof = profile_L(2, 4.0)
    op = dirac_operator(2)
    grid = make_grid("arclength", 400, length=prof.total_arclength())
    cls = type(prof)
    inverse = cls.r_of_arclength
    calls = []

    def counted(self, t):
        calls.append(np.size(t))
        return inverse(self, t)

    monkeypatch.setattr(cls, "r_of_arclength", counted)
    record = intrinsic_record(op, prof, grid)
    asm = intrinsic_assemble(record, make_mode(op, 1.5))
    assert calls == [2 * grid.nodes.size - 1]
    assert asm.A.size == 2 * (grid.nodes.size - 1)
    r = inverse(prof, grid.nodes)
    assert np.array_equal(record.h[: grid.nodes.size], prof.F(r) * np.sin(r))


def test_cylinder_segment_bottom_approaches_gap():
    # h == 1 on [0, T] with pinned ends: bottom is (n-2)^2/4 + (pi/T)^2
    n, op = 3, conformal_laplacian(3)
    for T in (10.0, 30.0):
        grid = make_grid("arclength", 2000, length=T)
        ones = np.ones(quadrature_points(grid, pinned=True).size)
        scal = warped_curvature(ones, 0.0 * ones, 0.0 * ones, n)
        record = RowRecord(op, grid, ones, ones, potential=(n - 2) / (4.0 * (n - 1)) * scal)
        mode = make_mode(op, 1)  # ell >= 1 pins both ends; subtract angular term
        asm = intrinsic_assemble(record, mode)
        shift = mode.angular_eigenvalue  # l(l+1)/h^2 with h=1
        lam = solve_generalized(asm.A, asm.B, count=1)[0].value - shift
        assert lam == pytest.approx(0.25 + (math.pi / T) ** 2, abs=1e-4)


def test_dirac_round_sphere_ladder_and_multiplicity():
    op = dirac_operator(2)
    grid = make_grid("polar", 2000)
    one = constant_profile(1.0, 2)
    collected = []
    for k in (0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 3.5, -3.5):
        asm = covariance_reduce(op, one, make_mode(op, k), grid)
        pairs = solve_generalized(asm.A, asm.B, count=8)
        values = [p.value for p in pairs]
        start = int(abs(k) - 0.5)
        positives = sorted(v for v in values if v > 0)[:4]
        negatives = sorted((v for v in values if v < 0), reverse=True)[:4]
        for v, m in zip(positives, range(start, start + 4)):
            assert v == pytest.approx(m + 1, rel=1e-3)
        for v, m in zip(negatives, range(start, start + 4)):
            assert v == pytest.approx(-(m + 1), rel=1e-3)
        collected.extend(values)
    # aggregated multiplicities 2(m+1), one eigenvalue per mode per sign
    collected = np.sort(np.asarray(collected))
    for m in (0, 1, 2):
        target = m + 1
        cluster = collected[np.abs(collected - target) < 0.5]
        assert len(cluster) == 2 * (m + 1)
        cluster = collected[np.abs(collected + target) < 0.5]
        assert len(cluster) == 2 * (m + 1)


def test_dirac_solver_independent_of_arpack():
    # same staggered pencil, eigenvalues from the inertia-count oracle
    op = dirac_operator(2)
    grid = make_grid("polar", 800)
    asm = covariance_reduce(op, constant_profile(1.0, 2), make_mode(op, 0.5), grid)
    m = asm.A.size
    n_neg = int(oracles.tridiag_pencil_count_below(
        *oracles.banded_to_tridiag(asm.A), *oracles.banded_to_tridiag(asm.B), 0.0
    )[0])
    reference = oracles.pencil_eigs_of_banded(asm.A, asm.B, n_neg - 2, n_neg + 1)
    pairs = solve_generalized(asm.A, asm.B, count=4)
    assert np.allclose([p.value for p in pairs], reference, rtol=1e-10, atol=1e-10)


def test_dirac_spectral_symmetry_per_mode():
    op = dirac_operator(2)
    prof = profile_L(2, 2.0)
    grid = nose_grid(2.0, 1200)
    for k in (0.5, 1.5):
        asm = covariance_reduce(op, prof, make_mode(op, k), grid)
        pairs = solve_generalized(asm.A, asm.B, count=6)
        values = np.sort([p.value for p in pairs])
        assert np.allclose(values, -values[::-1], rtol=1e-7)


def test_dual_path_agreement_on_blowup_metric():
    op = conformal_laplacian(3)
    prof = profile_L(3, 1.0)
    grid = nose_grid(1.0)  # the polar image of arclength_grid(prof, 2000)
    mode = make_mode(op, 0)
    cov = covariance_reduce(op, prof, mode, grid)
    intr = intrinsic_assemble(intrinsic_record(op, prof, arclength_grid(prof, 2000)), mode)
    ev_cov = solve_generalized(cov.A, cov.B, count=1)[0].value
    ev_int = solve_generalized(intr.A, intr.B, count=1)[0].value
    assert ev_int == pytest.approx(ev_cov, rel=1e-3)


def test_mode_bottom_monotone():
    # scalar: bottom nondecreasing in ell; dirac: |bottom| nondecreasing in |k|
    op = conformal_laplacian(3)
    prof = profile_L(3, 2.0)
    grid = nose_grid(2.0, 1000)
    bottoms = []
    for ell in (0, 1, 2):
        asm = covariance_reduce(op, prof, make_mode(op, ell), grid)
        bottoms.append(solve_generalized(asm.A, asm.B, count=1)[0].value)
    assert bottoms[0] <= bottoms[1] <= bottoms[2]

    opd = dirac_operator(2)
    profd = profile_L(2, 2.0)
    bottoms = []
    for k in (0.5, 1.5, 2.5):
        asm = covariance_reduce(opd, profd, make_mode(opd, k), grid)
        pairs = solve_generalized(asm.A, asm.B, count=2)
        bottoms.append(min(abs(p.value) for p in pairs))
    assert bottoms[0] <= bottoms[1] <= bottoms[2]


def test_dirac_staggering_has_no_spurious_doublers():
    # count the eigenvalues of one mode inside a window and compare with the
    # exact ladder count; a collocated scheme would double them
    op = dirac_operator(2)
    grid = make_grid("polar", 1500)
    asm = covariance_reduce(op, constant_profile(1.0, 2), make_mode(op, 0.5), grid)
    da, ea = oracles.banded_to_tridiag(asm.A)
    db, eb = oracles.banded_to_tridiag(asm.B)
    inside = (
        oracles.tridiag_pencil_count_below(da, ea, db, eb, 3.5)[0]
        - oracles.tridiag_pencil_count_below(da, ea, db, eb, 0.5)[0]
    )
    assert inside == 3  # exactly 1, 2, 3

