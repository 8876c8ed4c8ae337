import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confspec.eigensolve import solve_generalized
from confspec.geometry import (
    constant_profile,
    profile_L,
    profile_infinity,
    warped_reparametrize,
)
from confspec.grid import GradingSpec, make_grid
from confspec.operators import (
    conformal_laplacian,
    covariance_reduce,
    cylinder_threshold,
    dirac_operator,
    intrinsic_assemble,
    intrinsic_record,
    make_mode,
    mode_multiplicity,
    paneitz_constants,
    paneitz_operator,
)

import oracles


def nose_grid(L, N=2000):
    return make_grid(
        "polar", N, GradingSpec("geometric-near-left", ratio=1.01, r_min=math.exp(-L) / 8)
    )


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


def test_cylinder_thresholds_closed_form():
    assert cylinder_threshold(conformal_laplacian(3)) == 0.25
    assert cylinder_threshold(conformal_laplacian(4)) == 1.0
    assert cylinder_threshold(paneitz_operator(5)) == 3.125
    assert cylinder_threshold(dirac_operator(2)) == 0.5


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


def test_covariance_rejects_infinite_profile():
    op = conformal_laplacian(3)
    grid = make_grid("polar", 64)
    with pytest.raises(ValueError, match="finite"):
        covariance_reduce(op, profile_infinity(3), make_mode(op, 0), grid)


def test_intrinsic_rejects_paneitz():
    op = paneitz_operator(5)
    grid = make_grid("polar", 64)
    warped = warped_reparametrize(constant_profile(1.0, 5), grid)
    with pytest.raises(ValueError, match="intrinsic Paneitz"):
        intrinsic_assemble(intrinsic_record(op, warped, grid), make_mode(op, 0))


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


# ------------------------------------------------------------ intrinsic path


def test_intrinsic_round_sphere_matches_ladder():
    op = conformal_laplacian(3)
    grid = make_grid("polar", 2000)
    warped = warped_reparametrize(constant_profile(1.0, 3), grid)
    asm = intrinsic_assemble(intrinsic_record(op, warped, grid), make_mode(op, 0))
    pairs = solve_generalized(asm.A, asm.B, count=3)
    for pair, ref in zip(pairs, [0.75, 3.75, 8.75]):
        assert pair.value == pytest.approx(ref, rel=1e-3)


def test_intrinsic_conformal_laplacian_samples_geometry_once(monkeypatch):
    # h, h' and h'' are each taken once at the quadrature points of a mode
    # with pinned ends; p, q, w and the curvature reuse those samples
    prof = profile_L(3, 4.0)
    op = conformal_laplacian(3)
    grid = make_grid("arclength", 400, length=prof.total_arclength())
    warped = warped_reparametrize(prof, grid)
    cls = type(prof)
    inverse = cls.r_of_arclength
    calls = []

    def counted(self, t):
        calls.append(np.size(t))
        return inverse(self, t)

    monkeypatch.setattr(cls, "r_of_arclength", counted)
    asm = intrinsic_assemble(intrinsic_record(op, warped, grid), make_mode(op, 1))
    assert len(calls) <= 3
    assert asm.A.size == grid.nodes.size


def test_intrinsic_dirac_samples_geometry_twice(monkeypatch):
    # h and h' at the cell midpoints; the nodal h comes from WarpedData.h
    prof = profile_L(2, 4.0)
    op = dirac_operator(2)
    grid = make_grid("arclength", 400, length=prof.total_arclength())
    warped = warped_reparametrize(prof, grid)
    cls = type(prof)
    inverse = cls.r_of_arclength
    calls = []

    def counted(self, t):
        calls.append(np.size(t))
        return inverse(self, t)

    monkeypatch.setattr(cls, "r_of_arclength", counted)
    asm = intrinsic_assemble(intrinsic_record(op, warped, grid), make_mode(op, 1.5))
    assert len(calls) <= 2
    assert asm.A.size == 2 * (grid.nodes.size - 1)


def test_cylinder_segment_bottom_approaches_gap():
    # h == 1 on [0, T] with pinned ends: bottom is (n-2)^2/4 + (pi/T)^2
    from confspec.geometry import WarpedData

    n, op = 3, conformal_laplacian(3)
    for T in (10.0, 30.0):
        grid = make_grid("arclength", 2000, length=T)
        warped = WarpedData(
            t_nodes=grid.nodes,
            h=np.ones_like(grid.nodes),
            dh=np.zeros_like(grid.nodes),
            d2h=np.zeros_like(grid.nodes),
            jet=lambda t: (np.ones_like(t), np.zeros_like(t), np.zeros_like(t)),
        )
        mode = make_mode(op, 1)  # ell >= 1 pins both ends; subtract angular term
        asm = intrinsic_assemble(intrinsic_record(op, warped, grid), mode)
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
    grid = nose_grid(1.0)
    warped = warped_reparametrize(prof, grid)
    mode = make_mode(op, 0)
    cov = covariance_reduce(op, prof, mode, grid)
    intr = intrinsic_assemble(intrinsic_record(op, warped, grid), mode)
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

