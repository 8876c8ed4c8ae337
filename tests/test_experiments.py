import math

import numpy as np
import pytest

from confspec import eigensolve
from confspec.geometry import profile_L, volume, warped_reparametrize
from confspec.operators import (
    conformal_laplacian,
    dirac_operator,
    intrinsic_assemble,
    intrinsic_record,
    make_mode,
    paneitz_operator,
)
from confspec.experiments import (
    arclength_grid,
    convergence_study,
    covariance_crosscheck,
    cylinder_surrogate_study,
    nose_resolving_grid,
    pinocchio_sweep,
    resolve_path,
    scaling_check,
    validate_sphere,
)


def test_path_resolution_rules():
    op = conformal_laplacian(3)
    assert resolve_path(op, 2.0, "auto") == "covariance"
    assert resolve_path(op, 6.0, "auto") == "intrinsic"
    assert resolve_path(paneitz_operator(5), 3.0, "auto") == "covariance"
    # Paneitz beyond the conditioning limit has no valid path at all
    with pytest.raises(ValueError, match="ill-conditioned"):
        resolve_path(paneitz_operator(5), 8.0, "auto")
    with pytest.raises(ValueError, match="ill-conditioned"):
        resolve_path(paneitz_operator(5), 8.0, "covariance")
    with pytest.raises(ValueError, match="intrinsic Paneitz"):
        resolve_path(paneitz_operator(5), 2.0, "intrinsic")
    with pytest.raises(ValueError, match="L <= 30"):
        resolve_path(op, 40.0, "intrinsic")
    with pytest.raises(ValueError, match="unknown path"):
        resolve_path(op, 2.0, "sideways")


def test_validate_sphere_conformal_laplacian():
    report = validate_sphere(conformal_laplacian(3), N=1000, ell_max=4)
    assert report.passed
    assert report.rows[0].analytic == 0.75
    assert report.rows[0].multiplicity == 1
    assert report.rows[2].expected_multiplicity == 9  # (j+1)^2 at j=2


def test_validate_sphere_dirac():
    report = validate_sphere(dirac_operator(2), N=1000, ell_max=2)
    assert report.passed
    by_label = {r.label: r for r in report.rows}
    assert by_label["dirac m=0 sign=1"].expected_multiplicity == 2
    assert by_label["dirac m=1 sign=-1"].expected_multiplicity == 4


def test_validate_sphere_paneitz_bottom():
    report = validate_sphere(paneitz_operator(5), N=1000, ell_max=3)
    assert report.passed
    assert report.rows[0].analytic == 6.5625
    assert report.rows[0].computed == pytest.approx(6.5625, abs=1e-2)


def test_single_point_sweep_matches_standalone_solve():
    op = conformal_laplacian(3)
    L, N = 1.0, 800
    row = pinocchio_sweep(op, [L], N=N, path="intrinsic")[0]
    assert row.error is None

    prof = profile_L(3, L)
    grid = arclength_grid(prof, N)
    warped = warped_reparametrize(prof, grid)
    asm = intrinsic_assemble(intrinsic_record(op, warped, grid), make_mode(op, 0))
    lam = eigensolve.solve_generalized(asm.A, asm.B, count=1)[0].value
    assert row.lambda_1_plus == pytest.approx(lam, rel=1e-12)

    vol = volume(prof, nose_resolving_grid(prof, N))
    assert row.volume == pytest.approx(vol, rel=1e-12)
    assert row.invariant == pytest.approx(lam * vol ** (2.0 / 3.0), rel=1e-12)


def test_sweep_rows_recompute_invariant():
    op = dirac_operator(2)
    rows = pinocchio_sweep(op, [1.0, 2.0], N=600, path="intrinsic")
    for row in rows:
        assert row.error is None
        assert row.invariant == pytest.approx(
            row.lambda_1_plus * row.volume ** (1.0 / 2.0), rel=1e-12
        )
        assert row.sigma == 0.5
        assert row.n_modes_used >= 2
        assert row.max_residual <= 1e-8


def test_sweep_requires_increasing_grid():
    with pytest.raises(ValueError, match="increasing"):
        pinocchio_sweep(conformal_laplacian(3), [2.0, 1.0], N=400)


def test_sweep_records_row_failures(monkeypatch):
    op = conformal_laplacian(3)

    def boom(*args, **kwargs):
        raise eigensolve.SolverConvergenceError(math.inf)

    monkeypatch.setattr(eigensolve, "solve_generalized", boom)
    rows = pinocchio_sweep(op, [1.0, 2.0], N=400, path="covariance")
    assert all(r.error is not None for r in rows)
    assert all(math.isnan(r.lambda_1_plus) for r in rows)
    assert len(rows) == 2  # the sweep continued


def test_sweep_row_without_positive_eigenvalue_names_the_cause(monkeypatch):
    real_aggregate = eigensolve.aggregate

    def negated(per_mode):
        return real_aggregate([(m, [-abs(p.value) for p in pairs]) for m, pairs in per_mode])

    monkeypatch.setattr(eigensolve, "aggregate", negated)
    (row,) = pinocchio_sweep(conformal_laplacian(3), [1.0], N=200, path="covariance")
    assert row.error == "no positive eigenvalue at L=1"
    assert math.isnan(row.invariant)


def test_convergence_constant_ladder_has_zero_differences():
    report = convergence_study(conformal_laplacian(3), 1, [1.0, 1.0, 1.0], N=400)
    (traj,) = report.trajectories
    assert traj.diffs == (0.0, 0.0)


def test_convergence_dichotomy_flags_are_exclusive():
    report = convergence_study(dirac_operator(2), 1, [2.0, 4.0, 6.0], N=600)
    assert len(report.trajectories) == 2  # Dirac has both sectors
    for traj in report.trajectories:
        assert traj.flag in ("cauchy", "escape")
        if traj.flag == "escape":
            edge = report.sigma * 0.95
            final = traj.values[-1]
            assert final >= edge if traj.sector == "+" else final <= -edge
        else:
            assert abs(traj.values[-1]) < report.sigma


def test_cylinder_surrogate_reproduces_gap_law():
    traj, worst = cylinder_surrogate_study([5.0, 10.0, 20.0, 30.0], N=1500)
    assert worst <= 1e-3
    assert traj.flag == "escape"
    assert traj.values[-1] == pytest.approx(0.25 + (math.pi / 30.0) ** 2, abs=1e-3)


def test_crosscheck_identity_factor_is_tight():
    rows = covariance_crosscheck(conformal_laplacian(3), 0.0, [300, 600])
    assert all(r.discrepancy <= 1e-10 for r in rows)


def test_crosscheck_second_order_refinement():
    rows = covariance_crosscheck(conformal_laplacian(3), 2.0, [500, 1000, 2000])
    assert rows[-1].discrepancy <= 1e-3
    assert all(r.ratio >= 3.0 for r in rows[1:])


def test_crosscheck_dirac():
    rows = covariance_crosscheck(dirac_operator(2), 1.0, [1000, 2000])
    assert rows[-1].discrepancy <= 1e-3


def test_scaling_check_all_kinds():
    for op in (conformal_laplacian(3), dirac_operator(2), paneitz_operator(5)):
        for c in (0.5, 2.0, 3.0):
            report = scaling_check(op, c)
            assert report.passed, (op.kind, c, report)


def test_scaling_check_rejects_nonpositive():
    with pytest.raises(ValueError):
        scaling_check(conformal_laplacian(3), -2.0)


@pytest.mark.parametrize(
    "op", [conformal_laplacian(3), dirac_operator(2)], ids=["conformal-laplacian", "dirac"]
)
def test_intrinsic_row_inverts_arclength_twice(monkeypatch, op):
    # one inverse places the grid, one samples the geometry record that every
    # mode of the row assembles from
    prof = profile_L(op.n, 8.0)
    cls = type(prof)
    inverse = cls.r_of_arclength
    calls = []

    def counted(self, t):
        calls.append(np.size(t))
        return inverse(self, t)

    monkeypatch.setattr(cls, "r_of_arclength", counted)
    (row,) = pinocchio_sweep(op, [8.0], N=400, path="intrinsic")
    assert row.error is None and row.n_modes_used > 1
    assert len(calls) <= 2
