import dataclasses
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from confspec import eigensolve, experiments
from confspec.geometry import profile_L, volume
from confspec.operators import (
    conformal_laplacian,
    cylinder_threshold,
    dirac_operator,
    intrinsic_assemble,
    intrinsic_record,
    make_mode,
    mode_groups,
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

import oracles


@pytest.mark.parametrize("N", [400, 2000])
@pytest.mark.parametrize("L", [1.0, 8.0, 30.0])
@pytest.mark.parametrize(
    "op", [conformal_laplacian(3), dirac_operator(2)], ids=["conformal-laplacian", "dirac"]
)
def test_sweep_row_lowest_pairs_match_the_full_window(op, L, N):
    # a sweep row solves each mode for its lowest positive pair only; the
    # full window below the truncation bar gives the same lambda_1^+ and
    # stops the mode loop at the same mode
    (row,) = pinocchio_sweep(op, [L], N=N, path="intrinsic")
    sigma = row.sigma
    report, n_modes, _, _ = experiments._spectrum_for(op, L, N, "intrinsic", 2.0 * sigma, 0)
    assert row.error is None and row.n_modes_used == n_modes
    assert row.lambda_1_plus == pytest.approx(report.lambda_1_plus, rel=1e-11)
    assert row.max_residual <= 1e-9


def test_path_resolution_rules():
    op = conformal_laplacian(3)
    assert resolve_path(op, 2.0, "auto") == "intrinsic"
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


@pytest.mark.parametrize(
    "op, ell_max",
    [
        (conformal_laplacian(3), 8),
        (conformal_laplacian(4), 8),
        (conformal_laplacian(5), 3),
        (paneitz_operator(5), 4),
        (paneitz_operator(6), 2),
        (dirac_operator(2), 5),
    ],
    ids=["cl3", "cl4", "cl5", "paneitz5", "paneitz6", "dirac2"],
)
def test_sphere_ladder_matches_oracle(op, ell_max):
    rows, bar = experiments._sphere_ladder(op, ell_max)
    signs = (1, -1) if op.kind == "dirac" else (1,)
    levels = oracles.sphere_ladder(op.kind, op.n, len(rows) // len(signs) + 1)
    expected = [(s * value, mult) for value, mult in levels[:-1] for s in signs]
    assert [value for _, value, _ in rows] == pytest.approx([v for v, _ in expected], rel=1e-15)
    assert [mult for _, _, mult in rows] == [mult for _, mult in expected]
    assert bar == pytest.approx(0.5 * (levels[-2][0] + levels[-1][0]), rel=1e-15)


def test_validate_sphere_counts_a_doubled_mode(monkeypatch):
    # the l = 0 mode alone carries level j = 0; solving it twice doubles it
    real = experiments._collect_modes

    def repeat_first(*args):
        per_mode, n_modes = real(*args)
        return [per_mode[0]] + per_mode, n_modes + 1

    monkeypatch.setattr(experiments, "_collect_modes", repeat_first)
    report = validate_sphere(conformal_laplacian(3), N=1000, ell_max=4)
    assert not report.passed
    assert report.rows[0].multiplicity == 2 * report.rows[0].expected_multiplicity == 2
    assert report.rows[1].multiplicity == report.rows[1].expected_multiplicity + 1


def full_window_sweep_row(op, L, N):
    """lambda_1^+, the modes solved and the bar of an intrinsic sweep row
    with every mode solved on the full window (-bar, bar): the reference
    that a row whose later modes are capped must reproduce."""
    prof = profile_L(op.n, L)
    record = intrinsic_record(op, prof, arclength_grid(prof, N))
    bar = experiments.TRUNCATION_FACTOR * 2.0 * cylinder_threshold(op)
    values, n_modes = [], 0
    for group in mode_groups(op):
        bottom = math.inf
        for mode in group:
            asm = intrinsic_assemble(record, mode)
            pairs = eigensolve.solve_generalized(asm.A, asm.B, window=(-bar, bar), lowest=1)
            n_modes += 1
            bottom = min([bottom] + [abs(p.value) for p in pairs])
            values += [p.value for p in pairs if p.value > 0.0]
        if bottom > bar:
            return min(values), n_modes, bar


@pytest.mark.parametrize("op", [conformal_laplacian(3), dirac_operator(2)], ids=["cl3", "dirac2"])
@pytest.mark.parametrize("L", [1.0, 2.0, 7.0, 8.0])
def test_sweep_mode_cap_keeps_the_full_window_answer(monkeypatch, op, L):
    # a later mode of a group whose bottom is under the bar is solved on
    # (-best, best), best the row's lowest positive value so far; a group's
    # first mode keeps (-bar, bar).  At N = 400 the Dirac row's -1/2 mode
    # sets lambda_1^+ at L = 1 and 8 and the +1/2 mode at L = 2 and 7.
    N = 400
    lam, n_modes, bar = full_window_sweep_row(op, L, N)
    solves = []
    real = eigensolve.solve_generalized

    def spy(A, B, **kwargs):
        pairs = real(A, B, **kwargs)
        solves.append((kwargs["window"], [p.value for p in pairs]))
        return pairs

    monkeypatch.setattr(eigensolve, "solve_generalized", spy)
    row = pinocchio_sweep(op, [L], N=N, path="intrinsic")[0]
    assert row.error is None and row.n_modes_used == n_modes == len(solves)
    # a capped solve refines on another bracket than the full window's, so
    # its value can differ by the rounding of its Rayleigh quotient
    assert row.lambda_1_plus == pytest.approx(lam, rel=1e-14)
    best, capped = bar, []
    for j, (window, values) in enumerate(solves):
        # a Dirac group is the pair +-k; its second mode is capped when the
        # first has a value under the bar
        cap = op.spinor and j % 2 == 1 and bool(solves[j - 1][1])
        assert window == ((-best, best) if cap else (-bar, bar))
        if cap:
            capped.append(len(values))
        best = min([best] + [v for v in values if v > 0.0])
    if op.spinor:
        # the -1/2 mode returns its pair and mirror where it sets
        # lambda_1^+ and no pair elsewhere; a higher mode never wins
        assert capped == [2 if L in (1.0, 8.0) else 0] + [0] * (len(capped) - 1)


def test_single_point_sweep_matches_standalone_solve():
    op = conformal_laplacian(3)
    L, N = 1.0, 800
    row = pinocchio_sweep(op, [L], N=N, path="intrinsic")[0]
    assert row.error is None

    prof = profile_L(3, L)
    asm = intrinsic_assemble(intrinsic_record(op, prof, arclength_grid(prof, N)), make_mode(op, 0))
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
        return real_aggregate([
            (m, [dataclasses.replace(p, value=-abs(p.value)) for p in pairs])
            for m, pairs in per_mode
        ])

    monkeypatch.setattr(eigensolve, "aggregate", negated)
    (row,) = pinocchio_sweep(conformal_laplacian(3), [1.0], N=200, path="covariance")
    assert row.error == "no positive eigenvalue at L=1"
    assert math.isnan(row.invariant)


def test_paneitz_sweep_row_finds_a_bottom_above_twice_sigma():
    # at L = 1 the Paneitz bottom (4.449 at N = 200) lies above the sweep's
    # ceiling 2 sigma = 3.125 but below its truncation bar, 1.5 times that
    (row,) = pinocchio_sweep(paneitz_operator(5), [1.0], N=200)
    assert row.error is None
    assert row.lambda_1_plus == pytest.approx(4.449, abs=1e-3)
    assert math.isfinite(row.invariant)


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


@pytest.mark.parametrize("sector", ["+", "-"])
@pytest.mark.parametrize("fraction, flag", [(0.9, "cauchy"), (0.96, "escape")])
def test_escape_band_is_the_last_five_percent_below_sigma(sector, fraction, flag):
    # the escape band is |lambda| >= 0.95 sigma: a trajectory ending at
    # 0.9 sigma has settled short of the gap edge, one at 0.96 sigma is in it
    sigma = 0.25
    sign = 1.0 if sector == "+" else -1.0
    values = [sign * sigma * v for v in (0.5, 0.8, fraction)]
    assert experiments._make_trajectory(sector, [2.0, 4.0, 6.0], values, sigma).flag == flag


def test_cylinder_surrogate_reproduces_gap_law():
    traj, worst = cylinder_surrogate_study([5.0, 10.0, 20.0, 30.0], N=1500)
    assert worst <= 1e-3
    assert traj.flag == "escape"
    assert traj.values[-1] == pytest.approx(0.25 + (math.pi / 30.0) ** 2, abs=1e-3)


@pytest.mark.parametrize(
    "L, law",
    [((6.0, 8.0, 10.0), (0.25, 8.8, 4.5)), ((2.0, 5.0, 9.0), (-0.5, -10.4, 4.7)),
     ((2.0, 3.0, 4.0), (1.5, 3.0, -1.5)), ((20.0, 25.0, 30.0), (0.25, math.pi**2, 0.0))],
    ids=["conformal-laplacian", "minus-sector", "negative-c", "cylinder"],
)
def test_law_fit_recovers_an_exact_law(L, law):
    s, C, c = law
    values = [s + C / (x + c) ** 2 for x in L]
    fit = experiments._law_fit([1.0, *L], [0.0, *values])  # the last three points
    assert fit == pytest.approx({"s": s, "C": C, "c": c}, rel=0, abs=1e-10)


@pytest.mark.parametrize(
    "L, values",
    [([2.0, 4.0], [0.3, 0.26]), ([2.0, 4.0, 6.0], [0.3, 0.28, 0.26]),
     ([2.0, 4.0, 6.0], [0.3, 0.28, 0.28])],
    ids=["two-points", "linear", "flat-end"],
)
def test_law_fit_falls_back_to_the_last_value(L, values):
    # too few points, or differences that do not shrink as the law's do
    assert experiments._law_fit(L, values) is None
    traj = experiments._make_trajectory("+", L, values, 0.25)
    assert traj.law_fit is None and traj.extrapolated_limit == values[-1]


def test_cylinder_surrogate_law_fit_finds_the_gap():
    # the exact cylinder follows sigma + (pi/T)^2: s is sigma, C is pi^2, c is 0
    traj, _ = cylinder_surrogate_study([5.0, 10.0, 15.0, 20.0, 25.0, 30.0], N=2000)
    assert traj.extrapolated_limit == traj.law_fit["s"]
    assert traj.law_fit["s"] == pytest.approx(0.25, rel=0, abs=1e-6)
    assert traj.law_fit["C"] == pytest.approx(math.pi**2, rel=1e-6)
    assert abs(traj.law_fit["c"]) <= 1e-6


def test_crosscheck_identity_factor_is_tight():
    rows = covariance_crosscheck(conformal_laplacian(3), 0.0, [300, 600])
    assert all(r.discrepancy <= 1e-10 for r in rows)


@pytest.mark.parametrize("L", [-1.0, math.nan])
def test_crosscheck_rejects_negative_or_nan_nose(L):
    # only L = 0 stands for the round sphere
    with pytest.raises(ValueError, match="nose length"):
        covariance_crosscheck(conformal_laplacian(3), L, [100, 200])


def test_crosscheck_ratio_when_both_discrepancies_vanish():
    # on the round sphere both Dirac assemblies are the same pencil
    rows = covariance_crosscheck(dirac_operator(2), 0.0, [100, 200])
    assert [r.discrepancy for r in rows] == [0.0, 0.0]
    assert math.isnan(rows[1].ratio)


def test_crosscheck_ratio_when_only_the_new_discrepancy_vanishes(monkeypatch):
    # two modes, each solved on the covariance then the intrinsic pencil:
    # the intrinsic values differ at the first N only
    values = iter([1.0, 1.1, 1.0, 1.1] + [1.0] * 4)

    def fake_solve(A, B, count, seed):
        return [eigensolve.EigenPair(next(values), np.zeros(A.size), 0.0)] * count

    monkeypatch.setattr(eigensolve, "solve_generalized", fake_solve)
    rows = covariance_crosscheck(conformal_laplacian(3), 0.0, [100, 200])
    assert rows[0].discrepancy == pytest.approx(0.1) and rows[1].discrepancy == 0.0
    assert rows[1].ratio == math.inf


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
def test_intrinsic_row_inverts_arclength_once(monkeypatch, op):
    # one inverse maps the snapped arclength nodes and the record's sample
    # points together; the row assembles on those nodes, and its volume is
    # read on their polar images, which are the nose-resolving grid's nodes
    L, N = 8.0, 400
    prof = profile_L(op.n, L)
    cls = type(prof)
    inverse = cls.r_of_arclength
    calls, records = [], []

    def counted(self, t):
        calls.append(np.size(t))
        return inverse(self, t)

    def recorded(*args):
        records.append(intrinsic_record(*args))
        return records[-1]

    monkeypatch.setattr(cls, "r_of_arclength", counted)
    monkeypatch.setattr(experiments, "intrinsic_record", recorded)
    (row,) = pinocchio_sweep(op, [L], N=N, path="intrinsic")
    assert row.error is None and row.n_modes_used > 1
    assert len(calls) == 1
    (record,) = records
    assert np.array_equal(record.grid.nodes, arclength_grid(prof, N).nodes)
    assert row.volume == volume(prof, nose_resolving_grid(prof, N))


@pytest.mark.parametrize(
    "op", [conformal_laplacian(3), dirac_operator(2)], ids=["conformal-laplacian", "dirac"]
)
def test_covariance_row_samples_the_factor_once(monkeypatch, op):
    # the row's record samples F once, at the Gauss points (scalar kinds) or
    # at the nodes and the midpoints together (Dirac); no mode samples it again
    calls, row_calls = [], []
    real_profile = experiments.profile_L
    real_spectrum = experiments._spectrum_for

    def counted_profile(n, L):
        prof = real_profile(n, L)
        real_F = prof.F

        def F(r):
            calls.append(np.size(r))
            return real_F(r)

        prof.F = F
        return prof

    def spectrum(*args):
        # count the row's spectrum only; the volume quadrature samples F too
        calls.clear()
        result = real_spectrum(*args)
        row_calls.extend(calls)
        return result

    monkeypatch.setattr(experiments, "profile_L", counted_profile)
    monkeypatch.setattr(experiments, "_spectrum_for", spectrum)
    (row,) = pinocchio_sweep(op, [2.0], N=400, path="covariance")
    assert row.error is None and row.n_modes_used > 1
    assert len(row_calls) == 1


def test_nose_grid_does_not_import_numpy_ma():
    # the first sweep row builds a kink-snapped grid; np.unique would import
    # numpy.ma there, about 30 ms of a fresh process's first row
    src = pathlib.Path(experiments.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from confspec.experiments import nose_resolving_grid\n"
        "from confspec.geometry import profile_L\n"
        "nose_resolving_grid(profile_L(3, 2), 400)\n"
        "assert 'numpy.ma' not in sys.modules\n"
        "print('ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


@pytest.mark.parametrize("N, L", [(16, 16.0), (24, 30.0)])
def test_kinks_sharing_a_nearest_node_all_land_on_nodes(N, L):
    # the kinks at r = 1/2 and r = 1 share their nearest uniform node here,
    # and at N=24, L=30 the cap kinks lie below the first uniform node; every
    # kink must still be a node, so no cell straddles a derivative jump
    prof = profile_L(3, L)
    nodes = arclength_grid(prof, N).nodes
    assert all(tk in nodes for tk in prof.kink_arclengths)


@pytest.mark.parametrize(
    "op", [conformal_laplacian(3), dirac_operator(2)], ids=["conformal-laplacian", "dirac"]
)
def test_sweep_row_with_cap_kinks_below_the_first_uniform_node(op):
    # at N=24, L=30 the uniform node T/(N+1) lies past t(e^-L); the row's
    # grid still holds every kink, so its volume is defined and the row solves
    (row,) = pinocchio_sweep(op, [30.0], N=24)
    assert row.error is None
    assert row.lambda_1_plus > 0.0 and row.volume > 0.0


@pytest.mark.parametrize("L", [float(L) for L in range(1, 11)])
def test_canonical_row_nodes_are_uniform_with_kinks_on_their_nearest_nodes(L):
    # the canonical rows (sweeps over L = 1..8, trajectories over L = 2..10,
    # N = 2000) have a distinct nearest uniform node for every kink, so their
    # nodes are the uniform ones with exactly those nodes moved, bit for bit
    N = 2000
    prof = profile_L(3, L)
    uniform = prof.total_arclength() * (np.arange(1, N + 1) / (N + 1))
    nearest = [int(np.argmin(np.abs(uniform - tk))) for tk in prof.kink_arclengths]
    assert len(set(nearest)) == len(nearest)
    expected = uniform.copy()
    expected[nearest] = prof.kink_arclengths
    assert np.array_equal(arclength_grid(prof, N).nodes, expected)
    assert np.array_equal(arclength_grid(profile_L(2, L), N).nodes, expected)
