import ast
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from confspec import geometry
from confspec.experiments import arclength_grid, nose_resolving_grid
from confspec.geometry import (
    WarpedData,
    constant_profile,
    profile_L,
    sphere_volume_constant,
    volume,
    warped_curvature,
    warped_reparametrize,
)
from confspec.grid import RadialGrid, make_grid

import oracles


def polar_grid(N=2000, L=None):
    if L is None:
        return make_grid("polar", N)
    return nose_resolving_grid(profile_L(3, L), N)


# ------------------------------------------------------------------ profiles


def test_oracles_import_no_package_code():
    tree = ast.parse(pathlib.Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not {name for name in imported if name.split(".")[0] == "confspec"}


def test_profile_infinity_plateau_and_nose():
    # a finite profile follows the blowup factor's plateau and its 1/r nose
    prof = profile_L(3, 2.0)
    assert prof.F(np.array([1.2]))[0] == 1.0
    assert prof.F(np.array([0.25]))[0] == pytest.approx(4.0, rel=1e-15)


def test_profile_infinity_transition_band():
    prof = profile_L(3, 1.0)
    r = np.linspace(0.5, 1.0, 100)
    F = prof.F(r)
    assert np.all(F >= 1.0 - 1e-12) and np.all(F <= 2.0 + 1e-12)
    assert np.all(np.diff(F) <= 1e-12)  # monotone nonincreasing
    assert prof.F(np.array([0.75]))[0] == pytest.approx(
        math.exp(0.5 * math.log(1 / 0.75)), rel=1e-12
    )


def test_profile_L_matches_blowup_outside_cap():
    prof = profile_L(3, 2.0)
    assert prof.F(np.array([math.exp(-1.0)]))[0] == pytest.approx(math.e, rel=1e-14)
    r = np.linspace(math.exp(-2.0), 3.0, 500)
    assert np.allclose(prof.F(r), oracles.blowup_factor(r), rtol=1e-14)


def test_profile_L_cap_bounded_below_blowup():
    prof = profile_L(3, 2.0)
    assert prof.F(np.array([0.0]))[0] <= math.exp(3.0)
    r = np.linspace(1e-9, math.exp(-2.0), 1000)
    assert np.all(prof.F(r) <= 1.0 / r + 1e-9)


def test_profile_independent_of_dimension():
    r = np.linspace(1e-6, math.pi, 777)
    assert np.array_equal(profile_L(2, 1.0).F(r), profile_L(5, 1.0).F(r))


def test_profile_validation():
    with pytest.raises(ValueError):
        profile_L(1, 2.0)
    with pytest.raises(ValueError):
        profile_L(3, 0.5)
    for L in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            profile_L(3, L)
    with pytest.raises(ValueError):
        constant_profile(-1.0)


def test_profile_derivatives_match_finite_differences():
    for L in (1.0, 3.0):
        prof = profile_L(3, L)
        b = math.exp(-L)
        samples = [0.3, 0.55, 0.75, 0.95, 1.5, 0.3 * b, 0.6 * b, 0.9 * b]
        eps = 1e-6
        for r0 in samples:
            r = np.array([r0 - eps, r0, r0 + eps])
            F = prof.F(r)
            fd1 = (F[2] - F[0]) / (2 * eps)
            fd2 = (F[2] - 2 * F[1] + F[0]) / eps**2
            F0, dF, d2F = prof.jet(np.array([r0]))
            assert F0[0] == F[1]
            assert dF[0] == pytest.approx(fd1, rel=2e-4, abs=1e-6)
            assert d2F[0] == pytest.approx(fd2, rel=2e-2, abs=2e-2 * abs(fd2) + 1e-3)


@settings(max_examples=30, deadline=None)
@given(
    L1=st.floats(min_value=1.0, max_value=8.0),
    L2=st.floats(min_value=1.0, max_value=8.0),
)
def test_profile_monotone_in_L_and_below_blowup(L1, L2):
    L1, L2 = sorted((L1, L2))
    r = np.linspace(1e-9, math.pi, 2000)
    f1 = profile_L(3, L1).F(r)
    f2 = profile_L(3, L2).F(r)
    finf = oracles.blowup_factor(r)
    assert np.all(f1 <= f2 + 1e-12)
    assert np.all(f2 <= finf + 1e-12)
    outside = r >= math.exp(-L1)
    assert np.allclose(f1[outside], finf[outside], rtol=1e-14)


# ------------------------------------------------------------------ volume


def test_volume_round_sphere():
    grid = polar_grid()
    assert volume(constant_profile(1.0, 3), grid) == pytest.approx(
        2 * math.pi**2, abs=1e-6
    )


def test_volume_constant_scaling_exact():
    grid = make_grid("polar", 500)
    base = volume(constant_profile(1.0, 3), grid)
    assert volume(constant_profile(2.0, 3), grid) == 8.0 * base  # exact: power of two
    assert volume(constant_profile(3.0, 3), grid) == pytest.approx(27.0 * base, rel=1e-14)


def test_volume_grows_by_girth_times_length():
    vols = {}
    for L in (2.0, 4.0, 6.0, 8.0):
        prof = profile_L(2, L)
        vols[L] = volume(prof, polar_grid(4000, L))
    for L in (4.0, 6.0, 8.0):
        expected = 2 * math.pi * (L - 2.0)
        assert vols[L] - vols[2.0] == pytest.approx(expected, rel=0.05)


def test_volume_slope_matches_girth_constant():
    for n in (2, 3):
        omega = sphere_volume_constant(n)
        v4 = volume(profile_L(n, 4.0), polar_grid(4000, 4.0))
        v10 = volume(profile_L(n, 10.0), polar_grid(4000, 10.0))
        assert (v10 - v4) / 6.0 == pytest.approx(omega, rel=0.10)


def test_volume_rejects_infinite_and_unresolved():
    # an infinite nose has no profile, so no volume can be asked of it
    with pytest.raises(ValueError, match="finite"):
        volume(profile_L(3, math.inf), polar_grid())
    with pytest.raises(ValueError, match="resolve"):
        volume(profile_L(3, 8.0), make_grid("polar", 100))


def _volume_grid(case, prof):
    """A grid that misses ``prof``'s kinks in the way ``case`` names."""
    a, b, _, one = prof.kink_radii
    nodes = nose_resolving_grid(prof, 400).nodes
    if case == "arclength":
        return arclength_grid(prof, 400)
    if case == "first-node-inside-cap":
        nodes = np.concatenate([[math.sqrt(a * b)], nodes[nodes >= b]])
    else:  # "last-node-below-one"
        nodes = nodes[nodes < 0.9 * one]
    return RadialGrid(nodes=nodes, coordinate_kind="polar", span=math.pi)


@pytest.mark.parametrize(
    "case, match",
    [
        ("arclength", "volume quadrature expects a polar grid"),
        ("first-node-inside-cap", "does not resolve the kinks"),
        ("last-node-below-one", "does not resolve the kinks"),
    ],
)
def test_volume_rejects_a_grid_that_misses_a_kink(case, match):
    # the grid must reach from the first kink radius a = e^-L/2 to the last,
    # r = 1: a first node strictly between a and b = e^-L leaves the kink a
    # inside the end cell, though the grid resolves the nose [b, 1]
    prof = profile_L(3, 8.0)
    grid = _volume_grid(case, prof)
    with pytest.raises(ValueError, match=match):
        volume(prof, grid)
    assert volume(prof, nose_resolving_grid(prof, 400)) > 0.0


# ------------------------------------------------------- warped reparametrization


def test_round_sphere_warps_to_identity():
    grid = make_grid("polar", 500)
    warped = warped_reparametrize(constant_profile(1.0, 3), grid)
    assert np.allclose(warped.t_nodes, grid.nodes, rtol=0, atol=0)
    assert np.allclose(warped.h, np.sin(grid.nodes), rtol=0, atol=1e-15)
    assert np.allclose(warped.jet(warped.t_nodes)[1], np.cos(grid.nodes), rtol=0, atol=1e-15)


def test_blowup_region_is_asymptotically_cylindrical():
    # closed form on the nose: h(r) = sin(r)/r, whose minimum over
    # [e^-8, 1/4] is sin(1/4)/(1/4) = 0.98961...
    prof = profile_L(2, 8.0)
    r = np.geomspace(math.exp(-8.0), 0.25, 400)
    h = prof.F(r) * np.sin(r)
    assert np.allclose(h, np.sin(r) / r, rtol=1e-14)
    assert np.all(h >= math.sin(0.25) / 0.25 - 1e-12) and np.all(h <= 1.0 + 1e-12)
    # cylinder limit: |h - 1| <= 2r and |dh/dt| <= 2r on the nose
    assert np.all(np.abs(h - 1.0) <= 2 * r)
    warped = warped_reparametrize(prof, nose_resolving_grid(prof, 2000))
    lo = prof.arclength_of_r(np.array([math.exp(-8.0)]))[0]
    hi = prof.arclength_of_r(np.array([0.25]))[0]
    mask = (warped.t_nodes >= lo) & (warped.t_nodes <= hi)
    r_mask = prof.r_of_arclength(warped.t_nodes[mask])
    _, dh, _ = warped.jet(warped.t_nodes[mask])
    assert np.all(np.abs(warped.h[mask] - 1.0) <= 2 * r_mask)
    assert np.all(np.abs(dh) <= 2 * r_mask + 1e-12)


def test_nose_arclength_is_logarithmic():
    for L in (2.0, 5.0):
        prof = profile_L(3, L)
        t = prof.arclength_of_r(np.array([math.exp(-L), 0.5]))
        assert t[1] - t[0] == pytest.approx(L - math.log(2.0), rel=1e-12)


def test_arclength_map_roundtrip_and_monotone():
    prof = profile_L(3, 3.0)
    r = np.geomspace(1e-4, math.pi * 0.999, 300)
    t = prof.arclength_of_r(r)
    assert np.all(np.diff(t) > 0)
    back = prof.r_of_arclength(t)
    assert np.allclose(back, r, rtol=1e-11, atol=1e-13)
    assert prof.total_arclength() == pytest.approx(
        prof.arclength_of_r(np.array([math.pi]))[0], rel=1e-14
    )


@pytest.mark.parametrize(
    "prof", [profile_L(3, 2.0), constant_profile(2.0)], ids=["L=2", "constant"]
)
@pytest.mark.parametrize("bad", [math.nan, 100.0, -1.0])
def test_arclength_maps_reject_points_outside_their_domain(prof, bad):
    # a NaN or a point off the domain is an error, never an extrapolated value;
    # both ends of the domain are accepted
    for method in (prof.r_of_arclength, prof.arclength_of_r):
        with pytest.raises(ValueError, match="outside"):
            method(np.array([0.5, bad]))
    ends = prof.r_of_arclength(np.array([0.0, prof.total_arclength()]))
    assert ends[0] == 0.0 and ends[1] == pytest.approx(math.pi, rel=1e-14)


@pytest.mark.parametrize("L", [1.0, 2.5, 4.0, 8.0, 17.3, 30.0])
def test_kink_arclengths_are_the_forward_map_at_the_kinks(L):
    prof = profile_L(3, L)
    b = math.exp(-L)
    kinks = prof.arclength_of_r(np.array([0.5 * b, b, 0.5, 1.0]))
    assert prof.kink_arclengths == tuple(kinks)  # bit for bit
    assert constant_profile(2.0).kink_arclengths == ()


def test_arclength_derivative_is_profile():
    prof = profile_L(2, 2.5)
    r = np.array([0.01, 0.04, 0.1, 0.3, 0.6, 0.9, 1.5, 3.0])
    eps = 1e-7
    fd = (prof.arclength_of_r(r + eps) - prof.arclength_of_r(r - eps)) / (2 * eps)
    assert np.allclose(fd, prof.F(r), rtol=1e-6)


# ------------------------------------------------------------- curvature


def _warped_from_callables(t_nodes, h, dh, d2h):
    # the curvature reads only the jet, never the span
    return WarpedData(
        t_nodes=t_nodes, h=h(t_nodes), span=math.inf, jet=lambda t: (h(t), dh(t), d2h(t))
    )


def test_curvature_round_sphere():
    t = np.linspace(0.2, math.pi - 0.2, 50)
    for n in (2, 3, 5):
        warped = _warped_from_callables(t, np.sin, np.cos, lambda x: -np.sin(x))
        scal = warped_curvature(*warped.jet(t), n)
        assert np.allclose(scal, n * (n - 1), atol=1e-8)


def test_curvature_exact_cylinder():
    t = np.linspace(0.0, 5.0, 20)
    warped = _warped_from_callables(
        t, lambda x: np.ones_like(x), lambda x: np.zeros_like(x), lambda x: np.zeros_like(x)
    )
    for n in (2, 3, 5):
        scal = warped_curvature(*warped.jet(t), n)
        assert np.allclose(scal, (n - 1) * (n - 2), rtol=0, atol=1e-14)


def test_curvature_hyperbolic_desk_check():
    t = np.array([0.3, 0.9, 1.7])
    warped = _warped_from_callables(t, np.cosh, np.sinh, np.cosh)
    for n in (3, 4):
        expected = (n - 1) * ((n - 2) * (1 - np.sinh(t) ** 2) / np.cosh(t) ** 2 - 2.0)
        assert np.allclose(warped_curvature(*warped.jet(t), n), expected, rtol=1e-14)


def test_pinocchio_curvature_approaches_cylinder_value():
    # scalar curvature on the nose of the n=3 blowup tends to (n-1)(n-2) = 2
    prof = profile_L(3, 8.0)
    grid = polar_grid(3000, 8.0)
    warped = warped_reparametrize(prof, grid)
    scal = warped_curvature(*warped.jet(warped.t_nodes), 3)
    r_nodes = prof.r_of_arclength(warped.t_nodes)
    nose = (r_nodes > math.exp(-8.0)) & (r_nodes < 0.05)
    assert np.allclose(scal[nose], 2.0, atol=0.02)


def test_warped_jet_stays_finite_on_a_long_nose_cap():
    # F F'' and F'^2 grow like e^(4L) on the cap and overflow at L = 200;
    # h'' formed in the ratios F'/F and F''/F stays in range (the suite
    # turns the overflow warning into an error)
    prof = profile_L(3, 200.0)
    a, b = prof.kink_radii[:2]
    r = np.concatenate([np.linspace(0.0, a, 5)[1:], np.linspace(a, b, 9)])
    for values in geometry.warped_jet(prof, r):
        assert np.isfinite(values).all()


def test_warped_evaluators_answer_each_query_array():
    # equal length, equal ends and equal sum: a memo keyed on those would
    # hand the second query the first one's values
    prof = profile_L(3, 2.0)
    warped = warped_reparametrize(prof, make_grid("polar", 50))
    for t in (np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 3.0, 2.0, 4.0])):
        r = prof.r_of_arclength(t)
        expected = prof.F(r) * np.sin(r)
        assert np.array_equal(warped.jet(t)[0], expected)


@pytest.mark.parametrize("L", [1.0, 8.0, 30.0])
def test_arclength_roundtrip_inside_smoothstep_windows(L):
    prof = profile_L(3, L)
    b = math.exp(-L)
    for lo, hi in ((0.5 * b, b), (0.5, 1.0)):  # cap window, transition window
        r = np.linspace(lo, hi, 2001)[1:-1]
        back = prof.r_of_arclength(prof.arclength_of_r(r))
        assert np.allclose(back, r, rtol=1e-14, atol=0)


def test_arclength_inverse_evaluations_are_few(monkeypatch):
    # each window's Newton solve evaluates that window's own forward map
    # once (the quintic start from the table lies within rounding of the
    # root, so the first convergence check passes), and never the piecewise
    # map over all regions
    prof = profile_L(3, 8.0)
    window = type(geometry._CAP_WINDOW)
    forward = window.t_of_u
    calls = {id(geometry._CAP_WINDOW): 0, id(geometry._TRANSITION_WINDOW): 0}

    def counted(self, u):
        calls[id(self)] += 1
        return forward(self, u)

    def piecewise(self, r):
        raise AssertionError("the inverse evaluated the piecewise forward map")

    monkeypatch.setattr(window, "t_of_u", counted)
    monkeypatch.setattr(type(prof), "t_of_r", piecewise)
    t = np.linspace(0.0, prof.total_arclength(), 20001)
    prof.r_of_arclength(t)
    assert all(count == 1 for count in calls.values()), calls


@pytest.mark.parametrize("L", [1.0, 8.0, 30.0])
def test_window_arclength_matches_composite_gauss_oracle(L):
    prof = profile_L(3, L)
    b = math.exp(-L)
    r = np.concatenate([
        np.linspace(0.5 * b, b, 2001, endpoint=False),
        np.linspace(0.5, 1.0, 2001, endpoint=False),
    ])
    t = prof.arclength_of_r(r)
    expected = oracles.blowup_arclength(r, L)
    tol = 8.0 * np.finfo(float).eps * np.maximum(np.abs(expected), 1.0)
    assert np.all(np.abs(t - expected) <= tol)

