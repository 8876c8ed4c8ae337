import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from confspec import eigensolve, experiments, geometry
from confspec.cli import main, parse_range


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_range_syntax():
    assert parse_range("1:8:1") == [1, 2, 3, 4, 5, 6, 7, 8]
    assert parse_range("2:10:2") == [2, 4, 6, 8, 10]
    assert parse_range("1,2,4") == [1.0, 2.0, 4.0]
    assert parse_range("2.5") == [2.5]
    with pytest.raises(ValueError):
        parse_range("1:2:3:4")


@pytest.mark.parametrize("text", ["1:1e6:1e-6", "1:inf:1", "-inf:1:1", "1e6:1e6:1e-12"])
def test_range_selecting_too_many_values_is_refused(text):
    # the last step is too small to move 1e6 at all
    with pytest.raises(ValueError, match="more than"):
        parse_range(text)


def test_range_with_too_many_values_exits_one(capsys):
    code, _, err = run(
        capsys, "pinocchio-sweep", "--operator", "conformal-laplacian", "--L", "1:1e6:1e-6"
    )
    assert code == 1
    assert "selects more than" in err


@pytest.mark.parametrize(
    "operator, sigma", [("conformal-laplacian", "0.25"), ("paneitz", "1.5625"), ("dirac", "0.5")]
)
def test_dimension_defaults_to_the_smallest_supported(capsys, operator, sigma):
    # n = 3, 5 and 2
    code, out, _ = run(capsys, "cylinder-thresholds", "--operator", operator)
    assert code == 0
    assert out.splitlines()[0] == f"sigma,{sigma}"


def test_cylinder_thresholds_stdout(capsys):
    code, out, _ = run(capsys, "cylinder-thresholds", "--operator", "conformal-laplacian", "--n", "3")
    assert code == 0
    assert out.splitlines()[0] == "sigma,0.25"
    code, out, _ = run(capsys, "cylinder-thresholds", "--operator", "dirac")
    assert code == 0
    assert out.splitlines()[0] == "sigma,0.5"


def test_dimension_error_exits_one(capsys):
    code, _, err = run(capsys, "validate-sphere", "--operator", "paneitz", "--n", "4")
    assert code == 1
    assert "n >= 5" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert "usage error" in err


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run(capsys, "pinocchio-sweep", "--operator", "dirac")
    assert code == 1


def test_sweep_writes_contracted_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "pinocchio-sweep", "--operator", "dirac", "--n", "2",
        "--L", "1:2:1", "--N", "400", "--path", "intrinsic", "--out", str(out),
    )
    assert code == 0
    lines = out.read_bytes().decode().split("\n")
    assert lines[0] == "L,lambda1plus,volume,invariant,sigma,modes,max_residual"
    assert len(lines) == 4  # header + 2 rows + trailing newline
    sidecar = json.loads((tmp_path / "sweep.json").read_text())
    assert sidecar["config"]["operator"] == "dirac"
    assert sidecar["config"]["N"] == 400
    assert sidecar["config"]["seed"] == 0  # defaults materialized
    assert sidecar["summary"]["pass"] is True
    assert "numpy" in sidecar["versions"]


def test_reproducible_outputs(tmp_path, capsys):
    args = [
        "pinocchio-sweep", "--operator", "conformal-laplacian", "--n", "3",
        "--L", "1,2", "--N", "300", "--path", "covariance", "--seed", "7",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(out1))[0] == 0
    assert run(capsys, *args, "--out", str(out2))[0] == 0
    assert out1.read_bytes() == out2.read_bytes()
    # sidecars differ only in the echoed output path
    j1 = (tmp_path / "a.json").read_text().replace(str(out1), "OUT")
    j2 = (tmp_path / "b.json").read_text().replace(str(out2), "OUT")
    assert j1 == j2


def test_env_override_and_flag_priority(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"
    monkeypatch.setenv("CONFSPEC_N", "320")
    code, _, _ = run(
        capsys,
        "pinocchio-sweep", "--operator", "conformal-laplacian",
        "--L", "1", "--path", "covariance", "--out", str(out),
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "x.json").read_text())
    assert sidecar["config"]["N"] == 320
    # explicit flag beats the environment
    code, _, _ = run(
        capsys,
        "pinocchio-sweep", "--operator", "conformal-laplacian",
        "--L", "1", "--N", "280", "--path", "covariance", "--out", str(out),
    )
    sidecar = json.loads((tmp_path / "x.json").read_text())
    assert sidecar["config"]["N"] == 280


def test_validate_sphere_cli(tmp_path, capsys):
    out = tmp_path / "val.csv"
    code, stdout, _ = run(
        capsys,
        "validate-sphere", "--operator", "conformal-laplacian", "--n", "3",
        "--N", "800", "--ell-max", "3", "--out", str(out),
    )
    assert code == 0
    assert "PASS" in stdout
    header = out.read_text().split("\n")[0]
    assert header == "label,computed,analytic,rel_error,multiplicity,expected_multiplicity"


def test_validate_sphere_rejects_negative_ell_max(tmp_path, capsys):
    # a negative ell_max checks no level, so its report would pass vacuously
    out = tmp_path / "val.csv"
    code, _, err = run(
        capsys,
        "validate-sphere", "--operator", "conformal-laplacian", "--n", "3",
        "--N", "200", "--ell-max", "-1", "--out", str(out),
    )
    assert code == 1
    assert "ell_max" in err
    assert not out.exists()


def test_scaling_check_cli(capsys):
    code, out, _ = run(capsys, "scaling-check", "--operator", "dirac", "--c", "0.5,2")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("c", ["1e200", "1e-200", "0.5,1e60"])
def test_scaling_check_rejects_a_factor_out_of_range(tmp_path, capsys, monkeypatch, c):
    # c^k and c^n past [1e-100, 1e100] overflow or underflow inside the
    # solver (1e200 left a traceback under -W error::RuntimeWarning); every
    # factor of the list is checked before the first solve
    _forbid_solves(monkeypatch)
    out = tmp_path / "scale.csv"
    code, _, err = run(capsys, "scaling-check", "--operator", "dirac", "--c", c, "--out", str(out))
    assert code == 1
    assert err.startswith("error: scaling factor ") and "out of range" in err
    assert not out.exists()


def test_scaling_check_accepts_the_ends_of_its_range(capsys):
    # Dirac n = 2: c^2 = 1e100 and 1e-100 still check the law
    code, out, _ = run(capsys, "scaling-check", "--operator", "dirac", "--c", "1e50,1e-50")
    assert code == 0
    assert out.count("PASS") == 2


def test_scaling_check_rejects_grid_size(tmp_path, capsys):
    # scaling_check picks N per operator kind, so --N would do nothing
    out = tmp_path / "scale.csv"
    code, _, err = run(
        capsys, "scaling-check", "--operator", "dirac", "--N", "5", "--c", "2", "--out", str(out)
    )
    assert code == 1
    assert err.startswith("usage error: ") and "--N" in err
    assert not out.exists()


def test_convergence_cli_cylinder_surrogate(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, stdout, _ = run(
        capsys,
        "convergence", "--operator", "conformal-laplacian", "--n", "3",
        "--N", "800", "--cylinder-lengths", "5:15:5", "--out", str(out),
    )
    assert code == 0
    assert "flag=escape" in stdout
    sidecar = json.loads((tmp_path / "conv.json").read_text())
    assert sidecar["summary"]["flags"]["+"] == "escape"
    assert sidecar["summary"]["max_law_deviation"] <= 1e-3


@pytest.mark.parametrize("operator", ["dirac", "paneitz"])
def test_cylinder_surrogate_rejects_other_operators(tmp_path, capsys, operator):
    # the surrogate is the conformal Laplacian's; another operator has another gap
    out = tmp_path / "conv.csv"
    code, _, err = run(
        capsys, "convergence", "--operator", operator, "--cylinder-lengths", "10,20",
        "--N", "200", "--out", str(out),
    )
    assert code == 1
    assert err == (
        f"error: --cylinder-lengths runs the conformal-Laplacian surrogate only, not {operator}\n"
    )
    assert not out.exists()


def test_covariance_check_cli(tmp_path, capsys):
    out = tmp_path / "cc.csv"
    code, stdout, _ = run(
        capsys,
        "covariance-check", "--operator", "conformal-laplacian", "--n", "3",
        "--L", "1", "--N-grid", "400,800", "--out", str(out),
    )
    assert code == 0
    assert out.read_text().split("\n")[0] == "N,discrepancy,ratio"


@pytest.mark.parametrize(
    "args",
    [
        ("--operator", "conformal-laplacian", "--n", "3", "--N-grid", "300,600"),
        ("--operator", "dirac", "--N-grid", "100,200"),
    ],
    ids=["conformal-laplacian", "dirac"],
)
def test_covariance_check_passes_on_exact_agreement(tmp_path, capsys, args):
    # on the round sphere both paths assemble the same pencil: discrepancies
    # of 0 and 2.6e-13 sit at roundoff, not on a failed refinement
    out = tmp_path / "cc.csv"
    code, _, _ = run(capsys, "covariance-check", "--L", "0", *args, "--out", str(out))
    assert code == 0
    assert json.loads(out.with_suffix(".json").read_text())["summary"]["pass"] is True


def test_covariance_check_fails_when_discrepancy_rises_above_roundoff(capsys, monkeypatch):
    def rising(op, L, N_grid, seed=0):
        return [experiments.CrosscheckRow(N=N, discrepancy=d, ratio=math.nan)
                for N, d in zip(N_grid, [1e-12, 1e-9])]

    monkeypatch.setattr(experiments, "covariance_crosscheck", rising)
    code, _, _ = run(
        capsys, "covariance-check", "--operator", "conformal-laplacian", "--L", "0",
        "--N-grid", "100,200",
    )
    assert code == 2


def _failing_solve(*args, **kwargs):
    raise eigensolve.SolverConvergenceError(3e-4)


@pytest.mark.parametrize(
    "module, name, value, message",
    [
        (experiments, "MODE_CAP", 1, "error: mode cap reached after 1 angular modes"),
        # the quintic start converges in one Newton step, so only a cap of
        # 0 steps leaves points unconverged
        (geometry, "_NEWTON_MAX_ITER", 0, "error: arclength inverse left"),
        (eigensolve, "solve_generalized", _failing_solve,
         "error: eigensolver did not converge (best residual 3.000e-04)"),
    ],
)
def test_numerical_failures_exit_two(capsys, monkeypatch, module, name, value, message):
    monkeypatch.setattr(module, name, value)
    code, _, err = run(
        capsys, "convergence", "--operator", "conformal-laplacian", "--N", "200", "--j", "1"
    )
    assert code == 2
    assert err.startswith(message)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ("covariance-check", "--L="),
        ("covariance-check", "--N-grid="),
        ("convergence", "--L", "10:2:2"),
        ("convergence", "--cylinder-lengths="),
        ("pinocchio-sweep", "--L="),
        ("scaling-check", "--c="),
    ],
    ids=["covariance-L", "covariance-N-grid", "convergence-L", "convergence-cylinder",
         "sweep-L", "scaling-c"],
)
def test_empty_value_list_exits_one(tmp_path, capsys, args):
    out = tmp_path / "report.csv"
    code, _, err = run(capsys, *args, "--operator", "conformal-laplacian", "--out", str(out))
    assert code == 1
    assert err.startswith("error: ") and "selects no values" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_covariance_check_takes_one_nose_length(tmp_path, capsys):
    out = tmp_path / "cc.csv"
    code, _, err = run(
        capsys, "covariance-check", "--operator", "conformal-laplacian", "--L", "1,2,4",
        "--out", str(out),
    )
    assert code == 1
    assert err == "error: covariance-check takes one nose length, got 3\n"
    assert not out.exists()


@pytest.mark.parametrize("L", ["0.5", "nan", "inf"])
def test_sweep_checks_nose_length_before_any_row(tmp_path, capsys, L):
    out = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys, "pinocchio-sweep", "--operator", "conformal-laplacian", "--L", L,
        "--N", "100", "--out", str(out),
    )
    assert code == 1
    assert err == f"error: nose length L must be finite and at least 1, got {L}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--N", "5"), ("--seed", "3")], ids=["N", "seed"])
def test_cylinder_thresholds_rejects_solver_flags(tmp_path, capsys, flag):
    # sigma is closed form: no grid to size and no solve to seed
    out = tmp_path / "sigma.csv"
    code, _, err = run(
        capsys, "cylinder-thresholds", "--operator", "dirac", *flag, "--out", str(out)
    )
    assert code == 1
    assert err.startswith("usage error: ") and flag[0] in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, named",
    [
        (("--L", "7"), "--L"),
        (("--j", "3"), "--j"),
        (("--path", "covariance"), "--path"),
        (("--j", "3", "--path", "covariance", "--L", "7"), "--L, --j, --path"),
    ],
    ids=["L", "j", "path", "all"],
)
def test_cylinder_surrogate_rejects_nose_flags(tmp_path, capsys, flags, named):
    # the surrogate runs over --cylinder-lengths alone and would only echo these
    out = tmp_path / "conv.csv"
    code, _, err = run(
        capsys, "convergence", "--operator", "conformal-laplacian",
        "--cylinder-lengths", "5,10", "--N", "200", *flags, "--out", str(out),
    )
    assert code == 1
    assert err == (
        f"error: --cylinder-lengths runs the exact-cylinder surrogate, which takes no {named}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("j", ["0", "-2"])
def test_convergence_rejects_index_below_one(tmp_path, capsys, j):
    # lambda_j^+ counts from j = 1; a smaller index would report lambda_1^+ under it
    out = tmp_path / "conv.csv"
    code, _, err = run(
        capsys, "convergence", "--operator", "conformal-laplacian", "--L", "1,2",
        "--N", "200", "--j", j, "--out", str(out),
    )
    assert code == 1
    assert err == f"error: eigenvalue index j must be at least 1, got {j}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("pinocchio-sweep", "--L", "1", "--N", "200"),
        ("validate-sphere", "--N", "200", "--ell-max", "2"),
        ("scaling-check",),
    ],
    ids=["sweep", "validate-sphere", "scaling-check"],
)
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_is_a_config_error(tmp_path, capsys, monkeypatch, args, source):
    def no_run(*_, **__):
        raise AssertionError("an experiment ran with a negative seed")

    for name in ("pinocchio_sweep", "validate_sphere", "scaling_check"):
        monkeypatch.setattr(experiments, name, no_run)
    seed = ("--seed", "-1") if source == "flag" else ()
    if source == "env":
        monkeypatch.setenv("CONFSPEC_SEED", "-1")
    out = tmp_path / "report.csv"
    code, _, err = run(
        capsys, *args, "--operator", "conformal-laplacian", *seed, "--out", str(out)
    )
    assert code == 1
    assert err == "error: --seed must be non-negative, got -1\n"
    assert not out.exists()


def _forbid_solves(monkeypatch):
    def no_solve(*_, **__):
        raise AssertionError("a pencil was solved for an invalid config")

    monkeypatch.setattr(eigensolve, "solve_generalized", no_solve)


@pytest.mark.parametrize("N", ["0", "-3", "15"])
@pytest.mark.parametrize(
    "args",
    [
        ("pinocchio-sweep", "--operator", "dirac", "--L", "1,2"),
        ("convergence", "--operator", "conformal-laplacian", "--L", "1,2,3"),
        ("convergence", "--operator", "conformal-laplacian", "--cylinder-lengths", "5,10"),
    ],
    ids=["sweep", "convergence", "surrogate"],
)
def test_node_count_below_the_grid_minimum_is_a_config_error(
    tmp_path, capsys, monkeypatch, args, N
):
    # fewer than grid.MIN_NODES = 16 nodes: exit 1 before any row, never a
    # traceback or a NaN row
    _forbid_solves(monkeypatch)
    out = tmp_path / "report.csv"
    code, _, err = run(capsys, *args, "--N", N, "--out", str(out))
    assert code == 1
    assert err == "error: node count too small\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, lengths",
    [("--L", "2,2,4"), ("--cylinder-lengths", "30,20,10")],
    ids=["L", "cylinder-lengths"],
)
def test_convergence_rejects_lengths_not_strictly_increasing(
    tmp_path, capsys, monkeypatch, flag, lengths
):
    # the law fit needs L_1 < L_2 < L_3, and the escape flag reads the last value
    _forbid_solves(monkeypatch)
    out = tmp_path / "conv.csv"
    code, _, err = run(
        capsys, "convergence", "--operator", "conformal-laplacian", flag, lengths,
        "--N", "200", "--out", str(out),
    )
    assert code == 1
    expected = [float(v) for v in lengths.split(",")]
    assert err == f"error: {flag} must be strictly increasing, got {expected}\n"
    assert not out.exists()


def test_covariance_check_rejects_unordered_grid_sizes(tmp_path, capsys):
    out = tmp_path / "cc.csv"
    for grid in ("400,200", "200,200"):
        code, _, err = run(
            capsys, "covariance-check", "--operator", "conformal-laplacian",
            "--L", "0", "--N-grid", grid, "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: N grid must be strictly increasing")
        assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-3"])
def test_validate_sphere_rejects_bad_tolerance(tmp_path, capsys, tolerance):
    out = tmp_path / "val.csv"
    code, _, err = run(
        capsys, "validate-sphere", "--operator", "conformal-laplacian",
        "--N", "200", f"--tolerance={tolerance}", "--out", str(out),
    )
    assert code == 1
    assert err.startswith("error: tolerance must be finite and positive")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (("validate-sphere", "--N", "200", "--tolerance", "-1e-3"),
         "error: tolerance must be finite and positive, got -0.001\n"),
        (("pinocchio-sweep", "--N", "100", "--L", "-1e-3"),
         "error: nose length L must be finite and at least 1, got -0.001\n"),
    ],
    ids=["tolerance", "sweep-L"],
)
def test_negative_scientific_value_reaches_its_check(tmp_path, capsys, args, message):
    # "-1e-3" is a value, not an option, so the value check names it
    out = tmp_path / "report.csv"
    code, _, err = run(capsys, *args, "--operator", "conformal-laplacian", "--out", str(out))
    assert code == 1
    assert err == message
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ("pinocchio-sweep", "--L", "1", "--path", "covariance"),
        ("validate-sphere", "--ell-max", "0"),
    ],
    ids=["sweep", "validate-sphere"],
)
def test_env_override_ends_with_its_variable(tmp_path, capsys, monkeypatch, args):
    # one process reuses its parser, so a dropped override must not linger
    out = tmp_path / "x.csv"
    monkeypatch.setenv("CONFSPEC_N", "320")
    code, _, _ = run(capsys, *args, "--operator", "conformal-laplacian", "--out", str(out))
    assert code == 0
    assert json.loads((tmp_path / "x.json").read_text())["config"]["N"] == 320
    monkeypatch.delenv("CONFSPEC_N")
    code, _, _ = run(capsys, *args, "--operator", "conformal-laplacian", "--out", str(out))
    assert code == 0
    assert json.loads((tmp_path / "x.json").read_text())["config"]["N"] == 2000


# per command: arguments of a passing run, and the options it took besides
# command, operator, n and out, under their config names; convergence runs
# the nose family, which takes no --cylinder-lengths
_SIDECAR_RUNS = {
    "validate-sphere": (("--N", "200", "--ell-max", "1"), {"N", "seed", "ell_max", "validation_tol"}),
    "cylinder-thresholds": ((), set()),
    "pinocchio-sweep": (("--L", "1", "--N", "200", "--path", "covariance"),
                        {"N", "seed", "L_grid", "path"}),
    "convergence": (("--L", "1,2", "--N", "200"), {"N", "seed", "L_grid", "j_index", "path"}),
    "covariance-check": (("--L", "0", "--N-grid", "100,200"), {"N", "seed", "L_grid", "N_grid"}),
    "scaling-check": (("--c", "2"), {"seed", "c_values"}),
}


@pytest.mark.parametrize("command", sorted(_SIDECAR_RUNS))
def test_sidecar_echoes_the_options_its_command_took(tmp_path, capsys, command):
    args, options = _SIDECAR_RUNS[command]
    out = tmp_path / "report.csv"
    code, _, _ = run(capsys, command, "--operator", "conformal-laplacian", *args, "--out", str(out))
    assert code == 0
    config = json.loads(out.with_suffix(".json").read_text())["config"]
    assert set(config) == {"command", "operator", "n", "out"} | options


def test_surrogate_sidecar_echoes_no_nose_options(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code, _, _ = run(
        capsys, "convergence", "--operator", "conformal-laplacian",
        "--cylinder-lengths", "5,10", "--N", "200", "--out", str(out),
    )
    assert code == 0
    config = json.loads(out.with_suffix(".json").read_text())["config"]
    assert config["cylinder_lengths"] == [5.0, 10.0]
    assert not {"L_grid", "j_index", "path"} & set(config)


def test_sidecar_ignores_overrides_of_options_its_command_lacks(tmp_path, capsys, monkeypatch):
    # CONFSPEC_ELL_MAX sets validate-sphere's --ell-max; a sweep has none
    monkeypatch.setenv("CONFSPEC_ELL_MAX", "3")
    out = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys, "pinocchio-sweep", "--operator", "conformal-laplacian", "--L", "1",
        "--N", "200", "--path", "covariance", "--out", str(out),
    )
    assert code == 0
    assert "ell_max" not in json.loads(out.with_suffix(".json").read_text())["config"]


# ------------------------------------------------- exit codes for any argument

# edge values of every kind: zero, negatives, NaN, inf, text, unordered and
# repeated lists, zero and negative steps, kept to small grids (N <= 40) and
# a few nose lengths; no range comes near MAX_RANGE_VALUES
_NUMBER = ["0", "-1", "-0.5", "nan", "inf", "-inf", "1", "2", "text", ""]
_LENGTHS = _NUMBER + ["4", "30", "31", "1,2", "2,1", "2,2", "1,,3", "1:3:1", "3:1:1",
                      "1:3:0", "1:3:-1", "1:2:3:4"]
_NODES = ["0", "-16", "15", "16", "24", "40", "nan", "text"]
_NODE_LISTS = ["16,24", "24,16", "16,16", "0,16", "-1", "16:40:8", "16:40:0", "16.5", "text"]
_CYLINDERS = ["5,10", "10,5", "5,5", "0", "-5", "nan", "inf", "5:15:5", "5:15:0", "text"]
_DIMENSION = ["0", "-1", "2", "3", "4", "5", "6", "text"]
_SEED = ["0", "-1", "3", "text"]
_PATH = ["auto", "intrinsic", "covariance", "sideways"]
# per command: (flag, values, always given); --N and --N-grid are always
# given so that no run falls back to the 2000-node default
_FLAGS = {
    "validate-sphere": [("--N", _NODES, True), ("--n", _DIMENSION, False),
                        ("--ell-max", ["0", "-1", "3", "text"], False),
                        ("--tolerance", _NUMBER, False), ("--seed", _SEED, False)],
    "cylinder-thresholds": [("--n", _DIMENSION, False)],
    "pinocchio-sweep": [("--N", _NODES, True), ("--L", _LENGTHS, True),
                        ("--n", _DIMENSION, False), ("--path", _PATH, False),
                        ("--seed", _SEED, False)],
    "convergence": [("--N", _NODES, True), ("--n", _DIMENSION, False),
                    ("--L", _LENGTHS, False), ("--j", ["0", "-1", "1", "2", "text"], False),
                    ("--path", _PATH, False), ("--cylinder-lengths", _CYLINDERS, False),
                    ("--seed", _SEED, False)],
    "covariance-check": [("--N", _NODES, True), ("--N-grid", _NODE_LISTS, True),
                         ("--L", ["0", "1", "2", "-1", "nan", "20", "1,2", "text"], False),
                         ("--n", _DIMENSION, False), ("--seed", _SEED, False)],
    "scaling-check": [("--c", ["0.5", "0", "-1", "nan", "inf", "0.5,2", "2,2", "text"], False),
                      ("--n", _DIMENSION, False), ("--seed", _SEED, False)],
}


@st.composite
def _cli_arguments(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    operator = draw(st.sampled_from(["conformal-laplacian", "dirac", "paneitz", "laplace"]))
    args = [command, "--operator", operator]
    for flag, values, given_always in _FLAGS[command]:
        if given_always or draw(st.booleans()):
            args += [flag, draw(st.sampled_from(values))]
    return args


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=_cli_arguments())
def test_every_argument_list_ends_in_a_documented_exit_code(args):
    # 0 success, 1 configuration error, 2 a failed check: never an exception
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    assert code in (0, 1, 2), args
