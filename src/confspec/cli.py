"""Command-line front end: config parsing, experiment dispatch, CSV/JSON output.

Every flag can also be set through an environment variable named
``CONFSPEC_`` and the option's dest in upper case (``CONFSPEC_N=1000`` for
``--N``, ``CONFSPEC_DIMENSION=3`` for ``--n``); explicit flags win.  Reports
are RFC-4180 CSV with LF line endings and 17-significant-digit floats, plus a
JSON sidecar echoing the options its command took, after defaults and
overrides, so identical config and seed reproduce byte-identical outputs.

Exit codes: 0 success, 1 usage or configuration error, 2 a failed internal
check or numerical step (eigensolver, arclength inverse, mode cap, lambda_1^+).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import platform
import re
import sys
from types import SimpleNamespace

import numpy as np
import scipy

import confspec
from confspec import experiments
from confspec.operators import OPERATORS, OperatorKind, conformal_laplacian, cylinder_threshold

ENV_PREFIX = "CONFSPEC_"
# the most values a start:stop:step range may select
MAX_RANGE_VALUES = 10_000


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse before 3.13 reads only -N and -N.N as negative numbers, so
        # "--tolerance -1e-3" took the value for an option; this is 3.13's rule
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on usage errors; the contract wants 1
    def error(self, message):
        raise _UsageError(message)


def fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def parse_range(text: str) -> list[float]:
    """Either 'start:stop:step' (inclusive) or a comma list, of at least one
    value."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"range syntax is start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("range step must be positive")
        too_many = f"range {text!r} selects more than {MAX_RANGE_VALUES} values"
        if (stop - start) / step >= MAX_RANGE_VALUES:  # inf too; NaN selects none
            raise ValueError(too_many)
        values = []
        x = start
        while x <= stop + 1e-12 * max(1.0, abs(stop)):
            if len(values) == MAX_RANGE_VALUES:  # a step too small to move x
                raise ValueError(too_many)
            values.append(round(x, 12))
            x += step
    else:
        values = [float(p) for p in text.split(",") if p]
    if not values:
        raise ValueError(f"{text!r} selects no values")
    return values


def parse_int_list(text: str) -> list[int]:
    return [int(v) for v in parse_range(text)]


def _add_operator(p: argparse.ArgumentParser):
    p.add_argument("--operator", required=True, choices=sorted(OPERATORS))
    # distinct dest so the CONFSPEC_N override cannot collide with --n
    p.add_argument("--n", type=int, default=None, dest="dimension", help="sphere dimension")
    p.add_argument("--out", default=None, help="CSV output path (JSON sidecar beside it)")


def _add_seeded(p: argparse.ArgumentParser):
    _add_operator(p)
    p.add_argument("--seed", type=int, default=0)


def _add_common(p: argparse.ArgumentParser):
    _add_seeded(p)
    p.add_argument("--N", type=int, default=2000, help="grid size (interior nodes)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="confspec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate-sphere", help="round-sphere spectra vs exact ladders")
    _add_common(p)
    p.add_argument("--ell-max", type=int, default=8)
    p.add_argument("--tolerance", type=float, default=1e-3)

    # closed form: no grid, no solve, so no --N or --seed
    p = sub.add_parser("cylinder-thresholds", help="closed-form cylinder gap sigma")
    _add_operator(p)

    p = sub.add_parser("pinocchio-sweep", help="invariant along the nose-length family")
    _add_common(p)
    p.add_argument("--L", required=True, help="nose lengths, start:stop:step or list")
    p.add_argument("--path", choices=["covariance", "intrinsic", "auto"], default="auto")

    # --L, --j and --path default to None so that --cylinder-lengths can tell
    # them apart from the defaults (2:10:2, 1, auto) that _config_from_args fills in
    p = sub.add_parser("convergence", help="eigenvalue trajectories and dichotomy flags")
    _add_common(p)
    p.add_argument("--L", default=None, help="nose lengths (default 2:10:2)")
    p.add_argument("--j", type=int, default=None, dest="j_index", help="default 1")
    p.add_argument("--path", choices=["covariance", "intrinsic", "auto"], default=None)
    p.add_argument(
        "--cylinder-lengths",
        default=None,
        help="run the exact-cylinder surrogate over these lengths instead (no --L, --j, --path)",
    )

    p = sub.add_parser("covariance-check", help="dual-path eigenvalue agreement")
    _add_common(p)
    p.add_argument("--L", default="2")
    p.add_argument("--N-grid", default="500,1000,2000", dest="N_grid")

    # no --N: scaling_check picks the grid size per operator kind
    p = sub.add_parser("scaling-check", help="exact constant-factor covariance law")
    _add_seeded(p)
    p.add_argument("--c", default="0.5,2,3", dest="c_values")
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # built once per process and only read after, as CONFSPEC_* values enter
    # argv as flags: building takes 1.3-1.9 ms, mostly argparse's formatters
    # asking for the terminal size, which is 10-20% of a sweep row
    return build_parser()


def _with_env_flags(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with one ``--flag=value`` token after its command for each
    CONFSPEC_<DEST> set for an option of that command, so that argparse
    types, checks and requires an override as it does a flag, and an
    explicit flag, parsed later, wins."""
    command = next((a for a in argv if not a.startswith("-")), None)
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if command not in commands.choices:
        return argv
    at = argv.index(command) + 1
    flags = [
        f"{action.option_strings[0]}={os.environ[name]}"
        for action in commands.choices[command]._actions
        if action.dest != "help" and (name := ENV_PREFIX + action.dest.upper()) in os.environ
    ]
    return argv[:at] + flags + argv[at:]


def _make_operator(cfg: SimpleNamespace) -> OperatorKind:
    return OperatorKind(cfg.operator, cfg.n)


def _versions() -> dict:
    return {
        "confspec": confspec.__version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def _write_report(cfg: SimpleNamespace, header: list[str], rows: list[list], summary: dict):
    lines = [header] + [[fmt(v) for v in row] for row in rows]
    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(lines)
        sidecar = os.path.splitext(cfg.out)[0] + ".json"
        payload = {
            "config": vars(cfg),
            "versions": _versions(),
            "summary": summary,
        }
        with open(sidecar, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(lines)


def _cmd_cylinder_thresholds(cfg: SimpleNamespace) -> int:
    sigma = cylinder_threshold(_make_operator(cfg))
    print(f"sigma,{fmt(sigma)}")
    if cfg.out:
        _write_report(cfg, ["sigma"], [[sigma]], {"pass": True, "sigma": sigma})
    return 0


def _cmd_validate_sphere(cfg: SimpleNamespace) -> int:
    op = _make_operator(cfg)
    report = experiments.validate_sphere(
        op, N=cfg.N, ell_max=cfg.ell_max, tolerance=cfg.validation_tol, seed=cfg.seed
    )
    rows = [
        [r.label, r.computed, r.analytic, r.rel_error, r.multiplicity, r.expected_multiplicity]
        for r in report.rows
    ]
    _write_report(
        cfg,
        ["label", "computed", "analytic", "rel_error", "multiplicity", "expected_multiplicity"],
        rows,
        {"pass": report.passed, "tolerance": report.tolerance},
    )
    for r in report.rows:
        ok = r.rel_error <= report.tolerance and r.multiplicity == r.expected_multiplicity
        print(f"{'PASS' if ok else 'FAIL'} {r.label}: rel_error={r.rel_error:.3e} "
              f"multiplicity={r.multiplicity}/{r.expected_multiplicity}")
    return 0 if report.passed else 2


def _cmd_pinocchio_sweep(cfg: SimpleNamespace) -> int:
    op = _make_operator(cfg)
    rows = experiments.pinocchio_sweep(op, cfg.L_grid, N=cfg.N, path=cfg.path, seed=cfg.seed)
    table = [
        [r.L, r.lambda_1_plus, r.volume, r.invariant, r.sigma, r.n_modes_used, r.max_residual]
        for r in rows
    ]
    failures = [r.L for r in rows if r.error is not None]
    _write_report(
        cfg,
        ["L", "lambda1plus", "volume", "invariant", "sigma", "modes", "max_residual"],
        table,
        {"pass": not failures, "failed_rows": failures},
    )
    for r in rows:
        note = f"  [{r.error}]" if r.error else ""
        print(f"L={fmt(r.L)} lambda1+={fmt(r.lambda_1_plus)} vol={fmt(r.volume)} "
              f"invariant={fmt(r.invariant)}{note}")
    return 2 if failures else 0


def _cmd_convergence(cfg: SimpleNamespace) -> int:
    summary = {"pass": True}
    if hasattr(cfg, "cylinder_lengths"):
        if cfg.operator != "conformal-laplacian":
            raise ValueError(
                "--cylinder-lengths runs the conformal-Laplacian surrogate only, "
                f"not {cfg.operator}"
            )
        trajectory, worst = experiments.cylinder_surrogate_study(
            cfg.cylinder_lengths, N=cfg.N, n=cfg.n, seed=cfg.seed
        )
        trajectories = [trajectory]
        sigma = cylinder_threshold(conformal_laplacian(cfg.n))
        summary["max_law_deviation"] = worst
    else:
        op = _make_operator(cfg)
        report = experiments.convergence_study(
            op, cfg.j_index, cfg.L_grid, N=cfg.N, path=cfg.path, seed=cfg.seed
        )
        trajectories = list(report.trajectories)
        sigma = report.sigma
    rows = []
    for tr in trajectories:
        for i, (L, v) in enumerate(zip(tr.L_values, tr.values)):
            diff = math.nan if i == 0 else tr.diffs[i - 1]
            rows.append([tr.sector, L, v, diff])
    summary.update(
        sigma=sigma,
        flags={tr.sector: tr.flag for tr in trajectories},
        extrapolated_limits={tr.sector: tr.extrapolated_limit for tr in trajectories},
        law_fits={tr.sector: tr.law_fit for tr in trajectories},
    )
    _write_report(cfg, ["sector", "L", "lambda", "diff"], rows, summary)
    for tr in trajectories:
        print(f"sector {tr.sector}: flag={tr.flag} "
              f"final={fmt(tr.values[-1])} limit~{fmt(tr.extrapolated_limit)}")
    return 0


# A refinement step counts as converged when its discrepancy decreases or is
# already at roundoff.  The round sphere (L = 0), where the two paths assemble
# the same pencil, reads 2.6e-13 for the conformal Laplacian n = 3 at N = 600
# and 0 for Dirac; the nose at L = 2, N = 2000 still reads 2.1e-6.
_DISCREPANCY_ROUNDOFF = 1e-10


def _cmd_covariance_check(cfg: SimpleNamespace) -> int:
    if len(cfg.L_grid) != 1:
        raise ValueError(f"covariance-check takes one nose length, got {len(cfg.L_grid)}")
    op = _make_operator(cfg)
    (L,) = cfg.L_grid
    rows = experiments.covariance_crosscheck(op, L, cfg.N_grid, seed=cfg.seed)
    table = [[r.N, r.discrepancy, r.ratio] for r in rows]
    decreasing = all(
        b.discrepancy < a.discrepancy or b.discrepancy <= _DISCREPANCY_ROUNDOFF
        for a, b in zip(rows, rows[1:])
    )
    final_ok = rows[-1].discrepancy <= 1e-3
    _write_report(
        cfg,
        ["N", "discrepancy", "ratio"],
        table,
        {"pass": decreasing and final_ok, "decreasing": decreasing, "final_ok": final_ok},
    )
    for r in rows:
        print(f"N={r.N} discrepancy={r.discrepancy:.3e} ratio={fmt(r.ratio)}")
    return 0 if decreasing and final_ok else 2


def _cmd_scaling_check(cfg: SimpleNamespace) -> int:
    op = _make_operator(cfg)
    for c in cfg.c_values:  # every factor, before the first solve
        experiments.check_scaling_factor(op, c)
    reports = [experiments.scaling_check(op, c, seed=cfg.seed) for c in cfg.c_values]
    table = [
        [r.operator, r.c, r.eig_rel_err, r.pointwise_rel_err, r.invariant_rel_err,
         r.volume_rel_err, r.passed]
        for r in reports
    ]
    ok = all(r.passed for r in reports)
    _write_report(
        cfg,
        ["operator", "c", "eig_rel_err", "pointwise_rel_err", "invariant_rel_err",
         "volume_rel_err", "passed"],
        table,
        {"pass": ok},
    )
    for r in reports:
        print(f"c={fmt(r.c)}: eig={r.eig_rel_err:.2e} invariant={r.invariant_rel_err:.2e} "
              f"{'PASS' if r.passed else 'FAIL'}")
    return 0 if ok else 2


_COMMANDS = {
    "validate-sphere": _cmd_validate_sphere,
    "cylinder-thresholds": _cmd_cylinder_thresholds,
    "pinocchio-sweep": _cmd_pinocchio_sweep,
    "convergence": _cmd_convergence,
    "covariance-check": _cmd_covariance_check,
    "scaling-check": _cmd_scaling_check,
}


# dests that argparse or the CONFSPEC_* names fix, under their config names
_CONFIG_NAMES = {"dimension": "n", "L": "L_grid", "tolerance": "validation_tol"}
# convergence's nose-family options: config name, flag, default
_NOSE_OPTIONS = (("L_grid", "--L", "2:10:2"), ("j_index", "--j", 1), ("path", "--path", "auto"))


def _config_from_args(args: argparse.Namespace) -> SimpleNamespace:
    """The options the command's subparser took, under their config names,
    lists parsed and defaults filled in: what the sidecar echoes."""
    cfg = SimpleNamespace(**{_CONFIG_NAMES.get(k, k): v for k, v in vars(args).items()})
    if cfg.n is None:
        cfg.n = OPERATORS[cfg.operator].n_min
    if getattr(cfg, "seed", 0) < 0:
        raise ValueError(f"--seed must be non-negative, got {cfg.seed}")
    if cfg.command == "convergence":
        if cfg.cylinder_lengths is None:
            del cfg.cylinder_lengths
            for name, _, default in _NOSE_OPTIONS:
                if getattr(cfg, name) is None:
                    setattr(cfg, name, default)
        else:
            unused = [flag for name, flag, _ in _NOSE_OPTIONS if getattr(cfg, name) is not None]
            if unused:
                raise ValueError(
                    f"--cylinder-lengths runs the exact-cylinder surrogate, which takes no "
                    f"{', '.join(unused)}"
                )
            del cfg.L_grid, cfg.j_index, cfg.path
    for name in ("L_grid", "c_values", "cylinder_lengths"):
        if hasattr(cfg, name):
            setattr(cfg, name, parse_range(getattr(cfg, name)))
    if hasattr(cfg, "N_grid"):
        cfg.N_grid = parse_int_list(cfg.N_grid)
    if cfg.command == "convergence":
        # the law fit and the escape flag read the lengths in order
        flag, lengths = (
            ("--cylinder-lengths", cfg.cylinder_lengths) if hasattr(cfg, "cylinder_lengths")
            else ("--L", cfg.L_grid)
        )
        if any(b <= a for a, b in zip(lengths, lengths[1:])):
            raise ValueError(f"{flag} must be strictly increasing, got {lengths}")
    return cfg


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _shared_parser()
    try:
        args = parser.parse_args(_with_env_flags(parser, argv))
        cfg = _config_from_args(args)
        _make_operator(cfg)  # dimension constraints checked up front
        return _COMMANDS[args.command](cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except experiments.RUN_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
