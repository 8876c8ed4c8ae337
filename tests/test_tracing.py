"""The benchmark tracer binds package functions by name; a rename in the
package must fail here, not silently in a traced benchmark run."""

import importlib.util
import pathlib

from confspec import experiments
from confspec.operators import conformal_laplacian

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    targets = _load_tracing().TARGETS
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in targets
        if attr not in owner.__dict__
    ]
    assert not missing


def test_traced_intrinsic_sweep_row_records_grid_assembly():
    # a row's modes assemble through grid.assemble_weak_form, so a traced
    # sweep books assembly time to the grid layer
    tracer = _load_tracing().Tracer()
    tracer.install(0)
    try:
        (row,) = experiments.pinocchio_sweep(
            conformal_laplacian(3), [1.0], N=200, path="intrinsic"
        )
    finally:
        tracer.uninstall()
    assert row.error is None
    assert tracer.layer_totals()["grid.assemble_calls"] >= 1
