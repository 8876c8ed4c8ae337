"""Span tracing of confspec's public layer calls, installed from outside.

The package is never edited: ``Tracer.install`` rebinds each wrapped public
name in every loaded ``confspec`` module (so ``from x import f`` bindings are
caught too) and ``Tracer.uninstall`` puts the originals back.  Spans stay in
memory until ``write``.  A span's self time is its duration minus the time
its direct child spans cover; calls are single-threaded, so children never
overlap.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

from confspec import cli, eigensolve, experiments, geometry, grid, operators


def _points(args, kwargs):
    return {"points": int(np.size(args[1] if len(args) > 1 else kwargs["t"]))}


def _solve_attrs(args, kwargs):
    return {"method": kwargs.get("method", args[4] if len(args) > 4 else "auto")}


# (owner, attribute, span name, attrs taken from the call)
TARGETS = [
    (geometry.ConformalProfile, "r_of_arclength", "geometry.inverse", _points),
    (geometry.ConformalProfile, "arclength_of_r", "geometry.forward", None),
    (geometry, "profile_L", "geometry.forward", None),
    (geometry, "warped_reparametrize", "geometry.warp", None),
    (geometry, "volume", "geometry.volume", None),
    (grid, "assemble_weak_form", "grid.assemble", None),
    (operators, "intrinsic_assemble", "operators.assemble", None),
    (operators, "covariance_reduce", "operators.assemble", None),
    (eigensolve, "solve_generalized", "eigensolve.solve", _solve_attrs),
    (eigensolve, "aggregate", "eigensolve.aggregate", None),
    (cli, "main", "cli.main", None),
] + [(experiments, name, "experiments.run", None) for name in experiments.__all__
     if inspect.isfunction(getattr(experiments, name))]


# span name -> (self-time metric, call-count metric)
_LAYER_KEYS = {
    "geometry.inverse": ("geometry.inverse_s", "geometry.inverse_calls"),
    "geometry.forward": ("geometry.forward_s", None),
    "geometry.warp": ("geometry.warp_s", None),
    "geometry.volume": ("geometry.volume_s", None),
    "grid.assemble": ("grid.assemble_s", "grid.assemble_calls"),
    "operators.assemble": ("operators.assemble_s", "operators.assemblies"),
    "eigensolve.solve": ("eigensolve.solve_s", "eigensolve.solves"),
    "eigensolve.aggregate": ("eigensolve.aggregate_s", None),
    "experiments.run": ("experiments.self_s", None),
    "cli.main": ("cli.self_s", None),
}
LAYER_METRICS = sorted(
    {key for pair in _LAYER_KEYS.values() for key in pair if key}
    | {"geometry.inverse_points", "eigensolve.pairs", "eigensolve.dense_s",
       "eigensolve.iterative_s"}
)


class Tracer:
    def __init__(self):
        # span: [id, name, start, end, parent id, pass id, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.pass_id: int | None = None

    def _wrap(self, fn, name, attrs_of):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            attrs = attrs_of(args, kwargs) if attrs_of else {}
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None,
                    self.pass_id, attrs]
            spans.append(span)
            stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if name == "eigensolve.solve":
                attrs["pairs"] = len(result)
            return result

        return traced

    def install(self, pass_id: int) -> None:
        self.pass_id = pass_id
        modules = [m for key, m in sys.modules.items()
                   if key == "confspec" or key.startswith("confspec.")]
        for owner, attr, name, attrs_of in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, attrs_of)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        self.pass_id = None

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like ``spans``."""
        out = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                out[s[4]] -= s[3] - s[2]
        return out

    def layer_totals(self) -> dict[str, float]:
        """Self times and counts per layer metric, summed over all spans."""
        tot = dict.fromkeys(LAYER_METRICS, 0)
        for span, own in zip(self.spans, self.self_times()):
            name, attrs = span[1], span[6]
            time_key, count_key = _LAYER_KEYS[name]
            tot[time_key] += own
            if count_key:
                tot[count_key] += 1
            if name == "geometry.inverse":
                tot["geometry.inverse_points"] += attrs["points"]
            elif name == "eigensolve.solve":
                tot["eigensolve.pairs"] += attrs.get("pairs", 0)
                if attrs["method"] in ("dense", "iterative"):
                    tot[f"eigensolve.{attrs['method']}_s"] += own
        return tot

    def write(self, path) -> None:
        """One JSON object per span: name, start, end, parent, pass and attrs."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, pass_id, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id, **attrs}) + "\n")
