"""Spans around the package's layer functions, for the traced run.

The tracer replaces each layer function with a wrapper in every package
module whose namespace binds it, because callers look the name up there at
call time. ``bohr.prepare`` wraps the entries of ``bohr._PREPARERS``. A name
that the package no longer has is skipped, so its metrics are absent.

Each span records its name, start, end, parent, input shape (N, d) and an
amount of work. Spans stay in memory until the run ends. A span's self time
is its duration minus the time its child spans cover. Calls, matrices and
grid points are computed counts: they repeat exactly on the same inputs.

Which end-to-end metric each layer should move, and where:

- ``bohr.evaluate``, ``bohr.kahan_sum``, ``linalg.smallest_eigenvalue``:
  ``wall_s`` and ``checks_per_s`` on harmonic-grid, not on subordination.
- ``series.compose`` (a distinct_ratio of 0.5 is duplicated work),
  ``bohr.boundary_liminf``, ``bohr.prepare``: ``wall_s`` and
  the 95th percentile of instance latency (details line) on subordination,
  not on harmonic-grid.
- ``funcalc.*``, ``series.circle_coeffs``, ``generators.sample``: ``wall_s``
  on suite-all; little elsewhere.
- ``serialize.*``, ``cli.run_suite``: ``wall_s`` on suite-all only.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from opbohr import bohr, cli, funcalc, generators, linalg, serialize, series

MODULES = {m.__name__.rsplit(".", 1)[-1]: m
           for m in (linalg, funcalc, series, bohr, generators, serialize, cli)}


def _matrices(args, result) -> int:
    return int(np.prod(np.shape(args[0])[:-2], dtype=np.int64))


def _points(args, result) -> int:
    return int(np.size(args[1]))


def _nbytes(args, result) -> int:
    return len(result.encode())


def _compose_key(args, result) -> str:
    f, w, order = args
    return hashlib.sha1(f.coeffs.tobytes() + w.phi.coeffs.tobytes() + bytes(str(order), "ascii")
                        ).hexdigest()


@dataclass(frozen=True)
class Layer:
    name: str                      # "<module>.<layer>"; the module defines the functions
    functions: tuple[str, ...]
    count: str | None = None       # metric of the work done
    work: Callable | None = None   # (args, result) -> amount of work; None counts calls
    key: Callable | None = None    # (args, result) -> input fingerprint, for distinct_ratio
    exact: bool = True             # the count repeats exactly on the same inputs


LAYERS = (
    Layer("generators.sample", ("sample",), "generators.sample.calls"),
    Layer("bohr.evaluate", ("_build_report",), "bohr.evaluate.calls"),
    Layer("bohr.kahan_sum", ("_kahan_matrix_sum", "_kahan_scalar_sum"), "bohr.kahan_sum.calls"),
    Layer("bohr.boundary_liminf", ("boundary_distance_liminf",), "bohr.boundary_liminf.calls"),
    Layer("series.compose", ("compose_subordination",), "series.compose.calls",
          key=_compose_key),
    Layer("series.circle_coeffs", ("coeffs_from_circle_samples",), "series.circle_coeffs.calls"),
    Layer("linalg.abs_value", ("abs_value",), "linalg.abs_value.matrices", _matrices),
    Layer("linalg.operator_norm", ("operator_norm",), "linalg.operator_norm.matrices", _matrices),
    Layer("linalg.smallest_eigenvalue", ("smallest_eigenvalue",),
          "linalg.smallest_eigenvalue.calls"),
    Layer("funcalc.matrix_exp", ("matrix_exp",), "funcalc.matrix_exp.calls"),
    Layer("funcalc.herglotz_grid", ("herglotz_transfer_grid",), "funcalc.herglotz_grid.points",
          _points),
    Layer("cli.run_suite", ("run_suite",)),
    # the report's timestamp varies in length, so its size is measured, not computed
    Layer("serialize.dumps", ("dumps",), "serialize.report_bytes", _nbytes, exact=False),
)
PREPARE = Layer("bohr.prepare", (), "bohr.prepare.calls")


def _input_shape(args) -> tuple[int | None, int | None]:
    """(N, d) of the first argument that carries matrices."""
    for x in args:
        if isinstance(x, tuple) and x:
            x = x[0]  # a (series, witness) pair
        if isinstance(x, generators.FamilySpec):
            return x.order + 1, x.dim
        x = getattr(x, "coeffs", getattr(x, "analytic", x))
        shape = getattr(x, "shape", None)
        if shape is not None and len(shape) >= 2:
            return int(np.prod(shape[:-2], dtype=np.int64)), int(shape[-1])
    return None, None


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, N, d, work, key]; parent -1 is a root
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []
        self.layers: list[Layer] = []

    def wrap(self, name: str, fn: Callable, work: Callable | None = None,
             key: Callable | None = None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            n, d = _input_shape(args)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, n, d, 1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[6] = work(args, result)
            if key is not None:
                span[7] = key(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer function that the package still has."""
        self.layers = []
        for layer in LAYERS:
            home = MODULES[layer.name.split(".")[0]]
            originals = [getattr(home, f) for f in layer.functions if hasattr(home, f)]
            if len(originals) != len(layer.functions):
                continue
            for fname, original in zip(layer.functions, originals):
                wrapped = self.wrap(layer.name, original, layer.work, layer.key)
                for module in MODULES.values():
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)
                        self._undo.append(lambda m=module, f=fname, o=original: setattr(m, f, o))
            self.layers.append(layer)
        preparers = getattr(bohr, "_PREPARERS", None)
        if isinstance(preparers, dict):
            for key, original in list(preparers.items()):
                preparers[key] = self.wrap(PREPARE.name, original)
                self._undo.append(lambda k=key, o=original: preparers.__setitem__(k, o))
            self.layers.append(PREPARE)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def summary(self, lo: int, hi: int) -> dict[str, dict]:
        """Per span name over spans[lo:hi]: calls, self_s, inclusive_s, work, keys."""
        child = [0.0] * (hi - lo)
        for span in self.spans[lo:hi]:
            if span[3] >= lo:
                child[span[3] - lo] += span[2] - span[1]
        out: dict[str, dict] = {}
        for i, (name, start, end, _, _, _, work, key) in enumerate(self.spans[lo:hi]):
            s = out.setdefault(name, _empty())
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            s["inclusive_s"] += end - start
            s["work"] += work
            s["keys"].add(key)
        return out

    def layer_metrics(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float]]:
        """(measured metrics, exact counts) of the installed layers over spans[lo:hi]."""
        stats = self.summary(lo, hi)
        measured: dict[str, float] = {}
        exact: dict[str, float] = {}
        for layer in self.layers:
            s = stats.get(layer.name, _empty())
            measured[f"{layer.name}.self_s"] = s["self_s"]
            if layer.count is not None:
                (exact if layer.exact else measured)[layer.count] = s["work"]
            if layer.key is not None:
                exact[f"{layer.name}.distinct_ratio"] = len(s["keys"]) / max(s["calls"], 1)
        if {"bohr.evaluate.calls", "bohr.prepare.calls"} <= exact.keys():
            exact["bohr.evaluate_per_prepare"] = (
                exact["bohr.evaluate.calls"] / max(exact["bohr.prepare.calls"], 1))
        return measured, exact


def _empty() -> dict:
    return {"calls": 0, "self_s": 0.0, "inclusive_s": 0.0, "work": 0, "keys": set()}
