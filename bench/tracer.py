"""Span recorder that wraps the library's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules at
each module attribute that binds it (``sym_eig`` is bound in ``eigen`` and
``perturb``, ``ratio_cut`` in ``graphs``, ``oracle`` and ``rounding``, and
so on), so calls between modules are seen too. ``uninstall`` puts the
originals back, which gives untraced runs the library's own call cost.

Spans (name, start, end, parent, instance) go into flat arrays while the
run lasts and are written out once at the end. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "ratiocut"
LAYERS = ("cli", "fileio", "graphs", "eigen", "certify", "perturb", "simplex", "rounding", "oracle")

# Not wrapped: canonical_json and format_float are per-value helpers that
# write_json and the eigenmap writer call once per number, and
# enumerate_partitions returns a generator, so a span around the call would
# time its creation and not the enumeration. Their time stays with the caller.
SKIP = {"fileio.canonical_json", "fileio.format_float", "oracle.enumerate_partitions"}

READS = ("fileio.read_edge_list", "fileio.read_partition")
WRITES = ("fileio.write_edge_list", "fileio.write_partition", "fileio.write_json")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.instance = array("q")
        self.instances: list[str] = []
        self.scales: list[float] = []  # per instance: wall seconds to reference seconds
        self.stack: list[int] = []
        self.errors = {layer: 0 for layer in LAYERS}
        # exceptions on their way out: id -> (exception, layers left, layers counted)
        self._passing: dict[int, tuple[BaseException, set[str], set[str]]] = {}
        self.counts = {"sym_eig.n3": 0, "sym_eig.max_n": 0, "sym_eig.repeats": 0,
                       "solve_lp.cells": 0, "kmeans.iterations": 0, "oracle.partitions": 0,
                       "fileio.bytes": 0}
        self._digests: set[bytes] = set()
        self._originals: dict[str, object] = {}
        self._wrappers: dict[int, object] = {}
        self._bindings: list[tuple[object, str, object]] = []

    # -- instances and spans ------------------------------------------------

    def begin_instance(self, name: str) -> None:
        self.instances.append(name)
        self.scales.append(1.0)
        self._digests = set()
        self._passing = {}

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.instance.append(len(self.instances) - 1)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def _error(self, layer: str, exc: BaseException) -> None:
        """Note that ``exc`` left a function of ``layer``.

        An exception counts against the layers it left once it reaches the
        CLI's top level (it leaves a root span or a direct child of one):
        ``cli.main`` then either raises it or turns it into a nonzero exit
        code, so it failed an operation. Exceptions that the library catches
        deeper down are control flow and do not count; for example the gap
        subcommand catches the InputError that gap_upper_bound_unweighted
        raises on every weighted graph. Each layer counts an exception once.
        """
        _, left, counted = self._passing.setdefault(id(exc), (exc, set(), set()))
        left.add(layer)
        if len(self.stack) <= 1:
            for name in left - counted:
                self.errors[name] += 1
            counted |= left

    def scale_instance(self, factor: float) -> None:
        """Report the current instance's span times scaled by ``factor``."""
        self.scales[-1] = factor

    # -- per-call work counters ---------------------------------------------

    def _before(self, qual: str, args, kwargs) -> None:
        if qual == "eigen.sym_eig":
            a = np.asarray(args[0] if args else kwargs["a"], dtype=float)
            n = a.shape[0]
            self.counts["sym_eig.n3"] += n ** 3
            self.counts["sym_eig.max_n"] = max(self.counts["sym_eig.max_n"], n)
            digest = hashlib.blake2b(np.ascontiguousarray(a).tobytes(), digest_size=16).digest()
            if digest in self._digests:
                self.counts["sym_eig.repeats"] += 1
            self._digests.add(digest)
        elif qual == "simplex.solve_lp":
            params = inspect.signature(self._originals[qual]).bind(*args, **kwargs).arguments
            rows = sum(np.atleast_2d(params[key]).shape[0] for key in ("a_ub", "a_eq")
                       if params.get(key) is not None)
            self.counts["solve_lp.cells"] += rows * np.size(params["c"])

    def _after(self, qual: str, args, kwargs, result) -> None:
        if qual == "rounding.kmeans_round":
            self.counts["kmeans.iterations"] += result.iterations
        elif qual == "oracle.min_ratio_cut_bruteforce":
            self.counts["oracle.partitions"] += result.partitions_examined
        elif qual in READS or qual in WRITES:
            path = args[0] if args else kwargs["path"]
            self.counts["fileio.bytes"] += os.path.getsize(path)

    def _wrap(self, fn, qual: str):
        name_id = len(self.names)
        self.names.append(qual)
        layer = qual.split(".")[0]
        hooked = qual in ("eigen.sym_eig", "simplex.solve_lp")
        tracked = qual in ("rounding.kmeans_round", "oracle.min_ratio_cut_bruteforce") + READS + WRITES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hooked:
                self._before(qual, args, kwargs)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid)
                self._error(layer, exc)
                raise
            self._close(sid)
            if tracked:
                self._after(qual, args, kwargs, result)
            return result

        return traced

    # -- installing the wrappers --------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever it is bound."""
        if not self._originals:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for attr, fn in vars(module).items():
                    qual = f"{layer}.{attr}"
                    if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                            and not attr.startswith("_") and qual not in SKIP):
                        self._originals[qual] = fn
                        self._wrappers[id(fn)] = self._wrap(fn, qual)
        self._bindings = []
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings = []

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int64),
            "instance": np.array(self.instance, dtype=np.int64),
        }

    def totals(self) -> tuple[dict[str, float], dict[str, float], dict[str, int], dict[str, float]]:
        """Inclusive seconds, self seconds and call count per function; self
        seconds per layer. Seconds are scaled by each span's instance factor."""
        a = self.arrays()
        dur = (a["end"] - a["start"]) * np.array(self.scales)[a["instance"]]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        excl = np.bincount(a["name"], weights=self_time, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        per_layer = {layer: 0.0 for layer in LAYERS}
        for i, qual in enumerate(self.names):
            per_layer[qual.split(".")[0]] += float(excl[i])
        return (
            {q: float(incl[i]) for i, q in enumerate(self.names)},
            {q: float(excl[i]) for i, q in enumerate(self.names)},
            {q: int(calls[i]) for i, q in enumerate(self.names)},
            per_layer,
        )

    def write(self, path: str) -> None:
        """Save every span (wall seconds) with the name and instance tables and
        each instance's reference-seconds factor (numpy .npz)."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            instances=np.array(json.dumps(self.instances)),
                            scales=np.array(self.scales), **self.arrays())
