"""Spans around the library's public entry points, installed from outside.

``Tracer.installed()`` replaces public functions and methods of the
``space``, ``mlp``, ``forest``, ``calibration``, ``kde``, ``maximizers`` and
``loop`` modules with timing wrappers, and puts the originals back on exit.
Nothing under ``src/`` is edited. A wrapper only calls through, so a traced
run consumes the same random numbers and produces the same trace as an
untraced one; the benchmark checks that byte for byte.

A span records its name, start, end, parent span and run id. Spans are kept
in memory (``array`` columns) and written once, by ``Tracer.write``. Self
time is a span's duration minus the time its direct child spans cover;
totals, self times, call counts and counters are also summed as spans close,
so the per-layer metrics need no pass over the span arrays.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

__all__ = ["Tracer"]

# spans that score acquisition points; those opened directly under
# maximizers.suggest count as acquisition evaluations
SCORING_SPANS = ("mlp.predict", "forest.predict", "calibration.predict")

MAXIMIZER_FUNCTIONS = {
    "maximize_gradient_multistart": "gradient_multistart",
    "maximize_de": "differential_evolution",
    "maximize_random_search": "random_search",
}


def _one(*_args, **_kwargs) -> int:
    return 1


def _rows(_self, X, *_args, **_kwargs) -> int:
    return int(np.atleast_2d(np.asarray(X)).shape[0])


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = -1
        self._stack: list[list] = []  # [span index, name, start, child seconds]
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    # --- spans -------------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        t = perf_counter()
        self.start.append(t - self.t0)
        self._stack.append([index, name, t, 0.0])

    def _close(self, points: int) -> None:
        t = perf_counter()
        index, name, start, child_s = self._stack.pop()
        self.end[index] = t - self.t0
        dur = t - start
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        self.calls[name] += 1
        self.counts[name + ".points"] += points
        if self._stack:
            parent = self._stack[-1]
            parent[3] += dur
            if parent[1] == "maximizers.suggest" and name in SCORING_SPANS:
                self.counts["maximizers.acq_evals"] += points

    def span(self, name: str, fn, points=_one, before=None):
        """``fn`` wrapped in a span; a call made inside a span of the same
        name (``predict_batch`` looping over ``predict``) is not a new span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][1] == name:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(points(*args, **kwargs))

        return wrapper

    def counter(self, key: str, fn):
        """``fn`` wrapped so that each call adds one to ``counts[key]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- installation ------------------------------------------------------

    def _suggest_budget(self, _classifier, _space, budget, *_args, **_kwargs) -> None:
        self.counts["maximizers.max_evals"] += budget.max_evals

    def _forest_trees(self, forest, *_args, **_kwargs) -> None:
        self.counts["forest.fit.trees"] += forest.config.n_trees

    def _patches(self):
        """(owner, attribute, replacement) for every wrapped entry point."""
        from borekit import calibration, forest, kde, loop, maximizers, mlp, space

        assign = self.span("space.assign_labels", space.assign_labels)
        suggest = self.span("maximizers.suggest", maximizers.suggest, before=self._suggest_budget)
        tpe_suggest = self.span("kde.tpe_suggest", kde.tpe_suggest)
        platt_fit = self.span("calibration.fit", calibration.platt_fit)
        isotonic_fit = self.span("calibration.fit", calibration.isotonic_fit)
        mlp_cls, forest_cls = mlp.MlpClassifier, forest.ForestClassifier
        calibrated_cls = calibration.CalibratedClassifier
        patches = [
            (space, "assign_labels", assign),
            (loop, "assign_labels", assign),
            (kde, "assign_labels", assign),
            (loop, "bore_step", self.span("loop.bore_step", loop.bore_step)),
            (loop, "suggest", suggest),
            (maximizers, "suggest", suggest),
            (loop, "tpe_suggest", tpe_suggest),
            (kde, "tpe_suggest", tpe_suggest),
            (kde.Kde, "pdf_batch", self.span("kde.pdf_batch", kde.Kde.pdf_batch, _rows)),
            (mlp_cls, "fit", self.span("mlp.fit", mlp_cls.fit)),
            (mlp_cls, "gradient", self.counter("mlp.adam_steps", mlp_cls.gradient)),
            (mlp_cls, "predict", self.span("mlp.predict", mlp_cls.predict)),
            (mlp_cls, "predict_batch", self.span("mlp.predict", mlp_cls.predict_batch, _rows)),
            (mlp_cls, "input_gradient", self.span("mlp.input_gradient", mlp_cls.input_gradient)),
            (forest_cls, "fit", self.span("forest.fit", forest_cls.fit, before=self._forest_trees)),
            (forest_cls, "predict", self.span("forest.predict", forest_cls.predict)),
            (forest_cls, "predict_batch", self.span("forest.predict", forest_cls.predict_batch, _rows)),
            (forest_cls, "oob_scores", self.span("forest.oob_scores", forest_cls.oob_scores)),
            (calibration, "platt_fit", platt_fit),
            (forest, "platt_fit", platt_fit),
            (calibration, "isotonic_fit", isotonic_fit),
            (forest, "isotonic_fit", isotonic_fit),
            (calibrated_cls, "predict", self.span("calibration.predict", calibrated_cls.predict)),
            (calibrated_cls, "predict_batch",
             self.span("calibration.predict", calibrated_cls.predict_batch, _rows)),
        ]
        for fn_name, method in MAXIMIZER_FUNCTIONS.items():
            original = getattr(maximizers, fn_name)
            patches.append((maximizers, fn_name,
                            self.counter(f"maximizers.{method}.calls", original)))
        return patches

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library's entry points for the duration of the block."""
        patches = self._patches()
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, replacement in patches:
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def objective(self, fn):
        """The problem's objective, timed as the loop's evaluate step."""
        return self.span("loop.evaluate", fn)

    # --- output ------------------------------------------------------------

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 run=np.frombuffer(self.run, dtype=np.int32))
