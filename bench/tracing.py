"""Span tracing of the package's public functions, installed from outside.

The package modules import each other's functions by name
(``from .records import as_array``), so wrapping a function means rebinding
every module attribute that holds it: ``records.as_array`` (which ``ingest``
looks up), ``estimators.as_array``, ``comparators.as_array`` and so on.
:meth:`Tracer.install` finds those sites by identity in every loaded
``brokenrct`` module and restores them on :meth:`Tracer.uninstall`.

Spans (request, name, start, end, parent) are kept in memory and written out
once, at the end of the traced run.  Spans opened in worker processes are not
collected, so the study is traced with ``n_jobs=1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute, span name, counter hook); ``Class.fit`` wraps a method
TARGETS = (
    ("records", "read_csv", "records.read_csv", "validated"),
    ("records", "as_array", "records.as_array", "validated"),
    ("records", "validate_design", "records.validate_design", None),
    ("records", "cells_from_arrays", "records.cells_from_arrays", "ingested"),
    ("estimation", "fit_cell_params", "estimation.fit_cell_params", None),
    ("estimation", "estimate_pace", "estimation.estimate_pace", None),
    ("identify", "pace_identify", "identify.pace_identify", None),
    ("identify", "pace_denominators", "identify.pace_denominators", None),
    ("identify", "strata_proportions", "identify.strata_proportions", None),
    ("identify", "complier_survival", "identify.complier_survival", None),
    ("comparators", "tsls_survivors", "comparators.tsls_survivors", None),
    ("comparators", "itt_at_pp", "comparators.itt_at_pp", None),
    ("imputation", "impute_within_cells", "imputation.impute_within_cells", "imputed"),
    ("imputation", "pool_estimates", "imputation.pool_estimates", None),
    ("simulate", "generate", "simulate.generate", None),
    ("simulate", "true_pace", "simulate.true_pace", None),
    ("simulate", "run_study", "simulate.run_study", None),
    ("estimators", "PaceEstimator.fit", "estimators.fit", None),
    ("estimators", "TwoStageLeastSquares.fit", "estimators.fit", None),
    ("cli", "main", "cli.main", None),
)


def _count(counts: Counter, hook: str, args, result) -> None:
    if hook == "validated":      # as_array and read_csv validate every row they return
        counts["validated_rows"] += len(result)
    elif hook == "ingested":
        counts["ingest_calls"] += 1
        counts["ingest_rows"] += len(args[0])
    elif hook == "imputed":
        counts["imputed_datasets"] += len(result)


class Tracer:
    def __init__(self):
        self.spans = []          # [request, name, start, end, parent index]
        self.counts = Counter()
        self.request = 0
        self._stack = []
        self._rebound = []       # (owner, attribute, original)

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([self.request, name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][2:4] = (start, end)
            if hook:
                _count(counts, hook, args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, *_ in TARGETS:
            importlib.import_module(f"brokenrct.{module_name}")
        modules = [m for key, m in sys.modules.items()
                   if key == "brokenrct" or key.startswith("brokenrct.")]
        for module_name, attribute, name, hook in TARGETS:
            module = sys.modules[f"brokenrct.{module_name}"]
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._rebound.append((cls, method, original))
                setattr(cls, method, self._wrap(original, name, hook))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(original, name, hook)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._rebound.append((owner, key, original))
                        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._rebound):
            setattr(owner, key, original)
        self._rebound.clear()

    def self_times(self) -> dict:
        """Total self time per span name: duration minus child durations."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        for index, (_, name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[index]
        return dict(totals)

    def write(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [[r, n, round(s - origin, 9), round(e - origin, 9), p]
                for r, n, s, e, p in self.spans]
        with open(path, "w") as handle:
            json.dump({"fields": ["request", "name", "start_s", "end_s", "parent"],
                       "spans": rows}, handle)
