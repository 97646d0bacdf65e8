"""Span recorder for the traced benchmark run.

``Tracer.install()`` rebinds every traced public function of ``parasitech``
to a wrapper that records one span (name, start, end, parent span, op id).
A function is rebound in every ``parasitech`` module that holds a reference
to it (``simulate.fit_evolution``, ``evolution.classify_with_test``, the
package re-exports, ...), so calls are caught whichever name the caller
uses. Spans stay in memory in flat arrays until ``totals()`` folds them.

Self time is a span's duration minus the durations of its child spans; in
one thread children nest inside their parent without overlapping, so that
sum is exactly the part of the interval the children cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# module -> public functions whose calls become spans named "<module>.<name>"
TRACED = {
    "io": ("parse_series_csv", "render_report"),
    "core": ("classify_with_test",),
    "evolution": (
        "fit_evolution",
        "fit_evolution_multi",
        "correlation_matrix",
        "build_report",
    ),
    "statkit": (
        "ols_simple",
        "ols_multi",
        "t_critical",
        "pearson",
        "descriptive",
        "zscore",
        "student_t_sf",
        "f_sf",
        "betainc",
    ),
    "logistic": ("fit_logistic", "forecast_series", "derive_power_law"),
    "simulate": ("simulate_pair", "monte_carlo_recovery"),
}
CONSTRUCTOR = "core.TechSeries"
ACCESSOR = "core.TechSeries.accessor"
ACCESSORS = ("times", "values", "log_values")


def _data_rows(path) -> int:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    body = [s for s in (x.strip() for x in lines) if s and not s.startswith("#")]
    return max(len(body) - 1, 0)  # minus the header


def _count_parse(counters, args, kwargs, result):
    # The file's own rows are counted in totals(), after the timed ops.
    counters["io.parsed_files"][result.path] += 1
    counters["io.rows_kept"] += result.parsed.n


def _count_render(counters, args, kwargs, result):
    counters["io.render_report.bytes"] += len(result)


def _count_alignment(counters, args, kwargs, result):
    host, parasite = args[:2]
    counters["evolution.aligned_years"] += result.n_paired
    counters["evolution.pairable_years"] += min(host.n, parasite.n)


def _count_k_bound(counters, args, kwargs, result):
    counters["logistic.k_at_bound"] += bool(result.k_at_bound)


def _count_failures(counters, args, kwargs, result):
    counters["simulate.replicate_failures"] += result.failures


# Counters read off a traced call's arguments and result after its span has
# closed, so the counting is not charged to the function's own time.
COUNTERS = {
    "io.parse_series_csv": _count_parse,
    "io.render_report": _count_render,
    "evolution.fit_evolution": _count_alignment,
    "logistic.fit_logistic": _count_k_bound,
    "simulate.monte_carlo_recovery": _count_failures,
}
COUNTER_NAMES = (
    "io.rows_kept",
    "io.render_report.bytes",
    "evolution.aligned_years",
    "evolution.pairable_years",
    "logistic.k_at_bound",
    "simulate.replicate_failures",
    "logistic.ols_probes",
)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.op_id = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._op = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._counters["io.parsed_files"] = Counter()
        # (owner, attribute, original, wrapper), found by the first install()
        self._bindings: list[tuple[object, str, object, object]] = []

    def _wrap(self, name, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self._names):
            self._names.append(name)
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        count = COUNTERS.get(name)
        counters = self._counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def _bind(self, owner, attr, value):
        self._bindings.append((owner, attr, owner.__dict__[attr], value))

    def install(self) -> None:
        """Rebind the traced functions; import ``parasitech`` modules first.

        The first call finds every reference to rebind; later calls after
        ``uninstall`` rebind the same wrappers, so switching is cheap.
        """
        if not self._bindings:
            self._find_bindings()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def _find_bindings(self) -> None:
        import parasitech
        from parasitech import core

        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "parasitech" or n.startswith("parasitech.")
        ]
        for mod_name, attrs in TRACED.items():
            home = getattr(parasitech, mod_name)
            for attr in attrs:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{mod_name}.{attr}", original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, key, wrapper)

        cls = core.TechSeries
        self._bind(cls, "__init__", self._wrap(CONSTRUCTOR, cls.__init__))
        for attr in ACCESSORS:
            member = cls.__dict__[attr]
            if isinstance(member, property):
                member = property(self._wrap(ACCESSOR, member.fget))
            else:
                member = self._wrap(ACCESSOR, member)
            self._bind(cls, attr, member)

    def totals(self) -> dict:
        """Calls and self seconds per span name, plus the counters.

        Reads each parsed file once, to count the rows it holds.
        """
        spans: dict[str, list[float]] = {}
        counters = dict(self._counters)
        files = counters.pop("io.parsed_files")
        counters["io.rows_read"] = sum(_data_rows(p) * k for p, k in files.items())
        counters["io.rows_dropped"] = counters["io.rows_read"] - counters.pop("io.rows_kept")
        n = len(self._name)
        if n:
            import numpy as np

            start = np.frombuffer(self._start, dtype=np.float64)
            dur = np.frombuffer(self._end, dtype=np.float64) - start
            parent = np.frombuffer(self._parent, dtype=np.int64)
            name = np.frombuffer(self._name, dtype=np.int32)
            nested = parent >= 0
            child = np.zeros(n)
            np.add.at(child, parent[nested], dur[nested])
            k = len(self._names)
            calls = np.bincount(name, minlength=k)
            self_sum = np.bincount(name, weights=dur - child, minlength=k)
            for i, span_name in enumerate(self._names):
                spans[span_name] = [int(calls[i]), float(self_sum[i])]
            # ols_simple spans opened directly by fit_logistic: its K probes
            fit = self._name_ids.get("logistic.fit_logistic")
            ols = self._name_ids.get("statkit.ols_simple")
            if fit is not None and ols is not None:
                is_ols = nested & (name == ols)
                counters["logistic.ols_probes"] = int(
                    np.count_nonzero(name[parent[is_ols]] == fit)
                )
        return {"spans": spans, "counters": counters}


def layer_metrics(totals: dict, n_ops: int) -> dict[str, float]:
    """Per-op layer metrics from ``Tracer.totals``; 0 where nothing ran."""
    spans, counters = totals["spans"], totals["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0))[0] / n_ops

    def self_ms(name):
        return spans.get(name, (0, 0.0))[1] * 1e3 / n_ops

    out: dict[str, float] = {}
    for name in [f"{m}.{a}" for m, attrs in TRACED.items() for a in attrs] + [CONSTRUCTOR]:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_ms"] = self_ms(name)
    out["core.TechSeries.accessor_calls"] = calls(ACCESSOR)
    out["core.TechSeries.accessor_ms"] = self_ms(ACCESSOR)
    for name in (
        "io.rows_read",
        "io.rows_dropped",
        "io.render_report.bytes",
        "logistic.k_at_bound",
        "simulate.replicate_failures",
    ):
        out[name] = counters[name] / n_ops
    pairable = counters["evolution.pairable_years"]
    out["evolution.aligned_kept_ratio"] = (
        counters["evolution.aligned_years"] / pairable if pairable else 0.0
    )
    fits = spans.get("logistic.fit_logistic", (0, 0.0))[0]
    probes = counters["logistic.ols_probes"]
    out["logistic.ols_probes_per_fit"] = probes / fits if fits else 0.0
    return out
