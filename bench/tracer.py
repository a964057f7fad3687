"""Span tracer for the benchmark worker.

``Tracer.install`` wraps every public function of the program's seven
modules at every binding through which the program reaches it: the module
attribute, each name bound elsewhere by ``from ... import``, the
``measures.MEASURES`` table, the package namespace, and
``SeededStream.uniforms`` on the class.  Each call records a span (name,
start, end, parent) plus one work count, kept in flat in-memory arrays and
written out once, at the end of the run, as an ``.npz`` file.

``layer_metrics`` turns a span file into per-operation self times and work
counts.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MODULES = ("cli", "simulation", "estimation", "confidence", "measures",
           "distributions", "checks")

CLOSED_FORMS = ("measures.weitzman_delta", "measures.matusita_rho",
                "measures.morisita_lambda", "measures.kl_lambda")
WRITERS = ("simulation.write_cells_csv", "simulation.write_figure_csvs",
           "simulation.write_summary_json")
SUITES = ("closed_form_anchors", "oracle_equivalence", "structural_properties",
          "quantile_accuracy", "distribution_laws")


def _size_of_first(*args, **kwargs):
    return int(np.size(args[0]))


def _size_of_x(a, b, x):
    return int(np.size(x))


def _uniform_count(stream, n):
    return int(n)


def _observations(result):
    return int(np.size(result))


def _bytes_written(result):
    paths = result if isinstance(result, list) else [result]
    return sum(Path(p).stat().st_size for p in paths)


#: Span name -> (count from the arguments, count from the result).
COUNTERS = {
    **{name: (_size_of_first, None) for name in CLOSED_FORMS},
    "distributions.regularized_incomplete_beta": (_size_of_x, None),
    "distributions.uniforms": (_uniform_count, None),
    "cli.read_sample_file": (None, _observations),
    **{name: (None, _bytes_written) for name in WRITERS},
}


class Tracer:
    """Records nested spans of wrapped calls in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextmanager
    def span(self, name: str):
        idx = len(self.end)
        self.name.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.work.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._intern(name)
        count_args, count_result = COUNTERS.get(name, (None, None))
        stack, ends, works = self._stack, self.end, self.work
        push, pop = stack.append, stack.pop
        add_name, add_parent, add_start, add_end, add_work = (
            self.name.append, self.parent.append, self.start.append,
            self.end.append, self.work.append)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_work(count_args(*args, **kwargs) if count_args else 0)
            add_end(0.0)
            push(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                pop()
            if count_result:
                works[idx] = count_result(result)
            return result

        return traced

    def _counting_quadrature(self, integrate_adaptive):
        """integrate_adaptive whose integrand adds its points to the span's work."""
        stack, works = self._stack, self.work

        @functools.wraps(integrate_adaptive)
        def counted(f, *args, **kwargs):
            idx = stack[-1]

            def g(x):
                works[idx] += int(np.size(x))
                return f(x)

            return integrate_adaptive(g, *args, **kwargs)

        return counted

    def install(self, package: str = "expoverlap") -> None:
        """Wrap the program's public functions at every binding."""
        modules = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
        wrapped = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                target = obj
                if f"{short}.{attr}" == "measures.integrate_adaptive":
                    target = self._counting_quadrature(obj)
                wrapped[obj] = self.wrap(target, f"{short}.{attr}")

        namespaces = [vars(m) for m in modules.values()]
        namespaces += [vars(importlib.import_module(package)), modules["measures"].MEASURES]
        for namespace in namespaces:
            for key, obj in list(namespace.items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    namespace[key] = wrapped[obj]

        stream_cls = modules["distributions"].SeededStream
        stream_cls.uniforms = self.wrap(stream_cls.uniforms, "distributions.uniforms")

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 work=np.frombuffer(self.work, dtype=np.int64))


class Spans:
    """A span file, with self times and per-name totals."""

    def __init__(self, path: Path) -> None:
        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name = data["name"]
            self.parent = data["parent"]
            duration = data["end"] - data["start"]
            self.work = data["work"]
        has_parent = self.parent >= 0
        children = np.bincount(self.parent[has_parent], weights=duration[has_parent],
                               minlength=duration.size)
        self.self_time = duration - children
        k = len(self.names)
        self._calls = np.bincount(self.name, minlength=k)
        self._self = np.bincount(self.name, weights=self.self_time, minlength=k)
        self._work = np.bincount(self.name, weights=self.work, minlength=k)

    def _ids(self, names) -> list[int]:
        return [self.names.index(n) for n in names if n in self.names]

    def calls(self, *names) -> int:
        return int(sum(self._calls[i] for i in self._ids(names)))

    def work_total(self, *names) -> int:
        return int(sum(self._work[i] for i in self._ids(names)))

    def self_s(self, *names) -> float:
        return float(sum(self._self[i] for i in self._ids(names)))

    def module_self_s(self, prefix: str, exclude=()) -> float:
        return self.self_s(*(n for n in self.names
                             if n.startswith(prefix) and n not in exclude))

    def calls_under(self, child: str, parent: str) -> int:
        """Calls of ``child`` made directly from ``parent``."""
        if child not in self.names or parent not in self.names:
            return 0
        c, p = self.names.index(child), self.names.index(parent)
        mask = (self.name == c) & (self.parent >= 0)
        return int(np.count_nonzero(self.name[self.parent[mask]] == p))


#: Per-layer metric -> unit, all per operation.
LAYER_UNITS = {
    "distributions.streams": "count",
    "distributions.uniforms": "count",
    "distributions.uniforms.self_s": "s",
    "distributions.sample_exponential.self_s": "s",
    "simulation.run_cell.self_s": "s",
    "measures.closed_form.calls": "count",
    "measures.closed_form.points": "count",
    "measures.closed_form.self_s": "s",
    "simulation.grade.self_s": "s",
    "simulation.write.self_s": "s",
    "simulation.write.bytes": "B",
    "distributions.f_quantile.calls": "count",
    "distributions.f_quantile.self_s": "s",
    "distributions.f_cdf.per_quantile": "count",
    "distributions.incomplete_beta.points": "count",
    "distributions.incomplete_beta.self_s": "s",
    "distributions.erlang_cdf.self_s": "s",
    "distributions.ks_statistic.self_s": "s",
    "measures.quadrature.calls": "count",
    "measures.quadrature.panels": "count",
    "measures.quadrature.self_s": "s",
    **{f"checks.{suite}.self_s": "s" for suite in SUITES},
    "estimation.self_s": "s",
    "confidence.self_s": "s",
    "cli.self_s": "s",
    "cli.read_sample_file.observations": "count",
    "cli.read_sample_file.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: Spans, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics over ``n_ops`` traced operations
    (``trace.overhead_s`` is left to the caller)."""
    quantiles = spans.calls("distributions.f_quantile")
    totals = {
        "distributions.streams": spans.calls("distributions.uniforms"),
        "distributions.uniforms": spans.work_total("distributions.uniforms"),
        "distributions.uniforms.self_s": spans.self_s("distributions.uniforms"),
        "distributions.sample_exponential.self_s":
            spans.self_s("distributions.sample_exponential"),
        "simulation.run_cell.self_s": spans.self_s("simulation.run_cell",
                                                   "simulation.run_study"),
        "measures.closed_form.calls": spans.calls(*CLOSED_FORMS),
        "measures.closed_form.points": spans.work_total(*CLOSED_FORMS),
        "measures.closed_form.self_s": spans.self_s(*CLOSED_FORMS,
                                                    "measures.overlap_quartet"),
        "simulation.grade.self_s": spans.self_s("simulation.compare_to_reference",
                                                "simulation.theoretical_vs_empirical"),
        "simulation.write.self_s": spans.self_s(*WRITERS),
        "simulation.write.bytes": spans.work_total(*WRITERS),
        "distributions.f_quantile.calls": quantiles,
        "distributions.f_quantile.self_s": spans.self_s("distributions.f_quantile",
                                                        "distributions.f_pdf"),
        "distributions.incomplete_beta.points":
            spans.work_total("distributions.regularized_incomplete_beta"),
        "distributions.incomplete_beta.self_s":
            spans.self_s("distributions.regularized_incomplete_beta"),
        "distributions.erlang_cdf.self_s": spans.self_s("distributions.erlang_cdf"),
        "distributions.ks_statistic.self_s": spans.self_s("distributions.ks_statistic"),
        "measures.quadrature.calls": spans.calls("measures.overlap_by_quadrature"),
        "measures.quadrature.panels": spans.work_total("measures.integrate_adaptive") / 15,
        "measures.quadrature.self_s": spans.self_s("measures.overlap_by_quadrature",
                                                   "measures.quartet_by_quadrature",
                                                   "measures.integrate_adaptive"),
        **{f"checks.{suite}.self_s": spans.self_s(f"checks.suite_{suite}")
           for suite in SUITES},
        "estimation.self_s": spans.module_self_s("estimation."),
        "confidence.self_s": spans.module_self_s("confidence."),
        "cli.self_s": spans.module_self_s("cli.", exclude=("cli.read_sample_file",)),
        "cli.read_sample_file.observations": spans.work_total("cli.read_sample_file"),
        "cli.read_sample_file.self_s": spans.self_s("cli.read_sample_file"),
    }
    metrics = {name: value / n_ops for name, value in totals.items()}
    metrics["distributions.f_cdf.per_quantile"] = (
        spans.calls_under("distributions.f_cdf", "distributions.f_quantile") / quantiles
        if quantiles else 0.0)
    return metrics
