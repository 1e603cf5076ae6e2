"""Span tracing for the traced run.

`Tracer.install()` replaces public functions at the module attribute their
caller looks them up through (``harness.weighted_sup_norm``,
``weighted.eval_jet1``, ``faadibruno.enumerate_composition_matrices``, ...)
with wrappers that record one span per call: name, start, end, parent span
and command id. Spans stay in memory until the run ends. `uninstall()` puts
the original attributes back. Nothing in the package itself is edited; the
traced run happens in its own process, so wrappers never reach the untraced
numbers.

Span names use the module that *defines* the function, so the same function
reached through two callers is one layer. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import time
from array import array
from pathlib import Path

import numpy as np

# (module whose attribute is replaced, attribute, span name): every lookup
# the benchmarked commands make into another layer
WRAPS = (
    ("cli", "main", "cli.main"),
    ("cli", "verify_lemma", "harness.verify_lemma"),
    ("cli", "verify_composite_bound", "harness.verify_composite_bound"),
    ("cli", "verify_rate", "harness.verify_rate"),
    ("cli", "write_json_report", "harness.write_json_report"),
    ("cli", "write_rate_csv", "harness.write_rate_csv"),
    ("cli", "weighted_remez", "minimax.weighted_remez"),
    ("harness", "weighted_sup_norm", "weighted.weighted_sup_norm"),
    ("harness", "multivariate_sobolev_norm", "weighted.multivariate_sobolev_norm"),
    ("harness", "composite_jet", "faadibruno.composite_jet"),
    ("harness", "composite_value", "faadibruno.composite_value"),
    ("harness", "remez_from_values", "minimax.remez_from_values"),
    ("harness", "bell_number", "combinatorics.bell_number"),
    ("harness", "eval_scalar", "expr.eval_scalar"),
    ("weighted", "weighted_sup_norm", "weighted.weighted_sup_norm"),
    ("weighted", "eval_jet1", "expr.eval_jet1"),
    ("weighted", "eval_scalar", "expr.eval_scalar"),
    ("weighted", "jetn_partials", "jets.jetn_partials"),
    ("minimax", "remez_from_values", "minimax.remez_from_values"),
    ("faadibruno", "composite_derivative_nd", "faadibruno.composite_derivative_nd"),
    ("faadibruno", "enumerate_partition_vectors", "combinatorics.enumerate_partition_vectors"),
    ("faadibruno", "enumerate_composition_matrices", "combinatorics.enumerate_composition_matrices"),
    ("faadibruno", "jetn_partials", "jets.jetn_partials"),
    ("faadibruno", "eval_jet1", "expr.eval_jet1"),
    ("faadibruno", "eval_scalar", "expr.eval_scalar"),
    # looked up at call time by `from .expr import ...` inside functions
    ("expr", "eval_jet1", "expr.eval_jet1"),
    ("expr", "eval_scalar", "expr.eval_scalar"),
)

# (metric, unit) in the order they are reported. Counts, bytes and seconds
# are per traced command, so runs of different lengths compare.
LAYER_METRICS = (
    ("weighted.weighted_sup_norm.calls", "count/cmd"),
    ("weighted.weighted_sup_norm.self_s", "s/cmd"),
    ("weighted.weighted_sup_norm.refined_ratio", "ratio"),
    ("weighted.integrand.array_calls", "count/cmd"),
    ("weighted.integrand.samples", "count/cmd"),
    ("weighted.integrand.scalar_calls", "count/cmd"),
    ("weighted.integrand.scalar_s", "s/cmd"),
    ("expr.eval_jet1.array_calls", "count/cmd"),
    ("expr.eval_jet1.scalar_calls", "count/cmd"),
    ("expr.eval_jet1.self_s", "s/cmd"),
    ("expr.eval_scalar.calls", "count/cmd"),
    ("expr.eval_scalar.self_s", "s/cmd"),
    ("cli.main.calls", "count"),  # traced commands, not per command
    ("cli.main.self_s", "s/cmd"),
    ("harness.write_json_report.self_s", "s/cmd"),
    ("harness.write_json_report.bytes", "B/cmd"),
    ("harness.write_rate_csv.self_s", "s/cmd"),
    ("faadibruno.composite_jet.array_calls", "count/cmd"),
    ("faadibruno.composite_jet.scalar_calls", "count/cmd"),
    ("faadibruno.composite_jet.self_s", "s/cmd"),
    ("faadibruno.composite_derivative_nd.calls", "count/cmd"),
    ("faadibruno.composite_derivative_nd.self_s", "s/cmd"),
    ("faadibruno.composite_value.self_s", "s/cmd"),
    ("combinatorics.enumerate_composition_matrices.calls", "count/cmd"),
    ("combinatorics.enumerate_composition_matrices.matrices", "count/cmd"),
    ("combinatorics.enumerate_composition_matrices.self_s", "s/cmd"),
    ("combinatorics.enumerate_partition_vectors.calls", "count/cmd"),
    ("combinatorics.enumerate_partition_vectors.self_s", "s/cmd"),
    ("combinatorics.bell_number.self_s", "s/cmd"),
    ("jets.jetn_partials.calls", "count/cmd"),
    ("jets.jetn_partials.points", "count/cmd"),
    ("jets.jetn_partials.self_s", "s/cmd"),
    ("weighted.multivariate_sobolev_norm.calls", "count/cmd"),
    ("weighted.multivariate_sobolev_norm.self_s", "s/cmd"),
    ("minimax.remez_from_values.calls", "count/cmd"),
    ("minimax.remez_from_values.self_s", "s/cmd"),
    ("minimax.remez_from_values.iterations", "count/cmd"),
    ("minimax.remez_from_values.converged_ratio", "ratio"),
    ("minimax.weighted_remez.calls", "count/cmd"),
    ("minimax.weighted_remez.self_s", "s/cmd"),
    ("minimax.polish_f.scalar_calls", "count/cmd"),
    ("minimax.polish_f.scalar_s", "s/cmd"),
    ("harness.verify_lemma.self_s", "s/cmd"),
    ("harness.verify_composite_bound.self_s", "s/cmd"),
    ("harness.verify_rate.self_s", "s/cmd"),
)


def _is_array(x) -> bool:
    return np.ndim(x) > 0


class Tracer:
    """In-memory span store plus the counters the wrappers keep."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.cmd = array("l")
        self.cmd_id = -1
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, prepare=None, finish=None):
        """`fn` recording one span per call.

        prepare(args, kwargs) -> (args, kwargs) runs before the call;
        finish(args, result) runs after it returns.
        """
        nid = self._name_id(name)
        start, end, parent, names, cmds = self.start, self.end, self.parent, self.name, self.cmd
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            cmds.append(tracer.cmd_id)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if finish is not None:
                finish(args, result)
            return result

        return traced

    # -- hooks -------------------------------------------------------------

    def _integrand(self, fn, name: str):
        """Wrap a callable passed into the package as span `name`, counting
        array calls, samples, scalar calls and the time of the scalar ones."""
        traced = self.wrap(fn, name)
        clock = time.perf_counter
        count = self.count

        def counted(x):
            if _is_array(x):
                count(name + ".array_calls")
                count(name + ".samples", np.size(x))
                return traced(x)
            t0 = clock()
            try:
                return traced(x)
            finally:
                count(name + ".scalar_calls")
                count(name + ".scalar_s", clock() - t0)

        return counted

    def _wrap_callable_arg(self, key: str, name: str):
        """A prepare hook that wraps the callable passed first (or as `key`)."""
        def prepare(args, kwargs):
            if args:
                return (self._integrand(args[0], name),) + args[1:], kwargs
            return args, dict(kwargs, **{key: self._integrand(kwargs[key], name)})
        return prepare

    def _hooks(self, span: str):
        """(prepare, finish) for the spans that keep extra counters."""
        count = self.count
        if span == "weighted.weighted_sup_norm":
            def finish(args, report):
                count(span + ".refined", bool(report.refined))
            return self._wrap_callable_arg("fn", "weighted.integrand"), finish
        if span == "minimax.weighted_remez":
            return self._wrap_callable_arg("f", "minimax.polish_f"), None
        if span == "expr.eval_jet1":
            def finish(args, result):
                count(span + (".array_calls" if _is_array(args[1].value) else ".scalar_calls"))
            return None, finish
        if span == "faadibruno.composite_jet":
            def finish(args, result):
                count(span + (".array_calls" if _is_array(args[2]) else ".scalar_calls"))
            return None, finish
        if span == "jets.jetn_partials":
            def finish(args, result):
                count(span + ".points", np.size(args[1][0]) if len(args[1]) else 0)
            return None, finish
        if span == "combinatorics.enumerate_composition_matrices":
            def finish(args, result):
                count(span + ".matrices", len(result))
            return None, finish
        if span == "minimax.remez_from_values":
            def finish(args, report):
                count(span + ".iterations", report.iterations)
                count(span + ".converged", bool(report.converged))
            return None, finish
        if span == "harness.write_json_report":
            def finish(args, path):
                count(span + ".bytes", Path(path).stat().st_size)
            return None, finish
        return None, None

    # -- install / uninstall -------------------------------------------------

    def install(self, package: str = "compose_approx") -> list[str]:
        """Wrap every entry of WRAPS; return the attributes that do not exist."""
        missing = []
        for module_name, attr, span in WRAPS:
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            prepare, finish = self._hooks(span)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span, prepare, finish))
        return missing

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.asarray(self.name, dtype=np.int64),
            "cmd": np.asarray(self.cmd, dtype=np.int64),
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time."""
        a = self.arrays()
        n = len(a["start"])
        k = len(self.names)
        if n == 0:
            return {}
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_time, minlength=k)
        return {
            name: {"calls": float(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write the spans (and their name table) as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """LAYER_METRICS from the spans and counters; see their units."""
        totals = self.totals()
        commands = max(totals.get("cli.main", {}).get("calls", 0.0), 1.0)
        out = {}
        for metric, unit in LAYER_METRICS:
            span, _, measure = metric.rpartition(".")
            stats = totals.get(span, {"calls": 0.0, "self_s": 0.0})
            if measure in ("calls", "self_s"):
                value = stats[measure]
            elif measure.endswith("_ratio"):
                numerator = self.counts.get(f"{span}.{measure[:-len('_ratio')]}", 0.0)
                value = numerator / stats["calls"] if stats["calls"] else 0.0
            else:
                value = float(self.counts.get(metric, 0.0))
            out[metric] = value / commands if unit.endswith("/cmd") else value
        return out
