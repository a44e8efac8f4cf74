"""Outside-in span tracer for the ncopt modules.

The solvers bind kernels by name (``from ncopt.linalg import
leftmost_eigenpair``), so a public function is wrapped in every ``ncopt``
module that holds a reference to it, and class methods are wrapped on the
class that defines them.  `Tracer.installed()` patches and always restores
the originals.  Each span records its name, start, end, parent and an
optional note taken from the call (matrix size, batch rows, CG outcome).
Spans stay in memory until `write_csv` is called at the end of a run.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import sys
import time
from collections import defaultdict

_NONPOSITIVE = ("nonpositive_curvature", "nonpositive_curvature_first_iteration")


def _matrix_size(args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    return int(H.shape[0])


def _batch_rows(args, kwargs, result):
    indices = args[2] if len(args) > 2 else kwargs["indices"]
    return len(indices)


def _cg_outcome(args, kwargs, result):
    return (result.iterations_used, result.status.value in _NONPOSITIVE)


# span name -> (module, attribute, note); functions are patched wherever bound
FUNCTIONS = {
    "linalg.leftmost_eigenpair": ("ncopt.linalg", "leftmost_eigenpair", _matrix_size),
    "linalg.modified_newton_shift": ("ncopt.linalg", "modified_newton_shift", None),
    "linalg.symmetric_extreme_eigenvalues":
        ("ncopt.linalg", "symmetric_extreme_eigenvalues", None),
    "linalg.truncated_cg": ("ncopt.linalg", "truncated_cg", _cg_outcome),
    "steps.descent_direction": ("ncopt.steps", "descent_direction", None),
    "steps.optimal_stepsizes": ("ncopt.steps", "optimal_stepsizes", None),
    "steps.certify_curvature_direction":
        ("ncopt.steps", "certify_curvature_direction", None),
    "deterministic.dynamic_solve": ("ncopt.deterministic", "dynamic_solve", None),
    "stochastic.dynamic_stochastic_solve":
        ("ncopt.stochastic", "dynamic_stochastic_solve", None),
    "stochastic.two_step_stochastic_solve":
        ("ncopt.stochastic", "two_step_stochastic_solve", None),
    "stochastic.curvature_noise_step": ("ncopt.stochastic", "curvature_noise_step", None),
    "harness.campaign": ("ncopt.harness", "campaign", None),
    "harness.run_experiment": ("ncopt.harness", "run_experiment", None),
    "harness.write_report_json": ("ncopt.harness", "write_report_json", None),
    "harness.write_trace_csv": ("ncopt.harness", "write_trace_csv", None),
}

# span name -> (module, class, methods, note); subclasses that override a
# method get it wrapped too
METHODS = {
    "problems.evaluate": ("ncopt.problems", "ObjectiveProblem", ("evaluate",), None),
    "problems.gradient": ("ncopt.problems", "ObjectiveProblem", ("gradient",), None),
    "problems.hessian": ("ncopt.problems", "ObjectiveProblem", ("hessian",), None),
    "finite_sum.batch_value":
        ("ncopt.finite_sum", "FiniteSumProblem", ("batch_value",), _batch_rows),
    "finite_sum.batch_gradient":
        ("ncopt.finite_sum", "FiniteSumProblem", ("batch_gradient",), _batch_rows),
    "finite_sum.batch_hessian":
        ("ncopt.finite_sum", "FiniteSumProblem", ("batch_hessian",), _batch_rows),
    "finite_sum.oracle": ("ncopt.finite_sum", "StochasticOracle",
                          ("next_gradient_batch", "next_hessian_batch",
                           "next_value_batch", "next_omega"), None),
}

# ObjectiveProblem method -> the counter it increments
COUNTED = {"evaluate": "evaluation_count", "gradient": "gradient_count",
           "hessian": "hessian_count"}

SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS)


def _class_and_overrides(cls):
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class Tracer:
    """Records spans around calls into the ncopt modules.

    Also counts, per ObjectiveProblem instance, the evaluate/gradient/hessian
    calls it saw, so `counter_mismatches` can compare them with the
    instance's own counters.
    """

    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent, note)
        self._stack = []
        self._instances = {}     # id -> [problem, baselines, traced counts]

    def _wrap(self, fn, name, note=None, counted=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counted is not None:
                self._count(args[0], counted)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    extra = note(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, extra)

        return traced

    def _count(self, problem, counter):
        entry = self._instances.get(id(problem))
        if entry is None or entry[0] is not problem:
            baselines = {c: getattr(problem, c) for c in COUNTED.values()}
            entry = [problem, baselines, dict.fromkeys(COUNTED.values(), 0)]
            self._instances[id(problem)] = entry
        entry[2][counter] += 1

    def counter_mismatches(self):
        """Instances whose own counters moved differently from the traced
        call counts since they were first seen; clears the registry."""
        bad = []
        for problem, baselines, traced in self._instances.values():
            for counter, calls in traced.items():
                moved = getattr(problem, counter) - baselines[counter]
                if moved != calls:
                    bad.append("%s.%s: counter moved %d, traced %d calls"
                               % (problem.name, counter, moved, calls))
        self._instances.clear()
        return bad

    @contextlib.contextmanager
    def installed(self, extra=()):
        """Patch every traced function and method, plus each
        (holder, attribute, span name) in `extra`; restore on exit."""
        restore = []
        try:
            for holder, attr, name in extra:
                original = getattr(holder, attr)
                restore.append((holder, attr, original))
                setattr(holder, attr, self._wrap(original, name))
            modules = [m for n, m in list(sys.modules.items())
                       if n == "ncopt" or n.startswith("ncopt.")]
            for name, (module, attr, note) in FUNCTIONS.items():
                original = getattr(sys.modules[module], attr)
                traced = self._wrap(original, name, note)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, key, value))
                            setattr(holder, key, traced)
            for name, (module, cls_name, methods, note) in METHODS.items():
                base = getattr(sys.modules[module], cls_name)
                for cls in _class_and_overrides(base):
                    for method in methods:
                        if method not in vars(cls):
                            continue
                        original = vars(cls)[method]
                        counted = COUNTED.get(method) if cls is base else None
                        restore.append((cls, method, original))
                        setattr(cls, method, self._wrap(original, name, note, counted))
            yield self
        finally:
            for holder, key, value in reversed(restore):
                setattr(holder, key, value)

    def layer_totals(self):
        """Per span name: calls, total and self seconds, and the notes."""
        child = defaultdict(int)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for index, (name, start, end, _, note) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "total_s": 0.0,
                                             "self_s": 0.0, "notes": []})
            entry["calls"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += (end - start - child[index]) * 1e-9
            if note is not None:
                entry["notes"].append((note, (end - start) * 1e-9))
        return totals

    def write_csv(self, path):
        origin = self.spans[0][1] if self.spans else 0
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_ns", "end_ns", "parent", "note"])
            for index, (name, start, end, parent, note) in enumerate(self.spans):
                writer.writerow([index, name, start - origin, end - origin, parent,
                                 "" if note is None else note])
        return path
