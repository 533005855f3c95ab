"""In-memory spans around the public functions of each sdred layer.

The program is not changed: :class:`Tracer` swaps each function listed in
:data:`LAYERS` for a wrapper while a call is traced and puts the original
back afterwards.  A span holds its id, name, start, end, parent span id and
thread id.  Per-layer totals (calls, self time, layer counters) are kept for
every span; the spans themselves are kept up to :data:`SPAN_CAP` and
written out when the benchmark ends.
"""

import contextlib
import csv
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
from time import perf_counter

# Stored spans per run; totals still count every span past the cap.  A
# traced verify-linear run makes millions of spans, too many to keep.
SPAN_CAP = 50_000

# Bytes the TV-prox dual loop must move per pixel and inner iteration at
# float64: read z, read the two dual components, write them back.  This is
# computed from array sizes, not measured, so cache misses do not show.
TV_PROX_BYTES_PER_PIXEL_ITER = 8 + 16 + 16


def _tv_prox_counters(agg, arguments, result):
    _, iters, resid = result
    pixels = arguments["z"].size
    agg["inner_iters"] += iters
    agg["capped"] += int(iters >= arguments["max_iters"] and resid >= arguments["tol"])
    agg["pixel_iters"] += pixels * iters


def _written_bytes(agg, arguments, result):
    agg["bytes"] += os.path.getsize(arguments["path"])


# (metric prefix, module under sdred, attribute path, counter hook).  Module
# functions are swapped in every sdred module that imported them by name;
# methods are swapped on the class that defines them.  Metric names must
# start with a letter, so sdred._kernels reports as "kernels".
LAYERS = (
    ("kernels.tv_prox_dual", "_kernels", "tv_prox_dual", _tv_prox_counters),
    ("operators.LinearOperator.forward", "operators", "LinearOperator.forward", None),
    ("operators.LinearOperator.adjoint", "operators", "LinearOperator.adjoint", None),
    ("operators.estimate_spectral_norm", "operators", "estimate_spectral_norm", None),
    ("objectives.DataFidelity.gradient", "objectives", "DataFidelity.gradient", None),
    ("objectives.DataFidelity.value", "objectives", "DataFidelity.value", None),
    ("objectives.AnisotropicTV.prox", "objectives", "AnisotropicTV.prox", None),
    ("objectives.AnisotropicTV.value", "objectives", "AnisotropicTV.value", None),
    ("objectives.L1Norm.prox", "objectives", "L1Norm.prox", None),
    ("objectives.L1Norm.value", "objectives", "L1Norm.value", None),
    ("priors.ProximalPrior.apply", "priors", "ProximalPrior.apply", None),
    ("priors.LinearPrior.apply", "priors", "LinearPrior.apply", None),
    ("priors.MismatchedPrior.apply", "priors", "MismatchedPrior.apply", None),
    ("priors.MismatchedPrior.offset", "priors", "MismatchedPrior.offset", None),
    ("solver.run_sd_red", "solver", "run_sd_red", None),
    ("solver.residual", "solver", "residual", None),
    ("solver.reference_zero", "solver", "reference_zero", None),
    ("theory.verify_theorem1_trace", "theory", "verify_theorem1_trace", None),
    ("theory.verify_theorem2_trace", "theory", "verify_theorem2_trace", None),
    ("theory.verify_theorem4_trace", "theory", "verify_theorem4_trace", None),
    ("families.make_linear_contraction_instance", "families",
     "make_linear_contraction_instance", None),
    ("families.make_prox_l1_instance", "families", "make_prox_l1_instance", None),
    ("families.make_linear_sweep_cell", "families", "make_linear_sweep_cell", None),
    ("families.prox_gradient_reference", "families", "prox_gradient_reference", None),
    ("metrics.psnr", "metrics", "psnr", None),
    ("metrics.ssim", "metrics", "ssim", None),
    ("io.write_trace_csv", "io", "write_trace_csv", _written_bytes),
    ("io.write_bound_report_csv", "io", "write_bound_report_csv", _written_bytes),
)


def _new_totals():
    return {"calls": 0, "self_s": 0.0, "total_s": 0.0, "inner_iters": 0, "capped": 0,
            "pixel_iters": 0, "bytes": 0}


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames [span id, seconds covered by child spans]
        self.totals = {}


class Tracer:
    """Collects spans and per-layer totals from every thread that calls a layer."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._ids = itertools.count()
        self.spans = []
        self._targets = []
        self.missing = []  # layers the program no longer has; they report zeros
        self.unreadable = set()  # layers whose counters no longer match the program
        for layer in LAYERS:
            try:
                self._targets.append(self._resolve(*layer))
            except (ImportError, AttributeError):
                self.missing.append(layer[0])

    @staticmethod
    def _resolve(name, module, path, hook):
        owner = importlib.import_module("sdred." + module)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        fn = getattr(owner, attr)
        sig = inspect.signature(fn) if hook is not None else None
        return name, owner, attr, fn, hook, sig

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append(state)
        return state

    def _wrap(self, name, fn, hook, sig):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            frame = [next(tracer._ids), 0.0]
            parent = state.stack[-1][0] if state.stack else None
            state.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                state.stack.pop()
                duration = end - start
                if state.stack:
                    state.stack[-1][1] += duration
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = _new_totals()
                totals["calls"] += 1
                totals["self_s"] += duration - frame[1]
                totals["total_s"] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (frame[0], name, start, end, parent, threading.get_ident())
                    )
            if hook is not None:
                try:
                    hook(totals, sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, ValueError):
                    tracer.unreadable.add(name)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer function for its traced wrapper until the block exits."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sdred" or n.startswith("sdred."))]
        saved = []
        try:
            for name, owner, attr, fn, hook, sig in self._targets:
                wrapper = self._wrap(name, fn, hook, sig)
                if isinstance(owner, type):
                    saved.append((owner, attr, owner.__dict__.get(attr, fn)))
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, key, value))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def totals(self):
        """Per-layer totals summed over threads, with a zero row for uncalled layers."""
        merged = {name: _new_totals() for name, *_ in LAYERS}
        for state in self._states:
            for name, row in state.totals.items():
                for key, value in row.items():
                    merged[name][key] += value
        return merged

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start", "end", "parent", "thread"))
            for span_id, name, start, end, parent, thread in self.spans:
                writer.writerow((span_id, name, repr(start), repr(end),
                                 "" if parent is None else parent, thread))
