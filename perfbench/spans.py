"""Outside-in tracing of the socsamp modules for the benchmark's traced run.

The tracer replaces, in each socsamp module's namespace, the functions that
module calls across a module boundary (plus a few named calls inside
``harness`` and ``analysis``) with wrappers that record a span: name, start,
end and the index of the enclosing span.  Spans stay in memory until the
benchmark writes them out.  A span is named ``<module>.<function>`` after the
module that defines the function, and that module is the span's layer.

Nothing under ``src/`` is edited: the wrappers are installed from outside and
only in the traced process.  Spans recorded in process-pool children are
lost, so the traced run uses one worker.
"""

from __future__ import annotations

import inspect
import os
import time

MODULES = ("cli", "harness", "dynamics", "sampling", "network", "state", "analysis")

# Named calls made inside one module; every public cross-module call is
# wrapped as well.
SAME_MODULE_CALLS = {
    "harness": ("run_trials", "write_trace", "audit_assumptions", "report_text"),
    "analysis": ("lyapunov_solve", "normality_test", "empirical_scaled_covariance"),
}


class Tracer:
    """In-memory span recorder plus the counters measured at the same calls.

    With ``count_flops`` the weight matrices are also wrapped to count their
    products.  That costs a Python call per product, which would inflate the
    step loop's self time, so the benchmark counts in a separate call.
    """

    def __init__(self, count_flops=False):
        self.count_flops = count_flops
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {
            "sampling.message_uniform_panel.bytes": 0,
            "harness.write_trace.bytes": 0,
            "harness.report_bytes": 0,
            "analysis.lyapunov_dim": 0,
            "dynamics.matmul_flops": 0,
        }

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def install(self, package):
        """Wrap every cross-module call of the package's modules.

        Returns the wrapped ``cli.main`` to be called as the root span.
        """
        modules = {name: getattr(package, name) for name in MODULES}
        hooks = self._hooks()
        for short, module in modules.items():
            names = set(SAME_MODULE_CALLS.get(short, ()))
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__.startswith(package.__name__ + ".")
                    and value.__module__ != module.__name__
                ):
                    names.add(attr)
            for attr in sorted(names):
                fn = getattr(module, attr)
                span = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                setattr(module, attr, self.wrap(span, fn, hooks.get(span)))
        return self.wrap("cli.main", modules["cli"].main)

    def _hooks(self):
        counts = self.counts
        weight_array = _weight_array_type(self)

        def uniform_panel(args, kwargs, panel):
            counts["sampling.message_uniform_panel.bytes"] += panel.size * 8
            return panel

        def trace_file(args, kwargs, result):
            counts["harness.write_trace.bytes"] += os.path.getsize(args[1])
            return result

        def report(args, kwargs, text):
            counts["harness.report_bytes"] += len(text.encode("utf-8"))
            return text

        def lyapunov(args, kwargs, s):
            counts["analysis.lyapunov_dim"] = max(counts["analysis.lyapunov_dim"], len(s))
            return s

        def weights(args, kwargs, w):
            return w.view(weight_array)

        def config(args, kwargs, cfg):
            model = cfg.weight_model
            support = tuple(w.view(weight_array) for w in model.support)
            object.__setattr__(model, "support", support)
            return cfg

        hooks = {
            "sampling.message_uniform_panel": uniform_panel,
            "harness.write_trace": trace_file,
            "harness.report_text": report,
            "analysis.lyapunov_solve": lyapunov,
        }
        if self.count_flops:
            hooks["network.sample_weight_matrix"] = weights
            hooks["harness.load_config"] = config
        return hooks


def _weight_array_type(tracer):
    """ndarray view type for weight matrices that counts their products.

    Each ``w @ x`` taken directly in the step loop (the innermost span is
    ``dynamics.run_trial``) adds ``2 * rows(w) * cols(w) * cols(x)`` to
    ``dynamics.matmul_flops``.  ``w - wbar`` stays a weight view so its
    products count too; every other result is a plain ndarray, so the
    arithmetic and its bits are those of the untraced run.
    """

    import numpy as np  # here, so that run.py can import MODULES without numpy

    class WeightArray(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, WeightArray) else x
                     for x in inputs]
            if "out" in kwargs:
                kwargs["out"] = tuple(
                    x.view(np.ndarray) if isinstance(x, WeightArray) else x
                    for x in kwargs["out"]
                )
            result = getattr(ufunc, method)(*plain, **kwargs)
            if method != "__call__":
                return result
            if ufunc is np.matmul and isinstance(inputs[0], WeightArray):
                if tracer.current() == "dynamics.run_trial":
                    left, right = plain[0], np.asarray(plain[1])
                    cols = right.shape[-1] if right.ndim > 1 else 1
                    tracer.counts["dynamics.matmul_flops"] += 2 * left.size * cols
                return result
            if ufunc is np.subtract and isinstance(inputs[0], WeightArray):
                return result.view(WeightArray)
            return result

    return WeightArray


def self_times(spans):
    """Per-span self time: duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_of(name):
    return name.split(".", 1)[0]
