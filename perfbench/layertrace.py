"""Span tracing of algseries layers from outside the program.

``Tracer.install()`` replaces the public functions of each layer with
wrappers that record a span (name, start, end, parent, job) in memory: the
module attributes the callers look up, and methods of TruncSeries1 and DFAO.
``uninstall()`` puts the originals back.  Nothing in ``src/`` changes.

Some spans also carry a count: the schoolbook coefficient products of a
series product or inverse, computed from the operand orders (not counted
inside the program), or the number of states a closure built.
"""

import json
import sys
import time


def _mul_products(args, result):
    n = min(args[0].order, args[1].order)
    return (n + 1) * (n + 2) // 2


def _mul_poly_products(args, result):
    order, deg = args[0].order, len(args[1].coeffs) - 1
    return sum(order + 1 - k for k in range(min(deg, order) + 1))


def _inverse_products(args, result):
    n = args[0].order
    return n * (n + 1) // 2


def _states(args, result):
    return result.n_states


# (span name, module, attribute, count); each module attribute is replaced
# wherever an algseries module has it bound, so every caller sees the wrapper.
FUNCTIONS = [
    ("extract.fs_coefficients", "algseries.extract", "fs_coefficients", None),
    ("extract.fixed_point_coefficients", "algseries.extract",
     "fixed_point_coefficients", None),
    ("series.series_expand_ratio", "algseries.algebra.series",
     "series_expand_ratio", None),
    ("roots.hensel_root", "algseries.roots", "hensel_root", None),
    ("roots.attach_outputs", "algseries.roots", "attach_outputs", None),
    ("roots.spot_check_closure", "algseries.roots", "spot_check_closure", None),
    ("roots.cartier_closure", "algseries.roots", "cartier_closure", _states),
    ("roots.frobenius_from_poly", "algseries.roots", "frobenius_from_poly", None),
    ("cartier.rational_kernel", "algseries.cartier", "rational_kernel", _states),
    ("annihilator.frobenius_relation", "algseries.annihilator",
     "frobenius_relation", None),
    ("annihilator.null_left_vector", "algseries.annihilator",
     "null_left_vector", None),
    ("exprparse.parse_poly", "algseries.exprparse", "parse_poly", None),
    ("cli.io", "algseries.cli", "_atomic_write", None),
    ("cli.io", "algseries.automaton", "to_json", None),
    ("cli.io", "algseries.automaton", "from_json", None),
    ("cli.io", "algseries.automaton", "export_dot", None),
]

# (span name, module, class, method, count)
METHODS = [
    ("series.TruncSeries1.mul", "algseries.algebra.series", "TruncSeries1",
     "__mul__", _mul_products),
    ("series.TruncSeries1.mul", "algseries.algebra.series", "TruncSeries1",
     "mul_poly", _mul_poly_products),
    ("series.TruncSeries1.inverse", "algseries.algebra.series", "TruncSeries1",
     "inverse", _inverse_products),
    ("automaton.minimize", "algseries.automaton", "DFAO", "minimize", None),
    ("automaton.run", "algseries.automaton", "DFAO", "run_raw", None),
]

LAYERS = sorted({name for name, *_ in FUNCTIONS + METHODS})

# The per-layer metrics a traced run reports: (layer, kind), where kind is
# "ms" (self time, rescaled), "calls", or the span count ("products" or
# "states").
METRICS = [
    ("extract.fs_coefficients", "ms"), ("extract.fs_coefficients", "calls"),
    ("extract.fixed_point_coefficients", "ms"),
    ("extract.fixed_point_coefficients", "calls"),
    ("series.series_expand_ratio", "ms"), ("series.series_expand_ratio", "calls"),
    ("series.TruncSeries1.mul", "ms"), ("series.TruncSeries1.mul", "calls"),
    ("series.TruncSeries1.mul", "products"),
    ("series.TruncSeries1.inverse", "ms"), ("series.TruncSeries1.inverse", "calls"),
    ("series.TruncSeries1.inverse", "products"),
    ("roots.hensel_root", "ms"),
    ("roots.attach_outputs", "ms"), ("roots.spot_check_closure", "ms"),
    ("roots.cartier_closure", "ms"), ("roots.cartier_closure", "states"),
    ("roots.frobenius_from_poly", "ms"),
    ("cartier.rational_kernel", "ms"), ("cartier.rational_kernel", "states"),
    ("annihilator.frobenius_relation", "ms"),
    ("annihilator.null_left_vector", "ms"), ("annihilator.null_left_vector", "calls"),
    ("automaton.minimize", "ms"), ("automaton.run", "ms"),
    ("exprparse.parse_poly", "ms"), ("cli.io", "ms"),
]


class Tracer:
    """Spans of the current process, kept in memory until ``write``."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, job, count]
        self._stack = []
        self._patches = []
        self.job = -1

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    span[5] = count(args, result)
                return result
            finally:
                stack.pop()
                span[2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "algseries" or key.startswith("algseries.")]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, method, count in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(name, original, count))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def record(self, name, start, end):
        """Add a finished span (not a layer) under the open span."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1,
                           self.job, 0])

    def job_span(self, job):
        """Open the root span of one CLI job; returns a closer."""
        self.job = job
        span = ["job", time.perf_counter(), 0.0, -1, job, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)

        def close():
            self._stack.pop()
            span[2] = time.perf_counter()
            self.job = -1
        return close

    def layer_totals(self, first_span, factors):
        """{layer: [ms, calls, count]} over spans from ``first_span`` on.

        Self time is a span's duration minus its children's; ``factors[job]``
        rescales the seconds of each job to the reference speed.
        """
        spans = self.spans
        child = [0.0] * (len(spans) - first_span)
        for idx in range(first_span, len(spans)):
            parent = spans[idx][3]
            if parent >= first_span:
                child[parent - first_span] += spans[idx][2] - spans[idx][1]
        totals = {name: [0.0, 0, 0] for name in LAYERS}
        for idx in range(first_span, len(spans)):
            name, start, end, _, job, count = spans[idx]
            if name not in totals:  # job and probe spans
                continue
            entry = totals[name]
            entry[0] += (end - start - child[idx - first_span]) * factors[job] * 1000
            entry[1] += 1
            entry[2] += count
        return totals

    def write(self, path, meta):
        """Write every span once, as JSON; start and end are perf_counter s."""
        doc = dict(meta, fields=["name", "start", "end", "parent", "job", "count"],
                   spans=self.spans)
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))
