"""Outside-in span tracer for the zogreedy package.

Layers are the package's modules.  Each traced name is wrapped from outside
the package: a module-level function is replaced at every module that holds
a reference to it (the defining module and every ``from .x import name``
site), a method is replaced on its defining class.  A name that does not
exist in the code under test is reported as absent, so refactors that merge
or rename functions leave the benchmark running.

Spans are aggregated in memory per (parent, name) edge and written once by
the caller at the end of the pass.  Self time of a span is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

PACKAGE = "zogreedy"

# layer -> traced names; names with children in the call tree also report
# total time (the leaf names report calls and self time only).
SPANS = {
    "algorithms": ["bcg", "dbg", "scg", "ga", "zga"],
    "estimators": ["batch_grad", "discrete_batch_grad", "momentum_update", "sample_sphere"],
    "oracles": [
        "ValueOracle.__call__",
        "ValueOracle.peek",
        "ValueOracle.gradient",
        "SetOracle.__call__",
        "SetOracle.peek",
        "sample_subset",
    ],
    "objectives": [
        "nqp_generate",
        "nqp_oracle",
        "nqp_eval",
        "coverage_eval",
        "coverage_gradient",
        "logdet_eval",
        "rbf_covariance",
        "influence_eval",
    ],
    "polytope": ["lmo", "project", "swap_round"],
    "constraints": ["transform_constraint", "contains", "independent"],
    "bench": [
        "load_config",
        "build_objective",
        "run_cell",
        "run_experiment",
        "brute_force_opt",
        "karate_club_graph",
    ],
    "cli": ["main"],
}
NON_LEAF = {
    "algorithms.bcg",
    "algorithms.dbg",
    "algorithms.scg",
    "algorithms.ga",
    "algorithms.zga",
    "estimators.batch_grad",
    "estimators.discrete_batch_grad",
    "oracles.ValueOracle.__call__",
    "oracles.ValueOracle.peek",
    "oracles.ValueOracle.gradient",
    "oracles.SetOracle.__call__",
    "oracles.SetOracle.peek",
    "polytope.swap_round",
    "bench.load_config",
    "bench.build_objective",
    "bench.run_cell",
    "bench.run_experiment",
    "bench.brute_force_opt",
    "cli.main",
}
NQP_EVAL = "objectives.nqp_eval"


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in SPANS.items() for name in names]


def per_layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit.

    All values are totals over the traced pass divided by its operation count.
    """
    units = {}
    for span in span_names():
        units[f"{span}.calls"] = "count/op"
        units[f"{span}.self_s"] = "s/op"
        if span in NON_LEAF:
            units[f"{span}.total_s"] = "s/op"
    units[f"{NQP_EVAL}.flops_computed"] = "flop/op"
    units[f"{NQP_EVAL}.bytes_computed"] = "B/op"
    units["oracles.useful_eval_ratio"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


def package_modules() -> list:
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Point every package-module global bound to ``original`` at ``replacement``.

    Returns (module, attribute, previous value) triples for :func:`restore`.
    """
    undo = []
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)
    return undo


def restore(undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def wrap_function(module_name: str, name: str, make_wrapper) -> list | None:
    """Replace ``PACKAGE.module_name.name`` at every import site; None if absent."""
    mod = sys.modules.get(f"{PACKAGE}.{module_name}")
    original = getattr(mod, name, None) if mod is not None else None
    if original is None:
        return None
    return replace_everywhere(original, make_wrapper(original))


class Tracer:
    """Aggregating span recorder; one instance per traced pass."""

    def __init__(self):
        # (parent span or "", span) -> [calls, total_s, child_s, work]
        self.edges: dict[tuple[str, str], list] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span name, child seconds]
        self._undo: list = []
        self._active = True

    def _wrapper(self, span: str, fn, work=None):
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else ""
            frame = [span, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat = edges.get((parent, span))
                if stat is None:
                    stat = edges[(parent, span)] = [0, 0.0, 0.0, 0]
                stat[0] += 1
                stat[1] += dt
                stat[2] += frame[1]
                if work is not None:
                    stat[3] += work(args, kwargs)
                if stack:
                    stack[-1][1] += dt

        return traced

    def install(self) -> None:
        """Wrap every name in SPANS that exists in the loaded package."""
        for layer in SPANS:
            try:
                importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                pass
        for span in span_names():
            layer, _, name = span.partition(".")
            work = _nqp_work if span == NQP_EVAL else None
            if "." in name:
                undo = self._wrap_method(layer, name, span)
            else:
                undo = wrap_function(
                    layer, name, lambda fn, s=span, w=work: self._wrapper(s, fn, w)
                )
            if undo is None:
                self.absent.append(span)
            else:
                self._undo.extend(undo)

    def _wrap_method(self, layer: str, name: str, span: str) -> list | None:
        cls_name, _, meth = name.partition(".")
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        cls = getattr(mod, cls_name, None) if mod is not None else None
        original = vars(cls).get(meth) if isinstance(cls, type) else None
        if original is None:
            return None
        setattr(cls, meth, self._wrapper(span, original))
        return [(cls, meth, original)]

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side work (references, checks) without recording it."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def totals(self) -> dict[str, list]:
        """Per span: [calls, total_s, self_s, work], summed over parents."""
        out: dict[str, list] = {}
        for (_, span), (calls, total, child, work) in self.edges.items():
            acc = out.setdefault(span, [0, 0.0, 0.0, 0])
            acc[0] += calls
            acc[1] += total
            acc[2] += total - child
            acc[3] += work
        return out

    def edge_list(self) -> list[dict]:
        return [
            {"parent": parent, "span": span, "calls": c, "total_s": t, "self_s": t - ch}
            for (parent, span), (c, t, ch, _) in sorted(self.edges.items())
        ]


def _nqp_work(args, kwargs) -> int:
    """d*d for one nqp_eval(H, b, x) call: the entries of H it reads."""
    b = args[1] if len(args) > 1 else kwargs["b"]
    return len(b) ** 2


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-layer metric values (without trace_overhead), per operation."""
    totals = tracer.totals()
    values = {}
    for span in span_names():
        calls, total, self_s, _ = totals.get(span, [0, 0.0, 0.0, 0])
        values[f"{span}.calls"] = calls / ops
        values[f"{span}.self_s"] = self_s / ops
        if span in NON_LEAF:
            values[f"{span}.total_s"] = total / ops
    work = totals.get(NQP_EVAL, [0, 0.0, 0.0, 0])[3]
    values[f"{NQP_EVAL}.flops_computed"] = 2.0 * work / ops
    values[f"{NQP_EVAL}.bytes_computed"] = 8.0 * work / ops

    def calls(span):
        return totals.get(span, [0])[0]

    counted = calls("oracles.ValueOracle.__call__") + calls("oracles.SetOracle.__call__")
    peeked = calls("oracles.ValueOracle.peek") + calls("oracles.SetOracle.peek")
    values["oracles.useful_eval_ratio"] = counted / (counted + peeked) if counted + peeked else 0.0
    return values
