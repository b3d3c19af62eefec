"""Span tracing of scrollflex, installed from outside the engine.

``Tracer.install()`` replaces selected public functions and methods with
timing wrappers.  Each wrapper is bound in every scrollflex namespace that
holds the original object, not only in the defining module, because modules
bind each other's names with ``from .chern import tensor`` and look them up
locally.  Methods are replaced on their class under every attribute name
that holds them, so aliases such as ``__rmul__ = __mul__`` are covered.

Two kinds of boundary are wrapped:

* spans: recorded one by one (name, start, end, parent, request id, thread)
  and kept in memory until ``dump`` writes them out;
* kernels: hot inner calls (the sparse multiplies, exact division,
  substitution) that are only aggregated, since a span per call would not
  fit in memory.  Their time is charged to the enclosing span as
  ``hidden_s`` so that self times stay exact.

Self time of a span is its duration minus the part of it that its children
cover.  ``self_times`` computes it from the recorded spans alone.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute) boundaries recorded as spans.
SPANS = {
    "chern": ["tensor", "sym_power", "tensor_line"],
    "scroll": ["total_chern_E_k", "inflection_class", "chern_wu_reduce",
               "pushforward", "degree_class", "degree_of_inflection",
               "symbolic_degree", "evaluate_symbolic"],
    "exactpoly": ["common_divisor"],
    "linalg": ["det_poly", "rank_rational", "rank_poly"],
    "jets": ["symbolic_jet_matrix", "jet_matrix", "probe_rank",
             "inflection_equations", "product_rank_identity"],
    "scans": ["build_problem", "scan"],
    "verify": ["run_checks"],
    "cli": ["_emit"],
}
# (module, class, method) boundaries recorded as spans.
METHOD_SPANS = [
    ("chern", "GradedClass", "series_inverse"),
    ("scroll", "NumericalBaseData", "evaluate"),
]
# (module, class, method) hot boundaries that are only aggregated.
KERNELS = [
    ("chern", "GradedClass", "__mul__"),
    ("exactpoly", "Poly", "__mul__"),
    ("exactpoly", "Poly", "exact_div"),
    ("exactpoly", "Poly", "subs"),
]
LAYERS = ("chern", "scroll", "exactpoly", "linalg", "jets", "scans",
          "formulas", "verify", "cli")
# verify check ids map to a category by prefix.
CHECK_KINDS = ("class", "degree", "numeric", "consistency", "scan", "jet")


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _table_key(fn_name, args, kwargs):
    """(ranks, truncation) key of a Chern-table lookup, as the engine caches it."""
    if fn_name == "tensor":
        a, b = args[0], args[1]
        return ("tensor", a.rank, b.rank, a.ring.truncation)
    e = args[0]
    k = args[1] if len(args) > 1 else kwargs.get("k")
    return ("sym", e.rank, k, e.ring.truncation)


class Tracer:
    """Records spans and kernel aggregates for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.request = None
        self.spans: list[tuple] = []
        # name -> [calls, outermost inclusive seconds, self seconds]
        self.kernels = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.table_keys: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- frames -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, span: bool) -> list:
        stack = self._stack()
        parent = next((f for f in reversed(stack) if f[3] is not None), None)
        with self._lock:
            sid = len(self.spans) if span else None
            if span:
                self.spans.append(None)  # reserve the id
        # frame: name, start, child seconds, span id, parent span id, hidden s
        frame = [name, 0.0, 0.0, sid, parent[3] if parent else None, 0.0]
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
            if frame[3] is None and stack[-1][3] is not None:
                stack[-1][5] += duration
        if frame[3] is not None:
            self.spans[frame[3]] = (
                frame[3], frame[0], frame[1], end, frame[4], self.request,
                threading.get_ident(), frame[5])
        else:
            outer = any(f[0] == frame[0] for f in stack)
            with self._lock:
                agg = self.kernels[frame[0]]
                agg[0] += 1
                if not outer:
                    agg[1] += duration
                agg[2] += duration - frame[2]
        return duration

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] += value

    # -- wrappers -------------------------------------------------------------

    def wrap(self, fn, name: str, span: bool = True, after=None, before=None):
        tracer = self

        def traced(*args, **kwargs):
            label = before(args, kwargs) if before else name
            frame = tracer._enter(label, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _rebind(self, original, replacement) -> None:
        """Bind ``replacement`` wherever a scrollflex namespace holds ``original``."""
        for modname, module in list(sys.modules.items()):
            if not (modname == "scrollflex" or modname.startswith("scrollflex.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _rebind_method(self, cls, original, replacement) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._restore.append((cls, attr, value))
                setattr(cls, attr, replacement)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"scrollflex.{name}")
                for name in LAYERS}
        for modname, names in SPANS.items():
            for attr in names:
                original = getattr(mods[modname], attr)
                self._rebind(original, self._span_wrapper(modname, attr, original))
        for modname, clsname, attr in METHOD_SPANS:
            cls = getattr(mods[modname], clsname)
            original = vars(cls)[attr]
            self._rebind_method(cls, original, self.wrap(
                original, f"{modname}.{attr}"))
        for modname, clsname, attr in KERNELS:
            cls = getattr(mods[modname], clsname)
            original = vars(cls)[attr]
            self._rebind_method(cls, original, self._kernel_wrapper(
                modname, cls, attr, original))
        formulas = mods["formulas"]
        for attr, value in list(vars(formulas).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == formulas.__name__):
                self._rebind(value, self.wrap(value, f"formulas.{attr}"))
        build_checks = mods["verify"].build_checks
        self._rebind(build_checks, self._checks_wrapper(build_checks))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _span_wrapper(self, modname, attr, original):
        name = f"{modname}.{attr}"
        if attr in ("tensor", "sym_power"):
            def before(args, kwargs):
                key = _table_key(attr, args, kwargs)
                with self._lock:
                    seen = key in self.table_keys
                    self.table_keys.add(key)
                return "chern.table_repeat" if seen else "chern.table_first"
            return self.wrap(original, name, before=before)
        if attr == "inflection_class":
            return self.wrap(original, name, after=lambda a, k, r: self.count(
                "scroll.class_terms", len(r.terms)))
        if attr == "det_poly":
            return self.wrap(original, name, after=lambda a, k, r: self.count(
                "linalg.nonzero_minors", 0 if r.is_zero() else 1))
        if attr == "symbolic_jet_matrix":
            return self.wrap(original, name, after=lambda a, k, r: self.count(
                "jets.jet_matrix_builds"))
        if attr == "scan":
            return self.wrap(original, name, after=lambda a, k, r: self.count(
                "scans.candidates", r.candidates))
        return self.wrap(original, name)

    def _kernel_wrapper(self, modname, cls, attr, original):
        name = f"{modname}.{attr.strip('_')}"
        products = f"{modname}.mul_term_products"

        def after(args, kwargs, result):
            if attr == "__mul__" and isinstance(args[1], cls):
                self.count(products, len(args[0].terms) * len(args[1].terms))

        return self.wrap(original, name, span=False, after=after)

    def _checks_wrapper(self, build_checks):
        def traced_build_checks():
            return [(ident, self.wrap(fn, f"verify.check.{ident}"))
                    for ident, fn in build_checks()]
        traced_build_checks.__wrapped__ = build_checks
        return traced_build_checks

    # -- output -----------------------------------------------------------------

    def document(self) -> dict:
        """Spans, kernel aggregates and counters as one JSON-ready document."""
        return {
            "spans": [list(s) for s in self.spans if s is not None],
            "kernels": {k: list(v) for k, v in self.kernels.items()},
            "counters": dict(self.counters),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.document(), handle)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus the union its children cover.

    ``spans`` are (id, name, start, end, parent, request, thread, hidden_s)
    records; ``hidden_s`` is time spent in unrecorded (kernel) children.
    """
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(s[0], ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[s[0]] = max(0.0, end - start - covered - s[7])
    return out


def merge(docs) -> dict:
    """Combine dumped documents (one per process) into totals.

    Returns per-name span totals ``{name: [calls, outermost seconds, self
    seconds]}``, seconds per layer outside any enclosing span of the same
    layer, kernel aggregates, counters, root-span seconds per request and
    the number of spans.
    """
    names = defaultdict(lambda: [0, 0.0, 0.0])
    busy = defaultdict(float)
    kernels = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(int)
    roots = defaultdict(float)
    n_spans = 0
    for doc in docs:
        spans = [tuple(s) for s in doc["spans"]]
        n_spans += len(spans)
        selfs = self_times(spans)
        by_id = {s[0]: s for s in spans}
        for s in spans:
            duration = s[3] - s[2]
            agg = names[s[1]]
            agg[0] += 1
            agg[2] += selfs[s[0]]
            ancestors = []
            parent = s[4]
            while parent is not None:
                ancestors.append(by_id[parent][1])
                parent = by_id[parent][4]
            if s[1] not in ancestors:
                agg[1] += duration
            if layer_of(s[1]) not in map(layer_of, ancestors):
                busy[layer_of(s[1])] += duration
            if s[4] is None:
                roots[s[5]] += duration
        for k, v in doc["kernels"].items():
            for i in range(3):
                kernels[k][i] += v[i]
        for k, v in doc["counters"].items():
            counters[k] += v
    return {"spans": dict(names), "busy": dict(busy), "kernels": dict(kernels),
            "counters": dict(counters), "roots": dict(roots), "n_spans": n_spans}


# Per-layer metrics: (name, unit, better).
PER_LAYER = [
    ("chern.table_first_s", "s", "lower"),
    ("chern.table_calls_first", "count", "lower"),
    ("chern.table_repeat_s", "s", "lower"),
    ("chern.table_calls_repeat", "count", "lower"),
    ("chern.series_inverse_s", "s", "lower"),
    ("chern.series_inverse_calls", "count", "lower"),
    ("chern.tensor_line_s", "s", "lower"),
    ("chern.mul_calls", "count", "lower"),
    ("chern.mul_term_products", "count", "lower"),
    ("chern.mul_s", "s", "lower"),
    ("scroll.total_chern_s", "s", "lower"),
    ("scroll.inflection_class_s", "s", "lower"),
    ("scroll.reduce_s", "s", "lower"),
    ("scroll.pushforward_s", "s", "lower"),
    ("scroll.evaluate_s", "s", "lower"),
    ("scroll.class_terms", "count", "lower"),
    ("exactpoly.mul_calls", "count", "lower"),
    ("exactpoly.mul_term_products", "count", "lower"),
    ("exactpoly.mul_s", "s", "lower"),
    ("exactpoly.exact_div_calls", "count", "lower"),
    ("exactpoly.exact_div_s", "s", "lower"),
    ("exactpoly.common_divisor_s", "s", "lower"),
    ("exactpoly.subs_calls", "count", "lower"),
    ("exactpoly.subs_s", "s", "lower"),
    ("linalg.det_calls", "count", "lower"),
    ("linalg.det_s", "s", "lower"),
    ("linalg.nonzero_minors", "count", "lower"),
    ("linalg.minor_useful_ratio", "ratio", "higher"),
    ("linalg.rank_rational_calls", "count", "lower"),
    ("linalg.rank_rational_s", "s", "lower"),
    ("jets.jet_matrix_builds", "count", "lower"),
    ("jets.symbolic_jet_matrix_s", "s", "lower"),
    ("jets.probe_rank_s", "s", "lower"),
    ("jets.inflection_equations_s", "s", "lower"),
    ("scans.build_problem_s", "s", "lower"),
    ("scans.scan_s", "s", "lower"),
    ("scans.candidates", "count", "lower"),
    ("scans.candidates_per_s", "1/s", "higher"),
    ("formulas.oracle_s", "s", "lower"),
    ("verify.class_s", "s", "lower"),
    ("verify.degree_s", "s", "lower"),
    ("verify.numeric_s", "s", "lower"),
    ("verify.consistency_s", "s", "lower"),
    ("verify.scan_s", "s", "lower"),
    ("verify.jet_s", "s", "lower"),
    ("verify.slowest_check_s", "s", "lower"),
    ("verify.check_sum_over_wall", "ratio", "higher"),
    ("cli.overhead_s", "s", "lower"),
    ("cli.emit_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS] + [
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def per_layer(totals: dict, child_walls: float, table_wall: float) -> dict:
    """Per-layer metric values from ``merge`` totals.

    ``child_walls`` is the summed wall time of the traced CLI children (0 for
    an in-process session) and ``table_wall`` the wall time of the verify
    table (0 when it did not run).
    """
    spans, kernels, counters = totals["spans"], totals["kernels"], totals["counters"]

    def s(name, i=1):
        return spans.get(name, [0, 0.0, 0.0])[i]

    def k(name, i=1):
        return kernels.get(name, [0, 0.0, 0.0])[i]

    checks = {kind: 0.0 for kind in CHECK_KINDS}
    slowest = 0.0
    for name, agg in spans.items():
        if name.startswith("verify.check."):
            ident = name[len("verify.check."):]
            checks[ident.split("-", 1)[0]] += agg[1]
            slowest = max(slowest, agg[1])
    dets = s("linalg.det_poly", 0)
    candidates = counters.get("scans.candidates", 0)
    out = {
        "chern.table_first_s": s("chern.table_first"),
        "chern.table_calls_first": s("chern.table_first", 0),
        "chern.table_repeat_s": s("chern.table_repeat"),
        "chern.table_calls_repeat": s("chern.table_repeat", 0),
        "chern.series_inverse_s": s("chern.series_inverse"),
        "chern.series_inverse_calls": s("chern.series_inverse", 0),
        "chern.tensor_line_s": s("chern.tensor_line"),
        "chern.mul_calls": k("chern.mul", 0),
        "chern.mul_term_products": counters.get("chern.mul_term_products", 0),
        "chern.mul_s": k("chern.mul"),
        "scroll.total_chern_s": s("scroll.total_chern_E_k"),
        "scroll.inflection_class_s": s("scroll.inflection_class"),
        "scroll.reduce_s": s("scroll.chern_wu_reduce"),
        "scroll.pushforward_s": s("scroll.pushforward"),
        "scroll.evaluate_s": s("scroll.evaluate") + s("scroll.evaluate_symbolic"),
        "scroll.class_terms": counters.get("scroll.class_terms", 0),
        "exactpoly.mul_calls": k("exactpoly.mul", 0),
        "exactpoly.mul_term_products": counters.get("exactpoly.mul_term_products", 0),
        "exactpoly.mul_s": k("exactpoly.mul"),
        "exactpoly.exact_div_calls": k("exactpoly.exact_div", 0),
        "exactpoly.exact_div_s": k("exactpoly.exact_div"),
        "exactpoly.common_divisor_s": s("exactpoly.common_divisor"),
        "exactpoly.subs_calls": k("exactpoly.subs", 0),
        "exactpoly.subs_s": k("exactpoly.subs"),
        "linalg.det_calls": dets,
        "linalg.det_s": s("linalg.det_poly"),
        "linalg.nonzero_minors": counters.get("linalg.nonzero_minors", 0),
        "linalg.minor_useful_ratio":
            counters.get("linalg.nonzero_minors", 0) / dets if dets else 0.0,
        "linalg.rank_rational_calls": s("linalg.rank_rational", 0),
        "linalg.rank_rational_s": s("linalg.rank_rational"),
        "jets.jet_matrix_builds": counters.get("jets.jet_matrix_builds", 0),
        "jets.symbolic_jet_matrix_s": s("jets.symbolic_jet_matrix"),
        "jets.probe_rank_s": s("jets.probe_rank"),
        "jets.inflection_equations_s": s("jets.inflection_equations"),
        "scans.build_problem_s": s("scans.build_problem"),
        "scans.scan_s": s("scans.scan"),
        "scans.candidates": candidates,
        "scans.candidates_per_s":
            candidates / s("scans.scan") if s("scans.scan") else 0.0,
        "formulas.oracle_s": totals["busy"].get("formulas", 0.0),
        "verify.slowest_check_s": slowest,
        "verify.check_sum_over_wall":
            sum(checks.values()) / table_wall if table_wall else 0.0,
        "cli.emit_s": s("cli._emit"),
        "cli.overhead_s": max(0.0, child_walls - sum(totals["roots"].values())
                              + s("cli._emit")) if child_walls else 0.0,
        "trace.spans": totals["n_spans"],
    }
    for kind in CHECK_KINDS:
        out[f"verify.{kind}_s"] = checks[kind]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(agg[2] for name, agg in spans.items() if layer_of(name) == layer)
            + sum(agg[2] for name, agg in kernels.items() if layer_of(name) == layer))
    return out
