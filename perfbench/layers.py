"""Per-layer tracing from the benchmark's side: no classfield source changes.

`Tracer.install` wraps the named public functions of each classfield module
(the layers) in every module namespace that binds them, because
`from .x import f` copies the binding; `g_ON`, for one, is called through both
`invariants` and `lfunctions`.  Each call records a span on a stack, so a
span's self time is its duration minus that of the wrapped calls it made.
Spans are aggregated per function as they close and reported when the job
ends; `layer_metrics` turns the per-job reports of a traced pass into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# module -> public functions whose calls become spans
SPANS: Dict[str, List[str]] = {
    "quadforms": [
        "class_enumerate", "gamma1_equivalent", "reduce_form", "compose_level",
        "canonical_form", "group_structure_from_table",
    ],
    "orderideals": ["oracle_class_group", "ray_label", "principal_generator", "form_ideal_dictionary"],
    "modfun": ["siegel", "eta"],
    "invariants": ["g_ON", "minimal_polynomial"],
    "numerics": ["recognize_integer"],
    "lfunctions": ["zeta_ideal_partial_all", "zeta_lattice_partial", "log_g_values", "lderiv0"],
    "cli": ["main"],
    "verify": ["battery_paper"],
}
# generators whose yielded items are counted; their time interleaves with the
# consumer's, so they get no span
GENERATORS: Dict[str, List[str]] = {"orderideals": ["integral_ideals"]}

# digit counts the workloads evaluate Siegel functions at: lderiv, minpoly
SIEGEL_DIGITS = (60, 700)
# residuals below this count as this, so an exact coefficient has a finite margin
RESIDUAL_FLOOR = 1e-300

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
LAYER_METRICS = [
    ("quadforms.class_enumerate.calls", "count", "lower"),
    ("quadforms.class_enumerate.s", "s", "lower"),
    ("quadforms.class_enumerate.self_s", "s", "lower"),
    ("quadforms.gamma1_equivalent.calls", "count", "lower"),
    ("quadforms.gamma1_equivalent.s", "s", "lower"),
    ("quadforms.gamma1_equivalent.hit_ratio", "ratio", "higher"),
    ("quadforms.reduce_form.calls", "count", "lower"),
    ("quadforms.reduce_form.s", "s", "lower"),
    ("quadforms.compose_level.calls", "count", "lower"),
    ("quadforms.compose_level.s", "s", "lower"),
    ("quadforms.compose_per_pair", "ratio", "lower"),
    ("quadforms.canonical_form.s", "s", "lower"),
    ("quadforms.group_structure_from_table.s", "s", "lower"),
    ("quadforms.classes", "count", "higher"),
    ("orderideals.oracle_class_group.s", "s", "lower"),
    ("orderideals.oracle_class_group.self_s", "s", "lower"),
    ("orderideals.ray_label.calls", "count", "lower"),
    ("orderideals.ray_label.s", "s", "lower"),
    ("orderideals.integral_ideals.items", "count", "lower"),
    ("orderideals.principal_generator.calls", "count", "lower"),
    ("orderideals.form_ideal_dictionary.s", "s", "lower"),
    ("modfun.siegel.calls", "count", "lower"),
    ("modfun.siegel.s", "s", "lower"),
    ("modfun.siegel.distinct_ratio", "ratio", "higher"),
    *((f"modfun.siegel.s_per_call.d{d}", "s", "lower") for d in SIEGEL_DIGITS),
    ("modfun.eta.calls", "count", "lower"),
    ("modfun.eta.s", "s", "lower"),
    ("invariants.g_ON.calls", "count", "lower"),
    ("invariants.g_ON.s", "s", "lower"),
    ("invariants.minimal_polynomial.s", "s", "lower"),
    ("invariants.minimal_polynomial.self_s", "s", "lower"),
    ("invariants.minimal_polynomial.digits_used", "digits", "lower"),
    ("invariants.minimal_polynomial.escalations", "count", "lower"),
    ("invariants.minimal_polynomial.margin_min", "digits", "higher"),
    ("numerics.recognize_integer.calls", "count", "lower"),
    ("numerics.recognize_integer.s", "s", "lower"),
    ("lfunctions.zeta_ideal_partial_all.s", "s", "lower"),
    ("lfunctions.zeta_ideal_partial_all.terms", "count", "lower"),
    ("lfunctions.zeta_lattice_partial.calls", "count", "lower"),
    ("lfunctions.zeta_lattice_partial.s", "s", "lower"),
    ("lfunctions.zeta_lattice_partial.terms", "count", "lower"),
    ("lfunctions.route_gap_max", "ratio", "lower"),
    ("lfunctions.log_g_values.s", "s", "lower"),
    ("lfunctions.lderiv0.calls", "count", "lower"),
    ("lfunctions.lderiv0.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("verify.battery_paper.self_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    # untraced job time per command, from the untraced pass of a traced run
    *((f"cmd.{c}_s", "s", "lower") for c in ("classgroup", "minpoly", "verify_paper", "lderiv", "zeta")),
]


class Tracer:
    """Wraps the layer functions of one process and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[float]] = {}  # name -> [calls, inclusive s, self s]
        self.counts: Dict[str, float] = defaultdict(float)
        self.siegel_points: set = set()
        self.siegel_by_digits: Dict[int, List[float]] = defaultdict(lambda: [0, 0.0])
        self.margin_min: Optional[float] = None
        self.missing: List[str] = []
        self._stack: List[List[float]] = []

    # -- hooks: counts read off arguments and results -----------------------

    def _gamma1_equivalent(self, args, kwargs, result, dt) -> None:
        self.counts["gamma1_hits"] += result is not None

    def _class_enumerate(self, args, kwargs, result, dt) -> None:
        self.counts["classes"] += result.order
        self.counts["class_pairs"] += result.order**2

    def _minimal_polynomial(self, args, kwargs, result, dt) -> None:
        policy = args[2] if len(args) > 2 else kwargs["policy"]
        tol = math.log10(float(policy.recognition_tol()))
        self.counts["escalations"] += result.escalations
        self.counts["digits_used"] = max(self.counts["digits_used"], result.precision_used)
        margin = min(tol - math.log10(max(r, RESIDUAL_FLOOR)) for r in result.residuals)
        self.margin_min = margin if self.margin_min is None else min(self.margin_min, margin)

    def _siegel(self, args, kwargs, result, dt) -> None:
        tau = args[1] if len(args) > 1 else kwargs["tau"]
        digits = args[2] if len(args) > 2 else kwargs["digits"]
        self.siegel_points.add((tau.re, tau.im, digits))
        rec = self.siegel_by_digits[digits]
        rec[0] += 1
        rec[1] += dt

    def _zeta_ideal_partial_all(self, args, kwargs, result, dt) -> None:
        self.counts["zeta_ideal_terms"] += sum(z.terms for z in result.values())

    def _zeta_lattice_partial(self, args, kwargs, result, dt) -> None:
        self.counts["zeta_lattice_terms"] += result.terms

    # -- installation ------------------------------------------------------

    def _span(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stack = self._stack
        perf = time.perf_counter
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - children[0]
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                hook(args, kwargs, result, dt)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Replace every binding of each named function in classfield's modules."""
        hooks = {
            "quadforms.gamma1_equivalent": self._gamma1_equivalent,
            "quadforms.class_enumerate": self._class_enumerate,
            "invariants.minimal_polynomial": self._minimal_polynomial,
            "modfun.siegel": self._siegel,
            "lfunctions.zeta_ideal_partial_all": self._zeta_ideal_partial_all,
            "lfunctions.zeta_lattice_partial": self._zeta_lattice_partial,
        }

        def span(name, fn):
            return self._span(name, fn, hooks.get(name))

        wrappers = {}
        for table, make in ((SPANS, span), (GENERATORS, self._counted)):
            for mod, names in table.items():
                module = importlib.import_module(f"classfield.{mod}")
                for fname in names:
                    fn = getattr(module, fname, None)
                    if fn is None:
                        self.missing.append(f"{mod}.{fname}")
                        continue
                    wrappers[id(fn)] = (fn, make(f"{mod}.{fname}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "classfield" and not modname.startswith("classfield."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def report(self) -> dict:
        """JSON-ready raw aggregates of this process."""
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "siegel_distinct": len(self.siegel_points),
            "siegel_by_digits": {str(d): v for d, v in self.siegel_by_digits.items()},
            "margin_min": self.margin_min,
            "missing": self.missing,
        }


def merge(reports: List[dict]) -> dict:
    """Sum the per-job reports of one traced pass."""
    spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: Dict[str, float] = defaultdict(float)
    by_digits: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    distinct = 0
    margins = []
    for r in reports:
        for name, rec in r["spans"].items():
            for i, v in enumerate(rec):
                spans[name][i] += v
        for name, v in r["counts"].items():
            counts[name] = max(counts[name], v) if name == "digits_used" else counts[name] + v
        for d, rec in r["siegel_by_digits"].items():
            by_digits[d][0] += rec[0]
            by_digits[d][1] += rec[1]
        distinct += r["siegel_distinct"]
        if r["margin_min"] is not None:
            margins.append(r["margin_min"])
    return {"spans": spans, "counts": counts, "by_digits": by_digits, "distinct": distinct, "margins": margins}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(merged: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced pass; layers that did no work read 0."""
    spans, counts, by_digits = merged["spans"], merged["counts"], merged["by_digits"]
    fields = ("calls", "s", "self_s")  # the layout of a span record

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    out: Dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field in fields:
            out[name] = spans.get(base, [0, 0.0, 0.0])[fields.index(field)]
    out["quadforms.gamma1_equivalent.hit_ratio"] = _ratio(counts["gamma1_hits"], calls("quadforms.gamma1_equivalent"))
    out["quadforms.compose_per_pair"] = _ratio(calls("quadforms.compose_level"), counts["class_pairs"])
    out["quadforms.classes"] = counts["classes"]
    out["orderideals.integral_ideals.items"] = counts["orderideals.integral_ideals"]
    out["modfun.siegel.distinct_ratio"] = _ratio(merged["distinct"], calls("modfun.siegel"))
    for d in SIEGEL_DIGITS:
        n, s = by_digits.get(str(d), [0, 0.0])
        out[f"modfun.siegel.s_per_call.d{d}"] = _ratio(s, n)
    out["invariants.minimal_polynomial.digits_used"] = counts["digits_used"]
    out["invariants.minimal_polynomial.escalations"] = counts["escalations"]
    out["invariants.minimal_polynomial.margin_min"] = min(merged["margins"], default=0.0)
    out["lfunctions.zeta_ideal_partial_all.terms"] = counts["zeta_ideal_terms"]
    out["lfunctions.zeta_lattice_partial.terms"] = counts["zeta_lattice_terms"]
    return out
