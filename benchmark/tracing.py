"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public functions of every ``setopt`` module
(the layers) at every module attribute that binds them, so a call made
through ``setopt.cli.sweep`` is seen as well as one through
``setopt.solver.sweep``.  Most wrapped functions record a span: name,
start, end, parent span and operation id.  Very hot leaf functions are
only counted, and a few hot functions whose time is a metric add to a
running total instead of allocating a span per call.  Spans stay in
memory until ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "jsonio", "catalog", "cones", "uppersets", "setfuns", "solver",
          "oracle", "calcvar")

#: Called so often that a span per call would dominate the run: counted only.
COUNT_ONLY = {
    "cones.as_vector", "cones.as_matrix", "cones.dual_contains",
    "uppersets.support", "uppersets.contains_point", "uppersets.prune",
    "setfuns.scalarize", "setfuns.evaluate", "setfuns.evaluate_or_empty",
    "oracle.inf_translate", "oracle.translated_domain",
    "calcvar.objective", "calcvar.scalar_objective", "calcvar.scalar_gradient",
}

#: Hot functions whose time is a metric: counted, and the outermost call of
#: each group adds its duration to the group total.
TIMED_GROUPS = {
    "uppersets.lattice_inf": "lattice_inf",
    "uppersets.order_geq": "order",
    "uppersets.equals": "order",
}

#: Hot methods: counted only.
COUNTED_METHODS = (("cones", "Cone", "__eq__"), ("setfuns", "Grid", "index_of"),
                   ("oracle", "FiniteInstance", "index_of"))

#: Per-layer metrics, in report order: (name, unit).
PER_LAYER = (
    ("jsonio.load_s", "s"), ("jsonio.write_s", "s"),
    ("cones.base_s", "s"), ("cones.dual_contains_calls", "count"),
    ("cones.cone_eq_calls", "count"),
    ("setfuns.profile_build_s", "s"), ("setfuns.profile_entries", "count"),
    ("setfuns.evaluations", "count"), ("setfuns.grid_lookups", "count"),
    ("solver.sweep_s", "s"), ("solver.compass_evals", "count"),
    ("solver.verify_s", "s"), ("solver.infimizer_gaps_s", "s"),
    ("solver.lattice_min_s", "s"), ("solver.candidate_points", "count"),
    ("uppersets.support_calls", "count"), ("uppersets.lattice_inf_calls", "count"),
    ("uppersets.lattice_inf_s", "s"), ("uppersets.prune_calls", "count"),
    ("uppersets.prune_max_generators", "count"), ("uppersets.order_calls", "count"),
    ("uppersets.order_s", "s"), ("uppersets.contains_point_calls", "count"),
    ("oracle.lemma_s", "s"), ("oracle.lemma_checks", "count"),
    ("oracle.commutation_s", "s"), ("oracle.commutation_checks", "count"),
    ("oracle.inf_translate_calls", "count"), ("oracle.index_lookups", "count"),
    ("oracle.minimizer_enum_s", "s"),
    ("calcvar.solve_s", "s"), ("calcvar.iterations", "count"),
    ("calcvar.objective_calls", "count"), ("calcvar.gradient_calls", "count"),
    ("calcvar.residual_s", "s"), ("calcvar.translation_check_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Time metrics summed over the outermost spans of the named functions.
_SPAN_TIMES = {
    "jsonio.load_s": {"jsonio.load_json", "jsonio.problem_from_dict",
                      "jsonio.instance_from_dict", "jsonio.cvp_from_dict"},
    "jsonio.write_s": {"jsonio.write_json", "jsonio.write_csv", "jsonio.support_csv",
                       "jsonio.polyline_csv", "jsonio.front_csv", "jsonio.arcs_csv"},
    "cones.base_s": {"cones.base_directions", "cones.interior_base"},
    "setfuns.profile_build_s": {"setfuns.ScalarizationProfile.build"},
    "solver.sweep_s": {"solver.sweep"},
    "solver.verify_s": {"solver.verify_sc_solution"},
    "solver.infimizer_gaps_s": {"solver.verify_infimizer"},
    "solver.lattice_min_s": {"solver.verify_lattice_minimizer"},
    "oracle.lemma_s": {"oracle.check_inf_translation_lemma"},
    "oracle.commutation_s": {"oracle.check_commutation"},
    "oracle.minimizer_enum_s": {"oracle.enumerate_lattice_minimizers"},
    "calcvar.solve_s": {"calcvar.solve_sccvp"},
    "calcvar.residual_s": {"calcvar.first_order_residual"},
}

#: Count metrics read straight off the call counters.
_CALL_COUNTS = {
    "cones.dual_contains_calls": "cones.dual_contains",
    "cones.cone_eq_calls": "cones.Cone.__eq__",
    "setfuns.evaluations": "setfuns.evaluations",
    "setfuns.grid_lookups": "setfuns.Grid.index_of",
    "uppersets.support_calls": "uppersets.support",
    "uppersets.lattice_inf_calls": "uppersets.lattice_inf",
    "uppersets.prune_calls": "uppersets.prune",
    "uppersets.order_calls": "uppersets.order_geq",
    "uppersets.contains_point_calls": "uppersets.contains_point",
    "oracle.lemma_checks": "oracle.check_inf_translation_lemma",
    "oracle.commutation_checks": "oracle.check_commutation",
    "oracle.inf_translate_calls": "oracle.inf_translate",
    "oracle.index_lookups": "oracle.FiniteInstance.index_of",
    "calcvar.objective_calls": "calcvar.objective",
    "calcvar.gradient_calls": "calcvar.scalar_gradient",
}


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, parent id, op id, start, end)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.tallies: Counter = Counter()   # quantities read off results
        self.group_time: Counter = Counter()
        self._group_busy: set = set()
        self.op = -1
        self._undo: list = []

    # -- wrappers ------------------------------------------------------------

    def _counted(self, name, fn, on_args=None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if on_args is not None:
                on_args(args)
            return fn(*args, **kwargs)
        return wrapper

    def _grouped(self, name, group, fn):
        counts, busy, totals, clock = self.counts, self._group_busy, self.group_time, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if group in busy:
                return fn(*args, **kwargs)
            busy.add(group)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[group] += clock() - t0
                busy.discard(group)
        return wrapper

    def _spanned(self, name, fn, on_result=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, parent, self.op, t0, t1)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _wrap(self, name, fn, hooks):
        if name == "uppersets.prune":
            return self._counted(name, fn, hooks[name])
        if name in COUNT_ONLY:
            return self._counted(name, fn)
        if name in TIMED_GROUPS:
            return self._grouped(name, TIMED_GROUPS[name], fn)
        return self._spanned(name, fn, hooks.get(name))

    def _hooks(self) -> dict:
        """Quantities read off arguments or results into ``tallies``."""
        t = self.tallies

        def add(key, attr):
            def hook(result):
                t[key] += attr(result)
            return hook

        def widest(args):
            key = "uppersets.prune_max_generators"
            t[key] = max(t[key], args[0].generators.shape[0])
        return {
            "solver._compass_search": add("solver.compass_evals", lambda r: r.iterations),
            "solver.collect_candidate": add("solver.candidate_points", len),
            "setfuns.ScalarizationProfile.build": add("setfuns.profile_entries",
                                                      lambda r: r.values.size),
            "calcvar.solve_sccvp": add("calcvar.iterations", lambda r: r.iterations),
            "uppersets.prune": widest,
        }

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / remove -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions (plus the compass search,
        whose evaluations are a metric) wherever a module binds them."""
        mods = {layer: importlib.import_module(f"setopt.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and name not in hooks:
                    continue
                wrapped[obj] = self._wrap(name, obj, hooks)
        bindings = [importlib.import_module("setopt")] + list(mods.values())
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for layer, cls_name, meth in COUNTED_METHODS:
            cls = getattr(mods[layer], cls_name)
            self._set(cls, meth, self._counted(f"{layer}.{cls_name}.{meth}",
                                               cls.__dict__[meth]))
        profile = mods["setfuns"].ScalarizationProfile
        self._set(profile, "build", classmethod(self._wrap(
            "setfuns.ScalarizationProfile.build", profile.__dict__["build"].__func__, hooks)))
        setfn = mods["setfuns"].SetFunction
        init, counted = setfn.__init__, self._counted

        def traced_init(obj, space, cone, evaluator, vector_map=None, label="setfn"):
            init(obj, space, cone, counted("setfuns.evaluations", evaluator),
                 None if vector_map is None else counted("setfuns.evaluations", vector_map),
                 label)
        self._set(setfn, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- metrics --------------------------------------------------------------

    def _outermost_time(self, names: set) -> float:
        spans, total = self.spans, 0.0
        for name, parent, _op, t0, t1 in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][1]
            if parent < 0:
                total += t1 - t0
        return total

    def _self_time(self, name: str) -> float:
        total = 0.0
        ids = {i for i, s in enumerate(self.spans) if s[0] == name}
        for i in ids:
            total += self.spans[i][4] - self.spans[i][3]
        for s in self.spans:
            if s[1] in ids:
                total -= s[4] - s[3]
        return total

    def metrics(self, overhead_s: float) -> dict:
        values = {name: self._outermost_time(names) for name, names in _SPAN_TIMES.items()}
        values.update({name: self.counts[key] for name, key in _CALL_COUNTS.items()})
        values.update({name: self.tallies[name] for name in
                       ("solver.compass_evals", "solver.candidate_points",
                        "setfuns.profile_entries", "calcvar.iterations")})
        values["uppersets.lattice_inf_s"] = self.group_time["lattice_inf"]
        values["uppersets.order_s"] = self.group_time["order"]
        values["uppersets.prune_max_generators"] = self.tallies["uppersets.prune_max_generators"]
        values["calcvar.translation_check_s"] = self._self_time("calcvar.cvp_sweep")
        values["trace.overhead_s"] = overhead_s
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def dump(self, path, meta: dict, metrics: dict) -> None:
        t0 = min((s[3] for s in self.spans), default=0.0)
        payload = dict(meta)
        payload.update({
            "metrics": metrics,
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["id", "name", "parent", "op", "start_s", "end_s"],
            "spans": [[i, n, p, op, round(a - t0, 9), round(b - t0, 9)]
                      for i, (n, p, op, a, b) in enumerate(self.spans)],
        })
        with open(path, "w") as fh:
            json.dump(payload, fh)
