"""Layer tracing from outside the library: wrap public functions, never edit them.

Each hook names a function by module and attribute path.  Coarse
boundaries (``SPAN``) record a span ``(hook, start, end, parent span,
item id)`` in memory; hot leaves (``LEAF``: exact-scalar arithmetic,
``FiniteGroup.imul``) only aggregate a call count and time.  Both kinds feed per-module self time,
so the named layers account for the traced wall time up to the reported
unattributed share.

A module-level function is rebound wherever a ``spherecover`` module
holds it by name (``knots.cokernel``, ``presentations.cokernel``), so the
caller's own lookup reaches the wrapper.  A hook whose target has
disappeared is reported as missing instead of raising.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, LEAF = "span", "leaf"

MODULES = ("analyzer", "knots", "linalg", "presentations", "groups",
           "quaternions", "cyclotomic", "spaceforms")


def _generated(tracer, group):
    tracer.counters["groups.generated_elements"] += len(group)


def _cosets(tracer, outcome):
    if outcome.finite:
        tracer.counters["presentations.cosets"] += outcome.order
    else:
        tracer.counters["presentations.capped_enumerations"] += 1


# (module, attribute path, kind, label, on_result); metrics are "<module>.<label>_s|_calls".
HOOKS = (
    ("analyzer", "run_corpus", SPAN, "run_corpus", None),
    ("analyzer", "analyze", SPAN, "analyze", None),
    ("analyzer", "classify_finite", SPAN, "classify_finite", None),
    ("knots", "determinant", SPAN, "determinant", None),
    ("knots", "h1_double_cover", SPAN, "h1_double_cover", None),
    ("knots", "braid_to_diagram", SPAN, "braid_to_diagram", None),
    ("knots", "two_bridge", SPAN, "two_bridge", None),
    ("knots", "montesinos", SPAN, "montesinos", None),
    ("linalg", "cokernel", SPAN, "cokernel", None),
    ("linalg", "integer_determinant", SPAN, "integer_determinant", None),
    ("presentations", "wirtinger", SPAN, "wirtinger", None),
    ("presentations", "orbifold_quotient", SPAN, "orbifold_quotient", None),
    ("presentations", "todd_coxeter", SPAN, "todd_coxeter", _cosets),
    ("presentations", "branched_cover_group", SPAN, "branched_cover_group", None),
    ("groups", "FiniteGroup.generate", SPAN, "generate", _generated),
    ("groups", "FiniteGroup.abelianization", SPAN, "abelianization", None),
    ("groups", "FiniteGroup.normal_closure", SPAN, "normal_closure", None),
    ("groups", "FiniteGroup.conjugacy_class", SPAN, "conjugacy_class", None),
    ("groups", "FiniteGroup.derived_series", SPAN, "derived_series", None),
    ("groups", "FiniteGroup.imul", LEAF, "imul", None),
    ("groups", "FiniteRotationGroup.to_so4", SPAN, "to_so4", None),
    ("groups", "FiniteRotationGroup.acts_freely", SPAN, "acts_freely", None),
    ("quaternions", "fixed_set", SPAN, "fixed_set", None),
    ("quaternions", "has_fixed_points", SPAN, "has_fixed_points", None),
    ("cyclotomic", "ExactScalar.__mul__", LEAF, "mul", None),
    ("cyclotomic", "ExactScalar.__rmul__", LEAF, "mul", None),
    ("cyclotomic", "ExactScalar.__add__", LEAF, "add", None),
    ("cyclotomic", "ExactScalar.__radd__", LEAF, "add", None),
    ("cyclotomic", "ExactScalar.sign", LEAF, "sign", None),
    ("spaceforms", "build", SPAN, "build", None),
    ("spaceforms", "verify", SPAN, "verify", None),
)


class Tracer:
    """Per-hook counts and outermost inclusive time, per-module self time, spans."""

    def __init__(self):
        self.stack = [[0.0, -1]]  # frames: [time spent in traced children, span id]
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.active = Counter()
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []
        self.item = None
        self.installed = set()
        self.missing = []

    def wrap(self, module, key, func, record, on_result):
        stack, calls, active = self.stack, self.calls, self.active
        inclusive, self_time, spans = self.inclusive, self.self_time, self.spans

        def traced(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if record:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            active[key] += 1
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[key] -= 1
                if not active[key]:
                    inclusive[key] += dt
                self_time[module] += dt - frame[0]
                parent[0] += dt
                if record:
                    spans[frame[1]] = (key, t0, t0 + dt, parent[1], self.item)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = func
        return traced


def _resolve(module, path):
    owner = importlib.import_module(f"spherecover.{module}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if isinstance(owner, type):
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def install(tracer, hooks=HOOKS):
    """Wrap every hook; returns a function that restores the originals."""
    for module in MODULES:
        importlib.import_module(f"spherecover.{module}")
    package = [m for n, m in sys.modules.items()
               if n.startswith("spherecover.") and m is not None]
    undo = []
    for module, path, kind, label, on_result in hooks:
        try:
            owner, name, raw = _resolve(module, path)
        except (ImportError, AttributeError, KeyError):
            tracer.missing.append(f"{module}.{path}")
            continue
        key = f"{module}.{label}"
        tracer.installed.add(key)
        func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        new = tracer.wrap(module, key, func, kind == SPAN, on_result)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(new)
        setattr(owner, name, new)
        undo.append((owner, name, raw))
        if not isinstance(owner, type):
            for mod in package:
                for alias, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, alias, new)
                        undo.append((mod, alias, raw))

    def restore():
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)

    return restore


def layer_metrics(tracer, wall_s, overhead_frac):
    """Per-layer numbers for a traced pass whose items took ``wall_s`` seconds."""
    out = {}
    for key in tracer.installed:
        out[f"{key}_calls"] = tracer.calls[key]
        out[f"{key}_s"] = tracer.inclusive[key]
    if "presentations.todd_coxeter" in tracer.installed:
        out["presentations.cosets"] = tracer.counters["presentations.cosets"]
        out["presentations.capped_enumerations"] = tracer.counters["presentations.capped_enumerations"]
    if "groups.generate" in tracer.installed:
        elements = tracer.counters["groups.generated_elements"]
        gen_s = tracer.inclusive["groups.generate"]
        out["groups.generated_elements"] = elements
        out["groups.closure_elements_per_s"] = elements / gen_s if gen_s else 0.0
    for module in MODULES:
        out[f"{module}.self_frac"] = tracer.self_time.get(module, 0.0) / wall_s
    out["traced_wall_s"] = wall_s
    out["unattributed_frac"] = (wall_s - sum(tracer.self_time.values())) / wall_s
    out["trace_overhead_frac"] = overhead_frac
    return out
