"""In-memory span tracer that wraps wittlab's public functions from outside.

Nothing under ``src/`` is changed: `Tracer.install` replaces every module
binding of each traced function (the defining module's own name and every
``from .x import f`` copy in other modules) with a wrapper, and every
patched method on its class.  Span wrappers record
``[name, start_ns, end_ns, parent_index, op_id, dim]``; count wrappers on
the field arithmetic only add to a counter, because those methods run
millions of times per second and a span each would swamp the trace.
`Tracer.uninstall` puts the original objects back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module under wittlab, attribute path); the span or counter name is
# "<module>.<path>"
SPANNED = (
    ("linalg", "invert_exact"), ("linalg", "solve_valued"),
    ("quadform", "gram_of"), ("quadform", "symplectic_blocks"),
    ("quadform", "QuadraticForm.evaluate"),
    ("norms", "initial_norm"), ("norms", "check_compatibility"),
    ("norms", "induced_space"), ("norms", "depth_reduce"),
    ("norms", "split_respecting_norm"), ("norms", "wildness_index"),
    ("graded", "metabolic_planes"), ("graded", "orbit_invariants"),
    ("graded", "descend_case1"),
    ("residue_witt", "kquad_witt_class"),
    ("residue_witt", "kquad_is_hyperbolic_witnessed"),
    ("arason", "canonical_decomposition"), ("arason", "witt_equal"),
    ("arason", "class_is_zero_tame_oracle"),
    ("literals", "parse_form"), ("fields", "field_shorthand"), ("cli", "main"),
)
COUNTED = tuple((f"fields.{mod}", f"{cls}.{meth}")
                for mod, cls in (("laurent", "Laurent"), ("dyadic", "Dyadic"),
                                 ("ratfunc", "RatFunc"))
                for meth in ("__mul__", "__add__", "inv"))
SPANNED_NAMES = tuple(f"{m}.{p}" for m, p in SPANNED)
COUNTED_NAMES = tuple(f"{m}.{p}" for m, p in COUNTED)

# The import bindings each workload must drive at least one call through.
# A binding that exists but records no call means the tracer missed a path,
# and the traced run fails instead of reporting a silently low count.
REQUIRED_BINDINGS = {
    "laurent-pipeline": [
        "norms.gram_of", "norms.symplectic_blocks", "norms.wildness_index",
        "arason.wildness_index", "arason.induced_space",
        "arason.orbit_invariants", "norms.initial_norm",
        "norms.check_compatibility", "norms.depth_reduce",
        "norms.induced_space", "graded.metabolic_planes",
        "linalg.invert_exact", "arason.canonical_decomposition",
    ],
    "ratfunc-semidecision": [
        "norms.gram_of", "norms.symplectic_blocks", "arason.wildness_index",
        "arason.induced_space", "arason.class_is_zero_tame_oracle",
        "graded.descend_case1", "arason.witt_equal",
        "residue_witt.kquad_is_hyperbolic_witnessed",
    ],
    "q2-class-sums": [
        "norms.gram_of", "norms.symplectic_blocks", "arason.wildness_index",
        "arason.induced_space", "arason.canonical_decomposition",
    ],
    "cli-batch": [
        "cli.main", "cli.field_shorthand", "cli.parse_form",
        "arason.wildness_index", "arason.witt_equal",
    ],
}


class TraceError(Exception):
    """The tracer's own self-check failed."""


def _resolve(modname, path):
    mod = importlib.import_module(f"wittlab.{modname}")
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counts = Counter()
        self.binding_calls = Counter()
        self._patched = []

    # -- installation ---------------------------------------------------------

    def install(self):
        for modname, path in SPANNED:
            name = f"{modname}.{path}"
            owner, attr, orig = _resolve(modname, path)
            if isinstance(owner, type):
                self._patch(owner, attr, self._span_wrapper(orig, name, name))
                continue
            for mod in _wittlab_modules():
                for bname, val in list(vars(mod).items()):
                    if val is orig:
                        binding = f"{_short(mod)}.{bname}"
                        self._patch(mod, bname,
                                    self._span_wrapper(orig, name, binding))
        for modname, path in COUNTED:
            owner, attr, orig = _resolve(modname, path)
            self._patch(owner, attr, self._count_wrapper(orig, f"{modname}.{path}"))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, fn, name, binding):
        spans, stack, calls = self.spans, self.stack, self.binding_calls
        clock = time.perf_counter_ns
        tracer = self
        dim_of = name == "norms.wildness_index"
        # depth_reduce returns a re-certified norm or NotReducible evidence
        count_certified = name == "norms.depth_reduce"

        def wrapper(*args, **kwargs):
            calls[binding] += 1
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op_id,
                   args[0].n if dim_of else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count_certified and type(result).__name__ == "DepthCertificate":
                tracer.counts["norms.depth_reduce.certified"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-op root spans ----------------------------------------------------

    def run_op(self, op_id, name, fn):
        """Run fn() under a root span named ``op.<name>``."""
        self.op_id = op_id
        rec = [f"op.{name}", 0, 0, -1, op_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn()
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per-span self time in ns: duration minus its children's durations."""
        self_ns = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                self_ns[s[3]] -= s[2] - s[1]
        return self_ns

    def check_self_time_sums(self):
        """Within each op, the self times of all its spans are non-negative
        (children nest inside their parent) and sum to the root span."""
        self_ns = self.self_times()
        if min(self_ns, default=0) < 0:
            raise TraceError("a span's children outlast it")
        per_op = Counter()
        roots = {}
        for i, s in enumerate(self.spans):
            per_op[s[4]] += self_ns[i]
            if s[3] < 0:
                if s[4] in roots:
                    raise TraceError(f"op {s[4]} has two root spans")
                roots[s[4]] = s[2] - s[1]
        bad = [op for op, total in per_op.items() if total != roots.get(op)]
        if bad:
            raise TraceError(
                f"self times do not sum to the root span in ops {bad[:5]}")

    def check_bindings(self, workload):
        """Every required binding that exists recorded at least one call."""
        missing = []
        for binding in REQUIRED_BINDINGS[workload]:
            modname, _, attr = binding.rpartition(".")
            mod = sys.modules.get(f"wittlab.{modname}")
            if mod is None or not hasattr(mod, attr):
                continue  # the binding is gone from the library: nothing to miss
            if self.binding_calls[binding] == 0:
                missing.append(binding)
        if missing:
            raise TraceError(
                f"traced bindings recorded no call on {workload}: {missing}")

    def canonical_rounds(self):
        """(wildness_index calls per canonical_decomposition call, largest
        form dimension any of them saw)."""
        nearest = {}
        rounds = Counter()
        max_dim = 0
        for i, s in enumerate(self.spans):
            parent = s[3]
            if parent >= 0 and self.spans[parent][0] == "arason.canonical_decomposition":
                nearest[i] = parent
            else:
                nearest[i] = nearest.get(parent)
            if s[0] == "norms.wildness_index" and nearest[i] is not None:
                rounds[nearest[i]] += 1
                max_dim = max(max_dim, s[5])
        canon = sum(1 for s in self.spans if s[0] == "arason.canonical_decomposition")
        return (sum(rounds.values()) / canon if canon else 0.0), max_dim

    def write(self, path):
        """Write every span as one JSON line."""
        keys = ("name", "start_ns", "end_ns", "parent", "op", "dim")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def _wittlab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "wittlab" or n.startswith("wittlab."))]


def _short(mod):
    return mod.__name__[len("wittlab."):] if mod.__name__ != "wittlab" else "wittlab"
