"""Spans around bracketlab's public functions, installed from outside the program.

``Tracer.install()`` replaces each public function of the traced modules
(and a few methods and private builders, listed below) with a wrapper, in
every bracketlab namespace that holds it, and ``uninstall()`` puts the
originals back.  A wrapped call records a span: name, start, end, parent
span, and the workload item it ran for.  Self times are derived from the
stored spans after the run.

Ring arithmetic runs millions of times per item, so calls into ``rings``
(and ``bracket.crossing_color_pair``) are leaf calls: they are timed and
counted like spans and their time is charged to the enclosing span, but
only per-name totals are kept in memory.  Leaf calls only ever call other
leaves.

Time spent in the tracer's own bookkeeping is taken off a virtual clock,
so spans measure the program, not the wrappers; what remains is the cost
of the wrapper call itself, which the traced run reports as overhead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

MODULES = ("rings", "biquandle", "diagram", "bracket", "cocycle", "homology", "graded", "corpus")
METHODS = {
    "rings": {
        "Ring": ("sub", "power", "int_mul", "is_unit", "units"),
        "ZModRing": ("add", "mul", "neg", "try_invert", "elements"),
        "PolyQuotientRing": ("add", "mul", "neg", "try_invert", "elements"),
        "Coset": ("canonical", "mul", "inv"),
    },
    "graded": {"GradedComplex": ("validate",)},
}
PRIVATE = {"homology": ("_build_cube_complex",)}
LEAF_MODULES = ("rings",)
LEAF_NAMES = ("bracket.crossing_color_pair",)

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # (name id, start, end, parent span or -1, item, time in leaf children)
        self.spans: List[Tuple[int, float, float, int, int, float]] = []
        self.leaves: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counters: Counter = Counter()
        self.distinct: Dict[str, set] = defaultdict(set)
        self.item = -1
        self.active = False
        self._stack: List[list] = []  # [span index or -1 for a leaf, start, leaf time]
        self._offset = 0.0
        self._restore: List[Tuple[object, str, object]] = []

    # -- clock and spans --------------------------------------------------

    def now(self) -> float:
        return perf_counter() - self._offset

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _parent(self) -> int:
        for frame in reversed(self._stack):
            if frame[0] >= 0:
                return frame[0]
        return -1

    def call_span(self, name_id: int, fn, args, kwargs, pre=None, post=None):
        enter = perf_counter()
        if pre:
            pre(self, args, kwargs)
        index = len(self.spans)
        parent = self._parent()
        self.spans.append(None)
        frame = [index, 0.0, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        self._offset += start - enter
        frame[1] = start - self._offset
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            leave = perf_counter()
            self._stack.pop()
            self.spans[index] = (name_id, frame[1], leave - self._offset, parent, self.item, frame[2])
            if post:
                post(self, result)
            self._offset += perf_counter() - leave

    def call_leaf(self, name: str, fn, args, kwargs):
        enter = perf_counter()
        frame = [-1, 0.0, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        self._offset += start - enter
        frame[1] = start - self._offset
        try:
            return fn(*args, **kwargs)
        finally:
            leave = perf_counter()
            self._stack.pop()
            duration = leave - self._offset - frame[1]
            totals = self.leaves[name]
            totals[0] += 1
            totals[1] += duration
            totals[2] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            self._offset += perf_counter() - leave

    @contextmanager
    def span(self, name: str):
        """A span around benchmark code, such as serialising a report."""
        if not self.active:
            yield
            return
        index = len(self.spans)
        parent = self._parent()
        self.spans.append(None)
        frame = [index, self.now(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (self._id(name), frame[1], self.now(), parent, self.item, frame[2])

    def count(self, name: str, amount: int = 1):
        if self.active:
            self.counters[name] += amount

    # -- installing wrappers ----------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name.split(".")[0] in LEAF_MODULES or name in LEAF_NAMES:
            def leaf(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                return tracer.call_leaf(name, fn, args, kwargs)

            return functools.wraps(fn)(leaf)
        name_id = self._id(name)
        pre, post = HOOKS.get(name, (None, None))

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            return tracer.call_span(name_id, fn, args, kwargs, pre, post)

        return functools.wraps(fn)(wrapper)

    def install(self, callers=()):
        """Wrap, in bracketlab's namespaces and in the calling modules ``callers``."""
        import bracketlab

        modules = [importlib.import_module(f"bracketlab.{m}") for m in MODULES]
        namespaces = [bracketlab, *modules, importlib.import_module("bracketlab.cli"), *callers]
        replace = {}
        for layer, module in zip(MODULES, modules):
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replace[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    raw = cls.__dict__[attr]
                    if isinstance(raw, property):
                        wrapped = property(self._wrap(f"{layer}.{attr}", raw.fget))
                    else:
                        wrapped = self._wrap(f"{layer}.{attr}", raw)
                    self._restore.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, replace[id(obj)][1])

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- derived figures --------------------------------------------------

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
        """Per span name: total self time, total time, and call count."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for k, (name_id, start, end, parent, _, leaf_time) in enumerate(self.spans):
            name = self.names[name_id]
            self_s[name] += end - start - child[k] - leaf_time
            total_s[name] += end - start
            calls[name] += 1
        for name, (n, total, own) in self.leaves.items():
            self_s[name] += own
            total_s[name] += total
            calls[name] += int(n)
        return self_s, total_s, calls


# -- hooks: counts taken at the layer boundaries --------------------------


def _bracket_key(beta) -> tuple:
    X = beta.biquandle
    return (repr(beta.ring), beta.A, beta.B, X.under_table, X.over_table)


def _pre_resolve_state(t, args, kwargs):
    D, bits = args[0], args[1]
    t.distinct["diagram.states"].add((D, tuple(bits)))


def _post_enumerate(t, result):
    t.counters["biquandle.colorings"] += len(result or ())


def _pre_scalar_group(t, args, kwargs):
    x0 = args[1] if len(args) > 1 else kwargs.get("x0", 1)
    t.distinct["cocycle.brackets"].add((_bracket_key(args[0]), x0))


def _pre_khovanov(t, args, kwargs):
    t.distinct["homology.khovanov"].add(args[0])


def _pre_bh(t, args, kwargs):
    beta, f = args[0], args[1]
    x0 = args[2] if len(args) > 2 else kwargs.get("x0", 1)
    t.distinct["homology.bh"].add((_bracket_key(beta), f.diagram, f.arc_colors, x0))


def _post_build(t, result):
    if result is not None:
        t.counters["homology.basis_total"] += sum(len(v) for v in result.degrees.values())


def _pre_snf(t, args, kwargs):
    m = args[0]
    t.counters["graded.snf_cells"] += len(m) * (len(m[0]) if m else 0)


def _pre_cohomology(t, args, kwargs):
    for matrix in args[0].differentials.values():
        t.counters["graded.differential_cells"] += len(matrix) * len(matrix[0])
        t.counters["graded.differential_nonzeros"] += sum(1 for row in matrix for v in row if v)


def _post_check_all(t, result):
    t.counters["corpus.checks"] += len(result or ())


HOOKS = {
    "diagram.resolve_state": (_pre_resolve_state, None),
    "biquandle.enumerate_colorings": (None, _post_enumerate),
    "cocycle.scalar_group": (_pre_scalar_group, None),
    "homology.khovanov_classical": (_pre_khovanov, None),
    "homology.bh_invariant": (_pre_bh, None),
    "homology._build_cube_complex": (None, _post_build),
    "graded.smith_normal_form": (_pre_snf, None),
    "graded.cohomology": (_pre_cohomology, None),
    "corpus.check_all": (None, _post_check_all),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced round, named as in BENCHMARK.json."""
    self_s, total_s, calls = t.self_times()

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    states = len(t.distinct["diagram.states"])
    brackets = len(t.distinct["cocycle.brackets"])
    kh = len(t.distinct["homology.khovanov"])
    bh = len(t.distinct["homology.bh"])
    c = t.counters
    return {
        "rings.try_invert_calls": calls["rings.try_invert"],
        "rings.try_invert_s": total_s["rings.try_invert"],
        "rings.coset_canonical_calls": calls["rings.canonical"],
        "rings.self_s": layer_self("rings"),
        "biquandle.enumerate_calls": calls["biquandle.enumerate_colorings"],
        "biquandle.colorings": c["biquandle.colorings"],
        "biquandle.enumerate_s": total_s["biquandle.enumerate_colorings"],
        "diagram.resolve_state_calls": calls["diagram.resolve_state"],
        "diagram.states_distinct": states,
        "diagram.states_distinct_ratio": _ratio(states, calls["diagram.resolve_state"]),
        "diagram.resolve_state_s": total_s["diagram.resolve_state"],
        "bracket.bracket_value_calls": calls["bracket.bracket_value"],
        "bracket.bracket_value_self_s": self_s["bracket.bracket_value"],
        "bracket.verify_s": total_s["bracket.verify_bracket"],
        "cocycle.scalar_group_calls": calls["cocycle.scalar_group"],
        "cocycle.scalar_group_brackets": brackets,
        "cocycle.scalar_group_distinct_ratio": _ratio(brackets, calls["cocycle.scalar_group"]),
        "cocycle.self_s": layer_self("cocycle"),
        "homology.khovanov_calls": calls["homology.khovanov_classical"],
        "homology.khovanov_distinct": kh,
        "homology.khovanov_distinct_ratio": _ratio(kh, calls["homology.khovanov_classical"]),
        "homology.bh_calls": calls["homology.bh_invariant"],
        "homology.bh_distinct": bh,
        "homology.bh_distinct_ratio": _ratio(bh, calls["homology.bh_invariant"]),
        "homology.basis_total": c["homology.basis_total"],
        "homology.build_self_s": self_s["homology._build_cube_complex"],
        "graded.validate_s": total_s["graded.validate"],
        "graded.cohomology_self_s": self_s["graded.cohomology"],
        "graded.snf_calls": calls["graded.smith_normal_form"],
        "graded.snf_cells": c["graded.snf_cells"],
        "graded.differential_cells": c["graded.differential_cells"],
        "graded.differential_nonzeros": c["graded.differential_nonzeros"],
        "corpus.checks": c["corpus.checks"],
        "corpus.self_s": layer_self("corpus"),
        "cli.json_s": total_s["cli.json"],
        "cli.json_bytes": c["cli.json_bytes"],
    }
