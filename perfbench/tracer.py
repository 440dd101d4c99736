"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the ``dihedralcodes`` package from outside:
``install`` replaces every module binding of each listed function (and the
listed class attributes) with a wrapper, ``uninstall`` puts the originals
back.  Spans (id, name, start, end, parent id, op id, status) and counters
are kept in memory and written as JSON once, at the end of the run.

Nothing here imports the library at module import time, so the benchmark's
parent process can read the metric names without loading it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "dihedralcodes"

# (module, attribute, span name).  "Class.attr" patches the class attribute;
# a plain name is patched in every module of the package that binds it.
# The two distance engines are private, but they are the only way into the
# exhaustive and dual searches, so they are wrapped too.
SPANS = (
    ("gf", "make_field", "gf.make_field"),
    ("gf", "FieldCtx.generator", "gf.generator"),
    ("gf", "element_order", "gf.generator"),
    ("gf", "primitive_nth_root", "gf.generator"),
    ("gf", "arith_tables", "gf.arith_tables"),
    ("linalg", "MatrixGF.rref", "linalg.rref"),
    ("linalg", "MatrixGF.kernel_basis", "linalg.kernel"),
    ("dihedral", "AlgebraElement.__mul__", "dihedral.mul"),
    ("dihedral", "left_ideal_basis", "dihedral.left_ideal_basis"),
    ("idempotents", "cyclic_idempotent", "idempotents.cyclic"),
    ("wedderburn", "transform_matrices", "wedderburn.transform"),
    ("wedderburn", "code_from_ideal_spec", "wedderburn.code_from_spec"),
    ("codes", "construct_code", "codes.construct"),
    ("codes", "LinearCode.__init__", "codes.linear_code"),
    ("codes", "_exhaustive_distance", "codes.exhaustive"),
    ("codes", "_dual_distance", "codes.dual"),
    ("cli", "cmd_construct", "cli.construct"),
    ("cli", "cmd_analyze", "cli.analyze"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_example", "cli.example"),
)

# FieldElement arithmetic is far too frequent for spans; it is only counted.
ELEM_OPS = tuple(
    ("gf", f"FieldElement.{name}", "gf.elem_ops")
    for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
    )
)

LAYERS = ("gf", "linalg", "dihedral", "idempotents", "wedderburn", "codes", "cli")

# Every per-layer metric the traced run reports: name -> unit.
METRICS = {
    "gf.make_field.s": "s",
    "gf.generator.s": "s",
    "gf.arith_tables.s": "s",
    "gf.arith_tables.builds": "count",
    "gf.elem_ops": "count",
    "linalg.rref.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.kernel.s": "s",
    "dihedral.mul.calls": "count",
    "dihedral.mul.self_s": "s",
    "dihedral.left_ideal_basis.s": "s",
    "dihedral.left_ideal_basis.rows": "count",
    "idempotents.cyclic.calls": "count",
    "idempotents.cyclic.s": "s",
    "wedderburn.transform.s": "s",
    "wedderburn.transform.builds": "count",
    "wedderburn.code_from_spec.s": "s",
    "codes.construct.s": "s",
    "codes.construct.self_s": "s",
    "codes.linear_code.s": "s",
    "codes.exhaustive.s": "s",
    "codes.exhaustive.words": "count",
    "codes.dual.s": "s",
    "codes.dual.calls": "count",
    "codes.dual.over_budget": "count",
    "cli.startup.s": "s",
    "cli.construct.s": "s",
    "cli.analyze.s": "s",
    "cli.sweep.s": "s",
    "cli.example.s": "s",
    "cli.refused": "count",
    "trace.overhead_frac": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}

# The metrics BENCHMARK.json lists: the counts, and the times of the layers
# that every workload reaches.  A time of a layer that a workload never
# reaches (cli on families, say) would read 0 in every run; those are
# printed and written to the trace file, but not reported as metrics.
REPORTED = tuple(
    name for name, unit in METRICS.items()
    if unit != "s" or name in {
        "gf.make_field.s", "gf.generator.s", "gf.arith_tables.s", "linalg.rref.self_s",
        "linalg.kernel.s", "codes.linear_code.s", "codes.dual.s",
        "gf.self_s", "linalg.self_s", "codes.self_s",
    }
)


# Counters computed from a call's arguments and result (labelled "computed"
# in the documentation: they are derived sizes, not measured work).
def _rref_cells(args, result):
    return {"linalg.rref.cells": args[0].rows * args[0].cols}


def _ideal_rows(args, result):
    return {"dihedral.left_ideal_basis.rows": len(args[0]) * result.cols}


def _exhaustive_words(args, result):
    gen = args[0]
    return {"codes.exhaustive.words": gen.ctx.q ** gen.rows - 1}


EXTRAS = {
    "linalg.rref": _rref_cells,
    "dihedral.left_ideal_basis": _ideal_rows,
    "codes.exhaustive": _exhaustive_words,
}

# span name -> function of the positional arguments naming the cached object
BUILD_KEYS = {
    "gf.arith_tables": lambda args: args[0],
    "wedderburn.transform": lambda args: (args[0], args[1]),
}


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self, over_budget: type[BaseException] | None = None):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.op_id = None
        self._over_budget = over_budget
        self._stack: list[int] = []
        self._next_id = 0
        self._seen: dict[str, set] = defaultdict(set)
        self._elem_count = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name in SPANS:
            self._patch(module, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for module, attr, name in ELEM_OPS:
            self._patch(module, attr, self._count_wrapper)

    def next_op(self, op_id) -> None:
        """Label the spans that follow; drops any span an interrupt left open."""
        self.op_id = op_id
        self._stack.clear()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._stack.clear()

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        try:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
        except ImportError:
            self.absent.append(f"{module}.{attr}")
            return
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            original = vars(cls).get(meth) if isinstance(cls, type) else None
            if original is None:
                self.absent.append(f"{module}.{attr}")
                return
            self._patches.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(mod, attr, None)
        if original is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod_name, other in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(other).items()):
                if value is original:
                    self._patches.append((other, name, original))
                    setattr(other, name, wrapper)

    def _count_wrapper(self, fn):
        cell = self._elem_count

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, fn, name: str):
        tracer = self
        stack = self._stack
        extra = EXTRAS.get(name)
        build_key = BUILD_KEYS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            if build_key is not None:
                key = build_key(args)
                if key not in tracer._seen[name]:
                    tracer._seen[name].add(key)
                    tracer.counters[f"{name}.builds"] += 1
            status = "ok"
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                if tracer._over_budget is not None and isinstance(exc, tracer._over_budget):
                    tracer.counters[f"{name}.over_budget"] += 1
                raise
            finally:
                end = time.perf_counter()
                if stack and stack[-1] == span_id:
                    stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id, status))
                tracer.counters[f"{name}.calls"] += 1
            if extra is not None:
                tracer._add_extra(name, extra, args, result)
            return result

        return traced

    def _add_extra(self, name, extra, args, result) -> None:
        try:
            self.counters.update(extra(args, result))
        except (AttributeError, TypeError, IndexError):
            self.absent.append(f"{name} (computed counter)")

    # -- output ------------------------------------------------------------

    def document(self) -> dict:
        counters = Counter(self.counters)
        counters["gf.elem_ops"] += self._elem_count[0]
        return {"spans": self.spans, "counters": dict(counters), "absent": sorted(set(self.absent))}


def summarize(doc: dict) -> Counter:
    """Inclusive time, self time and counters of one trace document.

    A span's self time is its duration minus that of its direct children.
    A name's inclusive time ("<name>.s") adds up only its outermost spans,
    so recursion or nesting within one name is not counted twice.
    """
    spans = {s[0]: s for s in doc["spans"]}
    child_time: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent, _, _ in spans.values():
        if parent is not None:
            child_time[parent] += end - start
    out: Counter = Counter(doc["counters"])
    for span_id, name, start, end, parent, _, _ in spans.values():
        duration = end - start
        self_time = duration - child_time[span_id]
        out[f"{name}.self_s"] += self_time
        out[f"{name.split('.')[0]}.self_s"] += self_time
        ancestor = spans.get(parent)
        while ancestor is not None and ancestor[1] != name:
            ancestor = spans.get(ancestor[4])
        if ancestor is None:
            out[f"{name}.s"] += duration
    return out


def layer_metrics(summary: Counter) -> dict[str, float]:
    """Every metric of METRICS, zero where its layer did not run."""
    return {name: summary.get(name, 0) for name in METRICS}


def write(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
