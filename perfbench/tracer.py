"""Traced runs: wrap the package's public functions from outside and turn
the calls into per-layer counts, self times and spans.

Every public function of the traced modules is replaced at every place it
is looked up: its home module, every module that bound it with
`from ... import`, and the package namespace.  Methods of `Params` and
`Multipartition` are wrapped on the class.  Names that a later version of
the package no longer has are reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from functools import cached_property

from workloads import corners

MODULES = ("young", "params", "signstrings", "realizations", "engine", "naive", "serialize", "cli")
CLASSES = (("young", "Multipartition"), ("params", "Params"))

# Names the per-layer metrics rely on; some are slated for deletion, and
# their metrics then read 0 with the name listed as absent.
EXPECTED = (
    "young.check_partition",
    "young.multipartitions_up_to",
    "young.multipartitions_of",
    "params.Params.z_class",
    "params.Params.d_sort_key",
    "realizations.boundary",
    "realizations.boundary_classes",
    "realizations.crystal_add",
    "realizations.crystal_remove",
    "engine.removable_classes",
    "engine.depth",
    "engine.build_graph",
    "engine.verify",
    "signstrings.reduced_form",
    "cli.main",
)

SPAN_DEPTH = 2  # spans are kept for the job's calls and their direct children
SPAN_CAP = 100_000


class NullTracer:
    """Stand-in for untraced runs: wraps nothing and costs nothing."""

    def wrap(self, name, fn):
        return fn

    def count(self, key, n=1):
        pass


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # [span id, name, start, time in children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.next_id = 1
        self.absent: list[str] = []
        self.seen_boundaries: set = set()
        self.memos: dict[int, dict] = {}
        self.has_memo_arg = False
        self.hook_errors: set[str] = set()

    # --- span bookkeeping ------------------------------------------------

    def _enter(self, name):
        span_id = self.next_id
        self.next_id += 1
        self.stack.append([span_id, name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        span_id, name, start, children = self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - children
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        if len(self.stack) < SPAN_DEPTH:
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent, name, start, end))
            else:
                self.spans_dropped += 1

    def count(self, key, n=1):
        if self.enabled:
            self.counters[key] += n

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped in a span named `name`; hook sees args and result."""
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                tracer.calls[name] += 1
                return tracer._steps(name, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                try:
                    hook(args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    tracer.hook_errors.add(name)
            return result

        return wrapper

    def _steps(self, name, gen):
        """Drive a generator, one span per produced item."""
        while True:
            self._enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit()
            if name.startswith("young.multipartitions") and not (
                self.stack and self.stack[-1][1].startswith("young.")
            ):
                self.counters["young.multipartitions.count"] += 1
            yield item

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        mods = {name: importlib.import_module(f"signcrystal.{name}") for name in MODULES}
        replaced: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, self._hook_for(name))
        targets = list(mods.values()) + [importlib.import_module("signcrystal")]
        for mod in targets:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        for short, cls_name in CLASSES:
            self._wrap_class(short, getattr(mods[short], cls_name))
        depth_fn = getattr(mods["engine"], "depth", None)
        if depth_fn is not None:
            self.has_memo_arg = "memo" in inspect.signature(depth_fn).parameters
        if not self.has_memo_arg:
            self.absent.append("engine.depth(memo=)")
        self.absent += [name for name in EXPECTED if not self._resolves(mods, name)]

    @staticmethod
    def _resolves(mods, name) -> bool:
        short, *rest = name.split(".")
        obj = mods[short]
        for part in rest:
            obj = getattr(obj, part, None)
            if obj is None:
                return False
        return True

    def _wrap_class(self, short, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, cached_property):
                wrapped = cached_property(self.wrap(name, obj.func))
                wrapped.attrname = obj.attrname
                setattr(cls, attr, wrapped)
            elif isinstance(obj, property) and obj.fget is not None:
                setattr(cls, attr, property(self.wrap(name, obj.fget), obj.fset, obj.fdel))

    def _hook_for(self, name):
        return {
            "realizations.boundary": self._on_boundary,
            "realizations.crystal_add": self._on_op,
            "realizations.crystal_remove": self._on_op,
            "engine.depth": self._on_depth,
            "engine.build_graph": self._on_graph,
            "engine.verify": self._on_verify,
            "signstrings.reduced_form": self._on_reduce,
        }.get(name)

    # --- hooks: each reads only what the public signature promises -----

    def _on_boundary(self, args, kwargs, result):
        m, z = args[1], args[2]
        self.counters["boundary.entries"] += len(result.boxes)
        self.counters["boundary.scanned"] += sum(
            len(addable) + len(removable) for addable, removable in map(corners, m.components)
        )
        key = (m.components, z)
        if key in self.seen_boundaries:
            self.counters["boundary.repeats"] += 1
        else:
            self.seen_boundaries.add(key)

    def _on_op(self, args, kwargs, result):
        if result is not None:
            self.counters["op.useful"] += 1

    def _on_depth(self, args, kwargs, result):
        memo = kwargs.get("memo", args[2] if len(args) > 2 else None)
        if memo is not None:
            self.memos[id(memo)] = memo

    def _on_graph(self, args, kwargs, result):
        self.counters["graph.nodes"] += len(result.nodes)
        self.counters["graph.edges"] += len(result.edges)

    def _on_verify(self, args, kwargs, result):
        self.counters["verify.checked"] += result.checked

    def _on_reduce(self, args, kwargs, result):
        self.counters["signstrings.symbols"] += len(args[0])

    # --- results ---------------------------------------------------------

    def module_self(self, module) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced job, keyed by metric name."""
        calls, self_s, c = self.calls, self.self_s, self.counters
        boundary_calls = calls["realizations.boundary"]
        op_calls = calls["realizations.crystal_add"] + calls["realizations.crystal_remove"]
        return {
            "young.check_partition.calls": calls["young.check_partition"],
            "young.multipartitions.count": c["young.multipartitions.count"],
            "young.self_s": self.module_self("young"),
            "params.z_class.calls": calls["params.Params.z_class"],
            "params.d_sort_key.calls": calls["params.Params.d_sort_key"],
            "params.self_s": self.module_self("params"),
            "realizations.boundary.calls": boundary_calls,
            "realizations.boundary.self_s": self_s["realizations.boundary"],
            "realizations.boundary.scan_yield": _ratio(c["boundary.entries"], c["boundary.scanned"]),
            "realizations.boundary.repeat_ratio": _ratio(c["boundary.repeats"], boundary_calls),
            "realizations.op.calls": op_calls,
            "realizations.op.useful_ratio": _ratio(c["op.useful"], op_calls),
            "realizations.op.self_s": self_s["realizations.crystal_add"]
            + self_s["realizations.crystal_remove"],
            "engine.depth.calls": calls["engine.depth"],
            "engine.depth.states": sum(len(m) for m in self.memos.values()),
            "engine.depth.self_s": self_s["engine.depth"],
            "engine.graph.nodes": c["graph.nodes"],
            "engine.graph.edges": c["graph.edges"],
            "engine.build_graph.self_s": self_s["engine.build_graph"],
            "engine.verify.checked": c["verify.checked"],
            "engine.verify.self_s": self_s["engine.verify"],
            "signstrings.reduced_form.calls": calls["signstrings.reduced_form"],
            "signstrings.symbols": c["signstrings.symbols"],
            "signstrings.self_s": self.module_self("signstrings"),
            "naive.calls": sum(v for k, v in calls.items() if k.startswith("naive.")),
            "naive.self_s": self.module_self("naive"),
            "serialize.calls": sum(v for k, v in calls.items() if k.startswith("serialize.")),
            "serialize.bytes_out": c["serialize.bytes_out"],
            "serialize.self_s": self.module_self("serialize"),
            "cli.main.calls": calls["cli.main"],
            "cli.self_s": self.module_self("cli"),
            "cli.contract_breaches": c["cli.contract_breaches"],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0
