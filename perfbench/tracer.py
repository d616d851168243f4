"""Per-layer tracing of uqsl2, installed from outside the package.

`Tracer.install` replaces the public functions and public methods of each
layer module with timing wrappers.  A module-level function is replaced at
every name it is bound to in any loaded uqsl2 module, including dict values:
moncat does ``from .reps import hom_to_simple``, so patching ``reps`` alone
would miss every call the decomposition engine makes.  Methods are replaced
on their class, which every binding shares.

Each wrapped call pushes a frame.  A span records name, start, end, parent
span and instance id and is kept in memory until `dump`.  Calls that run
10^5..10^6 times per repetition (`AGGREGATED`) are folded into per-(name,
parent layer) totals instead of one span each.  Self time is a call's duration
minus the time of the wrapped calls made inside it, so the layer self times
partition the traced time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cyclo", "linalg", "qgroup", "quasihopf", "reps", "moncat", "cli")

# cyclo is traced at its two arithmetic kernels only; its other public
# helpers build constants and their cost belongs to the caller.
CYCLO_TARGETS = ("Scalar.__mul__", "FieldContext.inverse")

AGGREGATED = frozenset(
    {
        "cyclo.Scalar.__mul__",
        "cyclo.FieldContext.inverse",
        "reps.Representation.apply_map",
        "qgroup.AlgebraContext.mono_mul",
        # per-column helpers of the Hom solvers, 10^4..10^5 calls per product
        "reps.Representation.apply_E",
        "reps.Representation.apply_F",
        "reps.Representation.column_E_power",
        "reps.Representation.column_F_then_E",
        "linalg.BlockKernel.add",
    }
)

ROOT_LAYER = "bench"


def _targets(layer: str, module) -> list[tuple[str, object, str]]:
    """(qualified name, owner, attribute) for every traced callable of a layer."""
    if layer == "cyclo":
        out = []
        for qual in CYCLO_TARGETS:
            cls_name, attr = qual.split(".")
            out.append((qual, getattr(module, cls_name), attr))
        return out
    out = []
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value) and value.__module__ == module.__name__:
            out.append((name, module, name))
        elif inspect.isclass(value) and value.__module__ == module.__name__:
            for attr, member in vars(value).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((f"{name}.{attr}", value, attr))
    return out


def _bindings():
    """(namespace, key, value) for every global of a loaded uqsl2 module and
    every value of a dict held in one."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "uqsl2" and not mod_name.startswith("uqsl2."):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            yield namespace, key, value
            if isinstance(value, dict):
                for k, item in list(value.items()):
                    yield value, k, item


class Tracer:
    """Spans and aggregated counts for one traced process."""

    def __init__(self) -> None:
        self.instance = -1
        self.spans: list = []
        # name -> [calls, total_ns, self_ns]
        self.totals: dict[str, list[int]] = {}
        # aggregated name -> parent layer -> [calls, total_ns, self_ns]
        self.by_parent: dict[str, dict[str, list[int]]] = {}
        self.layer_of: dict[str, str] = {}
        self._originals: dict[int, object] = {}
        self.echelon_useful = 0
        self.blockkernel_skips = 0
        self.hom_to_simple_zero = 0
        self.tensor_dim_sum = 0
        self.inverse_args: set = set()
        self.mono_mul_args: set = set()
        # frame: [layer, child_ns, nearest span id, had Echelon.add child, name]
        self._stack: list[list] = [[ROOT_LAYER, 0, -1, False, ROOT_LAYER]]
        self._observers = {
            "linalg.Echelon.add": self._see_echelon_add,
            "linalg.BlockKernel.add": self._see_blockkernel_add,
            "reps.hom_to_simple": self._see_hom_to_simple,
            "moncat.tensor": self._see_tensor,
            "cyclo.FieldContext.inverse": self._see_inverse,
            "qgroup.AlgebraContext.mono_mul": self._see_mono_mul,
        }

    # -- observers: counts taken where the work happens -----------------------

    def _see_echelon_add(self, args, result, frame, parent) -> None:
        if result:
            self.echelon_useful += 1
        if parent[4] == "linalg.BlockKernel.add":
            parent[3] = True

    def _see_blockkernel_add(self, args, result, frame, parent) -> None:
        if not frame[3]:
            self.blockkernel_skips += 1

    def _see_hom_to_simple(self, args, result, frame, parent) -> None:
        if not result:
            self.hom_to_simple_zero += 1

    def _see_tensor(self, args, result, frame, parent) -> None:
        self.tensor_dim_sum += result.dim

    def _see_inverse(self, args, result, frame, parent) -> None:
        s = args[1]
        self.inverse_args.add((s.num, s.den))

    def _see_mono_mul(self, args, result, frame, parent) -> None:
        self.mono_mul_args.add((args[1], args[2]))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        total = self.totals.setdefault(name, [0, 0, 0])
        observe = self._observers.get(name)
        tracer = self

        if name in AGGREGATED:
            table = self.by_parent.setdefault(name, {})

            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                parent = stack[-1]
                frame = [layer, 0, parent[2], False, name]
                stack.append(frame)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    parent[1] += dt
                    own = dt - frame[1]
                    total[0] += 1
                    total[1] += dt
                    total[2] += own
                    rec = table.get(parent[0])
                    if rec is None:
                        rec = table[parent[0]] = [0, 0, 0]
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += own
                if observe is not None:
                    observe(args, result, frame, parent)
                return result

            return aggregated

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            frame = [layer, 0, sid, False, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[1] += dt
                own = dt - frame[1]
                total[0] += 1
                total[1] += dt
                total[2] += own
                spans[sid] = (name, t0, t1, parent[2], tracer.instance, own)
            if observe is not None:
                observe(args, result, frame, parent)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every layer callable, at its definition and at every binding."""
        for layer in LAYERS:
            importlib.import_module(f"uqsl2.{layer}")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            for qual, owner, attr in _targets(layer, sys.modules[f"uqsl2.{layer}"]):
                name = f"{layer}.{qual}"
                original = vars(owner)[attr]
                wrapper = self._wrap(name, layer, original)
                self.layer_of[name] = layer
                wrappers[id(original)] = wrapper
                setattr(owner, attr, wrapper)
        for container, key, value in _bindings():
            if id(value) in wrappers:
                container[key] = wrappers[id(value)]
        self._originals = {id(w.__wrapped__): w.__wrapped__ for w in wrappers.values()}

    def unwrapped_bindings(self) -> list[str]:
        """Names in uqsl2 modules still bound to an original traced callable."""
        return [
            f"{container.get('__name__', 'dict')}[{key!r}]"
            for container, key, value in _bindings()
            if id(value) in self._originals and self._originals[id(value)] is value
        ]

    # -- instances --------------------------------------------------------------

    def run_instance(self, instance_id: int, fn, *args):
        """Call fn(*args) under a root span tagged with instance_id."""
        self.instance = instance_id
        stack = self._stack
        root = stack[-1]
        sid = len(self.spans)
        self.spans.append(None)
        frame = [ROOT_LAYER, 0, sid, False, "bench.instance"]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            root[1] += t1 - t0
            self.spans[sid] = ("bench.instance", t0, t1, -1, instance_id, t1 - t0 - frame[1])
            self.instance = -1

    # -- results ----------------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0, 0])[0]

    def _self_s(self, name: str) -> float:
        return self.totals.get(name, [0, 0, 0])[2] / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if self.layer_of[n] == layer) / 1e9

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a ratio whose base is 0 reads 0."""

        def ratio(num: int, den: int) -> float:
            return num / den if den else 0.0

        mul = "cyclo.Scalar.__mul__"
        inv = "cyclo.FieldContext.inverse"
        ech = "linalg.Echelon.add"
        bk = "linalg.BlockKernel.add"
        hts = "reps.hom_to_simple"
        mono = "qgroup.AlgebraContext.mono_mul"
        return {
            "cyclo.mul_calls": self._calls(mul),
            "cyclo.mul_self_s": self._self_s(mul),
            "cyclo.inverse_calls": self._calls(inv),
            "cyclo.inverse_distinct_ratio": ratio(len(self.inverse_args), self._calls(inv)),
            "cyclo.inverse_self_s": self._self_s(inv),
            "linalg.echelon_add_calls": self._calls(ech),
            "linalg.echelon_add_useful_ratio": ratio(self.echelon_useful, self._calls(ech)),
            "linalg.blockkernel_add_calls": self._calls(bk),
            "linalg.blockkernel_skip_ratio": ratio(self.blockkernel_skips, self._calls(bk)),
            "linalg.self_s": self.layer_self_s("linalg"),
            "reps.hom_to_simple_calls": self._calls(hts),
            "reps.hom_to_simple_zero_ratio": ratio(self.hom_to_simple_zero, self._calls(hts)),
            "reps.hom_from_simple_calls": self._calls("reps.hom_from_simple"),
            "reps.apply_map_calls": self._calls("reps.Representation.apply_map"),
            "reps.self_s": self.layer_self_s("reps"),
            "moncat.tensor_calls": self._calls("moncat.tensor"),
            "moncat.tensor_dim_sum": self.tensor_dim_sum,
            "moncat.tensor_self_s": self._self_s("moncat.tensor"),
            "moncat.decompose_self_s": self._self_s("moncat.decompose"),
            "moncat.composition_counts_self_s": self._self_s("moncat.composition_counts"),
            "qgroup.mono_mul_calls": self._calls(mono),
            "qgroup.mono_mul_distinct_ratio": ratio(len(self.mono_mul_args), self._calls(mono)),
            "qgroup.self_s": self.layer_self_s("qgroup"),
            "quasihopf.delta_calls": self._calls("quasihopf.QuasiHopfData.delta"),
            "quasihopf.self_s": self.layer_self_s("quasihopf"),
            "cli.self_s": self.layer_self_s("cli"),
        }

    def dump(self, path: str) -> None:
        """Write spans (one JSON array per line) and aggregated totals, gzipped."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent",
                                            "instance", "self_ns"]}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"aggregated": self.by_parent}) + "\n")
            fh.write(json.dumps({"totals": self.totals}) + "\n")
