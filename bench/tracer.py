"""Span tracer for the traced benchmark run.

It wraps the public functions of the six blockcensus layers from outside the
program: every module-level function named in a layer's ``__all__``, the
``CountCache`` methods and ``CensusReport.render``. A wrapper replaces the
function in every blockcensus namespace that binds it, because modules look
names up in their own globals (``blocks`` binds its own ``composition_sum``).

Span rule. A function named in ``SPANNED`` always opens a span. Any other
wrapped function is counted on every call but opens a span only when it is
entered from another layer, so a layer's work is charged to the layer that
does it, while calls inside a layer (millions of memo lookups inside the
composition walk) cost one counter increment. A span's self time is its
duration minus the spans it encloses.

``Tracer.restore()`` puts every original back; the timed samples run in
fresh interpreters that never install a wrapper.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("counting", "slots", "blocks", "oracle", "tables", "cli")

# Functions whose spans the per-layer metrics name; they open a span on
# every call, whatever the caller's layer.
SPANNED = frozenset(
    {
        "counting.composition_sum",
        "slots.block_count_proof_path",
        "blocks.sweep",
        "blocks.CensusReport.render",
        "oracle.gl_ell_class_census",
        "oracle.multipartition_enumerate",
        "oracle.gmpn_class_count",
        "oracle.census_matches_weight_vectors",
        "tables.class_table",
        "tables.e8_isolated_rows",
        "tables.root_systems",
        "tables.unipotent_count_entries",
        "cli.main",
    }
)

TABLE_LOADERS = frozenset(
    {
        "tables.class_table",
        "tables.e8_isolated_rows",
        "tables.root_systems",
        "tables.unipotent_count_entries",
    }
)

# Calls whose arguments or results feed a computed count, logged raw and
# interpreted after the pass so the bookkeeping stays out of the spans.
LOGGED = frozenset({"counting.composition_sum", "slots.block_count_proof_path", "blocks.sweep"})

MARKER = "_bench_traced"


def is_wrapper(obj) -> bool:
    return getattr(obj, MARKER, False) is True


def installed_wrappers() -> int:
    """Number of tracer wrappers reachable from loaded blockcensus modules."""
    found = 0
    for name, module in list(sys.modules.items()):
        if name != "blockcensus" and not name.startswith("blockcensus."):
            continue
        for value in vars(module).values():
            if is_wrapper(value):
                found += 1
            elif inspect.isclass(value):
                found += sum(1 for v in vars(value).values() if is_wrapper(v))
    return found


def _p_ell(ell: int, w: int) -> int:
    # Number of ell-compositions of w, recomputed here so the count does not
    # depend on (or touch) the program's memo tables.
    tab = [1]
    for n in range(1, w + 1):
        tab.append(tab[n - 1] + (tab[n // ell] if n % ell == 0 else 0))
    return tab[w]


def memo_cells(cache) -> int:
    """Entries in a CountCache's tables: the lengths of its list attributes
    plus those of the lists held in its dict attributes."""
    total = 0
    for value in vars(cache).values():
        if isinstance(value, list):
            total += len(value)
        elif isinstance(value, dict):
            total += sum(len(v) for v in value.values() if isinstance(v, list))
    return total


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.layer_self_s: defaultdict = defaultdict(float)
        self.load_s = 0.0
        self.log: defaultdict = defaultdict(list)
        self._loader_depth = 0
        # frame = [layer, time spent in spans it encloses]
        self._stack: list[list] = [["bench", 0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _targets(self):
        import blockcensus  # noqa: F401  (loads every layer)

        for layer in LAYERS:
            module = sys.modules[f"blockcensus.{layer}"]
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    yield layer, f"{layer}.{attr}", obj
        counting = sys.modules["blockcensus.counting"]
        for attr, obj in vars(counting.CountCache).items():
            if inspect.isfunction(obj) and not attr.startswith("_"):
                yield "counting", f"counting.CountCache.{attr}", (counting.CountCache, attr)
        blocks = sys.modules["blockcensus.blocks"]
        yield "blocks", "blocks.CensusReport.render", (blocks.CensusReport, "render")

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for n, m in list(sys.modules.items())
            if n == "blockcensus" or n.startswith("blockcensus.")
        ]
        for layer, name, target in self._targets():
            if isinstance(target, tuple):
                owner, attr = target
                original = vars(owner)[attr]
                self._patch(owner, attr, self._wrap(original, layer, name))
                continue
            wrapper = self._wrap(target, layer, name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is target:
                        self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        calls = self.calls
        span = self._span
        if name in SPANNED:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return span(fn, layer, name, args, kwargs)

        else:

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return span(fn, layer, name, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARKER, True)
        return wrapper

    def _span(self, fn, layer, name, args, kwargs):
        frame = [layer, 0.0]
        stack = self._stack
        loader = name in TABLE_LOADERS
        if loader:
            self._loader_depth += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            own = duration - frame[1]
            stack[-1][1] += duration
            self.self_s[name] += own
            self.total_s[name] += duration
            self.layer_self_s[layer] += own
            if loader:
                self._loader_depth -= 1
                if self._loader_depth == 0:
                    self.load_s += duration
        if name in LOGGED:
            self.log[name].append((args, kwargs, result))
        return result

    # -- metrics ----------------------------------------------------------

    def metrics(self, cache) -> dict[str, float]:
        """Per-layer metrics of everything traced so far. Call after
        ``restore`` so that the computed counts run unwrapped code."""
        from blockcensus import counting, slots

        compositions = 0
        bind = inspect.signature(counting.composition_sum).bind
        for args, kwargs, _ in self.log["counting.composition_sum"]:
            bound = bind(*args, **kwargs).arguments
            compositions += _p_ell(bound["ell"], bound["w"])

        convolutions = conv_ops = 0
        bind = inspect.signature(slots.block_count_proof_path).bind
        for args, kwargs, _ in self.log["slots.block_count_proof_path"]:
            b = bind(*args, **kwargs).arguments
            inv = slots.build_inventory(b["family"], b["ell"], b["d"], b["a"])
            convs = sum(c.slot_count for c in inv.slot_classes(b["w"]))
            convolutions += convs
            # each truncated convolution at budget w does at most
            # (w+1)(w+2)/2 multiply-adds
            conv_ops += convs * (b["w"] + 1) * (b["w"] + 2) // 2

        rows = error_rows = two_path_rows = 0
        for _, _, report in self.log["blocks.sweep"]:
            rows += len(report.rows)
            error_rows += sum(1 for r in report.rows if r.get("verdict") == "ERROR")
            two_path_rows += sum(1 for r in report.rows if r.get("two_path_checked") is True)

        cache_calls = sum(
            n for k, n in self.calls.items() if k.startswith("counting.CountCache.")
        )
        out = {
            "counting.composition_sum.self_s": self.self_s["counting.composition_sum"],
            "counting.compositions": compositions,
            "counting.cache_calls": cache_calls,
            "counting.memo_cells": memo_cells(cache),
            "slots.block_count_proof_path.self_s": self.self_s["slots.block_count_proof_path"],
            "slots.convolutions": convolutions,
            "slots.conv_ops": conv_ops,
            "blocks.sweep.self_s": self.self_s["blocks.sweep"],
            "blocks.render_s": self.total_s["blocks.CensusReport.render"],
            "blocks.rows": rows,
            "blocks.error_rows": error_rows,
            "blocks.two_path_rows": two_path_rows,
            "oracle.gl_ell_class_census.self_s": self.self_s["oracle.gl_ell_class_census"],
            "oracle.mat_mul.calls": self.calls["oracle.mat_mul"],
            "oracle.multipartition_enumerate.self_s": self.self_s["oracle.multipartition_enumerate"],
            "oracle.gmpn_class_count.self_s": self.self_s["oracle.gmpn_class_count"],
            "oracle.census_matches_weight_vectors.self_s": self.self_s[
                "oracle.census_matches_weight_vectors"
            ],
            "tables.load_s": self.load_s,
            "cli.main.self_s": self.self_s["cli.main"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.layer_self_s[layer]
        return out
