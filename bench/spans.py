"""Layer spans recorded from outside the program.

`install()` wraps, in place, every callable that crosses from one module of
`minexp_lab` into another:

* each name a module imports from a sibling module (functions and
  `functools.lru_cache` objects alike; classes are left alone, so
  `isinstance` checks keep working);
* each function another module reaches through a module attribute, such as
  `koszul.verify_thm42_i` called from `cli`, wrapped in its own module, so
  calls from inside that module count too;
* the entry points the benchmark calls, and `CoreCohomology.dims`.

A span's layer is the module that defines the callee.  Per item and per
boundary (`layer.name`) the tracer keeps the call count and the self time:
the span's duration minus the time its child spans cover.  Per item and
layer it keeps the busy time: the time at least one span of that layer is
open.  Nothing is written until the caller asks for the aggregate.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import os
import types
from time import perf_counter

LAYERS = ("rationals", "divisors", "weyl", "vfilt", "minexp", "koszul", "derham", "cli")

# Called by the benchmark itself, so they are spans even where no module of
# the program reaches them through a module attribute.
ENTRY_POINTS = (
    ("koszul", "verify_thm42_i"),
    ("koszul", "verify_thm42_ii"),
    ("derham", "verify_cor51"),
    ("minexp", "minexp_value"),
    ("minexp", "cor23_check"),
    ("minexp", "cor24_check"),
    ("cli", "main"),
)


class Tracer:
    """In-memory span aggregate of one process."""

    def __init__(self):
        self.item = None
        self.stack = []      # open spans: [start, time covered by children]
        self.depth = {}      # layer -> open spans of that layer
        self.calls = {}      # (item, boundary) -> count
        self.self_s = {}     # (item, boundary) -> seconds
        self.busy_s = {}     # (item, layer) -> seconds
        self.on_idle = None  # called when the outermost span closes

    def reset(self):
        """Forget everything; the wrappers keep their references to the
        stack and depth containers, so those are cleared in place."""
        self.item = None
        self.stack.clear()
        self.depth.clear()
        self.calls, self.self_s, self.busy_s = {}, {}, {}
        self.on_idle = None

    def wrap(self, fn, layer, name):
        boundary = f"{layer}.{name}"
        stack, depth = self.stack, self.depth
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            depth[layer] = depth.get(layer, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[0]
                key = (tracer.item, boundary)
                tracer.calls[key] = tracer.calls.get(key, 0) + 1
                tracer.self_s[key] = tracer.self_s.get(key, 0.0) + dur - frame[1]
                left = depth[layer] - 1
                depth[layer] = left
                if not left:
                    lkey = (tracer.item, layer)
                    tracer.busy_s[lkey] = tracer.busy_s.get(lkey, 0.0) + dur
                if stack:
                    stack[-1][1] += dur
                elif tracer.on_idle is not None:
                    tracer.on_idle()

        return span

    def aggregate(self):
        """JSON-ready rows: per (item, boundary) calls and self time, per
        (item, layer) busy time."""
        return {
            "boundaries": [
                [item, b, self.calls[(item, b)], self.self_s[(item, b)]]
                for item, b in sorted(self.calls, key=lambda k: (str(k[0]), k[1]))
            ],
            "busy": [
                [item, layer, s]
                for (item, layer), s in sorted(self.busy_s.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))
            ],
        }


TRACER = Tracer()


def _layer_of(obj):
    owner = getattr(obj, "__module__", None) or ""
    parts = owner.split(".")
    if len(parts) == 2 and parts[0] == "minexp_lab" and parts[1] in LAYERS:
        return parts[1]
    return None


def _wrappable(obj):
    return callable(obj) and not isinstance(obj, (type, types.ModuleType))


def _module_attribute_calls(mod, modules):
    """(target layer, name) for every `other_module.name` in mod's source."""
    aliases = {
        alias: obj.__name__.split(".")[-1]
        for alias, obj in vars(mod).items()
        if isinstance(obj, types.ModuleType) and obj in modules.values()
    }
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(mod))):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.add((aliases[node.value.id], node.attr))
    return found


_CACHES = {}


def cache_readings():
    """Sizes of the program's caches and the counters of its lru caches,
    read without touching them."""
    vfilt, koszul = _CACHES["vfilt"], _CACHES["koszul"]
    b_info = _CACHES["b_vector"].cache_info()
    n_info = _CACHES["next_candidate"].cache_info()
    return {
        "expansion_cache.entries": len(vfilt._EXP_CACHE),
        "core_cache.entries": sum(len(c._cache) for c in koszul._CORE_CACHE.values()),
        "b_vector.hits": b_info.hits,
        "b_vector.misses": b_info.misses,
        "next_candidate.hits": n_info.hits,
        "next_candidate.misses": n_info.misses,
    }


def readings_delta(before, after):
    return {k: after[k] - before[k] for k in after}


def install(tracer=TRACER):
    """Wrap every cross-module boundary of minexp_lab; returns the list of
    wrapped boundaries."""
    modules = {name: importlib.import_module(f"minexp_lab.{name}") for name in LAYERS}
    _CACHES.update(
        vfilt=modules["vfilt"],
        koszul=modules["koszul"],
        b_vector=modules["vfilt"].b_vector,
        next_candidate=modules["divisors"].next_candidate,
    )
    wrapped = []
    # names imported from a sibling module
    for name, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            layer = _layer_of(obj)
            if layer and layer != name and _wrappable(obj):
                setattr(mod, attr, tracer.wrap(obj, layer, attr))
                wrapped.append(f"{name}:{layer}.{attr}")
    # functions reached as module attributes, and the benchmark's entry points
    targets = set(ENTRY_POINTS)
    for mod in modules.values():
        targets |= _module_attribute_calls(mod, modules)
    for layer, attr in sorted(targets):
        obj = getattr(modules[layer], attr)
        if _wrappable(obj) and _layer_of(obj) == layer:
            setattr(modules[layer], attr, tracer.wrap(obj, layer, attr))
            wrapped.append(f"{layer}:{layer}.{attr}")
    core = modules["koszul"].CoreCohomology
    core.dims = tracer.wrap(core.dims, "koszul", "core_dims")
    wrapped.append("koszul:koszul.core_dims")
    return wrapped


def spool_forked_children(directory, item, tracer=TRACER):
    """Make processes forked from this one (multiprocessing pool workers)
    start an empty aggregate and rewrite it, with the growth of the caches
    since the fork, to directory/<pid>.json each time their outermost span
    closes.  Pool workers are terminated, not shut down, so they get no
    later chance to write."""

    def after_fork():
        tracer.reset()
        tracer.item = item
        path = os.path.join(directory, f"{os.getpid()}.json")
        baseline = cache_readings()

        def flush():
            payload = tracer.aggregate()
            payload["caches"] = readings_delta(baseline, cache_readings())
            tmp = path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            os.replace(tmp, path)

        tracer.on_idle = flush

    os.register_at_fork(after_in_child=after_fork)
