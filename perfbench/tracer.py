"""Per-layer tracing of stabilab, installed from outside the package.

The tracer wraps the public functions of each layer module (plus the few
methods and private kernels named below) and records, per function, the
call count, inclusive time, self time and the duration of every call.
Self time is the inclusive time minus the time covered by wrapped child
calls.  Spans are kept on one stack, so tracing assumes a single thread
(``STABILAB_THREADS`` unset).

``harness``, ``bounds``, ``stability`` and the package ``__init__`` import
names directly, so a wrapper replaces the function object under every
``stabilab.*`` module name bound to it, and under the entries of
``harness.RUNNERS``.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "harness", "bounds", "stability", "learners", "datagen", "core_math")

# Wrapped besides the public module-level functions.  ``_ridge_loo_betas`` is
# the all-n LoO kernel that stability calls by name; wrapping it attributes
# its naive-refit fallbacks to learners.
_EXTRA_FUNCTIONS = {"learners": ("_ridge_loo_betas",)}
_METHODS = {"datagen": (("SeedSpec", "generator"), ("Dataset", "__post_init__"))}

# A datagen.leave_one_out call made directly from one of these spans is a
# rank-one downdate that fell back to a naive refit.
_FAST_LOO = frozenset({"learners.ridge_loo_fast", "learners._ridge_loo_betas"})

# Per-call percentiles are reported from this many calls on, so that the
# p99 has at least ten calls beyond it; below it they read 0.
HOT_CALLS = 1000

# Dispatchers: they only route a call to the layer function that does the
# work.  Their own time counts as unattributed, with the time outside every
# span, for the tracer-completeness check.
DISPATCH = ("cli.main", "harness.run_experiment")

_MARK = "__perfbench_wrapper__"


class _FunctionStats:
    __slots__ = ("calls", "incl_s", "self_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.durations = array("d")


def _layer_modules() -> dict[str, object]:
    return {layer: importlib.import_module(f"stabilab.{layer}") for layer in LAYERS}


def _package_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "stabilab" or name.startswith("stabilab."))
    ]


def traced_functions() -> dict[str, tuple[object, str, object]]:
    """Every traceable function as ``name -> (owner, attribute, function)``.

    The owner is the defining module, or the class for a method.
    """
    out = {}
    for layer, mod in _layer_modules().items():
        extra = _EXTRA_FUNCTIONS.get(layer, ())
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and (not attr.startswith("_") or attr in extra)
            ):
                out[f"{layer}.{attr}"] = (mod, attr, obj)
        for cls_name, meth in _METHODS.get(layer, ()):
            cls = getattr(mod, cls_name)
            out[f"{layer}.{cls_name}.{meth}"] = (cls, meth, vars(cls)[meth])
    return out


def installed_wrappers() -> list[str]:
    """Where a tracer wrapper is currently bound; empty when none is."""
    found = []
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                found.extend(
                    f"{mod.__name__}.{attr}.{meth}"
                    for meth, fn in vars(obj).items() if getattr(fn, _MARK, False)
                )
    runners = importlib.import_module("stabilab.harness").RUNNERS
    found.extend(f"harness.RUNNERS[{k!r}]" for k, fn in runners.items() if getattr(fn, _MARK, False))
    return found


class Tracer:
    """Wraps the stabilab layers while installed; use as a context manager."""

    def __init__(self) -> None:
        self.stats: dict[str, _FunctionStats] = {}
        self.counters = {
            "datagen.sample_dataset.rows": 0,
            "harness.emit_report.bytes_written": 0,
            "learners.downdate_fallbacks": 0,
            "learners.loo_points": 0,
        }
        self.top_s = 0.0  # summed duration of the outermost spans
        self._stack: list[list] = []  # [name, time covered by child spans]
        self._patches: list[tuple[object, object, object, bool]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for name, (owner, attr, fn) in traced_functions().items():
            wrapper = self._wrap(name, fn)
            wrappers[id(fn)] = wrapper
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper, item=False)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)], item=False)
        runners = importlib.import_module("stabilab.harness").RUNNERS
        for kind, fn in list(runners.items()):
            if id(fn) in wrappers:
                self._patch(runners, kind, wrappers[id(fn)], item=True)

    def _patch(self, owner, key, wrapper, item: bool) -> None:
        if item:
            original = owner[key]
            owner[key] = wrapper
        else:
            original = vars(owner)[key]
            setattr(owner, key, wrapper)
        self._patches.append((owner, key, original, item))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original, item = self._patches.pop()
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, _FunctionStats())
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter
        count_fallback = name == "datagen.leave_one_out"
        count_loo_points = name in _FAST_LOO
        count_rows = name == "datagen.sample_dataset"
        count_bytes = name == "harness.emit_report"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_fallback and stack and stack[-1][0] in _FAST_LOO:
                counters["learners.downdate_fallbacks"] += 1
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats.calls += 1
                stats.incl_s += elapsed
                stats.self_s += elapsed - frame[1]
                stats.durations.append(elapsed)
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_s += elapsed
            if count_loo_points:
                counters["learners.loo_points"] += args[0].n
            elif count_rows:
                counters["datagen.sample_dataset.rows"] += result.n
            elif count_bytes:
                counters["harness.emit_report.bytes_written"] += sum(
                    p.stat().st_size for p in result
                )
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results ------------------------------------------------------------

    def summary(self, wall_s: float) -> dict[str, float]:
        """Flat per-layer metrics for a traced pass that took ``wall_s``.

        Per function: ``.calls``, ``.incl_s``, ``.self_s``, ``.p50_us`` and
        ``.p99_us`` (0 below HOT_CALLS calls).  Per layer:
        ``layer.<layer>.self_s``, the sum of its functions' self time.
        ``root`` is the traced time not attributed to a layer function below
        the dispatchers: the time outside every span plus the self time of
        the DISPATCH functions.  The counters of ``Tracer.counters`` come
        with the downdate fallback fraction, fallbacks per LoO point
        evaluated.
        """
        import numpy as np

        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, st in sorted(self.stats.items()):
            out[f"{name}.calls"] = st.calls
            out[f"{name}.incl_s"] = st.incl_s
            out[f"{name}.self_s"] = st.self_s
            p50 = p99 = 0.0
            if st.calls >= HOT_CALLS:
                p50, p99 = np.percentile(np.frombuffer(st.durations), [50, 99]) * 1e6
            out[f"{name}.p50_us"] = float(p50)
            out[f"{name}.p99_us"] = float(p99)
            layer_self[name.split(".", 1)[0]] += st.self_s
        for layer, value in layer_self.items():
            out[f"layer.{layer}.self_s"] = value
        out.update(self.counters)
        points = self.counters["learners.loo_points"]
        out["learners.downdate_fallback_frac"] = (
            self.counters["learners.downdate_fallbacks"] / points if points else 0.0
        )
        root = wall_s - self.top_s + sum(self.stats[name].self_s for name in DISPATCH)
        out["root.self_s"] = root
        out["root.self_frac"] = root / wall_s
        return out
