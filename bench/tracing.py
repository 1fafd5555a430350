"""Layer spans recorded from outside the acflow package.

A :class:`Tracer` wraps, in place, every public function of each layer
module, the public methods of the module's public classes (construction via
``__post_init__`` included), ``solver._Stepper.advance`` (the scenarios step
through it directly) and numpy's FFT entry points.  Names re-bound by
``from .x import y`` are replaced too, so every call site reaches the
wrapper.  A closure returned by a wrapped function of the same module (the
signed-distance builders of ``initial_data``) is wrapped as well, so that
module's work is charged to it and not to the caller.

Each call records a span ``[name, layer, start, end, parent]``; spans stay
in memory until the run ends.  A layer's self time is its spans' durations
minus the durations of their direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types
from collections import Counter

LAYERS = (
    "grid",
    "operators",
    "solver",
    "initial_data",
    "diagnostics",
    "monotonicity",
    "levelset",
    "experiments",
    "io",
    "cli",
)

# numpy.fft's transforms (not the frequency helpers).  numpy's own n-d
# transforms call the 1-d ones through module-private names, so one user
# call is one span.
FFT_ENTRY_POINTS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
)

STEP_SPAN = "solver._Stepper.advance"
RECORD_SPAN = "diagnostics.diagnostics_record"


class Tracer:
    """Installs span-recording wrappers and summarises the spans per layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, module: str | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if module is not None:
                result = self._wrap_closures(result, layer, name, module)
            return result

        return traced

    def _wrap_closures(self, result, layer: str, name: str, module: str):
        def own(obj) -> bool:
            return isinstance(obj, types.FunctionType) and obj.__module__ == module

        if own(result):
            return self._wrap(result, layer, f"{name}.<closure>")
        if isinstance(result, tuple) and result and all(own(r) for r in result):
            return tuple(self._wrap(r, layer, f"{name}.<closure>") for r in result)
        return result

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.fft

        import acflow

        modules = {layer: importlib.import_module(f"acflow.{layer}") for layer in LAYERS}
        wrapped: dict[object, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, layer, f"{layer}.{attr}", mod.__name__)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer, f"{layer}.{attr}")
        stepper = modules["solver"]._Stepper
        self._patch(stepper, "advance", self._wrap(stepper.advance, "solver", STEP_SPAN))
        for mod in (acflow, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for attr in FFT_ENTRY_POINTS:
            self._patch(numpy.fft, attr, self._wrap(getattr(numpy.fft, attr), "fft", f"fft.{attr}"))

    def _wrap_methods(self, cls, layer: str, prefix: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(member, layer, f"{prefix}.{attr}"))
            elif isinstance(member, staticmethod):
                fn = self._wrap(member.__func__, layer, f"{prefix}.{attr}")
                self._patch(cls, attr, staticmethod(fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summary ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self seconds plus the transform, step and row counts."""
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS + ("fft",), 0.0)
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child[i]
        calls = Counter(span[0] for span in self.spans)
        fft_calls = sum(n for name, n in calls.items() if name.startswith("fft."))
        steps = calls[STEP_SPAN]
        metrics = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        metrics.update({
            "fft.calls": fft_calls,
            "fft.calls_per_step": fft_calls / steps if steps else 0.0,
            "fft.s": self_s["fft"],
            "solver.steps": steps,
            "diagnostics.rows": calls[RECORD_SPAN],
        })
        return metrics
