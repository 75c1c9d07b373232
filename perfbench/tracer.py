"""Outside-in tracing of the mhd2d package.

Spans are recorded around every public function of each ``mhd2d`` module (the
names in its ``__all__``), around ``PeriodicInterpolator`` prefiltering and
evaluation, and around every transform entered through ``numpy.fft`` or
``scipy.fft``.  Nothing in the package is edited: the functions are replaced
in place, in their defining module and in every module that imported them by
name, and put back when the ``instrument`` context exits.

Transforms are counted in 2-D fields (a batched ``rfft2`` over a stack of
three fields counts three) and in 1-D lines, split by direction and by
convention (half-spectrum real or full complex), so that a change of backend
or batching cannot hide transform work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
import types
from collections import Counter

import numpy as np

LAYERS = (
    "grid", "lp", "propagators", "linear", "initial_data", "lagrangian",
    "eulerian", "diagnostics", "interp", "fields", "io", "cli",
)

# name -> (transformed axes: 1, 2 or "n"; forward?; full complex?)
FFT_ENTRY_POINTS = {
    "fft": (1, True, True), "ifft": (1, False, True),
    "rfft": (1, True, False), "irfft": (1, False, False),
    "hfft": (1, False, False), "ihfft": (1, True, False),
    "fft2": (2, True, True), "ifft2": (2, False, True),
    "rfft2": (2, True, False), "irfft2": (2, False, False),
    "fftn": ("n", True, True), "ifftn": ("n", False, True),
    "rfftn": ("n", True, False), "irfftn": ("n", False, False),
}

FFT_SPAN = "grid.fft"

# Self-check of the counter: one lagrangian.gradient_tensor call transforms
# Y^1 and Y^2 forward and the four derivatives d_i Y^j back.
GRADIENT_TENSOR_COUNTS = {"fft.fwd_fields": 2, "fft.inv_fields": 4}


def transformed_axes(kind, a: np.ndarray, args: tuple, kwargs: dict) -> tuple[int, ...]:
    """Axes a transform call acts on; ``s``/``n`` is the 2nd and ``axes``/``axis`` the
    3rd parameter in both numpy.fft and scipy.fft."""
    if kind == 1:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
        return (axis % a.ndim,)
    axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    if axes is None:
        if kind == 2:
            axes = (-2, -1)
        else:
            s = kwargs.get("s", args[1] if len(args) > 1 else None)
            axes = range(-len(s), 0) if s is not None else range(a.ndim)
    return tuple(ax % a.ndim for ax in axes)


def transform_units(kind, a, args: tuple, kwargs: dict) -> tuple[int, int]:
    """(2-D fields, 1-D lines) transformed by one call on input ``a``."""
    a = np.asarray(a)
    axes = transformed_axes(kind, a, args, kwargs)
    per = math.prod(a.shape[ax] for ax in axes)
    batch = a.size // per if per else 0
    return (0, batch) if len(axes) == 1 else (batch, 0)


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent, fields_at_start, fields_at_end]``;
    ``parent`` is the index of the enclosing span or -1.  ``counts`` holds the
    transform counters and the interpolation point count.  The return value of
    each function named in ``keep`` is retained in ``last``.
    """

    def __init__(self, clock=time.perf_counter, keep=()):
        self.clock = clock
        self.keep = set(keep)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.last: dict = {}
        self._stack: list[int] = []
        self._in_fft = False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.last.clear()

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        fields = self.counts["fft.fields"]
        self.spans.append([name, self.clock(), None, self._stack[-1] if self._stack else -1, fields, fields])
        self._stack.append(idx)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span = self.spans[idx]
            span[2] = self.clock()
            span[5] = self.counts["fft.fields"]
        if name in self.keep:
            self.last[name] = out
        return out

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    def wrap_fft(self, name: str, fn):
        kind, forward, full = FFT_ENTRY_POINTS[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_fft:  # a backend calling another entry point
                return fn(*args, **kwargs)
            fields, lines = transform_units(kind, args[0] if args else kwargs.get("a", kwargs.get("x")), args, kwargs)
            c = self.counts
            c["fft.fields"] += fields
            c["fft.lines"] += lines
            c["fft.fwd_fields" if forward else "fft.inv_fields"] += fields
            if full:
                c["fft.full_complex_fields"] += fields
            self._in_fft = True
            try:
                return self.call(FFT_SPAN, fn, args, kwargs)
            finally:
                self._in_fft = False

        return counted

    # -- span arithmetic ---------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (outermost spans of that name
        only, so recursion is not counted twice), self seconds (duration minus
        the durations of direct children) and transform fields inside."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, t0, t1, parent, f0, f1) in enumerate(spans):
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "fields": 0})
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child_s[i]
            if not self.has_ancestor(i, lambda n: n == name):
                rec["total_s"] += t1 - t0
                rec["fields"] += f1 - f0
        return out

    def has_ancestor(self, i: int, pred) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if pred(self.spans[p][0]):
                return True
            p = self.spans[p][3]
        return False

    def total_where(self, pred, under=None) -> float:
        """Inclusive seconds of spans whose name satisfies ``pred`` and that are
        not nested in another such span; with ``under``, only spans that have
        an ancestor satisfying it."""
        total = 0.0
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            if not pred(name) or self.has_ancestor(i, pred):
                continue
            if under is not None and not self.has_ancestor(i, under):
                continue
            total += t1 - t0
        return total

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer; transforms belong to ``grid``."""
        out = dict.fromkeys(LAYERS, 0.0)
        for name, rec in self.stats().items():
            out[name.split(".", 1)[0]] += rec["self_s"]
        return out


def _public_functions(module):
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr, None)
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            yield attr, obj


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install spans on every layer and the transform counter; undo on exit."""
    import numpy.fft
    import scipy.fft

    modules = {layer: importlib.import_module(f"mhd2d.{layer}") for layer in LAYERS}
    package = importlib.import_module("mhd2d")
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, new):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in _public_functions(mod):
                wrapped[fn] = tracer.wrap(f"{layer}.{attr}", fn)
        for mod in (package, *modules.values()):
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    patch(mod, attr, wrapped[val])

        interp_cls = modules["interp"].PeriodicInterpolator
        evaluate = interp_cls.__call__

        def traced_eval(self, x1, x2):
            tracer.counts["interp.eval_points"] += np.broadcast(np.asarray(x1), np.asarray(x2)).size
            return tracer.call("interp.eval", evaluate, (self, x1, x2), {})

        patch(interp_cls, "__init__", tracer.wrap("interp.prefilter", interp_cls.__init__))
        patch(interp_cls, "__call__", functools.wraps(evaluate)(traced_eval))

        for fft_mod in (numpy.fft, scipy.fft):
            for name in FFT_ENTRY_POINTS:
                patch(fft_mod, name, tracer.wrap_fft(name, getattr(fft_mod, name)))
        yield tracer
    finally:
        for owner, attr, old in reversed(patched):
            setattr(owner, attr, old)
