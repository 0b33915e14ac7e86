"""Spans and field-op counters wrapped around gptrank from the outside.

Nothing in the package changes.  ``Tracer.install`` replaces every public
function of the traced modules at every name it is bound to -- the defining
module, each ``from .x import f`` copy in another module, and the package
namespace -- and the methods of the code and polynomial classes on the
class itself.  Field operations are per-instance attributes of the cached
``FieldCtx`` objects, so they are counted by replacing those attributes.
``check_coverage`` fails if any original is still reachable by name.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) -> span name, for functions whose metric name is not
# simply "<module>.<function>".
_RENAMED = {
    ("attacks", "distinguish_public_key"): "attacks.distinguish",
}

_TRACED_MODULES = ("fields", "linalg", "linpoly", "gabidulin", "gpt", "attacks", "keyfiles")

# (module, class) -> methods wrapped on the class itself.
_METHODS = {
    ("gabidulin", "GabidulinCode"): ("__init__", "encode", "syndromes", "decode"),
    ("linpoly", "LinPoly"): ("add", "sub", "scale", "compose", "right_divmod",
                             "kernel_basis", "__call__"),
}

_METHOD_NAMES = {"__init__": "code_init", "__call__": "call"}

FIELD_OPS = ("mul", "inv", "frobenius")
_MISSING = object()


class TraceError(RuntimeError):
    """The tracer could not cover the program; its numbers would be wrong."""


class Tracer:
    """Per-operation span statistics and field-op counts.

    ``op`` names the end-to-end operation running now (None outside one, for
    example during output checks); everything recorded is keyed by it.
    """

    def __init__(self):
        self.op = None
        self._stack = []  # one [child_seconds] cell per open span
        self._depth = defaultdict(int)
        self.calls = defaultdict(int)  # (span, op) -> calls
        self.raised = defaultdict(int)  # (span, op) -> exceptions raised
        self.incl = defaultdict(float)  # (span, op) -> seconds, outermost calls only
        self.self_time = defaultdict(float)  # (span, op) -> seconds net of wrapped children
        self.field_calls = defaultdict(int)  # (field op, op) -> calls
        self._cells = {name: [0] for name in FIELD_OPS}
        self._originals = {}  # id(original) -> original
        self._saved_ctx = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn):
        stack = self._stack
        depth = self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            depth[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[name, self.op] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                key = (name, self.op)
                self.calls[key] += 1
                self.self_time[key] += dt - cell[0]
                if not depth[name]:
                    self.incl[key] += dt
                if stack:
                    stack[-1][0] += dt

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "gptrank" or n.startswith("gptrank."))]

    def install(self):
        """Wrap every public function and method; returns self."""
        wrappers = {}  # id(original) -> wrapper
        for short in _TRACED_MODULES:
            mod = sys.modules[f"gptrank.{short}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not callable(fn) or isinstance(fn, type) or getattr(fn, "__module__", "") != mod.__name__:
                    continue
                name = _RENAMED.get((short, attr), f"{short}.{attr}")
                self._originals[id(fn)] = fn
                wrappers[id(fn)] = self._span(name, fn)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None and self._is_original(value):
                    setattr(mod, attr, w)
        for (short, cls_name), methods in _METHODS.items():
            cls = getattr(sys.modules[f"gptrank.{short}"], cls_name)
            for meth in methods:
                fn = cls.__dict__[meth]
                name = f"{short}.{_METHOD_NAMES.get(meth, meth)}"
                self._originals[id(fn)] = fn
                setattr(cls, meth, self._span(name, fn))
        self.check_coverage()
        return self

    def _is_original(self, obj):
        return self._originals.get(id(obj), _MISSING) is obj

    def check_coverage(self):
        """Fail loudly if any wrapped original is still bound somewhere."""
        missed = []
        for mod in self._modules():
            for attr, value in vars(mod).items():
                if self._is_original(value):
                    missed.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type):
                    for meth, fn in vars(value).items():
                        if self._is_original(fn):
                            missed.append(f"{mod.__name__}.{attr}.{meth}")
        if missed:
            raise TraceError("unwrapped binding sites: " + ", ".join(sorted(set(missed))))

    # -- field-op counters -----------------------------------------------------

    def count_field_ops(self):
        """Start counting mul/inv/frobenius on every cached field."""
        ctxs = list(sys.modules["gptrank.fields"]._FIELD_CACHE.values())
        if not ctxs:
            raise TraceError("no field has been built yet")
        for ctx in ctxs:
            for name in FIELD_OPS:
                self._saved_ctx.append((ctx, name, vars(ctx).get(name)))
                setattr(ctx, name, _counted(getattr(ctx, name), self._cells[name]))

    def stop_counting(self):
        """Put back the field attributes ``count_field_ops`` replaced."""
        for ctx, name, saved in reversed(self._saved_ctx):
            if saved is None:
                delattr(ctx, name)
            else:
                setattr(ctx, name, saved)
        self._saved_ctx.clear()

    # -- operation boundaries ----------------------------------------------

    def begin(self, op):
        self.op = op
        self._mark = {name: cell[0] for name, cell in self._cells.items()}

    def end(self):
        for name, cell in self._cells.items():
            self.field_calls[name, self.op] += cell[0] - self._mark[name]
        self.op = None


def _counted(fn, cell):
    def counted(*args):
        cell[0] += 1
        return fn(*args)

    return counted
