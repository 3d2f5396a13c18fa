"""Span tracing of the corridors modules, installed from outside the package.

`Tracer.install` wraps every public function of the seven modules (and the
public methods of their classes) and rebinds each wrapper in every
``corridors.*`` namespace that holds the original, so calls between modules
are traced too.  Nothing under ``src/`` changes; `Tracer.uninstall` puts the
originals back, which lets one process alternate untraced and traced passes.

A span is ``[name, start, end, parent, info]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``info`` holds what a hook extracted
from the call (steps, a plan's working-set size, bytes written).  Spans stay
in memory until `write` dumps them.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("grids", "readout", "selective", "nonselective", "medium", "scenario", "cli")


def _n_steps(args, kwargs):
    # engines take the TimeGrid as `tgrid`; find it by its attribute
    for value in list(args) + list(kwargs.values()):
        if hasattr(value, "n_steps") and hasattr(value, "dt"):
            return int(value.n_steps)
    return 0


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _windowed(form_factor):
    return form_factor is not None and not form_factor.is_delta


# pre-call hooks: what each engine call covers, read from its arguments
_PRE = {
    "selective.evolve_selective_ideal": lambda a, k: {"steps": _n_steps(a, k)},
    "selective.evolve_selective_coarse": lambda a, k: {"steps": _n_steps(a, k)},
    "nonselective.lindblad_evolve": lambda a, k: {"steps": _n_steps(a, k)},
    "nonselective.readout_average": lambda a, k: {
        "steps": _n_steps(a, k),
        "variant": _arg(a, k, 6, "mode", "quadrature"),
    },
    "nonselective.superpropagate": lambda a, k: {
        "steps": _n_steps(a, k),
        "variant": _arg(a, k, 1, "kernel_spec").kind + "/" + _arg(a, k, 6, "mode", "exact"),
    },
    "nonselective.check_generalized_unitarity": lambda a, k: {
        "steps": _n_steps(a, k),
        "variant": ("coarse/" if _windowed(_arg(a, k, 5, "form_factor")) else "ideal/")
        + _arg(a, k, 6, "mode", "exact"),
    },
}

# post-call hooks: what the call produced
_POST = {
    "selective.WindowSpec.plan": lambda result: {"work": int(result.work_elements)},
    "scenario.emit_plot_data": lambda result: {"bytes": Path(result).stat().st_size},
}


def _public_callables(module):
    """(qualified name, owner, attribute, original) for every public function
    of the module and every public method of its public classes."""
    short = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    found = []
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found.append((f"{short}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    found.append((f"{short}.{name}.{attr}", obj, attr, raw))
    return found


class Tracer:
    """Records spans around the public calls of the corridors modules."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._installed = []  # (owner, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened from the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name, info=None):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1], info])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        pre, post = _PRE.get(name), _POST.get(name)

        def traced(*args, **kwargs):
            info = pre(args, kwargs) if pre else None
            index = self._open(name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if post:
                extra = post(result)
                self.spans[index][4] = {**(info or {}), **extra}
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        if self._installed:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "corridors"]
        for short in MODULES:
            module = sys.modules[f"corridors.{short}"]
            for name, owner, attr, raw in _public_callables(module):
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(name, raw.__func__))
                else:
                    replacement = self._wrap(name, raw)
                self._installed.append((owner, attr, raw))
                setattr(owner, attr, replacement)
                if inspect.isclass(owner):
                    continue
                # rebind the function wherever another module imported it
                for ns in namespaces:
                    if ns is not owner and vars(ns).get(attr) is raw:
                        self._installed.append((ns, attr, raw))
                        setattr(ns, attr, replacement)

    def uninstall(self):
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed = []

    def write(self, path):
        Path(path).write_text(json.dumps({"spans": self.spans}) + "\n")


def self_times(spans, first=0, last=None):
    """Self time of each span in spans[first:last]: its duration minus the
    part its direct children cover (children nest inside their parent)."""
    last = len(spans) if last is None else last
    own = {i: spans[i][2] - spans[i][1] for i in range(first, last)}
    for i in range(first, last):
        parent = spans[i][3]
        if parent >= first:
            own[parent] -= spans[i][2] - spans[i][1]
    return own
