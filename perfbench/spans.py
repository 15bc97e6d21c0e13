"""Span recorder for the qdesk benchmark.

The recorder wraps qdesk's public functions from outside the package. It
rebinds each traced function in every qdesk module namespace that holds it
(``grid_hamiltonian`` is bound in both ``phasespace`` and ``feynman_kac``,
and most names are also re-exported by ``qdesk`` itself), so calls made
inside the package are recorded as well. Spans stay in memory; ``summary``
turns them into per-span calls, self time, errors and work counts.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from importlib import import_module

# Span names are "<module>.<function>"; a dotted function names a method.
SPANS = (
    "feynman_kac.bound_check",
    "feynman_kac.fk_mc_partition",
    "feynman_kac.spectral_partition",
    "feynman_kac.classical_partition",
    "feynman_kac.tau_star",
    "phasespace.wigner_transform",
    "phasespace.weyl_quantize",
    "phasespace.gauss_smooth",
    "phasespace.to_momentum",
    "phasespace.grid_hamiltonian",
    "phasespace.PhaseSpaceField.to_csv",
    "moments.moments",
    "bell.chsh_value",
    "bell.mermin_assignment_search",
    "spin.hv_expectation",
    "spin.linear_fit_residual",
    "operators.gleason_additivity_check",
    "cli.run",
    "cli.emit",
)


def _path_slices(args):
    return args["m_slices"] * args["n_paths"]


def _wigner_cells(args):
    spec = args["spec"] if args["spec"] is not None else args["state"].spec
    return spec.n ** 2


def _weyl_cells(args):
    return args["symbol"].spec.n ** 2


# Work done per call, read from the call's arguments: the count each
# "ns per unit" metric divides by.
WORK = {
    "feynman_kac.fk_mc_partition": ("path_slices", _path_slices),
    "phasespace.wigner_transform": ("cells", _wigner_cells),
    "phasespace.weyl_quantize": ("cells", _weyl_cells),
}


def _resolve(span: str):
    """(owner, attribute, original) for a span name."""
    module, _, attr = span.partition(".")
    owner = import_module(f"qdesk.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr, getattr(owner, attr)


class Recorder:
    """Records spans as [name, start, end, parent index, error, work].

    Use as a context manager, or call install() and uninstall()."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            amount = 0
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                amount = work[1](bound.arguments)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, False, amount]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def install(self):
        if self._bindings:
            raise RuntimeError("recorder is already installed")
        resolved = [(name, *_resolve(name)) for name in SPANS]  # imports their modules
        namespaces = [m for key, m in sys.modules.items()
                      if m is not None and (key == "qdesk" or key.startswith("qdesk."))]
        for name, owner, attr, original in resolved:
            wrapper = self._wrap(name, original)
            targets = [owner] if isinstance(owner, type) else [
                m for m in namespaces if vars(m).get(attr) is original]
            for target in targets:
                self._bindings.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._bindings):
            setattr(target, attr, original)
        self._bindings = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def extend(spans: list, more: list):
    """Append another recording (say, a child process's) to ``spans``,
    shifting its parent indices so they stay valid."""
    offset = len(spans)
    spans.extend([name, start, end, parent + offset if parent >= 0 else -1,
                  error, work] for name, start, end, parent, error, work in more)


def summary(spans, passes: int = 1) -> dict:
    """Per-span calls, self seconds, errors and work, divided by ``passes``.

    A span's self time is its duration minus the durations of its direct
    children."""
    out = {name: {"calls": 0, "self_s": 0.0, "errors": 0, "work": 0}
           for name in SPANS}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _error, _work in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _parent, error, work) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        entry["errors"] += int(error)
        entry["work"] += work
    for entry in out.values():
        for key in entry:
            entry[key] /= passes
    return out
