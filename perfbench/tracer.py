"""In-memory span tracer that wraps the public functions of the robustdiff modules.

The tracer lives entirely in the benchmark: it replaces module and class
attributes with timing wrappers while it is installed and puts the originals
back when it is removed, so the package itself carries no tracing code.

Each call of a wrapped function records one span: id, parent id, name,
phase, start, end, self time and a row count. Self time is the span's
duration minus the time its child spans cover, so `loss_step` does not also
count the `cond_var` passes it makes, nor `heun_sample` its `denoise` calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass
from types import FunctionType, ModuleType
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    parent: int  # -1 for a root span
    name: str
    phase: str  # "phase1" / "dsm" inside trainer.loss_step, "" elsewhere
    start: float
    end: float
    self_s: float
    rows: int  # rows the call processed, -1 where not recorded


def _loss_step_phase(a) -> str:
    cfg = a["config"]
    if cfg.variant != "vanilla" and a["iteration"] < cfg.early_stop_iters:
        return "phase1"
    return "dsm"


# Per-call attributes read from the arguments of a few functions.
PHASE_OF: dict[str, Callable] = {"trainer.loss_step": _loss_step_phase}
ROWS_OF: dict[str, Callable] = {
    "diffusion.denoise": lambda a: int(np.atleast_2d(a["x_t"]).shape[0]),
    "pseudo.ensemble_update": lambda a: int(np.atleast_1d(a["idx"]).size),
}


def public_callables(module: ModuleType):
    """(owner, attribute, span name) for every public function the module
    defines and every public plain method of the classes it defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, FunctionType):
            out.append((module, attr, f"{short}.{attr}"))
        elif isinstance(obj, type) and not issubclass(obj, BaseException):
            for mattr, mobj in sorted(vars(obj).items()):
                if not mattr.startswith("_") and isinstance(mobj, FunctionType):
                    out.append((obj, mattr, f"{short}.{mattr}"))
    return out


class Tracer:
    """Context manager: wraps on enter, restores every attribute on exit."""

    def __init__(self, modules):
        self.targets = [t for m in modules for t in public_callables(m)]
        names = [name for _, _, name in self.targets]
        if len(names) != len(set(names)):
            raise ValueError("two traced callables share a span name")
        self.spans: list[Span] = []
        self.phase = ""
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        phase_of = PHASE_OF.get(name)
        rows_of = ROWS_OF.get(name)
        sig = inspect.signature(fn) if (phase_of or rows_of) else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = -1
            prev_phase = tracer.phase
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if phase_of:
                    tracer.phase = phase_of(bound)
                if rows_of:
                    rows = rows_of(bound)
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer.spans.append(
                    Span(frame[0], parent, name, tracer.phase, start, end, dur - frame[1], rows)
                )
                tracer.phase = prev_phase

        return traced

    def write(self, path) -> None:
        """One JSON object per span, in order of completion."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s.__dict__) + "\n")
