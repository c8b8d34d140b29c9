"""Spans around calls into qbound's public functions, installed from outside.

``installed`` rebinds every public function of every qbound module, at every
name it is bound to (its own module and each module that imported it), to a
timing wrapper.  A wrapper records a span (name, layer, start, end, parent,
op id) only while an op is open, so calls made by the benchmark's own gates
go unrecorded.  ``regions`` calls ``batch_bound`` from pool threads; a span
opened on a thread with no open span of its own takes the innermost open span
of the client thread, the enclosing sweep, as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("gaussian", "holevo", "closed_forms", "regions", "simulate", "verify", "cli")
HARNESS = "bench"  # the op's own time outside every layer
SWEEPS = ("regions.envelope", "regions.envelope_support_points", "regions.boundary_for_config")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    layer: str
    start: float
    end: float = float("nan")
    thread: int = 0
    error: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op, "name": self.name,
                "layer": self.layer, "start": self.start, "end": self.end,
                "thread": self.thread, "error": self.error, **self.extra}


class Tracer:
    """In-memory span store; spans are written out after the run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._client = threading.get_ident()
        self._client_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, stack: list[Span], parent: Span | None, op: int, name: str, layer: str) -> Span:
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, parent.id if parent else None, op, name, layer,
                    time.perf_counter(), thread=threading.get_ident())
        stack.append(span)
        return span

    def _close(self, stack: list[Span], span: Span) -> None:
        span.end = time.perf_counter()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one request; its duration is the traced op time."""
        stack = self._stack()
        span = self._open(stack, None, op_id, "op", HARNESS)
        try:
            yield span
        finally:
            self._close(stack, span)

    def call(self, layer: str, name: str, fn, args, kwargs, count):
        stack = self._stack()
        client = self._client_stack
        parent = stack[-1] if stack else (client[-1] if client else None)
        if parent is None:
            return fn(*args, **kwargs)
        span = self._open(stack, parent, parent.op, name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            self._close(stack, span)
            raise
        self._close(stack, span)
        if count is not None:
            span.extra = count(fn, args, kwargs, result)
        return result


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_solve(fn, args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


def _count_batch(fn, args, kwargs, result) -> dict:
    return {"rows": int(np.size(result)), "inf_rows": int(np.count_nonzero(~np.isfinite(result)))}


def _count_sweep(fn, args, kwargs, result) -> dict:
    a = _bound(fn, args, kwargs)
    if "w_ratios" in a:
        return {"points": int(np.size(a["w_ratios"]))}
    configs = np.size(a["t_grid"]) * np.size(a["phi_grid"])
    if a["sweep_phi2"]:
        configs *= np.size(a["phi_grid"])
    return {"points": int(configs * np.size(a["w_grid"]))}


COUNTERS = {
    "holevo.solve": _count_solve,
    "holevo.batch_bound": _count_batch,
    "regions.envelope": _count_sweep,
    "regions.envelope_support_points": _count_sweep,
    "regions.boundary_for_config": _count_sweep,
}


def _wrapper(tracer: Tracer, layer: str, fn):
    name = f"{layer}.{fn.__name__}"
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(layer, name, fn, args, kwargs, count)

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Rebind qbound's public functions to traced wrappers, and back on exit."""
    modules = [importlib.import_module(f"qbound.{name}") for name in LAYERS]
    wrappers: dict = {}
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            layer = value.__module__.rpartition(".")[2]
            if not value.__module__.startswith("qbound.") or layer not in LAYERS:
                continue
            if value not in wrappers:
                wrappers[value] = _wrapper(tracer, layer, value)
            undo.append((module, attr, value))
            setattr(module, attr, wrappers[value])
    # run_verification iterates this tuple and compares its entries with the
    # module's check functions by identity, so it must hold the same wrappers.
    verify = importlib.import_module("qbound.verify")
    undo.append((verify, "_ALL_CHECKS", verify._ALL_CHECKS))
    verify._ALL_CHECKS = tuple(wrappers.get(fn, fn) for fn in verify._ALL_CHECKS)
    try:
        yield tracer
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------


def _child_shares(parent: Span, kids: list[Span]) -> list[float]:
    """Wall time of the parent's interval covered by each child.

    Where children overlap (pool threads), each instant is split equally
    among the children active then, so the shares sum to the measure of the
    union of the children's intervals.
    """
    events = []
    for i, kid in enumerate(kids):
        lo = min(max(kid.start, parent.start), parent.end)
        hi = min(max(kid.end, parent.start), parent.end)
        if hi > lo:
            events.append((lo, 1, i))
            events.append((hi, -1, i))
    events.sort()
    shares = [0.0] * len(kids)
    active: set[int] = set()
    last = None
    for t, kind, i in events:
        if active and t > last:
            portion = (t - last) / len(active)
            for j in active:
                shares[j] += portion
        last = t
        if kind > 0:
            active.add(i)
        else:
            active.discard(i)
    return shares


def attribute(spans: list[Span]) -> dict[int, dict[str, float]]:
    """Wall time of each op split among layers by self time.

    A span's self time is its duration minus the part its children cover;
    time covered by overlapping children is shared among them, and a child's
    subtree is scaled by its share, so each op's layer times sum to its root
    span's duration.
    """
    children = defaultdict(list)
    roots = []
    for span in spans:
        if span.parent is None:
            roots.append(span)
        else:
            children[span.parent].append(span)
    out = {}
    for root in roots:
        acc: dict[str, float] = defaultdict(float)
        work = [(root, 1.0)]
        while work:
            span, scale = work.pop()
            kids = children.get(span.id, [])
            shares = _child_shares(span, kids)
            acc[span.layer] += scale * (span.duration - sum(shares))
            for kid, share in zip(kids, shares):
                if kid.duration > 0.0:
                    work.append((kid, scale * share / kid.duration))
        out[root.op] = dict(acc)
    return out
