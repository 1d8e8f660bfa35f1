"""Spans around paroeig's public functions, installed from outside.

The library binds its collaborators in two ways: `adapt` and `paro` take
functions by `from .x import f`, so the name a call looks up lives in the
caller's module (`paroeig.adapt.assemble`), while `adapt` reaches the mesh
through the module (`mesh_mod.refine`, looked up on `paroeig.mesh`).
`Tracer.installed` swaps a timing wrapper in at every such name and puts
the originals back afterwards, so tracing needs no change to the package.

Each span keeps its name, start, end, parent and thread in memory until
the run ends. A span's parent is the innermost open span of the same
thread; spans opened on the orbital pool's worker threads therefore have
no parent and are reported as busy time, never subtracted from the
main-thread span that waits for them.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

ROOT = "bench.solve"


@dataclass
class Span:
    name: str
    ident: int
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _minres_counts(result):
    return {"iters": result.iterations, "flag": result.flag}


def targets(paroeig):
    """(module, attribute, span name, result reader) for every call site
    the benchmark times; attribute is the name the caller looks up."""
    adapt, paro = paroeig.adapt, paroeig.paro
    return [
        (adapt, "adaptive_solve", "adapt.adaptive_solve", None),
        (adapt, "default_seed_vectors", "adapt.default_seed_vectors", None),
        (adapt, "dorfler_mark", "adapt.dorfler_mark", None),
        (adapt, "transfer_block", "adapt.transfer_block", None),
        (adapt, "assemble", "assembly.assemble", None),
        (adapt, "estimate", "estimator.estimate", None),
        (adapt, "paro_inner_loop", "paro.paro_inner_loop", None),
        (adapt, "b_orthonormalize", "linalg.b_orthonormalize", None),
        (adapt, "dense_sym_gen_eig", "linalg.dense_sym_gen_eig", None),
        (adapt, "minres_solve", "linalg.minres", _minres_counts),
        (paro, "orbital_update", "paro.orbital_update", None),
        (paro, "ritz_step", "paro.ritz_step", None),
        (paro, "b_orthonormalize", "linalg.b_orthonormalize", None),
        (paro, "dense_sym_gen_eig", "linalg.dense_sym_gen_eig", None),
        (paro, "minres_solve", "linalg.minres", _minres_counts),
        (paroeig.mesh, "refine", "mesh.refine", None),
        (paroeig.mesh, "uniform_refine", "mesh.uniform_refine", None),
        (paroeig.mesh, "interpolate", "mesh.interpolate", None),
        (paroeig.assembly, "assemble", "assembly.assemble", None),
        (paroeig.verify, "reference_eig", "verify.reference_eig", None),
    ]


class Tracer:
    """In-memory span recorder; safe to use from the orbital pool."""

    def __init__(self):
        self.spans = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            ident = next(self._ids)
        rec = Span(name, ident, stack[-1].ident if stack else None,
                   threading.get_ident(), time.perf_counter())
        stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def wrap(self, name, fn, reader=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if reader is not None:
                    rec.counts = reader(result)
                return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, paroeig):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for module, attr, name, reader in targets(paroeig):
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, reader))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def summarize(spans, main_thread):
    """Per-name call counts, busy time (all threads) and self time (main
    thread: duration minus the direct children's durations).

    Returns (per_name, root_duration, closure) where closure is the sum of
    every main-thread self time below the root over the root's duration.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    per_name = {}
    root = None
    below_root = 0.0
    for s in spans:
        row = per_name.setdefault(s.name, {"calls": 0, "busy_s": 0.0,
                                           "self_s": 0.0, "counts": []})
        row["calls"] += 1
        row["busy_s"] += s.duration
        if s.counts:
            row["counts"].append(s.counts)
        if s.thread != main_thread:
            continue
        own = s.duration - child_time.get(s.ident, 0.0)
        row["self_s"] += own
        if s.name == ROOT:
            root = s
        else:
            below_root += own
    if root is None:
        raise ValueError("trace has no root span")
    return per_name, root.duration, below_root / root.duration
