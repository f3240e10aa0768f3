"""Span tracing from outside the package, for the traced benchmark run.

``Tracer.install`` replaces a fixed list of module attributes that the
package calls through (``symbolic.run_word_batch``, ``billiard.first_hit``,
...) with wrappers that record a span per call: name, start, end, parent
and thread id.  Spans stay in memory until ``layer_metrics`` turns them
into per-layer times and counts.  Targets are resolved when tracing starts;
one that no longer exists is reported as missing instead of failing the run,
so the traced run keeps working when the package is restructured.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

import numpy as np

# (span name, module, attribute path) -- every target the package resolves
# at call time through a module global or a class attribute
HOOKS = [
    ("cli.main", "polybilliard.cli", "main"),
    ("estimate_complexity", "polybilliard.symbolic", "estimate_complexity"),
    ("chunk", "polybilliard.symbolic", "_chunk_complexity"),
    ("run_word_batch", "polybilliard.symbolic", "run_word_batch"),
    ("sample_points", "polybilliard.symbolic", "sample_points_in_face"),
    ("sample_directions", "polybilliard.symbolic", "sample_inward_directions"),
    ("factor_closure", "polybilliard.symbolic", "ComplexityTable.factor_closure_holds"),
    ("first_hit", "polybilliard.billiard", "first_hit"),
    ("orbit", "polybilliard.billiard", "orbit"),
    ("unfold_orbit", "polybilliard.unfolding", "unfold_orbit"),
    ("generate_group", "polybilliard.unfolding", "generate_group"),
    ("propagate_beam", "polybilliard.symbolic", "propagate_beam"),
    ("probe", "polybilliard.transversal", "count_line_surface_intersections"),
]

# per-layer metric -> the spans it is computed from
NEEDS = {
    "billiard.step_s": ["run_word_batch"],
    "billiard.bounces": ["run_word_batch", "orbit"],
    "billiard.bounces_per_busy_s": ["run_word_batch"],
    "billiard.sample_s": ["sample_points", "sample_directions"],
    "billiard.orbit_s": ["orbit"],
    "billiard.us_per_bounce": ["orbit"],
    "geometry.first_hit_calls": ["first_hit"],
    "geometry.first_hit_s": ["first_hit"],
    "unfolding.unfold_s": ["unfold_orbit"],
    "unfolding.group_s": ["generate_group"],
    "unfolding.group_elements": ["generate_group"],
    "symbolic.factor_s": ["chunk", "run_word_batch", "sample_points", "sample_directions"],
    "symbolic.codes_hashed": ["run_word_batch"],
    "symbolic.merge_s": ["estimate_complexity", "chunk"],
    "symbolic.closure_s": ["factor_closure"],
    "symbolic.pool_utilization": ["estimate_complexity", "chunk"],
    "symbolic.beam_s": ["propagate_beam"],
    "symbolic.propagate_calls": ["propagate_beam"],
    "transversal.probe_s": ["probe"],
    "transversal.probes": ["probe"],
    "cli.self_s": ["cli.main", "estimate_complexity", "factor_closure"],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the parent span, None at the root
    tid: int
    info: object = None         # what the counters need from the call


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _info(name: str, args, kwargs, result):
    """Keep only what the counters need; evaluated after the span closes."""
    if name == "run_word_batch":
        _, lengths, flags = result
        return lengths, flags, args[4] if len(args) > 4 else kwargs["n_labels"]
    if name == "orbit":
        return result.n_bounces
    if name == "generate_group":
        return len(result.elements)
    if name == "estimate_complexity":
        return kwargs.get("workers", 1)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._installed: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._main_tid = threading.get_ident()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_tid:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:                       # a pool thread: caused by the main thread's open span
                main = tracer._main_stack
                parent = main[-1] if main else None
            span = Span(name, 0.0, 0.0, parent, threading.get_ident())
            with tracer._lock:
                tracer.spans.append(span)
                stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.info = _info(name, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        for name, module, path in HOOKS:
            try:
                owner, attr, fn = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def mark(self) -> int:
        return len(self.spans)

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer times and counts from the spans recorded in [lo, hi)."""
        spans = self.spans[lo:hi]
        idx = range(lo, hi)
        by_name: dict[str, list[int]] = {}
        for i, s in zip(idx, spans):
            by_name.setdefault(s.name, []).append(i)

        def busy(*names):
            return sum(self.spans[i].end - self.spans[i].start
                       for n in names for i in by_name.get(n, []))

        def self_time(name):
            """Span time minus what its children cover in the same thread."""
            total = 0.0
            for i in by_name.get(name, []):
                s = self.spans[i]
                kids = sum(c.end - c.start for c in spans
                           if c.parent == i and c.tid == s.tid)
                total += (s.end - s.start) - kids
            return total

        def outside_children(name, child):
            """Span time not covered by any child span, in any thread."""
            total = 0.0
            for i in by_name.get(name, []):
                s = self.spans[i]
                ivs = sorted((max(c.start, s.start), min(c.end, s.end)) for c in spans
                             if c.parent == i and c.name == child)
                covered, cur = 0.0, s.start
                for a, b in ivs:
                    a = max(a, cur)
                    if b > a:
                        covered += b - a
                        cur = b
                total += (s.end - s.start) - covered
            return total

        batch_bounces = codes = 0
        for i in by_name.get("run_word_batch", []):
            lengths, flags, n_labels = self.spans[i].info
            batch_bounces += int(lengths.sum() - len(lengths))
            L = lengths[~flags]
            # window codes fed to np.unique: every n-window of every unflagged word
            codes += int(sum(np.maximum(L - n + 1, 0).sum() for n in range(1, n_labels + 1)))
        orbit_bounces = sum(self.spans[i].info - 1 for i in by_name.get("orbit", []))
        step_s = busy("run_word_batch")
        orbit_s = busy("orbit")
        est = by_name.get("estimate_complexity", [])
        pool_capacity = sum(self.spans[i].info * (self.spans[i].end - self.spans[i].start)
                            for i in est)
        out = {
            "billiard.step_s": step_s,
            "billiard.bounces": batch_bounces + orbit_bounces,
            "billiard.bounces_per_busy_s": batch_bounces / step_s if step_s else 0.0,
            "billiard.sample_s": busy("sample_points", "sample_directions"),
            "billiard.orbit_s": orbit_s,
            "billiard.us_per_bounce": 1e6 * orbit_s / orbit_bounces if orbit_bounces else 0.0,
            "geometry.first_hit_calls": len(by_name.get("first_hit", [])),
            "geometry.first_hit_s": busy("first_hit"),
            "unfolding.unfold_s": busy("unfold_orbit"),
            "unfolding.group_s": busy("generate_group"),
            "unfolding.group_elements": sum(self.spans[i].info
                                            for i in by_name.get("generate_group", [])),
            "symbolic.factor_s": self_time("chunk"),
            "symbolic.codes_hashed": codes,
            "symbolic.merge_s": outside_children("estimate_complexity", "chunk"),
            "symbolic.closure_s": busy("factor_closure"),
            "symbolic.pool_utilization": busy("chunk") / pool_capacity if pool_capacity else 0.0,
            "symbolic.beam_s": busy("propagate_beam"),
            "symbolic.propagate_calls": len(by_name.get("propagate_beam", [])),
            "transversal.probe_s": busy("probe"),
            "transversal.probes": len(by_name.get("probe", [])),
            "cli.self_s": self_time("cli.main"),
        }
        for metric, needs in NEEDS.items():
            if any(n in self.missing for n in needs):
                out[metric] = 0.0
        return out

    def missing_metrics(self) -> list[str]:
        return sorted(m for m, needs in NEEDS.items()
                      if any(n in self.missing for n in needs))
