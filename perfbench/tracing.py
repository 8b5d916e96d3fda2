"""Per-layer timing by wrapping the module attributes the program calls through.

su31cert modules reach each other through module globals (``engine`` calls
``find_branch_witness``, ``tracefield`` calls ``su31_residual`` and so on), so
replacing those attributes with timing wrappers for the length of a traced pass
measures every call without changing a file of the program.  Each wrapper keeps
a stack of open spans: a layer's self time is its own time minus the time of
the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, layer name, kind).  A "hot" layer is called thousands of
# times per operation, so it is counted and timed but gets no span of its own;
# a "gen" layer is a generator, timed on every step and counted per item.
CORE_TARGETS = [
    ("su31cert.hermitian", "su31_residual", "hermitian.su31_residual", "hot"),
    ("su31cert.tracefield", "su31_residual", "hermitian.su31_residual", "hot"),
    ("su31cert.engine", "su31_residual", "hermitian.su31_residual", "hot"),
    ("su31cert.tracefield", "enumerate_words", "tracefield.enumerate_words", "gen"),
    ("su31cert.engine", "enumerate_words", "tracefield.enumerate_words", "gen"),
    ("su31cert.engine", "classify_group", "engine.classify_group", "call"),
    ("su31cert.engine", "trace_reality_report", "engine.trace_reality_report", "call"),
    ("su31cert.engine", "find_loxodromic", "engine.find_loxodromic", "call"),
    ("su31cert.engine", "normalize_group", "engine.normalize_group", "call"),
    ("su31cert.engine", "find_branch_witness", "engine.find_branch_witness", "call"),
    ("su31cert.engine", "case1_certify", "engine.case1_certify", "call"),
    ("su31cert.engine", "case2_build_real_span", "engine.case2_build_real_span", "call"),
    ("su31cert.engine", "case2_conjugator", "engine.case2_conjugator", "call"),
    ("su31cert.engine", "classify", "elements.classify", "call"),
    ("su31cert.engine", "normalize_loxodromic", "elements.normalize_loxodromic", "call"),
    ("su31cert.elements", "classify", "elements.classify", "call"),
    ("su31cert.elements", "normalize_loxodromic", "elements.normalize_loxodromic", "call"),
    ("su31cert.elements", "eigen_solve", "elements.eigen_solve", "call"),
    ("su31cert.cartan", "cartan_invariant", "cartan.cartan_invariant", "call"),
]
CLI_TARGETS = [
    ("su31cert.cli", "main", "cli.main", "call"),
    ("su31cert.cli", "classify_group", "cli.classify_group", "call"),
]
SETUP_TARGETS = [("su31cert.corpus", "make_corpus", "corpus.make_corpus", "call")]


class Tracer:
    """Counts, times and records spans for the wrapped layers."""

    def __init__(self):
        self.stats = {}  # layer -> {"calls", "ms", "self_ms", "items", "failed"}
        self.spans = []  # [layer, start_s, end_s, parent span index, op index]
        self.op = -1
        self._stack = []  # open frames: [seconds spent in children, span index]

    def stat(self, name) -> dict:
        return self.stats.setdefault(
            name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "items": 0, "failed": 0}
        )

    def merge(self, stats: dict):
        for name, rec in stats.items():
            mine = self.stat(name)
            for key, value in rec.items():
                mine[key] += value

    def _open(self, name, hot):
        parent = self._stack[-1][1] if self._stack else -1
        index = parent
        if not hot:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        frame = [0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, rec, frame, t0, hot, failed):
        t1 = perf_counter()
        dt = t1 - t0
        self._stack.pop()
        rec["ms"] += 1e3 * dt
        rec["self_ms"] += 1e3 * (dt - frame[0])
        rec["failed"] += failed
        if self._stack:
            self._stack[-1][0] += dt
        if not hot:
            self.spans[frame[1]][1:3] = [t0, t1]

    @contextmanager
    def span(self, name):
        """Time one entry into layer ``name``; wrapped calls inside it are its children."""
        frame = self._open(name, False)
        t0 = perf_counter()
        failed = 1
        try:
            yield
            failed = 0
        finally:
            self._close(self.stat(name), frame, t0, False, failed)

    def wrap(self, name, fn, kind):
        tracer = self
        hot = kind != "call"
        rec = self.stat(name)
        if kind == "gen":

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec["calls"] += 1
                return tracer._iterate(name, rec, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec["calls"] += 1
            frame = tracer._open(name, hot)
            t0 = perf_counter()
            failed = 1
            try:
                result = fn(*args, **kwargs)
                failed = 0
                return result
            finally:
                tracer._close(rec, frame, t0, hot, failed)

        return wrapper

    def _iterate(self, name, rec, gen):
        """Time each step of ``gen`` as a hot call of ``name`` and count its items."""
        try:
            while True:
                frame = self._open(name, True)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(rec, frame, t0, True, 0)
                rec["items"] += 1
                yield item
        finally:
            gen.close()


@contextmanager
def installed(tracer: Tracer, targets):
    """Replace each target attribute with a traced wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr, name, kind in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, kind))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
