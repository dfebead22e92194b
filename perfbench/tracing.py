"""Timing and counting wrappers around glprover's public functions.

They are installed by rebinding module attributes and removed by restoring
them.  A function imported by name into another module is a separate
binding, so every binding an operation reaches is listed.  A span's self
time is its duration minus the time of the spans it encloses.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span key)
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "parse", "syntax.parse"),
    ("cli", "pretty", "syntax.pretty"),
    ("sequent", "pretty", "syntax.pretty"),
    ("syntax", "pretty", "syntax.pretty"),
    ("sequent", "search", "sequent.search"),
    ("henkin", "search", "henkin.consistency_search"),
    ("sequent", "extract_countermodel", "sequent.validate"),
    ("sequent", "derivation_to_json", "sequent.serialize"),
    ("semantics", "model_to_json", "sequent.serialize"),
    ("sequent", "check_derivation", "sequent.check"),
    ("semantics", "oracle_valid", "semantics.oracle"),
    ("henkin", "build_standard_model", "henkin.build"),
    ("henkin", "truth_lemma_check", "henkin.truth_lemma"),
)
# Counted, not timed: holds recurses through the semantics binding.
HOLDS = (("semantics", "holds"), ("sequent", "holds"), ("henkin", "holds"))
FRAMES_KEY = "semantics.frame_enum"


def _rebind(saved, module, attr, make):
    if hasattr(module, attr):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, make(getattr(module, attr)))


class FrameCounter:
    """Counts the frames ``enumerate_itf_frames(n)`` yields, per ``n``.
    Installed for the whole run: the oracle's exhaustiveness is checked
    with it whether or not the round is traced."""

    def __init__(self, semantics):
        self.counts = Counter()
        self.saved = []

        def make(inner):
            def counted(n, *args, **kwargs):
                for frame in inner(n, *args, **kwargs):
                    self.counts[n] += 1
                    yield frame
            return counted

        _rebind(self.saved, semantics, "enumerate_itf_frames", make)


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.saved = []
        self.stack = []          # [span key, time of enclosed spans]
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.holds = Counter()   # keyed by the innermost open span

    def _span(self, key):
        def make(fn):
            def timed(*args, **kwargs):
                frame = [key, 0.0]
                self.stack.append(frame)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(key, perf_counter() - t0, frame[1])
            return timed
        return make

    def _close(self, key, dt, enclosed):
        self.stack.pop()
        self.self_s[key] += dt - enclosed
        self.total_s[key] += dt
        self.calls[key] += 1
        if self.stack:
            self.stack[-1][1] += dt

    def _count_holds(self, fn):
        def counted(*args, **kwargs):
            self.holds[self.stack[-1][0] if self.stack else None] += 1
            return fn(*args, **kwargs)
        return counted

    def _time_frames(self, fn):
        def timed(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                self.stack.append([FRAMES_KEY, 0.0])
                t0 = perf_counter()
                try:
                    frame = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(FRAMES_KEY, perf_counter() - t0, 0.0)
                yield frame
        return timed

    def install(self):
        m = self.modules
        for module, attr, key in SPANS:
            _rebind(self.saved, m[module], attr, self._span(key))
        for module, attr in HOLDS:
            _rebind(self.saved, m[module], attr, self._count_holds)
        _rebind(self.saved, m["semantics"], "enumerate_itf_frames", self._time_frames)

    def uninstall(self):
        while self.saved:
            module, attr, original = self.saved.pop()
            setattr(module, attr, original)
