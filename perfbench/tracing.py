"""Spans around wordrep's public entry points, installed from outside ``src/``.

Functions are imported by name into other modules (``find_transitive_orientation``
into ``characterizer``, ``representation`` and ``cli``, for example), so a
wrapper is installed at every module attribute that holds the original.
Spans are kept in memory and written out when the run ends. A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name)
TARGETS = (
    ("wordrep.representation", "representing_words", "representation.word_search"),
    ("wordrep.orientations", "exists_semi_transitive_orientation", "orientations.semi_transitive"),
    ("wordrep.orientations", "minimum_realizer", "orientations.realizer"),
    ("wordrep.orientations", "find_transitive_orientation", "orientations.transitive"),
    ("wordrep.modular", "maximal_modular_partition", "modular.partition"),
    ("wordrep.words", "represents", "words.represents"),
    ("wordrep.characterizer", "classify", "characterizer.classify"),
    ("wordrep.characterizer", "verify", "characterizer.verify"),
    ("wordrep.io", "parse_graph_text", "io.parse"),
    ("wordrep.cli", "main", "cli.main"),
)
WORD_SEARCH = "representation.word_search"
SEMI_TRANSITIVE = "orientations.semi_transitive"


class Tracer:
    """Records spans as [name, start_ns, end_ns, parent index, case id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = ""
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.case])
        self._open.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn):
        if name == WORD_SEARCH:
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".errors"] += 1
                raise
            finally:
                tracer._exit(index)
            if name == SEMI_TRANSITIVE and result is False:
                tracer.counts[name + ".refuted"] += 1
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Time the consumption of each level's generator, not its creation.

        ``rep_number`` asks ``next(representing_words(g, k))`` per level k, so
        the search happens inside ``__next__``.
        """
        tracer = self

        class Level:
            def __init__(self, gen) -> None:
                self.gen = gen
                self.started = False

            def __iter__(self):
                return self

            def __next__(self):
                first = not self.started
                if first:
                    self.started = True
                    tracer.counts[name + ".levels"] += 1
                index = tracer._enter(name)
                try:
                    word = next(self.gen)
                finally:
                    tracer._exit(index)
                if first:
                    tracer.counts[name + ".found"] += 1
                return word

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Level(fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Replace every reference to each loaded target inside wordrep."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "wordrep" or key.startswith("wordrep."))
        ]
        for module_name, attr, name in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._installed.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._installed):
            setattr(m, key, original)
        self._installed.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds, and the longest single call."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "max_call_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        row["max_call_s"] = max(row["max_call_s"], (end - start) / 1e9)
    return out
