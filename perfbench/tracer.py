"""Span tracer installed around semvid's public functions from outside.

Every module binding of a traced function object is replaced by one timing
wrapper (``semvid.retrieval.embed_tokens`` and ``semvid.concepts.embed_tokens``
are the same object, so both get the wrapper) and restored by ``uninstall``.
A traced name that no longer exists is recorded in ``absent`` rather than
failing, so functions can be removed or renamed without editing the tracer.

Each call of a span function records one span: name, start, end, parent id,
event id and the time covered by its children. Functions called once per
video or per concept are *aggregated*: their calls add a count, a total and a
child total under the nearest enclosing span, which keeps memory bounded.
Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import pkgutil
import sys
from time import perf_counter

PACKAGE = "semvid"

# (layer, module, function, aggregated)
TARGETS = (
    ("embedding", "embedding", "load_embeddings", False),
    ("embedding", "embedding", "nearest_words", False),
    ("embedding", "embedding", "embed_tokens", True),
    ("concepts", "concepts", "load_concepts", False),
    ("concepts", "concepts", "rank_concepts", False),
    ("similarity", "similarity", "sim_pooled", True),
    ("similarity", "similarity", "sim_hausdorff", True),
    ("similarity", "similarity", "sim_crosssum", True),
    ("kernels", "kernels", "marginal_scores", False),
    ("kernels", "kernels", "directed_max_cosines", True),
    ("videos", "videos", "load_corpus", False),
    ("retrieval", "retrieval", "load_queries", False),
    ("retrieval", "retrieval", "prepare_text_query", False),
    ("retrieval", "retrieval", "rank_event", False),
    ("retrieval", "retrieval", "fuse", True),
    ("retrieval", "retrieval", "write_ranked_tsv", False),
    ("retrieval", "retrieval", "read_ranked_tsv", False),
    ("evaluation", "evaluation", "load_truth", False),
    ("evaluation", "evaluation", "evaluate", False),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "event", "phase", "child", "agg")

    def __init__(self, id, name, start, parent, event, phase=None):
        self.id, self.name, self.start, self.parent, self.event = id, name, start, parent, event
        self.phase = phase
        self.end = None
        self.child = 0.0  # time covered by children, stored or aggregated
        self.agg = {}  # aggregated name -> [calls, total, child total]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "event": self.event, "phase": self.phase,
                "child": self.child,
                "agg": self.agg}


class _Frame:
    """An open aggregated call: only its child time is needed."""

    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.root = Span(0, "root", perf_counter(), None, None)
        self._stack: list = [self.root]
        self._patched: list[tuple[object, str, object]] = []
        self._phase = None
        self._ids = itertools.count(1)

    def install(self) -> None:
        self.absent = []
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            try:
                importlib.import_module(f"{PACKAGE}.{info.name}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer, module, func, aggregated in TARGETS:
            name = f"{layer}.{func}"
            original = getattr(sys.modules.get(f"{PACKAGE}.{module}"), func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, aggregated)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def phase(self, label):
        """Tag spans opened from now on with ``label`` until the next call."""
        self._phase = label

    def _wrap(self, name, fn, aggregated):
        stack = self._stack

        if aggregated:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = _Frame()
                stack.append(frame)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf_counter() - start
                    stack.pop()
                    stack[-1].child += duration
                    owner = next(s for s in reversed(stack) if isinstance(s, Span))
                    entry = owner.agg.setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += frame.child
            return wrapper

        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next(s for s in reversed(stack) if isinstance(s, Span))
            event = parent.event
            if event is None and name == "retrieval.rank_event":
                event = getattr(args[0] if args else kwargs.get("query"), "event_id", None)
            span = Span(next(ids), name, 0.0, parent.id, event, self._phase)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                stack[-1].child += span.duration
                spans.append(span)
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent,
                       "spans": [s.as_dict() for s in self.spans]}, fh)


def summarize(spans, roots) -> dict[str, list]:
    """name -> [calls, total seconds, self seconds, per-call durations] over
    the subtrees of the spans in ``roots`` (roots included)."""
    by_id = {s.id: s for s in spans}
    root_ids = {s.id for s in roots}

    def under(span):
        while span is not None:
            if span.id in root_ids:
                return True
            span = by_id.get(span.parent)
        return False

    out: dict[str, list] = {}
    for span in spans:
        if not under(span):
            continue
        entry = out.setdefault(span.name, [0, 0.0, 0.0, []])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += span.duration - span.child
        entry[3].append(span.duration)
        for name, (calls, total, child) in span.agg.items():
            entry = out.setdefault(name, [0, 0.0, 0.0, []])
            entry[0] += calls
            entry[1] += total
            entry[2] += total - child
    return out
