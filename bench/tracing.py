"""In-memory spans around the calls into each arraywitness module.

The traced run replaces each public entry function listed in ``LAYERS`` by a
wrapper that records a span (name, start, end, parent) and a few counts. The
wrappers are installed into every ``arraywitness`` module namespace that
holds the function, so calls between modules (``cli.run`` calling ``parse``,
``differential_check`` calling ``enumerate_runs``) are traced too. Spans stay
in memory until the run ends; nothing is written out.

The untraced run never builds a ``Tracer``: it uses ``NULL_TRACER``, whose
``span`` records nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "arraywitness"

# module -> public entry functions wrapped in the traced run. Helpers that
# recurse or run once per loop (``walk``, ``loop_bound``) are left out: a
# span per call would cost more than the work it measures.
LAYERS = {
    "parser": ("parse",),
    "analysis": ("analyze_program",),
    "transform": ("transform_with_info", "transform_program"),
    "precision": ("classify_all", "classify_program", "classify"),
    "grammar": ("validate_output_grammar",),
    "emit": ("emit_verifiable", "emit_report"),
    "oracle": ("differential_check", "enumerate_runs", "replay_trace", "scale_arrays"),
    "gen": ("generate_program",),
    "cli": ("run",),
}


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        s = Span(name, parent, time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        try:
            yield s
        except BaseException as e:
            s.attrs["error"] = type(e).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def parent_of(self, s: Span) -> Span | None:
        return self.spans[s.parent] if s.parent >= 0 else None

    def ancestor(self, s: Span, name: str) -> Span | None:
        p = self.parent_of(s)
        while p is not None and p.name != name:
            p = self.parent_of(p)
        return p

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        homes = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for layer, names in LAYERS.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrapper(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrapper(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                if name == "oracle.enumerate_runs":
                    return self._enumerate(s, fn, args, kwargs)
                result = fn(*args, **kwargs)
                if count is not None:
                    count(s, args, result)
                return result

        return traced

    def _enumerate(self, s: Span, fn, args, kwargs):
        """Run ``enumerate_runs`` with a census of completed runs, distinct
        final states and array accesses, chained in front of any callbacks
        the caller passed."""
        parent = self.parent_of(s)
        if parent is not None and parent.name == "oracle.differential_check":
            seen = parent.attrs.get("enumerations", 0)
            parent.attrs["enumerations"] = seen + 1
            s.attrs["role"] = "orig" if seen == 0 else "trans"
        else:
            s.attrs["role"] = "direct"
        finals: set = set()
        s.attrs.update(runs=0, array_accesses=0)
        theirs_complete = kwargs.pop("on_complete", None)
        theirs_access = kwargs.pop("on_array_access", None)

        def on_complete(state):
            s.attrs["runs"] += 1
            finals.add(tuple(state.items()))
            if theirs_complete is not None:
                theirs_complete(state)

        def on_array_access(array, index):
            s.attrs["array_accesses"] += 1
            if theirs_access is not None:
                theirs_access(array, index)

        try:
            return fn(*args, on_complete=on_complete,
                      on_array_access=on_array_access, **kwargs)
        finally:
            s.attrs["distinct_finals"] = len(finals)


def _count_parse(s: Span, args, result) -> None:
    s.attrs["bytes"] = len(args[0])


def _count_transform(s: Span, args, result) -> None:
    from arraywitness.astnodes import walk  # the package as last imported

    p = result.program
    s.attrs["out_nodes"] = len(p.decls) + sum(1 for _ in walk(p.body))


def _count_emit(s: Span, args, result) -> None:
    s.attrs["bytes"] = len(result)


_COUNTERS = {
    "parser.parse": _count_parse,
    "transform.transform_with_info": _count_transform,
    "emit.emit_verifiable": _count_emit,
}


class _NullTracer:
    """Stands in for a Tracer in the untraced run; records nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()


NULL_TRACER = _NullTracer()


def self_times(tracer: Tracer) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.duration for s in tracer.spans]
    for s in tracer.spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own
