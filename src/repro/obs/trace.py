"""Hierarchical span tracer: where did a request or train step spend its time.

A :class:`Span` is one timed section of work; spans opened while another span
of the same thread is active become its children, so a traced serving request
or training step comes back as a tree (queue wait -> batch assembly -> fused
solve -> postprocess).  The tracer is thread-safe: every
thread keeps its own span stack, so the simulated-cluster ranks and the
serving worker pool each contribute their own root spans to one trace.

Instrumented call sites go through the module-level :func:`span` helper::

    from ..obs import trace as obs

    with obs.span("serving.fused_solve", batch=8):
        ...

which is the whole integration contract.  **Tracing is off by default** and
the disabled path is near-free: ``span()`` reads one module global and
returns a shared no-op context manager — no allocation, no clock call, no
locking — so hot paths can stay instrumented permanently (the overhead
benchmark in ``benchmarks/test_obs_overhead.py`` bounds the cost below 2% of
the serving and compiled-training paths).

Completed traces export two ways:

* :meth:`Tracer.chrome_trace` — Chrome trace-event JSON (load in
  ``chrome://tracing`` / Perfetto),
* :meth:`Tracer.span_tree` — an indented text rendering for terminals.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "Tracer",
    "span",
    "span_events",
    "render_spans",
    "enable_tracing",
    "disable_tracing",
    "get_tracer",
]


@dataclass
class Span:
    """One completed (or active) timed section."""

    name: str
    start: float                    # perf_counter at __enter__
    end: float | None = None        # perf_counter at __exit__
    attrs: dict = field(default_factory=dict)
    children: list = field(default_factory=list)
    thread_id: int = 0

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def set_attr(self, name: str, value) -> None:
        self.attrs[name] = value

    def walk(self):
        """Yield this span and every descendant, depth-first."""

        yield self
        for child in self.children:
            yield from child.walk()


class _ActiveSpan:
    """Context manager binding a :class:`Span` to its tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_obj: Span):
        self._tracer = tracer
        self._span = span_obj

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        self._span.start = time.perf_counter()
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        # Exception safety: the span always closes and the stack always pops,
        # so a raising section neither corrupts nesting nor hides the error.
        self._span.end = time.perf_counter()
        if exc_type is not None:
            self._span.attrs["error"] = exc_type.__name__
        self._tracer._pop(self._span)


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def set_attr(self, name: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span_events(root: Span, epoch: float, now: float | None = None) -> list[dict]:
    """Chrome trace-event JSON objects for one span tree.

    Spans still open (``end is None`` — an in-flight trace snapshot) are
    emitted with their duration-so-far and an ``in_flight: true`` arg, so a
    dump taken while a straggler is stuck shows *where* it is stuck.
    """

    if now is None:
        now = time.perf_counter()
    events = []
    for s in root.walk():
        in_flight = s.end is None
        args = {k: _jsonable(v) for k, v in s.attrs.items()}
        if in_flight:
            args["in_flight"] = True
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - epoch) * 1e6,
                "dur": ((s.end if not in_flight else now) - s.start) * 1e6,
                "pid": 0,
                "tid": s.thread_id,
                "args": args,
            }
        )
    return events


def render_spans(roots: list, now: float | None = None) -> list[str]:
    """Indented text lines for span trees (open spans marked ``in flight``)."""

    if now is None:
        now = time.perf_counter()
    lines: list[str] = []

    def render(s: Span, depth: int) -> None:
        attrs = "".join(
            f" {k}={v}" for k, v in s.attrs.items() if not isinstance(v, (dict, list))
        )
        duration = (s.end if s.end is not None else now) - s.start
        marker = "  [in flight]" if s.end is None else ""
        lines.append(
            f"{'  ' * depth}{s.name:<40s} {duration * 1e3:9.3f} ms{attrs}{marker}"
        )
        for child in s.children:
            render(child, depth + 1)

    for root in roots:
        render(root, 0)
    return lines


class Tracer:
    """Thread-safe collector of hierarchical spans.

    Each thread nests spans on its own stack; spans finishing with an empty
    stack are recorded as that thread's root spans.  Roots are kept in a
    bounded ring (``max_roots``) so a long-lived traced server cannot grow
    without limit.
    """

    def __init__(self, max_roots: int = 10_000):
        self.max_roots = int(max_roots)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._dropped_roots = 0
        # thread ident -> that thread's live span stack (the same list object
        # as its thread-local), so in-flight spans are visible to exporters
        self._stacks: dict[int, list] = {}
        #: perf_counter origin of the trace (chrome timestamps are relative)
        self.epoch = time.perf_counter()

    # -- span lifecycle (called by _ActiveSpan) ----------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._stacks[threading.get_ident()] = stack
        return stack

    def _push(self, span_obj: Span) -> None:
        stack = self._stack()
        span_obj.thread_id = threading.get_ident()
        if stack:
            stack[-1].children.append(span_obj)
        stack.append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        stack = self._stack()
        # The span being closed is on top unless user code exited spans out
        # of order; recover by popping through it.
        while stack:
            top = stack.pop()
            if top is span_obj:
                break
        if not stack:
            with self._lock:
                if len(self._roots) >= self.max_roots:
                    self._roots.pop(0)
                    self._dropped_roots += 1
                self._roots.append(span_obj)

    # -- public API ---------------------------------------------------------------

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a span; use as a context manager."""

        return _ActiveSpan(self, Span(name=name, start=0.0, attrs=attrs))

    @property
    def roots(self) -> list[Span]:
        """Completed root spans (a copy, safe to iterate while tracing)."""

        with self._lock:
            return list(self._roots)

    def active_roots(self) -> list[Span]:
        """Root spans currently open, one per thread with live spans.

        The returned spans are still being mutated by their owning threads;
        treat them as read-only snapshots (exporters mark them in-flight).
        """

        with self._lock:
            return [stack[0] for stack in self._stacks.values() if stack]

    def current_root(self) -> Span | None:
        """The calling thread's open root span, or ``None``."""

        stack = getattr(self._local, "stack", None)
        return stack[0] if stack else None

    def current_span(self) -> Span | None:
        """The calling thread's innermost open span, or ``None``."""

        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def clear(self) -> None:
        with self._lock:
            self._roots.clear()
            self._dropped_roots = 0
        self.epoch = time.perf_counter()

    def span_count(self) -> int:
        """Total spans recorded so far (roots plus descendants)."""

        return sum(1 for root in self.roots for _ in root.walk())

    # -- exporters ----------------------------------------------------------------

    def chrome_trace(self, include_active: bool = True) -> list[dict]:
        """Trace-event JSON objects (``ph: "X"`` complete events, microseconds).

        ``include_active`` also snapshots spans still open on any thread
        (marked with an ``in_flight`` arg and their duration-so-far), so a
        dump taken mid-request shows where a straggler currently is.
        """

        now = time.perf_counter()
        events = []
        for root in self.roots:
            events.extend(span_events(root, self.epoch, now=now))
        if include_active:
            for root in self.active_roots():
                events.extend(span_events(root, self.epoch, now=now))
        return events

    def write_chrome_trace(self, path) -> None:
        """Write the Chrome trace-event file (open with ``chrome://tracing``)."""

        with open(path, "w") as handle:
            json.dump({"traceEvents": self.chrome_trace()}, handle, indent=2)

    def span_tree(
        self, max_roots: int | None = None, include_active: bool = True
    ) -> str:
        """Indented text rendering of the recorded span trees.

        ``include_active`` appends the span trees still open on any thread,
        each open span marked ``[in flight]`` with its duration so far.
        """

        roots = self.roots
        if max_roots is not None:
            roots = roots[-max_roots:]
        lines = render_spans(roots)
        if include_active:
            lines.extend(render_spans(self.active_roots()))
        if self._dropped_roots:
            lines.append(f"... ({self._dropped_roots} earlier roots dropped)")
        return "\n".join(lines)


def _jsonable(value):
    try:
        json.dumps(value)
        return value
    except TypeError:
        return repr(value)


# ---------------------------------------------------------------------------
# Global tracer (what instrumented call sites use)
# ---------------------------------------------------------------------------

#: the active tracer, or ``None`` while tracing is disabled
_ACTIVE: Tracer | None = None


def span(name: str, **attrs):
    """Open a span on the active tracer, or a free no-op when disabled.

    This is the only call instrumented code needs; keyword arguments become
    span attributes.  The disabled path is one global read and a constant
    return, so permanent instrumentation of hot paths is safe.
    """

    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the active tracer; a fresh one by default."""

    global _ACTIVE
    _ACTIVE = tracer if tracer is not None else Tracer()
    return _ACTIVE


def disable_tracing() -> None:
    """Disable tracing; instrumented sites return to the no-op path."""

    global _ACTIVE
    _ACTIVE = None


def get_tracer() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is disabled."""

    return _ACTIVE
