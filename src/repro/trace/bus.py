"""The trace event bus: zero overhead when disabled.

Every :class:`repro.machine.machine.Machine` owns one
:class:`TraceBus`.  Instrumented components (interpreter, memory ports,
PMU sessions) hold a reference to it and guard every emission site with
the ``enabled`` flag::

    if bus.enabled:
        bus.emit(TraceEvent(...))

With no sink attached the guard is a single attribute load and branch —
the event object is never even constructed — so tracing costs nothing
unless a measurement asks for it.

The bus also carries the machine's notion of *when*: ``now`` is set to
the TSC at the start of every run, and ``cursor`` is advanced by the
interpreter to the current phase's start so that batch-level events
emitted from inside the memory system land at the right point on the
timeline.
"""

from __future__ import annotations

from typing import List

from .events import TraceEvent


class NullSink:
    """Discards everything (the default when nothing is attached)."""

    def emit(self, event: TraceEvent) -> None:
        pass


class ListSink:
    """Records events in order into a plain list."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class TraceBus:
    """Single-sink event bus with an explicit cheap-to-test enable flag."""

    __slots__ = ("enabled", "sink", "now", "cursor")

    def __init__(self) -> None:
        self.enabled: bool = False
        self.sink = NullSink()
        #: TSC at the start of the current run (set by the machine)
        self.now: float = 0.0
        #: cycle timestamp of the current phase (set by the interpreter)
        self.cursor: float = 0.0

    def attach(self, sink) -> None:
        """Route events into ``sink`` and enable emission."""
        self.sink = sink
        self.enabled = True

    def detach(self):
        """Disable emission; returns the sink that was attached."""
        sink = self.sink
        self.sink = NullSink()
        self.enabled = False
        return sink

    def emit(self, event: TraceEvent) -> None:
        if self.enabled:
            self.sink.emit(event)
