"""Execution tracing for the simulator: flat events and hierarchical spans.

Two complementary record types, both stamped in *simulated* time:

* :class:`TraceEvent` — flat, per-occurrence records of collectives,
  point-to-point transfers and compute kernels.  These carry the byte and
  β-weighted volumes the cost model charged, and back the communication
  matrix and the collective-stats aggregations.

* :class:`Span` — hierarchical, per-rank regions (``step > layer > op >
  collective``) opened and closed with :meth:`Tracer.span`.  Each rank in a
  span gets its own record with that rank's begin/end clock, a stable span
  id, and the parent span id on the same rank, so exporters can rebuild the
  nesting exactly (and the Perfetto exporter renders one track per rank).

Both are immutable named tuples: cheap to build on the recording path, and
cheap for analyses to transpose into columns (``zip(*tracer.events)``).

Tracing is off by default and must cost ~nothing when disabled: hot call
sites are expected to check :attr:`Tracer.enabled` *before* building
argument tuples, and :meth:`Tracer.span` returns a shared no-op context
manager without touching any per-rank state.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Tuple

#: the shared read-only default for :attr:`Span.attrs`
_NO_ATTRS: Mapping[str, object] = MappingProxyType({})


class TraceEvent(NamedTuple):
    kind: str  # "broadcast", "reduce", "all_reduce", "p2p", "compute", ...
    ranks: Tuple[int, ...]
    t_start: float
    t_end: float
    nbytes: float = 0.0
    label: str = ""
    weighted: float = 0.0  # β-weighted volume charged per participant
    attrs: Optional[Mapping[str, object]] = None

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    @property
    def occupied_ranks(self) -> Tuple[int, ...]:
        """The ranks whose timeline this event occupies.

        A compute kernel runs on its issuing rank (``ranks[0]``); a p2p
        transfer stalls only its receiver (``ranks[1]``), since the sender's
        copy engine does not block it; every other event occupies all of
        its participants.
        """
        if self.kind == "compute":
            return self.ranks[:1]
        if self.kind == "p2p":
            return self.ranks[1:2]
        return self.ranks


class Span(NamedTuple):
    """One rank's view of a hierarchical trace region."""

    name: str
    category: str  # "step", "layer", "op", "collective", ...
    rank: int
    t_start: float
    t_end: float
    depth: int  # nesting depth on this rank (0 = top level)
    sid: int  # span id, shared by all ranks of the same region
    parent: Optional[int]  # enclosing span's sid on this rank, if any
    attrs: Mapping[str, object] = _NO_ATTRS

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


def to_ns(t: float) -> int:
    """Simulated seconds as whole nanoseconds, the analyses' time quantum."""
    return int(round(t * 1e9))


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _SpanHandle:
    """An open span: captures per-rank begin clocks, closes on ``__exit__``."""

    __slots__ = ("tracer", "name", "category", "ranks", "attrs", "sid", "_t0", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, ranks, category: str, attrs):
        self.tracer = tracer
        self.name = name
        self.category = category
        self.ranks = tuple(ranks)
        self.attrs = attrs
        self.sid = tracer._next_sid()
        self._t0: Dict[int, float] = {}
        self._parent: Dict[int, Optional[int]] = {}
        self._depth: Dict[int, int] = {}

    def __enter__(self) -> "_SpanHandle":
        clock = self.tracer.clock_of
        for r in self.ranks:
            stack = self.tracer._stacks.setdefault(r, [])
            self._parent[r] = stack[-1] if stack else None
            self._depth[r] = len(stack)
            self._t0[r] = clock(r) if clock is not None else 0.0
            stack.append(self.sid)
        return self

    def __exit__(self, *exc) -> bool:
        clock = self.tracer.clock_of
        for r in self.ranks:
            stack = self.tracer._stacks[r]
            if not stack or stack[-1] != self.sid:
                raise RuntimeError(
                    f"span {self.name!r} (sid {self.sid}) closed out of order on "
                    f"rank {r}: open stack {stack}"
                )
            stack.pop()
            self.tracer.spans.append(
                Span(
                    self.name,
                    self.category,
                    r,
                    self._t0[r],
                    clock(r) if clock is not None else 0.0,
                    self._depth[r],
                    self.sid,
                    self._parent[r],
                    self.attrs,
                )
            )
        return False


class Tracer:
    """Event/span recorder; ``enabled`` toggles notify the owning simulator.

    ``enabled`` is a property so that direct writes (``sim.tracer.enabled =
    True``, common in tests) keep the simulator's precomputed
    :attr:`~repro.runtime.simulator.Simulator.is_enabled` fast-path flag in
    sync via the ``on_toggle`` callback.
    """

    __slots__ = ("_enabled", "events", "spans", "clock_of", "on_toggle", "_stacks", "_sid")

    def __init__(
        self,
        enabled: bool = False,
        events: Optional[List[TraceEvent]] = None,
        spans: Optional[List[Span]] = None,
        clock_of: Optional[Callable[[int], float]] = None,
    ):
        self._enabled = bool(enabled)
        self.events: List[TraceEvent] = events if events is not None else []
        self.spans: List[Span] = spans if spans is not None else []
        #: per-rank simulated clock source, wired up by the Simulator
        self.clock_of = clock_of
        #: called after every ``enabled`` write (wired up by the Simulator)
        self.on_toggle: Optional[Callable[[], None]] = None
        self._stacks: Dict[int, List[int]] = {}
        self._sid = 0

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        if self.on_toggle is not None:
            self.on_toggle()

    def _next_sid(self) -> int:
        self._sid += 1
        return self._sid

    # ------------------------------------------------------------------
    # flat events
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        ranks,
        t_start: float,
        t_end: float,
        nbytes: float = 0.0,
        label: str = "",
        weighted: float = 0.0,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        if self.enabled:
            self.events.append(
                TraceEvent(kind, tuple(ranks), t_start, t_end, nbytes, label, weighted, attrs)
            )

    # ------------------------------------------------------------------
    # hierarchical spans
    # ------------------------------------------------------------------
    def span(self, name: str, ranks, category: str = "op", **attrs):
        """Open a nested region over ``ranks``; use as a context manager.

        Returns a shared no-op when tracing is disabled, so call sites may
        write ``with tracer.span(...)`` unconditionally — though hot loops
        should still guard on :attr:`enabled` to skip kwargs construction.
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanHandle(self, name, ranks, category, attrs)

    @property
    def open_span_count(self) -> int:
        return sum(len(s) for s in self._stacks.values())

    def spans_of(
        self, category: Optional[str] = None, rank: Optional[int] = None
    ) -> List[Span]:
        out = self.spans
        if category is not None:
            out = [s for s in out if s.category == category]
        if rank is not None:
            out = [s for s in out if s.rank == rank]
        return list(out) if out is self.spans else out

    def max_depth(self, rank: Optional[int] = None) -> int:
        spans = self.spans if rank is None else [s for s in self.spans if s.rank == rank]
        return max((s.depth for s in spans), default=-1) + 1

    # ------------------------------------------------------------------
    # maintenance / queries
    # ------------------------------------------------------------------
    def clear(self) -> None:
        self.events.clear()
        self.spans.clear()
        self._stacks.clear()

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def total_time(self, kind: Optional[str] = None) -> float:
        evs = self.events if kind is None else self.of_kind(kind)
        return sum(e.duration for e in evs)
