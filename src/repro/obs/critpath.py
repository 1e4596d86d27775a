"""Critical-path analysis: attribute every nanosecond of simulated time.

The simulator's counters say *how much* time went to compute vs
communication; this module says *where* and *why*.  From a traced run it
builds, per rank, a contiguous partition of the step window into
:class:`Segment` s — compute kernels, collective participation, the
receiving tail of point-to-point transfers, resilience overhead, and the
gaps in between (barrier/straggler waits) — then walks the cross-rank
dependency DAG backwards to extract the critical path that determines the
step's wall-clock.

Four design decisions worth knowing:

* **integer nanoseconds** — all attribution is quantized to whole
  nanoseconds (``round(t · 1e9)``).  Each rank's window is a contiguous
  integer partition, so the conservation invariant
  ``compute + comm + stall + overhead == wall_clock`` holds *exactly*, in
  integer arithmetic, per rank and per window — not merely to float
  tolerance.  Quantization only affects this report's bookkeeping; the
  simulator's float clocks are never touched.
* **columns, not objects** — every event and span time is converted to
  nanoseconds once, and each rank's busy atoms are sorted once and
  clipped against the running maximum of their ends into one disjoint
  *busy tiling* for the whole run.  A window is a slice of that tiling
  (only its two edge segments can be clipped); stalls are the gaps
  between busy segments.  Attribution sums integers over category codes,
  and :class:`Segment` objects are built only for the critical path and
  for :attr:`Window.timelines`.  The cost is O(N log N) in the number of
  events, independent of the number of windows.
* **the DAG is implicit** — bulk-synchronous semantics mean a collective's
  start time is the barrier time of its participants, and a p2p receive
  depends on its sender at the recorded send time.  The backward walk
  therefore needs no materialized edge list: at a collective it jumps to
  the participant whose preceding busy segment ends latest (the rank that
  held everyone up, ties broken toward the lowest rank for determinism);
  at a p2p it jumps to the sender; otherwise it steps to the previous
  busy segment on the same rank.  Each hop is a bisection into a rank's
  busy ends.
* **predicted vs measured** — every op on the path is re-priced with a
  *solo* :class:`~repro.comm.cost.GroupCommModel` (built without sibling
  groups, so NIC crowding is excluded) and compute with the device's
  effective FLOP rate.  A measured/predicted ratio above 1 localizes
  contention (Fig. 8 crowding) or straggler effects to a specific op;
  a ratio far from 1 on an intra-node collective flags a cost-model bug.

Everything here is read-only over the simulator — running the analyzer
cannot change numerics, clocks or byte counters (tested in
``tests/test_critpath.py``).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.events import to_ns

CRITPATH_SCHEMA = "repro-critpath-v1"

#: attribution categories; every nanosecond lands in exactly one
CATEGORIES = ("compute", "comm", "stall", "overhead")
_CATEGORY_CODE = {c: i for i, c in enumerate(CATEGORIES)}
_STALL = _CATEGORY_CODE["stall"]

#: trace-event kinds priced by the α–β collective model
COLLECTIVE_KINDS = (
    "broadcast", "reduce", "all_reduce", "all_gather", "reduce_scatter",
    "scatter", "gather",
)

#: trace-event kinds produced by the resilience subsystem
OVERHEAD_KINDS = ("fault", "checkpoint", "recovery")

#: category code of every event kind that occupies a timeline; other kinds
#: (serving ``"request"`` lifecycle spans, …) are not attributed
_KIND_CATEGORY = {
    "compute": _CATEGORY_CODE["compute"],
    "p2p": _CATEGORY_CODE["comm"],
    **{k: _CATEGORY_CODE["comm"] for k in COLLECTIVE_KINDS},
    **{k: _CATEGORY_CODE["overhead"] for k in OVERHEAD_KINDS},
}


def _ns_array(ts: Sequence[float]) -> np.ndarray:
    """:func:`~repro.runtime.events.to_ns` over many times at once.

    ``np.rint`` rounds half to even on the same double ``t · 1e9`` that
    Python's ``round`` sees, so the two agree bit for bit.
    """
    return np.rint(np.asarray(ts, dtype=np.float64) * 1e9).astype(np.int64)


class Segment(NamedTuple):
    """One contiguous slice of one rank's timeline, in integer ns."""

    rank: int
    start_ns: int
    end_ns: int
    category: str  # compute | comm | stall | overhead
    kind: str = ""  # event kind ("compute", "broadcast", …); "" for stalls
    label: str = ""  # kernel kind or process-group kind
    op: str = ""  # enclosing op span (summa_ab, …), when resolvable
    layer: str = ""  # enclosing layer span ("layer3.forward"), when resolvable
    nbytes: float = 0.0
    event_index: int = -1  # index into tracer.events, -1 for stalls

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Attribution:
    """Integer-ns totals per category; sums telescope exactly."""

    compute_ns: int = 0
    comm_ns: int = 0
    stall_ns: int = 0
    overhead_ns: int = 0

    @property
    def total_ns(self) -> int:
        return self.compute_ns + self.comm_ns + self.stall_ns + self.overhead_ns

    def as_dict(self) -> dict:
        return {
            "compute_ns": self.compute_ns,
            "comm_ns": self.comm_ns,
            "stall_ns": self.stall_ns,
            "overhead_ns": self.overhead_ns,
            "total_ns": self.total_ns,
        }


# ----------------------------------------------------------------------
# span containment (layer / op labels for segments)
# ----------------------------------------------------------------------
def _previous_at_least(values: List[int]) -> List[int]:
    """For each position, the nearest earlier position holding a value at
    least as large, or -1 (one monotonic-stack pass)."""
    out: List[int] = []
    stack: List[int] = []
    for i, v in enumerate(values):
        while stack and values[stack[-1]] < v:
            stack.pop()
        out.append(stack[-1] if stack else -1)
        stack.append(i)
    return out


class _SpanIndex:
    """Innermost-containing-span lookups over one span category, per rank.

    A rank's spans are sorted by ``(start, -end)``, ties in recording
    order.  A point's span is the last one in that order that starts at
    or before the point and ends at or after it.  A lookup bisects to the
    last span starting at or before the point, then follows ``parent`` —
    the nearest earlier span ending no earlier — while the candidate ends
    before the point: every span it skips ends earlier still.  Labels are
    interned; code 0 is ``""`` (no enclosing span).
    """

    def __init__(self, spans, category: str, label_of):
        per_rank: Dict[int, List] = {}
        for s in spans:
            if s.category == category:
                per_rank.setdefault(s.rank, []).append(s)
        codes = {"": 0}
        self._by_rank: Dict[int, Tuple[np.ndarray, ...]] = {}
        for rank, lst in per_rank.items():
            starts = _ns_array([s.t_start for s in lst])
            ends = _ns_array([s.t_end for s in lst])
            order = np.lexsort((-ends, starts))  # stable
            starts, ends = starts[order], ends[order]
            labels = [codes.setdefault(label_of(lst[i]), len(codes)) for i in order.tolist()]
            # a sentinel at position n (reached through index -1) contains
            # every point and carries no label
            self._by_rank[rank] = (
                starts,
                np.append(ends, np.iinfo(np.int64).max),
                np.array(_previous_at_least(ends.tolist()) + [-1], dtype=np.int64),
                np.array(labels + [0], dtype=np.int64),
            )
        self.names: List[str] = list(codes)

    def lookup(self, rank: int, points: np.ndarray) -> np.ndarray:
        """Label codes of the innermost spans on ``rank`` containing ``points``."""
        entry = self._by_rank.get(rank)
        if entry is None:
            return np.zeros(len(points), dtype=np.int64)
        starts, ends, parent, code = entry
        i = np.searchsorted(starts, points, side="right") - 1
        miss = ends[i] < points
        while miss.any():
            i[miss] = parent[i[miss]]
            miss = ends[i] < points
        return code[i]


def _layer_name(span) -> str:
    attrs = span.attrs or {}
    idx, phase = attrs.get("index"), attrs.get("phase")
    if idx is None:
        return span.name
    return f"layer{idx}.{phase}" if phase else f"layer{idx}"


# ----------------------------------------------------------------------
# timeline construction
# ----------------------------------------------------------------------
class _Lane(NamedTuple):
    """One rank's busy segments inside one window, as parallel columns."""

    start: np.ndarray  # int64 ns, clipped to the window
    end: np.ndarray  # int64 ns, clipped to the window
    event: np.ndarray  # index into tracer.events
    cat: np.ndarray  # category code (index into CATEGORIES)
    kind: np.ndarray  # event-kind code (index into _Run.kind_names)
    layer: np.ndarray  # layer label code (index into layer_index.names)
    op: np.ndarray  # op label code (index into op_index.names)


class _Run:
    """A traced run as per-rank integer-ns columns, built once.

    ``tiles[r]`` is rank ``r``'s busy tiling of the whole run: its busy
    atoms — one per event per rank the event occupies — sorted by
    ``(start, end, event index)`` and clipped against the running maximum
    of the ends, so the segments are disjoint, positive and in order, and
    both their starts and their ends increase strictly.  A p2p receive
    that arrives while the receiver is still busy keeps only its
    uncovered tail; a fully shadowed atom disappears.
    """

    def __init__(self, sim):
        tracer = sim.tracer
        self.events = events = tracer.events
        self.num_ranks = sim.num_ranks
        kinds, _ranks, t_start, t_end = (list(zip(*events)) or [()] * 4)[:4]
        self.start_ns = _ns_array(t_start)
        self.end_ns = _ns_array(t_end)
        kind_codes: Dict[str, int] = {}
        ev_kind = np.array(
            [kind_codes.setdefault(k, len(kind_codes)) for k in kinds], dtype=np.int64
        )
        self.kind_names: List[str] = list(kind_codes)
        ev_cat = np.array(
            [_KIND_CATEGORY.get(k, -1) for k in self.kind_names], dtype=np.int8
        )[ev_kind]
        kept = np.flatnonzero((ev_cat >= 0) & (self.end_ns > self.start_ns))
        targets = [events[i].occupied_ranks for i in kept.tolist()]
        atom_event = np.repeat(kept, [len(t) for t in targets]).astype(np.int64)
        atom_rank = np.fromiter(
            chain.from_iterable(targets), dtype=np.int64, count=len(atom_event)
        )
        a, b = self.start_ns[atom_event], self.end_ns[atom_event]
        order = np.lexsort((atom_event, b, a, atom_rank))
        bounds = np.searchsorted(atom_rank[order], np.arange(self.num_ranks + 1))
        self.tiles: List[Tuple[np.ndarray, ...]] = []
        for r in range(self.num_ranks):
            sel = order[bounds[r]:bounds[r + 1]]
            ra, rb, rev = a[sel], b[sel], atom_event[sel]
            reach = np.empty_like(rb)  # the latest end before each atom
            reach[:1] = ra[:1]
            np.maximum.accumulate(rb[:-1], out=reach[1:])
            busy = rb > reach
            ev = rev[busy]
            self.tiles.append(
                (np.maximum(ra, reach)[busy], rb[busy], ev, ev_cat[ev], ev_kind[ev])
            )
        self.layer_index = _SpanIndex(tracer.spans, "layer", _layer_name)
        self.op_index = _SpanIndex(tracer.spans, "op", lambda s: s.name)

    def lane(self, rank: int, start_ns: int, end_ns: int) -> _Lane:
        """Rank ``rank``'s busy tiling restricted to ``[start_ns, end_ns]``."""
        start, end, event, cat, kind = self.tiles[rank]
        lo = int(np.searchsorted(end, start_ns, side="right"))
        hi = int(np.searchsorted(start, end_ns, side="left"))
        if end_ns <= start_ns:
            hi = lo
        start, end = start[lo:hi], end[lo:hi]
        if hi > lo and (start[0] < start_ns or end[-1] > end_ns):
            start, end = np.maximum(start, start_ns), np.minimum(end, end_ns)
        mid = (start + end) // 2
        return _Lane(
            start, end, event[lo:hi], cat[lo:hi], kind[lo:hi],
            self.layer_index.lookup(rank, mid), self.op_index.lookup(rank, mid),
        )


class Window:
    """One analysis window (a training step, or the whole run).

    ``lanes[r]`` holds rank ``r``'s busy segments inside the window as
    columns; :attr:`timelines` materializes them, with a stall segment in
    every gap, as :class:`Segment` lists on first access.
    """

    def __init__(self, label: str, start_ns: int, end_ns: int, run: _Run):
        self.label = label
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.run = run
        self.lanes = [run.lane(r, start_ns, end_ns) for r in range(run.num_ranks)]
        self._timelines: Optional[Dict[int, List[Segment]]] = None

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns

    def segment(self, rank: int, k: int) -> Segment:
        """The ``k``-th busy segment of ``rank`` in this window."""
        lane, run = self.lanes[rank], self.run
        ei = int(lane.event[k])
        e = run.events[ei]
        return Segment(
            rank=rank, start_ns=int(lane.start[k]), end_ns=int(lane.end[k]),
            category=CATEGORIES[lane.cat[k]], kind=e.kind, label=e.label,
            op=run.op_index.names[lane.op[k]],
            layer=run.layer_index.names[lane.layer[k]],
            nbytes=e.nbytes, event_index=ei,
        )

    @property
    def timelines(self) -> Dict[int, List[Segment]]:
        """Per rank, the contiguous segments tiling ``[start_ns, end_ns]``."""
        if self._timelines is None:
            self._timelines = {}
            for r, lane in enumerate(self.lanes):
                segs: List[Segment] = []
                cursor = self.start_ns
                for k, (a, b) in enumerate(zip(lane.start.tolist(), lane.end.tolist())):
                    if a > cursor:
                        segs.append(Segment(r, cursor, a, "stall"))
                    segs.append(self.segment(r, k))
                    cursor = b
                if cursor < self.end_ns:
                    segs.append(Segment(r, cursor, self.end_ns, "stall"))
                self._timelines[r] = segs
        return self._timelines


def build_windows(sim) -> List[Window]:
    """Partition the traced run into per-rank contiguous segment timelines.

    Windows come from ``"step"`` spans when the workload recorded them
    (training runs); otherwise the whole run is one window (stems).  Within
    a window every rank's segments tile ``[start_ns, end_ns]`` exactly:
    busy atoms from trace events (clipped against one another — a p2p
    receive that arrives while the receiver is still busy only contributes
    its uncovered tail), stall segments filling every gap.
    """
    tracer = sim.tracer
    run = _Run(sim)
    by_sid: Dict[int, List] = {}
    for s in tracer.spans:
        if s.category == "step":
            by_sid.setdefault(s.sid, []).append(s)
    windows: List[Window] = []
    for sid in sorted(by_sid):
        group = by_sid[sid]
        step_no = (group[0].attrs or {}).get("step", len(windows))
        windows.append(Window(
            f"step{step_no}",
            min(to_ns(s.t_start) for s in group),
            max(to_ns(s.t_end) for s in group),
            run,
        ))
    if not windows:
        windows.append(Window("run", 0, to_ns(sim.elapsed()), run))
    return windows


def attribute_window(w: Window) -> Dict[int, Attribution]:
    """Per-rank category totals; each rank's total equals the window exactly."""
    out: Dict[int, Attribution] = {}
    for rank, lane in enumerate(w.lanes):
        dur = lane.end - lane.start
        totals = [int(dur[lane.cat == c].sum()) for c in range(len(CATEGORIES))]
        totals[_STALL] = w.wall_ns - sum(totals)
        out[rank] = Attribution(*totals)
    return out


def _group_totals(w: Window, column: str, names: List[str]) -> Dict[str, Attribution]:
    """Busy time of the window per label code of one lane column, by category."""
    n = len(CATEGORIES)
    codes = np.concatenate([getattr(lane, column) for lane in w.lanes])
    cats = np.concatenate([lane.cat for lane in w.lanes])
    durs = np.concatenate([lane.end - lane.start for lane in w.lanes])
    sums = np.zeros(len(names) * n, dtype=np.int64)
    np.add.at(sums, codes * n + cats, durs)
    return {
        name: Attribution(*row)
        for name, row in sorted(zip(names, sums.reshape(-1, n).tolist()))
        if name and any(row)
    }


# ----------------------------------------------------------------------
# the critical path
# ----------------------------------------------------------------------
def critical_path(w: Window, events) -> List[Segment]:
    """Backward walk from the window's end to its start.

    Returns the chain of segments (oldest first) whose durations bound the
    window's wall-clock: at each collective the walk jumps to the
    participant that arrived last at the barrier; at a p2p receive it jumps
    to the sender; otherwise it continues on the same rank.
    """
    cols: Dict[int, Tuple[List[int], List[int], List[int]]] = {}

    def lane(rank: int) -> Tuple[List[int], List[int], List[int]]:
        """(starts, ends, event indices) of ``rank``'s busy segments."""
        c = cols.get(rank)
        if c is None:
            ln = w.lanes[rank]
            c = cols[rank] = (ln.start.tolist(), ln.end.tolist(), ln.event.tolist())
        return c

    # start on the rank whose last busy segment ends latest (the rank that
    # sets the window's end); ties toward the lowest rank for determinism
    start_rank, best_end = -1, -1
    for rank, ln in enumerate(w.lanes):
        if len(ln.end) and ln.end[-1] > best_end:
            start_rank, best_end = rank, int(ln.end[-1])
    if start_rank < 0:
        return []

    event_start, event_end = w.run.start_ns, w.run.end_ns
    hops: List[Tuple[int, int]] = []
    rank, k = start_rank, len(w.lanes[start_rank].end) - 1
    while True:
        starts, ends, evs = lane(rank)
        hops.append((rank, k))
        if starts[k] <= w.start_ns:
            break
        nxt: Optional[Tuple[int, int]] = None
        ei = evs[k]
        e = events[ei]
        if e.kind in COLLECTIVE_KINDS:
            # the collective started when its last participant arrived; its
            # segment on a participant is the one ending where the event does
            target = min(int(event_end[ei]), w.end_ns)
            blocker, blocker_k, blocker_end = None, None, -1
            for p in sorted(e.ranks):
                _, p_ends, p_evs = lane(p)
                at = bisect.bisect_left(p_ends, target)
                if at == len(p_ends) or p_ends[at] != target or p_evs[at] != ei:
                    continue
                end = p_ends[at - 1] if at else w.start_ns
                if end > blocker_end:
                    blocker, blocker_k, blocker_end = p, (at - 1 if at else None), end
            if blocker_k is not None:
                nxt = (blocker, blocker_k)
        elif e.kind == "p2p":
            # the sender's last busy segment ending by the send time
            src = e.ranks[0]
            i = bisect.bisect_right(lane(src)[1], int(event_start[ei])) - 1
            if i >= 0:
                nxt = (src, i)
        if nxt is None:
            nxt = (rank, k - 1) if k else None
        if nxt is None:
            break
        # every hop lands on a segment ending at or before the current
        # segment's start (BSP barriers and p2p send times guarantee it),
        # so the walk makes strict backward progress and terminates
        rank, k = nxt
    return [w.segment(r, i) for r, i in reversed(hops)]


# ----------------------------------------------------------------------
# predicted pricing (the α–β audit)
# ----------------------------------------------------------------------
class CostAuditor:
    """Re-prices traced ops with a solo (crowding-free) cost model."""

    def __init__(self, sim):
        self._sim = sim
        self._models: Dict[Tuple[int, ...], object] = {}

    def _model(self, ranks: Tuple[int, ...]):
        model = self._models.get(ranks)
        if model is None:
            from repro.comm.cost import GroupCommModel

            model = GroupCommModel.build(
                self._sim.topology, self._sim.arrangement, list(ranks)
            )
            self._models[ranks] = model
        return model

    def predicted_s(self, e) -> Optional[float]:
        """Solo α–β prediction of one traced event's duration, in seconds."""
        if e.kind == "compute":
            flops = float((e.attrs or {}).get("flops", 0.0))
            return flops / self._sim.cluster.device.effective_flops
        if e.kind == "p2p":
            arr = self._sim.arrangement
            return self._sim.topology.p2p_time(
                arr.gpu_of(e.ranks[0]), arr.gpu_of(e.ranks[1]), e.nbytes
            )
        if e.kind not in COLLECTIVE_KINDS:
            return None
        model = self._model(tuple(sorted(e.ranks)))
        if e.kind in ("broadcast", "scatter"):
            return model.broadcast_time(e.nbytes)
        if e.kind in ("reduce", "gather"):
            return model.reduce_time(e.nbytes)
        if e.kind == "all_reduce":
            return model.all_reduce_time(e.nbytes)
        if e.kind == "all_gather":
            return model.all_gather_time(e.nbytes)
        return model.reduce_scatter_time(e.nbytes)  # reduce_scatter


def _segment_key(seg: Segment) -> str:
    """Stable aggregation key: category/kind[/label][@op]."""
    bits = [seg.category]
    if seg.kind and seg.kind != seg.category:
        bits.append(seg.kind)
    if seg.label:
        bits.append(seg.label)
    key = "/".join(bits)
    if seg.op:
        key += f"@{seg.op}"
    return key


def rank_bottlenecks(
    path: List[Segment], events, auditor: CostAuditor
) -> List[dict]:
    """Aggregate path segments by op key; rank by measured time on the path.

    Each entry carries the solo α–β prediction so the two orderings the
    report exposes — by measured cost and by measured/predicted ratio —
    come from the same rows.
    """
    agg: Dict[str, dict] = {}
    for seg in path:
        if seg.category == "stall":
            key = "stall/barrier-wait"
        else:
            key = _segment_key(seg)
        row = agg.setdefault(key, {
            "key": key, "category": seg.category, "kind": seg.kind,
            "count": 0, "measured_ns": 0, "predicted_ns": 0,
        })
        row["count"] += 1
        row["measured_ns"] += seg.duration_ns
        if seg.event_index >= 0:
            pred = auditor.predicted_s(events[seg.event_index])
            if pred is not None:
                # prediction prices the whole event; the segment may be a
                # clipped tail, so scale by the covered fraction
                e = events[seg.event_index]
                full = to_ns(e.t_end) - to_ns(e.t_start)
                frac = seg.duration_ns / full if full > 0 else 0.0
                row["predicted_ns"] += int(round(pred * 1e9 * frac))
    rows = sorted(agg.values(), key=lambda r: (-r["measured_ns"], r["key"]))
    for row in rows:
        row["ratio"] = (
            row["measured_ns"] / row["predicted_ns"] if row["predicted_ns"] else None
        )
    return rows


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def critpath_report(sim, max_path_segments: int = 512) -> dict:
    """The full deterministic analysis document for a traced simulator run.

    Byte-stable: contains no timestamps, hostnames or git state — two runs
    of the same seeded workload serialize identically under
    :func:`repro.obs.ledger.canonical_json`.  ``max_path_segments`` bounds
    only the verbatim per-segment listing; aggregates always cover the
    whole path, and ``path_truncated`` says when the listing was cut.
    """
    if not sim.tracer.events:
        raise ValueError(
            "critpath needs a traced run: construct the Simulator with "
            "trace=True (or set sim.tracer.enabled) before executing"
        )
    events = sim.tracer.events
    auditor = CostAuditor(sim)
    windows = build_windows(sim)
    win_docs = []
    run_total = [0] * len(CATEGORIES)
    path_total = [0] * len(CATEGORIES)
    for w in windows:
        per_rank = attribute_window(w)
        conservation_ok = all(
            att.total_ns == w.wall_ns for att in per_rank.values()
        )
        path = critical_path(w, events)
        on_path = [0] * len(CATEGORIES)
        for s in path:
            on_path[_CATEGORY_CODE[s.category]] += s.duration_ns
        # the walk's hops are contiguous except for sub-ns rounding and
        # explicit sender idle gaps; fold the remainder into stall so the
        # path attribution conserves the window exactly too
        on_path[_STALL] += w.wall_ns - sum(on_path)
        path_att = Attribution(*on_path)
        bottlenecks = rank_bottlenecks(path, events, auditor)
        for att in per_rank.values():
            for i, c in enumerate(CATEGORIES):
                run_total[i] += getattr(att, c + "_ns")
        for i, v in enumerate(on_path):
            path_total[i] += v
        seg_docs = [
            {
                "rank": s.rank, "start_ns": s.start_ns, "end_ns": s.end_ns,
                "category": s.category, "kind": s.kind, "label": s.label,
                "op": s.op, "layer": s.layer,
            }
            for s in path[:max_path_segments]
        ]
        by_layer = _group_totals(w, "layer", w.run.layer_index.names)
        by_kind = _group_totals(w, "kind", w.run.kind_names)
        win_docs.append({
            "label": w.label,
            "start_ns": w.start_ns,
            "end_ns": w.end_ns,
            "wall_ns": w.wall_ns,
            "conservation_ok": conservation_ok,
            "per_rank": [
                {"rank": r, **att.as_dict()} for r, att in sorted(per_rank.items())
            ],
            "by_layer": {k: v.as_dict() for k, v in by_layer.items()},
            "by_kind": {k: v.as_dict() for k, v in by_kind.items()},
            "critical_path": {
                "num_segments": len(path),
                "path_truncated": len(path) > max_path_segments,
                **path_att.as_dict(),
                "segments": seg_docs,
            },
            "bottlenecks": bottlenecks,
        })
    return {
        "schema": CRITPATH_SCHEMA,
        "num_ranks": sim.num_ranks,
        "num_windows": len(windows),
        "wall_clock_ns": to_ns(sim.elapsed()),
        "windows": win_docs,
        "totals": {
            "per_rank_sum": Attribution(*run_total).as_dict(),
            "critical_path": Attribution(*path_total).as_dict(),
        },
    }


def summary_from_report(doc: dict) -> dict:
    """The compact per-run summary stored in ledger records.

    A strict subset of a :func:`critpath_report` document: run-level
    category totals, the critical path's split, and the top measured
    bottlenecks — small enough to commit per ledger line, rich enough for
    the dashboard's Attribution section.
    """
    bottlenecks: Dict[str, dict] = {}
    for w in doc["windows"]:
        for row in w["bottlenecks"]:
            acc = bottlenecks.setdefault(row["key"], {
                "key": row["key"], "category": row["category"],
                "measured_ns": 0, "predicted_ns": 0, "count": 0,
            })
            acc["measured_ns"] += row["measured_ns"]
            acc["predicted_ns"] += row["predicted_ns"]
            acc["count"] += row["count"]
    top = sorted(
        bottlenecks.values(), key=lambda r: (-r["measured_ns"], r["key"])
    )[:8]
    for row in top:
        row["ratio"] = (
            row["measured_ns"] / row["predicted_ns"] if row["predicted_ns"] else None
        )
    return {
        "schema": CRITPATH_SCHEMA,
        "wall_clock_ns": doc["wall_clock_ns"],
        "num_windows": doc["num_windows"],
        "conservation_ok": all(w["conservation_ok"] for w in doc["windows"]),
        "per_rank_sum": doc["totals"]["per_rank_sum"],
        "critical_path": doc["totals"]["critical_path"],
        "top_bottlenecks": top,
    }


def attribution_summary(sim) -> dict:
    """:func:`summary_from_report` of a fresh analysis of ``sim``."""
    return summary_from_report(critpath_report(sim, max_path_segments=0))


# ----------------------------------------------------------------------
# cost-model calibration (measured / predicted feedback)
# ----------------------------------------------------------------------
CALIB_SCHEMA = "repro-calib-v1"


def calibration_from_report(doc: dict, experiment: str, scheme: str) -> dict:
    """A canonical-JSON α–β adjustment suggestion from one analyzed run.

    Aggregates the critical-path bottleneck rows of a :func:`critpath_report`
    document by event *kind* and turns the measured/predicted ratios into
    two scalar scale suggestions — one for communication kinds, one for
    compute — weighted by measured time.  Deliberately advisory: nothing
    here rewrites the cost model (a single run cannot separate α from β;
    that needs a multi-size regression), it just localizes and quantifies
    the disagreement so a human can act.
    """
    by_kind: Dict[str, dict] = {}
    for w in doc["windows"]:
        for row in w["bottlenecks"]:
            if not row["kind"] or not row["predicted_ns"]:
                continue  # stalls and un-priced kinds carry no signal
            acc = by_kind.setdefault(row["kind"], {
                "kind": row["kind"], "category": row["category"],
                "count": 0, "measured_ns": 0, "predicted_ns": 0,
            })
            acc["count"] += row["count"]
            acc["measured_ns"] += row["measured_ns"]
            acc["predicted_ns"] += row["predicted_ns"]
    kinds = sorted(by_kind.values(), key=lambda r: (-r["measured_ns"], r["kind"]))
    for row in kinds:
        row["ratio"] = row["measured_ns"] / row["predicted_ns"]

    def _weighted_scale(category: str) -> Optional[float]:
        rows = [r for r in kinds if r["category"] == category]
        meas = sum(r["measured_ns"] for r in rows)
        pred = sum(r["predicted_ns"] for r in rows)
        return meas / pred if pred else None

    return {
        "schema": CALIB_SCHEMA,
        "basis": {
            "experiment": experiment,
            "scheme": scheme,
            "num_ranks": doc["num_ranks"],
            "num_windows": doc["num_windows"],
            "wall_clock_ns": doc["wall_clock_ns"],
        },
        "kinds": kinds,
        "suggestion": {
            "comm_scale": _weighted_scale("comm"),
            "compute_scale": _weighted_scale("compute"),
            "note": (
                "advisory only — scales fold contention and stragglers into "
                "β; separating α from β needs a multi-size regression, so "
                "apply by hand after inspecting the per-kind ratios"
            ),
        },
    }


def calibration_suggestion(sim, experiment: str, scheme: str) -> dict:
    """:func:`calibration_from_report` of a fresh analysis of ``sim``."""
    return calibration_from_report(
        critpath_report(sim, max_path_segments=0), experiment, scheme
    )


def render_calibration(doc: dict) -> str:
    """Human-readable table for one :func:`calibration_suggestion` doc."""
    from repro.utils.tables import format_table

    rows = [
        [r["kind"], r["category"], r["count"], _fmt_ns(r["measured_ns"]),
         _fmt_ns(r["predicted_ns"]), f"{r['ratio']:.3f}"]
        for r in doc["kinds"]
    ]
    s = doc["suggestion"]
    table = format_table(
        ["kind", "category", "count", "measured", "predicted", "meas/pred"],
        rows,
        title=(f"Cost-model calibration — {doc['basis']['experiment']} "
               f"[{doc['basis']['scheme']}]"),
    )
    lines = [table, ""]
    for label, key in (("comm", "comm_scale"), ("compute", "compute_scale")):
        v = s[key]
        lines.append(
            f"suggested {label} scale: {v:.3f}" if v is not None
            else f"suggested {label} scale: — (no priced {label} on the path)"
        )
    lines.append(f"note: {s['note']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt_ns(ns: int) -> str:
    if ns >= 1_000_000_000:
        return f"{ns / 1e9:.4f} s"
    if ns >= 1_000_000:
        return f"{ns / 1e6:.3f} ms"
    if ns >= 1_000:
        return f"{ns / 1e3:.3f} µs"
    return f"{ns} ns"


def render_report(doc: dict, top: int = 12) -> str:
    """Human-readable tables for one :func:`critpath_report` document."""
    from repro.utils.tables import format_table

    out = []
    totals = doc["totals"]["per_rank_sum"]
    path = doc["totals"]["critical_path"]
    rows = [
        [c, _fmt_ns(totals[c + "_ns"]),
         f"{totals[c + '_ns'] / totals['total_ns']:.1%}" if totals["total_ns"] else "—",
         _fmt_ns(path[c + "_ns"]),
         f"{path[c + '_ns'] / path['total_ns']:.1%}" if path["total_ns"] else "—"]
        for c in CATEGORIES
    ]
    out.append(format_table(
        ["category", "all ranks", "share", "critical path", "share"],
        rows,
        title=(f"Time attribution — {doc['num_ranks']} ranks, "
               f"{doc['num_windows']} window(s), "
               f"wall {_fmt_ns(doc['wall_clock_ns'])}"),
    ))
    merged: Dict[str, dict] = {}
    for w in doc["windows"]:
        for row in w["bottlenecks"]:
            acc = merged.setdefault(row["key"], dict(row))
            if acc is not row:
                acc["count"] += row["count"]
                acc["measured_ns"] += row["measured_ns"]
                acc["predicted_ns"] += row["predicted_ns"]
    rows = []
    for row in sorted(merged.values(), key=lambda r: (-r["measured_ns"], r["key"]))[:top]:
        ratio = (row["measured_ns"] / row["predicted_ns"]
                 if row["predicted_ns"] else None)
        rows.append([
            row["key"], row["count"], _fmt_ns(row["measured_ns"]),
            _fmt_ns(row["predicted_ns"]) if row["predicted_ns"] else "—",
            f"{ratio:.2f}" if ratio is not None else "—",
        ])
    out.append(format_table(
        ["op (critical path)", "count", "measured", "predicted (solo α–β)",
         "meas/pred"],
        rows, title="Ranked bottlenecks on the critical path",
    ))
    conserved = all(w["conservation_ok"] for w in doc["windows"])
    out.append(
        "conservation: attributed time == wall-clock on every rank, exactly"
        if conserved else "conservation: VIOLATED (this is a bug — please report)"
    )
    return "\n\n".join(out)


def main(
    experiment: str,
    scheme: str = "optimus",
    out: Optional[str] = None,
    folded: Optional[str] = None,
    top: int = 12,
    as_json: bool = False,
    calibrate: bool = False,
    ledger: Optional[str] = None,
    printer=print,
) -> int:
    """``python -m repro critpath`` driver: trace a workload, analyze it."""
    from repro.obs.ledger import canonical_json
    from repro.obs.profile import run_profile

    sim = run_profile(experiment, scheme=scheme)
    doc = critpath_report(sim)
    calib = calibration_from_report(doc, experiment, scheme) if calibrate else None
    if as_json:
        printer(canonical_json(calib) if calibrate else canonical_json(doc))
    else:
        printer(render_report(doc, top=top))
        if calib is not None:
            printer("")
            printer(render_calibration(calib))
    if calib is not None and ledger:
        from repro.obs.ledger import RunLedger, record_from_sim

        rec = record_from_sim(
            "experiment", sim, label=f"critpath-calibration:{experiment}",
            scheme=scheme, extra={"calibration": calib},
            attribution=summary_from_report(doc),
        )
        RunLedger(ledger).append(rec)
        if not as_json:
            printer(f"calibration suggestion appended to ledger {ledger}")
    text = canonical_json(doc)
    if out:
        with open(out, "w") as f:
            f.write(text)
            f.write("\n")
        if not as_json:
            printer(f"critpath JSON written to {out}")
    if folded:
        from repro.obs.flamegraph import write_folded

        n = write_folded(sim, folded)
        if not as_json:
            printer(f"folded flamegraph written to {folded} ({n} stacks) — "
                    "open with speedscope or flamegraph.pl")
    return 0
