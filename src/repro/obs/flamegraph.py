"""Collapsed-stack ("folded") flamegraph export of a traced run.

Complements the Perfetto exporter: where Perfetto shows the timeline,
a flamegraph shows *where the time aggregates*.  The output is the folded
format consumed by speedscope (https://speedscope.app), Brendan Gregg's
``flamegraph.pl`` and ``inferno``: one line per unique stack, frames
joined by ``;``, followed by a space and an integer count — here the
integer is **nanoseconds of simulated time**.

Stacks are rebuilt exactly from the tracer's span records (each rank's
``sid``/``parent`` links), with flat trace events (compute kernels,
collectives, p2p receives) nested under their innermost enclosing span.
Every frame's *self* time is its duration minus the time covered by its
children, so a stack's value never double-counts and the per-rank root
frames sum to that rank's busy time.  Lines are emitted sorted, values are
deterministic integers, and frame names are sanitized (no spaces or
semicolons), so the same seeded run always produces byte-identical output.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.runtime.events import to_ns

_FRAME_BAD = re.compile(r"[;\s]+")


def _frame(name: str) -> str:
    """A folded-format-safe frame name (no separators, never empty)."""
    return _FRAME_BAD.sub("_", str(name).strip()) or "_"


class _Node:
    __slots__ = ("name", "start_ns", "end_ns", "children")

    def __init__(self, name: str, start_ns: int, end_ns: int):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.children: List["_Node"] = []

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _span_frame(span) -> str:
    attrs = span.attrs or {}
    if span.category == "step":
        return _frame(f"step[{attrs.get('step', '?')}]")
    if span.category == "layer":
        phase = attrs.get("phase")
        base = f"layer[{attrs.get('index', '?')}]"
        return _frame(f"{base}.{phase}" if phase else base)
    return _frame(span.name)


def _event_frame(e) -> str:
    if e.kind == "compute":
        return _frame(f"compute:{e.label}" if e.label else "compute")
    if e.label:
        return _frame(f"{e.kind}:{e.label}")
    return _frame(e.kind)


def _build_rank_tree(rank: int, spans, events) -> _Node:
    """A root node whose children are the rank's top-level spans + events."""
    horizon = 0
    for s in spans:
        horizon = max(horizon, to_ns(s.t_end))
    for e, _targets in events:
        horizon = max(horizon, to_ns(e.t_end))
    root = _Node(_frame(f"rank{rank}"), 0, horizon)
    by_sid: Dict[int, _Node] = {}
    # parents appear with smaller depth; build shallow-to-deep
    for s in sorted(spans, key=lambda s: (s.depth, to_ns(s.t_start), s.sid)):
        node = _Node(_span_frame(s), to_ns(s.t_start), to_ns(s.t_end))
        parent = by_sid.get(s.parent) if s.parent is not None else None
        (parent or root).children.append(node)
        by_sid[s.sid] = node

    def innermost(node: _Node, a: int, b: int) -> _Node:
        for child in node.children:
            if child.start_ns <= a and child.end_ns >= b:
                return innermost(child, a, b)
        return node

    for e, _targets in sorted(events, key=lambda t: (to_ns(t[0].t_start), t[0].kind)):
        a, b = to_ns(e.t_start), to_ns(e.t_end)
        if b <= a:
            continue
        innermost(root, a, b).children.append(_Node(_event_frame(e), a, b))
    return root


def folded_stacks(sim) -> List[Tuple[str, int]]:
    """All (stack, self-ns) pairs for a traced run, sorted by stack."""
    tracer = sim.tracer
    per_rank_spans: Dict[int, list] = {}
    for s in tracer.spans:
        per_rank_spans.setdefault(s.rank, []).append(s)
    per_rank_events: Dict[int, list] = {}
    for e in tracer.events:
        for r in e.occupied_ranks:
            per_rank_events.setdefault(r, []).append((e, r))

    totals: Dict[str, int] = {}

    def walk(node: _Node, prefix: str) -> None:
        stack = f"{prefix};{node.name}" if prefix else node.name
        child_ns = sum(c.duration_ns for c in node.children)
        self_ns = node.duration_ns - child_ns
        if self_ns > 0:
            totals[stack] = totals.get(stack, 0) + self_ns
        for c in node.children:
            walk(c, stack)

    for rank in sorted(set(per_rank_spans) | set(per_rank_events)):
        root = _build_rank_tree(
            rank, per_rank_spans.get(rank, []), per_rank_events.get(rank, [])
        )
        for child in root.children:
            walk(child, root.name)
        # uncovered time under the rank root is idle; keep flamegraphs
        # busy-only (stall analysis lives in repro.obs.critpath)
    return sorted(totals.items())


def render_folded(sim) -> str:
    """The folded-format text document (one ``stack value`` line each)."""
    return "".join(f"{stack} {ns}\n" for stack, ns in folded_stacks(sim))


def write_folded(sim, path: str) -> int:
    """Write the folded flamegraph; returns the number of stack lines."""
    text = render_folded(sim)
    with open(path, "w") as f:
        f.write(text)
    return text.count("\n")


def validate_folded(text: str) -> Optional[str]:
    """The first format problem in a folded document, or ``None`` if valid.

    Checks what speedscope/flamegraph.pl require: every non-empty line is
    ``frames <integer>``, frames are ``;``-separated and non-empty, values
    are positive integers.
    """
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            return f"line {lineno}: empty line"
        stack, sep, value = line.rpartition(" ")
        if not sep or not stack:
            return f"line {lineno}: missing 'stack value' separator"
        if not value.isdigit() or int(value) <= 0:
            return f"line {lineno}: value {value!r} is not a positive integer"
        frames = stack.split(";")
        if any(not f or " " in f for f in frames):
            return f"line {lineno}: empty or space-containing frame in {stack!r}"
    return None
