"""Per-layer ledger: self time per span name from recorded spans.

A span is ``(name, start, end, span_id, parent_id, key)``; ``parent_id``
0 marks a root.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.  A folded record
``(name, calls, total_s, parent_id)`` sums many short calls made inside
one span; its time is all self time and is taken off its parent's.
"""

from __future__ import annotations

from collections import defaultdict


def covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_times(spans: list[tuple], folded: list[tuple] = ()) -> dict[str, dict[str, float]]:
    """``{name: {"calls", "total_s", "self_s"}}`` over ``spans`` and ``folded``."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _name, start, end, _span_id, parent_id, *_rest in spans:
        if parent_id:
            children[parent_id].append((start, end))
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    folded_time: dict[int, float] = defaultdict(float)
    for name, calls, total, parent_id in folded:
        folded_time[parent_id] += total
        layer = layers[name]
        layer["calls"] += calls
        layer["total_s"] += total
        layer["self_s"] += total
    for name, start, end, span_id, *_rest in spans:
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += (
            (end - start) - covered(children.get(span_id, []), start, end) - folded_time[span_id]
        )
    return dict(layers)


def queue_waits(spans: list[tuple], submit: str, run: str) -> list[float]:
    """Per job key: from the end of its ``submit`` span to the start of its ``run`` span."""
    submitted = {key: end for name, _start, end, _id, _parent, key in spans if name == submit}
    return [
        start - submitted[key]
        for name, start, _end, _id, _parent, key in spans
        if name == run and key in submitted
    ]
