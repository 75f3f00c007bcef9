"""Fold the span trees a traced request returns into per-layer times.

A served ``trace: true`` response carries ``result["trace"]``: a forest
of span nodes (``name``, ``start_unix``, ``wall_seconds``,
``children``).  A span's *self time* is its duration minus the part of
its interval that its children cover.
"""

from __future__ import annotations


def walk(forest):
    """Every node of a span forest, depth first."""
    stack = list(forest)
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.get("children", ()))


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(forest) -> dict[str, float]:
    """Seconds of self time per span name, summed over the forest."""
    totals: dict[str, float] = {}
    for node in walk(forest):
        start = float(node.get("start_unix", 0.0))
        wall = float(node.get("wall_seconds", 0.0))
        kids = [(float(c.get("start_unix", 0.0)),
                 float(c.get("start_unix", 0.0))
                 + float(c.get("wall_seconds", 0.0)))
                for c in node.get("children", ())]
        own = max(wall - _covered(start, start + wall, kids), 0.0)
        name = str(node.get("name"))
        totals[name] = totals.get(name, 0.0) + own
    return totals


def durations(forest) -> dict[str, float]:
    """Seconds of wall time per span name, summed over the forest."""
    totals: dict[str, float] = {}
    for node in walk(forest):
        name = str(node.get("name"))
        totals[name] = totals.get(name, 0.0) + float(
            node.get("wall_seconds", 0.0))
    return totals
