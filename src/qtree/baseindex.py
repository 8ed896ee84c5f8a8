"""The flat index of a base-point set of points that already exist.

A :class:`~qtree.ideals.BasePointSet` reads its members from three tuples:
the members in canonical order (breadth first, the members above each in
label order), each member's last label, and the number of members directly
above it, whose run follows those of the members before it.  A downward
closure makes its own members and builds its index in ``ideals``; a set of
given points finds each member above its parent by the parent's path, as
here.  ``ideals`` imports this module when it first builds such a set, so a
command line that only closes points never compiles it.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import InvalidBasePoints
from .points import Point, label_key


def _label_order(p: Point) -> tuple[int, str]:
    return label_key(p.path[-1])


def linked(points: frozenset[Point]) -> tuple[tuple, tuple, tuple]:
    """The flat index of a set of points, each found above its parent by
    the parent's path."""
    above = defaultdict(list)
    for p in points:
        above[p.path[:-1] if p.path else None].append(p)
    if None not in above:
        raise InvalidBasePoints("a base-point set must contain the root")
    order, counts = above.pop(None), []
    for p in order:
        members = above.pop(p.path, ())
        if len(members) > 1:
            members.sort(key=_label_order)
        counts.append(len(members))
        order += members
    # members the walk up from the root never met: those above the shortest
    # such parent path are the ones whose parent is missing
    if above:
        parent = min(above, key=lambda path: (len(path), path))
        p = min(above[parent], key=_label_order)
        raise InvalidBasePoints(f"{p} is present but its parent {p.parent()} is not")
    return tuple(order), (None, *(p.path[-1] for p in order[1:])), tuple(counts)
