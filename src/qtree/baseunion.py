"""The flat index of the union of two base-point sets.

Each set's index is read through its named tuples (see
:class:`~qtree.ideals.BasePointSet`): ``_members`` in canonical order,
``_labels``, each member's last label, and ``_counts``, the number of
members directly above each, whose run follows those of the members before
it.  ``ideals`` imports this module on the first union, so only a command
line that joins two models compiles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .points import label_key

if TYPE_CHECKING:
    from .ideals import BasePointSet


def merged(a: BasePointSet, b: BasePointSet) -> tuple[tuple, tuple, tuple]:
    """The flat index of the union of two base sets, walked breadth first.

    A member of both sets is met as the pair of its indexes in them, and
    the members directly above it are those above it in either set,
    matched by label, so no path is read.  Above a member of one set only,
    every member is of that set alone, so those members are met as runs of
    consecutive indexes in it, and the members above a run are the next
    run of that set.
    """
    # in each set, where the members above its next member start
    sets = [(base._members, base._labels, base._counts) for base in (a, b)]
    starts = [1, 1]
    members, labels, counts = [], [], []
    # runs (0 for a or 1 for b, start, end, -1) and members of both (0, i, i + 1, j)
    queue = [(0, 0, 1, 0)]
    for side, start, end, j in queue:
        order, above, numbers = sets[side]
        members += order[start:end]
        labels += above[start:end]
        if j < 0:
            counts += numbers[start:end]
            n = sum(numbers[start:end])
            if n:
                queue.append((side, starts[side], starts[side] + n, -1))
            starts[side] += n
            continue
        found = {}  # label: [index in a, index in b], -1 where absent
        for s, i in enumerate((start, j)):
            _, above, numbers = sets[s]
            for k in range(starts[s], starts[s] + numbers[i]):
                found.setdefault(above[k], [-1, -1])[s] = k
            starts[s] += numbers[i]
        counts.append(len(found))
        for label in sorted(found, key=label_key):
            i, k = found[label]
            queue.append((0, i, i + 1, k) if i >= 0 else (1, k, k + 1, -1))
    return tuple(members), tuple(labels), tuple(counts)
