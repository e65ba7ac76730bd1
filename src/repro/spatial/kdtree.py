"""A 2-d KD-tree: the classic alternative to the uniform grid.

The grid index is ideal when query radii are uniform and known up
front (the MUAA case); a KD-tree needs no tuning parameter and degrades
gracefully under skewed point distributions (e.g. check-in clusters).
Both back the same range-query interface, and
``benchmarks/bench_spatial_backends.py`` measures the trade-off.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.spatial.geometry import Point, squared_distance

#: Leaf size below which nodes store points directly.
_LEAF_SIZE = 16


class _Node:
    __slots__ = ("axis", "split", "left", "right", "items")

    def __init__(
        self,
        axis: int = 0,
        split: float = 0.0,
        left: Optional["_Node"] = None,
        right: Optional["_Node"] = None,
        items: Optional[List[Tuple[int, Point]]] = None,
    ) -> None:
        self.axis = axis
        self.split = split
        self.left = left
        self.right = right
        self.items = items


def _build(items: List[Tuple[int, Point]], depth: int) -> _Node:
    if len(items) <= _LEAF_SIZE:
        return _Node(items=items)
    axis = depth % 2
    items.sort(key=lambda entry: entry[1][axis])
    middle = len(items) // 2
    split = items[middle][1][axis]
    # Guard against all-equal coordinates along this axis.
    if items[0][1][axis] == items[-1][1][axis]:
        return _Node(items=items)
    return _Node(
        axis=axis,
        split=split,
        left=_build(items[:middle], depth + 1),
        right=_build(items[middle:], depth + 1),
    )


class KDTree:
    """Static 2-d KD-tree over ``(id, point)`` pairs.

    Unlike :class:`~repro.spatial.grid_index.GridIndex` this structure
    is immutable after construction -- rebuild to change the point set
    (MUAA problems are static per timestamp, so this fits the use).
    """

    def __init__(self, points: Sequence[Tuple[int, Point]]) -> None:
        # Leaves hold ``(position, point)``: hits come back sorted by
        # position, so the result order is independent of tree shape.
        self._ids = [item_id for item_id, _ in points]
        self._root = (
            _build([(pos, point) for pos, (_, point) in enumerate(points)], 0)
            if points
            else None
        )

    def __len__(self) -> int:
        return len(self._ids)

    def query_radius(self, center: Point, radius: float) -> List[int]:
        """Ids of all points within ``radius`` of ``center`` (inclusive),
        in the order the points were given to the constructor."""
        if self._root is None or radius < 0:
            return []
        results: List[int] = []
        r2 = radius * radius
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.items is not None:
                for pos, point in node.items:
                    if squared_distance(point, center) <= r2:
                        results.append(pos)
                continue
            delta = center[node.axis] - node.split
            # Left subtree holds coordinates <= split, right >= split;
            # prune a side only when the splitting line is farther than
            # the radius.
            if delta <= radius:
                stack.append(node.left)
            if delta >= -radius:
                stack.append(node.right)
        ids = self._ids
        return [ids[pos] for pos in sorted(results)]
