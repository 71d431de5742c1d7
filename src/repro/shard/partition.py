"""Static point partitioning: route a point set onto a sharded frame.

The in-memory analogue of :class:`~repro.shard.store.ShardedStore` ingest
routing: one vectorized :meth:`~repro.shard.frame.ShardedFrame.route_points`
pass assigns every point a shard, a single stable argsort groups them, and
each shard keeps the **original row positions** as its global point ids.
Those positional ids are what makes the scatter-gather merge bit-exact —
sorting the merged match pairs by id replays the original point order, so
the fused aggregation adds in exactly the sequence the unsharded kernel
uses.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.point import PointSet
from repro.shard.frame import ShardedFrame
from repro.shard.gather import ShardSegment

__all__ = ["ShardPart", "StaticShards", "partition_points"]


class ShardPart:
    """One shard's slice of a partitioned point set."""

    __slots__ = ("shard_id", "indices", "points")

    def __init__(self, shard_id: int, indices: np.ndarray, points: PointSet) -> None:
        self.shard_id = shard_id
        #: Original row positions — the global point ids of this shard.
        self.indices = indices
        self.points = points

    def __len__(self) -> int:
        return int(self.indices.shape[0])


def partition_points(points: PointSet, sharded_frame: ShardedFrame) -> list[ShardPart]:
    """Split ``points`` into per-shard parts (every shard present, maybe empty).

    Within a shard the original point order is preserved (stable grouping
    sort), so per-shard probes see points in the same relative order as the
    unsharded kernel.
    """
    routes = sharded_frame.route_points(points.xs, points.ys)
    order = np.argsort(routes, kind="stable")
    counts = np.bincount(routes, minlength=sharded_frame.num_shards)
    bounds = np.zeros(sharded_frame.num_shards + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    parts = []
    for shard_id in range(sharded_frame.num_shards):
        indices = order[bounds[shard_id] : bounds[shard_id + 1]]
        parts.append(ShardPart(shard_id, indices, points.select(indices)))
    return parts


class StaticShards:
    """A partitioned static point set: one :class:`ShardPart` per tile."""

    __slots__ = ("sharded_frame", "parts")

    def __init__(self, sharded_frame: ShardedFrame, parts: list[ShardPart]) -> None:
        self.sharded_frame = sharded_frame
        self.parts = parts

    @classmethod
    def build(cls, points: PointSet, frame, shards: int) -> "StaticShards":
        sharded_frame = ShardedFrame(frame, shards)
        return cls(sharded_frame, partition_points(points, sharded_frame))

    def segments(self) -> list[list[ShardSegment]]:
        """Probe-ready segments for :func:`repro.shard.gather.sharded_act_join`."""
        return [
            [
                ShardSegment(
                    part.indices,
                    part.points.xs,
                    part.points.ys,
                    {name: part.points.attribute(name) for name in part.points.attribute_names},
                )
            ]
            for part in self.parts
        ]
