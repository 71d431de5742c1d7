"""Sharded scatter-gather execution: tiled frames, routed stores, exact merges.

A :class:`~repro.shard.frame.ShardedFrame` tiles the global grid frame and
a :class:`~repro.shard.store.ShardedStore` routes every ingested point to
its tile's member store.  A query probes each shard in-process, in shard
order, and the partials merge **exactly**, so sharded answers are
bit-identical to the unsharded kernels.  :class:`StaticShards` partitions a
static point set the same way for callers that want the per-shard parts.
"""

from repro.shard.frame import ShardedFrame, ShardTile
from repro.shard.gather import (
    ShardSegment,
    sharded_act_join,
    sharded_estimate_count_range,
)
from repro.shard.partition import ShardPart, StaticShards, partition_points
from repro.shard.store import ShardedSnapshot, ShardedStore

__all__ = [
    "ShardPart",
    "ShardSegment",
    "ShardTile",
    "ShardedFrame",
    "ShardedSnapshot",
    "ShardedStore",
    "StaticShards",
    "partition_points",
    "sharded_act_join",
    "sharded_estimate_count_range",
]
