"""Updatable spatial store: LSM-style ingest over the batch query kernels.

The write path layers a mutable :class:`~repro.store.memtable.MemTable` over
immutable sorted :class:`~repro.store.run.Run` segments with tombstone
deletes and size-tiered compaction; the read path
(:class:`~repro.store.snapshot.StoreSnapshot`) fans every query out across
the segments through the batch probe kernels and merges with the fused
aggregation — bit-identical to a from-scratch rebuild over the live point
set.
"""

from repro.store.memtable import MemTable
from repro.store.run import Run, encode_points_at
from repro.store.snapshot import StoreSnapshot
from repro.store.store import SizeTieredCompaction, SpatialStore, StoreStats

__all__ = [
    "MemTable",
    "Run",
    "SizeTieredCompaction",
    "SpatialStore",
    "StoreSnapshot",
    "StoreStats",
    "encode_points_at",
]
