"""Execution configuration: one frozen object instead of per-call kwargs.

:class:`EngineConfig` bundles the optimizer knobs and the sharded fan-out:
a :class:`repro.api.SpatialDataset` carries one as its default and any query
can override individual fields with :meth:`EngineConfig.merged`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.gpu import DeviceSpec
from repro.query.optimizer import CostModel

__all__ = ["EngineConfig"]

#: Sentinel distinguishing "not overridden" from an explicit ``None``
#: (``None`` means "library default" for the optional fields).
_UNSET = object()


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Optimizer knobs and sharded fan-out of a dataset, in one place.

    Attributes
    ----------
    cost_model:
        Optimizer cost constants; ``None`` uses :class:`CostModel`'s defaults.
    device:
        Simulated device the optimizer prices canvas plans against; ``None``
        uses the default :class:`DeviceSpec`.
    workers:
        Pool workers for sharded scatter-gather fan-out (``0`` probes
        shards serially in-process — the deterministic default; ``K >= 2``
        uses a persistent shared-memory process pool).  Ignored by
        unsharded datasets.
    """

    cost_model: "CostModel | None" = None
    device: "DeviceSpec | None" = None
    workers: int = 0

    # ------------------------------------------------------------------ #
    # resolution
    # ------------------------------------------------------------------ #
    def resolved_cost_model(self) -> CostModel:
        return self.cost_model or CostModel()

    def resolved_device(self) -> DeviceSpec:
        return self.device or DeviceSpec()

    # ------------------------------------------------------------------ #
    # overrides
    # ------------------------------------------------------------------ #
    def merged(
        self,
        cost_model=_UNSET,
        device=_UNSET,
        workers=_UNSET,
    ) -> "EngineConfig":
        """A copy with the given fields overridden (others kept).

        ``None`` is a meaningful override ("use the library default"), so a
        sentinel — not ``None`` — marks "leave as configured".
        """
        updates = {}
        if cost_model is not _UNSET:
            updates["cost_model"] = cost_model
        if device is not _UNSET:
            updates["device"] = device
        if workers is not _UNSET:
            updates["workers"] = int(workers)
        return replace(self, **updates) if updates else self
