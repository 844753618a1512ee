"""Construct the replication engine named in a :class:`TotemConfig`."""

from __future__ import annotations

from typing import Optional

from ..config import TotemConfig
from ..errors import ConfigError
from ..sim.runtime import Runtime
from ..types import FaultReportFn, NodeId, ReplicationStyle
from .active import ActiveReplication
from .active_passive import ActivePassiveReplication
from .base import ReplicationEngine, SingleNetwork
from .passive import PassiveReplication

_ENGINES = {
    ReplicationStyle.NONE: SingleNetwork,
    ReplicationStyle.ACTIVE: ActiveReplication,
    ReplicationStyle.PASSIVE: PassiveReplication,
    ReplicationStyle.ACTIVE_PASSIVE: ActivePassiveReplication,
}


def make_replication_engine(
    node_id: NodeId,
    config: TotemConfig,
    runtime: Runtime,
    stack,
    on_fault_report: Optional[FaultReportFn] = None,
) -> ReplicationEngine:
    """Build the RRP engine for ``config.replication``.

    ``stack`` is the node's :class:`~repro.net.stack.NetworkStack`; its
    receive handler is claimed by the returned engine.
    """
    try:
        engine_cls = _ENGINES[config.replication]
    except KeyError:  # pragma: no cover - enum is exhaustive
        raise ConfigError(f"unknown replication style {config.replication!r}")
    if stack.num_networks != config.num_networks:
        raise ConfigError(
            f"stack has {stack.num_networks} networks but config says "
            f"{config.num_networks}")
    return engine_cls(node_id, config, runtime, stack,
                      on_fault_report=on_fault_report)
