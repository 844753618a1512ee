"""Application-facing API.

* :class:`TotemNode` — one node's full protocol stack on the simulator.
* :class:`SimCluster` — a whole simulated cluster (nodes + N redundant LANs),
  built deterministically from a :class:`~repro.config.ClusterConfig`.
"""

from .cluster import SimCluster
from .node import TotemNode

__all__ = ["TotemNode", "SimCluster"]
