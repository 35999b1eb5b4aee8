"""Cluster substrate: the simulated Cosmos — machines, token scheduling
with spare redistribution and eviction, background load, and failures."""

from repro.cluster.background import (
    BackgroundError,
    BackgroundLoad,
    LoadEpisode,
    SpareSoaker,
)
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.failures import FailureInjector
from repro.cluster.machine import MachineError, MachinePark
from repro.cluster.tokens import Consumer, Grant, TokenError, TokenPool, compute_grants

__all__ = [
    "BackgroundError",
    "BackgroundLoad",
    "Cluster",
    "ClusterConfig",
    "Consumer",
    "FailureInjector",
    "Grant",
    "LoadEpisode",
    "MachineError",
    "MachinePark",
    "SpareSoaker",
    "TokenError",
    "TokenPool",
    "compute_grants",
]
