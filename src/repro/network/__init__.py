"""Cluster network emulator — the "measured" substrate of the reproduction.

The paper measures penalties on three physical clusters; this subpackage
replaces them with an emulator whose sharing behaviour is calibrated against
the penalties published in Figure 2 (fluid flow simulation + technology
specific rate allocation), complemented by packet-level models of the Stop &
Go and credit-based flow controls for mechanism-level studies.
"""

from .allocator import EmulatorRateProvider
from .emulator import ClusterEmulator
from .fluid import (
    CalendarStats,
    FluidTransferSimulator,
    RateProvider,
    Transfer,
    TransferCalendar,
    TransferResult,
)
from .packet import CreditBasedNetwork, PacketLevelNetwork, StopAndGoNetwork
from .sharing import FlowSpec, max_min_allocation, weighted_max_min_allocation
from .technologies import (
    GIGABIT_ETHERNET,
    INFINIBAND_INFINIHOST3,
    MYRINET_2000,
    TECHNOLOGIES,
    NetworkTechnology,
    SharingBehaviour,
    get_technology,
)
from .topology import CrossbarTopology, FatTreeTopology, ResourceKind, Topology, build_topology

__all__ = [
    "ClusterEmulator",
    "EmulatorRateProvider",
    "CalendarStats",
    "FluidTransferSimulator",
    "RateProvider",
    "Transfer",
    "TransferCalendar",
    "TransferResult",
    "PacketLevelNetwork",
    "StopAndGoNetwork",
    "CreditBasedNetwork",
    "FlowSpec",
    "max_min_allocation",
    "weighted_max_min_allocation",
    "NetworkTechnology",
    "SharingBehaviour",
    "GIGABIT_ETHERNET",
    "MYRINET_2000",
    "INFINIBAND_INFINIHOST3",
    "TECHNOLOGIES",
    "get_technology",
    "Topology",
    "CrossbarTopology",
    "FatTreeTopology",
    "ResourceKind",
    "build_topology",
]
