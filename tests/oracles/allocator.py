"""Test oracle: the emulator allocator's per-solve ``FlowSpec`` construction.

:class:`ScalarEmulatorProvider` is
:class:`~repro.network.allocator.EmulatorRateProvider` with the incremental
incidence arrays taken out of the solve: each water-filling recounts the
per-host directions of the flows it prices, degrades the topology's full
capacity map, builds one :class:`~repro.network.sharing.FlowSpec` per flow
and runs the dict-based scalar solver.  Memoization, warm starts and the
delta bookkeeping are the production code, so a divergence
(``tests/property/test_vectorized_sharing.py``,
``tests/property/test_vectorized_engine.py``) is a divergence in the solve.
"""

from __future__ import annotations

from repro.network.allocator import EmulatorRateProvider
from repro.network.sharing import FlowSpec, max_min_allocation


class ScalarEmulatorProvider(EmulatorRateProvider):
    """Reference emulator provider: scalar ``FlowSpec`` water-filling."""

    def _solve(self, active):
        sharing = self.technology.sharing
        topology = self.topology
        counts = {}
        for transfer in active:
            if not transfer.is_intra_node:
                counts.setdefault(transfer.src, {"tx": 0, "rx": 0})["tx"] += 1
                counts.setdefault(transfer.dst, {"tx": 0, "rx": 0})["rx"] += 1
        # income/outgo degradations of the NIC ports
        capacities = topology.capacities()
        for host, c in counts.items():
            if c["rx"] >= sharing.reverse_threshold and c["tx"] >= 1:
                tx_key, rx_key = topology.nic_resources(host)
                capacities[tx_key] *= 1.0 - sharing.tx_capacity_loss
                capacities[rx_key] *= 1.0 - sharing.rx_capacity_loss
        specs = []
        for transfer in active:
            if transfer.is_intra_node:
                resources = (topology.memory_resource(transfer.src),)
                cap = self.technology.memory_bandwidth
            else:
                tx_key, _ = topology.nic_resources(transfer.src)
                _, rx_key = topology.nic_resources(transfer.dst)
                resources = (tx_key, rx_key) + tuple(
                    topology.fabric_route(transfer.src, transfer.dst))
                cap = self.technology.single_stream_bandwidth
                if counts.get(transfer.dst, {}).get("tx", 0) >= 1:
                    cap *= 1.0 - sharing.duplex_flow_slowdown
            specs.append(FlowSpec(flow_id=transfer.transfer_id,
                                  resources=resources, cap=cap))
        return max_min_allocation(specs, capacities, vectorized=False)
