"""The next-hop neighbor table and its IPv4 integration."""

import pytest

from repro.apps.ipv4 import IPv4Forwarder
from repro.core.chunk import FORWARD_CODE, SLOW_PATH_CODE, Chunk
from repro.lookup.dir24_8 import Dir24_8
from repro.net.neighbors import Neighbor, NeighborTable
from repro.net.packet import build_udp_ipv4


class TestTable:
    def test_add_resolve(self):
        table = NeighborTable()
        table.add(next_hop=3, port=1, mac=0xAABBCCDDEEFF)
        neighbor = table.resolve(3)
        assert neighbor.port == 1
        assert neighbor.mac == 0xAABBCCDDEEFF
        assert table.resolve(4) is None
        assert len(table) == 1

    def test_rewrite_sets_macs_and_returns_port(self):
        table = NeighborTable()
        table.add(next_hop=0, port=5, mac=0x112233445566, port_mac=0x0200000000)
        frame = build_udp_ipv4(1, 2, 3, 4)
        port = table.rewrite(frame, 0)
        assert port == 5
        assert bytes(frame[0:6]) == (0x112233445566).to_bytes(6, "big")
        assert bytes(frame[6:12]) == (0x0200000005).to_bytes(6, "big")

    def test_unresolved_rewrite_is_none_and_nondestructive(self):
        table = NeighborTable()
        frame = build_udp_ipv4(1, 2, 3, 4)
        before = bytes(frame)
        assert table.rewrite(frame, 9) is None
        assert bytes(frame) == before

    def test_flat_builder(self):
        table = NeighborTable.flat(num_ports=8)
        assert len(table) == 8
        for port in range(8):
            assert table.resolve(port).port == port

    def test_validation(self):
        with pytest.raises(ValueError):
            Neighbor(port=-1, mac=0, port_mac=0)
        with pytest.raises(ValueError):
            Neighbor(port=0, mac=1 << 48, port_mac=0)
        with pytest.raises(ValueError):
            NeighborTable().add(next_hop=-1, port=0, mac=0)


class TestIPv4Integration:
    def _app(self, neighbors):
        fib = Dir24_8()
        fib.add_routes([(0x0A000000, 8, 2)])  # 10/8 via next hop 2
        return IPv4Forwarder(fib, neighbors=neighbors)

    def test_forwarded_frame_carries_next_hop_mac(self):
        neighbors = NeighborTable()
        neighbors.add(next_hop=2, port=6, mac=0x02EE00000099)
        app = self._app(neighbors)
        chunk = Chunk(frames=[build_udp_ipv4(1, 0x0A010101, 5, 6)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == FORWARD_CODE
        assert chunk.out_ports[0] == 6  # the neighbor's port
        assert bytes(chunk.frames[0][0:6]) == (0x02EE00000099).to_bytes(6, "big")

    def test_unresolved_next_hop_diverts_to_slow_path(self):
        app = self._app(NeighborTable())  # empty: nothing resolved
        chunk = Chunk(frames=[build_udp_ipv4(1, 0x0A010101, 5, 6)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE

    def test_without_neighbors_next_hop_is_port(self):
        app = self._app(None)
        chunk = Chunk(frames=[build_udp_ipv4(1, 0x0A010101, 5, 6)])
        app.cpu_process(chunk)
        assert chunk.out_ports[0] == 2
