"""The paper's headline claims, checked on the integration-sized apps.

Every number comes from ``repro.perf.reference.REFERENCE``; this file
only picks the model call and its inputs (2,000-route tables, seed 81,
rather than the figure producers' own workloads) and names the paper
section a failure breaks. RouteBricks' published rates are the one kind
of literal kept here: they are the comparison's baseline, not a claim
about PacketShader.
"""

import pytest

from repro import app_throughput_report
from repro.apps.ipsec import IPsecGateway
from repro.apps.ipv4 import IPv4Forwarder
from repro.apps.ipv6 import IPv6Forwarder
from repro.apps.openflow import OpenFlowApp
from repro.calib.constants import SYSTEM
from repro.gen.workloads import (
    ipsec_workload,
    ipv4_workload,
    ipv6_workload,
    openflow_workload,
)
from repro.io_engine.engine import io_throughput_report
from repro.perf.reference import REFERENCE


def holds(figure, key, x, value):
    ref = REFERENCE[figure].ref(key, x)
    assert ref.holds(value), (
        f"{figure} {ref.id} = {value:.4g}, paper {ref.claim()}: {ref.note}")


@pytest.fixture(scope="module")
def apps():
    return {
        "ipv4": IPv4Forwarder(ipv4_workload(num_routes=2000, seed=81).table),
        "ipv6": IPv6Forwarder(ipv6_workload(num_routes=2000, seed=81).table),
        "ipsec": IPsecGateway(ipsec_workload().sa),
    }


class TestAbstract:
    def test_39_gbps_ipv4_at_64b(self, apps):
        # Abstract: "forwarding 64B IPv4 packets at 39 Gbps".
        report = app_throughput_report(apps["ipv4"], 64, use_gpu=True)
        holds("fig11a", "gpu_gbps", 64, report.gbps)

    def test_four_x_over_routebricks(self, apps):
        # Abstract: "outperforms existing software routers by more than
        # a factor of four" (RouteBricks: 8.7 Gbps IPv4 at 64B). The
        # ref's band must imply it, and the model must sit in the band.
        lo, _ = REFERENCE["fig11a"].ref("gpu_gbps", 64).bounds
        assert lo / 8.7 > 4.0
        report = app_throughput_report(apps["ipv4"], 64, use_gpu=True)
        assert report.gbps / 8.7 > 4.0


class TestSection6IPv6:
    def test_38_gbps_at_64b(self, apps):
        report = app_throughput_report(apps["ipv6"], 64, use_gpu=True)
        holds("fig11b", "gpu_gbps", 64, report.gbps)

    def test_cpu_only_about_8_gbps(self, apps):
        report = app_throughput_report(apps["ipv6"], 64, use_gpu=False)
        holds("fig11b", "cpu_gbps", 64, report.gbps)


class TestSection6OpenFlow:
    def test_32_gbps_at_netfpga_config(self):
        # The NetFPGA comparison: 32K exact + 32 wildcard entries, each
        # NetFPGA card at its 4 Gbps line rate.
        app = OpenFlowApp(
            openflow_workload(num_exact=32 * 1024, num_wildcard=32, seed=82).switch
        )
        report = app_throughput_report(app, 64, use_gpu=True)
        holds("fig11c", "gpu_gbps", "32K+32", report.gbps)
        holds("fig11c", "netfpga_equivalents", None, report.gbps / 4.0)


class TestSection6IPsec:
    def test_5x_routebricks_ipsec(self, apps):
        # Section 6.3: RouteBricks does 1.9 Gbps IPsec at 64B.
        gpu = app_throughput_report(apps["ipsec"], 64, use_gpu=True).gbps
        holds("fig11d", "gpu_gbps", 64, gpu)
        assert gpu / 1.9 > 5.0


class TestSection4:
    def test_3x_routebricks_forwarding(self):
        # Section 4.6: "Our server outperforms RouteBricks by a factor
        # of 3" (RouteBricks: 13.3 Gbps at 64B).
        report = io_throughput_report(64, mode="forward")
        holds("fig6", "forward_gbps", 64, report.gbps)
        holds("fig6", "forward_mpps_64", None, report.mpps)
        assert report.gbps / 13.3 > 3.0


class TestTable2:
    def test_system_cost_about_7000(self):
        holds("table2", "total_cost_usd", None, SYSTEM.total_cost)

    def test_eight_ports(self):
        holds("table2", "total_ports", None, SYSTEM.total_ports)

    def test_power_numbers(self):
        # Section 7: 594W vs 353W at full load.
        increase = SYSTEM.power_full_gpu_w / SYSTEM.power_full_cpu_w - 1.0
        holds("ablations", "power_increase", None, increase)
