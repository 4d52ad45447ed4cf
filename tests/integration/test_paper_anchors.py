"""Every headline number of the paper, asserted in one place.

These are the integration-level guarantees the figure scorecard
(``tests/perf/test_figures.py``) rests on: if a refactor moves any
anchor, this file names the paper section that broke.
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


@pytest.fixture(scope="module")
def apps():
    return {
        "ipv4": IPv4Forwarder(ipv4_workload(num_routes=2000, seed=81).table),
        "ipv6": IPv6Forwarder(ipv6_workload(num_routes=2000, seed=81).table),
        "openflow": OpenFlowApp(
            openflow_workload(num_exact=1000, num_wildcard=32, seed=81).switch
        ),
        "ipsec": IPsecGateway(ipsec_workload().sa),
    }


class TestAbstract:
    def test_39_gbps_ipv4_at_64b(self, apps):
        # Abstract: "forwarding 64B IPv4 packets at 39 Gbps".
        report = app_throughput_report(apps["ipv4"], 64, use_gpu=True)
        assert report.gbps == pytest.approx(39.0, rel=0.02)

    def test_four_x_over_routebricks(self, apps):
        # Abstract: "outperforms existing software routers by more than
        # a factor of four" (RouteBricks: 8.7 Gbps IPv4 at 64B).
        report = app_throughput_report(apps["ipv4"], 64, use_gpu=True)
        assert report.gbps / 8.7 > 4.0


class TestSection6IPv4:
    def test_gpu_reaches_40_for_large_frames(self, apps):
        for size in (256, 512, 1024, 1514):
            report = app_throughput_report(apps["ipv4"], size, use_gpu=True)
            assert report.gbps == pytest.approx(40.0, rel=0.02)

    def test_cpu_only_is_io_bound_at_large_frames(self, apps):
        report = app_throughput_report(apps["ipv4"], 1514, use_gpu=False)
        assert report.bottleneck == "io"


class TestSection6IPv6:
    def test_38_gbps_at_64b(self, apps):
        # Section 6.3: "38 Gbps for IPv6 with 64B packets".
        report = app_throughput_report(apps["ipv6"], 64, use_gpu=True)
        assert report.gbps == pytest.approx(38.2, rel=0.03)

    def test_cpu_only_about_8_gbps(self, apps):
        report = app_throughput_report(apps["ipv6"], 64, use_gpu=False)
        assert report.gbps == pytest.approx(8.0, rel=0.10)

    def test_gpu_gain_larger_for_ipv6_than_ipv4(self, apps):
        """Section 6.3: "the improvement is especially noticeable with
        IPv6 since it requires more memory access"."""

        def gain(name):
            gpu = app_throughput_report(apps[name], 64, use_gpu=True).gbps
            cpu = app_throughput_report(apps[name], 64, use_gpu=False).gbps
            return gpu / cpu

        assert gain("ipv6") > 3 * gain("ipv4")


class TestSection6OpenFlow:
    def test_32_gbps_at_netfpga_config(self):
        # Section 6.3: "PacketShader runs at 32 Gbps" with 32K+32
        # entries, "comparable with the throughput of eight NetFPGA
        # cards" (NetFPGA: 4 Gbps line rate).
        app = OpenFlowApp(
            openflow_workload(num_exact=32 * 1024, num_wildcard=32, seed=82).switch
        )
        report = app_throughput_report(app, 64, use_gpu=True)
        assert report.gbps == pytest.approx(32.0, rel=0.03)
        assert report.gbps / 4.0 == pytest.approx(8.0, rel=0.05)

    def test_gpu_wins_for_all_table_sizes(self):
        # Figure 11(c): "CPU+GPU mode outperforms CPU-only mode for all
        # configurations."
        for num_wildcard in (0, 32, 128, 512):
            app = OpenFlowApp(
                openflow_workload(num_exact=1024, num_wildcard=num_wildcard,
                                  seed=83).switch
            )
            gpu = app_throughput_report(app, 64, use_gpu=True).gbps
            cpu = app_throughput_report(app, 64, use_gpu=False).gbps
            assert gpu > cpu


class TestSection6IPsec:
    def test_3_5x_improvement(self, apps):
        # Section 6.3: "GPU acceleration improves the performance of the
        # CPU-only mode by a factor of 3.5, regardless of packet sizes."
        for size in (64, 256, 1024, 1514):
            gpu = app_throughput_report(apps["ipsec"], size, use_gpu=True).gbps
            cpu = app_throughput_report(apps["ipsec"], size, use_gpu=False).gbps
            assert gpu / cpu == pytest.approx(3.8, rel=0.20)

    def test_absolute_range_10_to_20_gbps(self, apps):
        # Abstract: "IPsec performance ranges from 10 to 20 Gbps".
        small = app_throughput_report(apps["ipsec"], 64, use_gpu=True).gbps
        large = app_throughput_report(apps["ipsec"], 1514, use_gpu=True).gbps
        assert small == pytest.approx(10.2, rel=0.10)
        assert 18.0 <= large <= 24.0

    def test_5x_routebricks_ipsec(self, apps):
        # Section 6.3: RouteBricks does 1.9 Gbps IPsec at 64B.
        gpu = app_throughput_report(apps["ipsec"], 64, use_gpu=True).gbps
        assert gpu / 1.9 > 5.0


class TestSection4:
    def test_3x_routebricks_forwarding(self):
        # Section 4.6: "Our server outperforms RouteBricks by a factor
        # of 3, achieving 41.1 Gbps or 58.4 Mpps" vs 13.3 Gbps.
        report = io_throughput_report(64, mode="forward")
        assert report.gbps / 13.3 == pytest.approx(3.1, rel=0.05)
        assert report.mpps == pytest.approx(58.4, rel=0.02)


class TestTable2:
    def test_system_cost_about_7000(self):
        # Table 2: "total $7,000".
        assert SYSTEM.total_cost == pytest.approx(7000, rel=0.05)

    def test_eight_ports(self):
        assert SYSTEM.total_ports == 8

    def test_power_numbers(self):
        # Section 7: 594W vs 353W full load; 327W vs 260W idle.
        assert SYSTEM.power_full_gpu_w / SYSTEM.power_full_cpu_w == pytest.approx(
            1.68, rel=0.01
        )
