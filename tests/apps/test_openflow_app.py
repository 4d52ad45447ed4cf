"""The OpenFlow application on the framework."""


from repro.apps.openflow import OpenFlowApp
from repro.core.chunk import DROP_CODE, FORWARD_CODE, SLOW_PATH_CODE, Chunk
from repro.gen.workloads import openflow_workload
from repro.net.packet import build_udp_ipv4
from repro.openflow.actions import output
from repro.openflow.flowkey import extract_flow_key
from repro.openflow.flowtable import WildcardEntry
from repro.openflow.switch import OpenFlowSwitch


def chunk_of(frames, in_port=0):
    return Chunk(frames=[bytearray(f) for f in frames], in_port=in_port)


class TestDataPath:
    def test_exact_match_forwards(self):
        switch = OpenFlowSwitch()
        frame = build_udp_ipv4(1, 2, 3, 4)
        switch.add_exact_flow(extract_flow_key(bytes(frame), 0), output(6))
        app = OpenFlowApp(switch)
        chunk = chunk_of([frame])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == FORWARD_CODE
        assert chunk.out_ports[0] == 6

    def test_wildcard_match(self):
        switch = OpenFlowSwitch()
        switch.add_wildcard_flow(WildcardEntry(
            priority=1, fields={"nw_proto": 17}, actions=output(2),
        ))
        app = OpenFlowApp(switch)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.out_ports[0] == 2

    def test_miss_goes_to_controller_as_slow_path(self):
        app = OpenFlowApp(OpenFlowSwitch())
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE
        assert len(app.switch.controller_queue) == 1

    def test_drop_rule(self):
        switch = OpenFlowSwitch()
        switch.add_wildcard_flow(WildcardEntry(priority=1, fields={}, actions=[]))
        app = OpenFlowApp(switch)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == DROP_CODE

    def test_gpu_and_cpu_paths_agree(self):
        workload = openflow_workload(num_exact=200, num_wildcard=8, seed=61)
        app = OpenFlowApp(workload.switch)
        frames = [build_udp_ipv4(i, i + 1, 100 + i, 200 + i) for i in range(32)]
        cpu_chunk = chunk_of(frames)
        app.cpu_process(cpu_chunk)
        gpu_chunk = chunk_of(frames)
        work = app.pre_shade(gpu_chunk)
        app.post_shade(gpu_chunk, work.spec.fn(*work.args))
        assert cpu_chunk.dispositions.tolist() == gpu_chunk.dispositions.tolist()

    def test_truncated_frame_dropped(self):
        app = OpenFlowApp(OpenFlowSwitch())
        chunk = chunk_of([bytearray(8)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == DROP_CODE


class TestCostHooks:
    def test_wildcard_entries_inflate_cpu_cost_not_worker(self):
        small = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=0).switch)
        large = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=256).switch)
        assert large.cpu_cycles_per_packet(64) > small.cpu_cycles_per_packet(64) + 3000
        assert large.worker_cycles_per_packet(64) == small.worker_cycles_per_packet(64)

    def test_wildcard_entries_inflate_gpu_kernel(self):
        small = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=0).switch)
        large = OpenFlowApp(openflow_workload(num_exact=10, num_wildcard=256).switch)
        assert (
            large.kernel_cost(64)[0].compute_cycles
            > small.kernel_cost(64)[0].compute_cycles
        )
