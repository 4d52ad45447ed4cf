"""The application contract: gather / kernel / apply under one skeleton.

Every application writes three functions and four cost hooks;
:class:`RouterApplication` derives the rest.  These tests hold the
derived parts to the hooks for all five applications (and a two-stage
composite where it applies): the work item is sized by the same numbers
the solver reads, a work item that crossed a process boundary rebinds
to the application's current kernel, and no application re-implements
the skeleton.
"""

import pickle

import pytest

from repro.apps import (
    IPsecDecapGateway,
    IPsecGateway,
    IPv4Forwarder,
    IPv6Forwarder,
    OpenFlowApp,
)
from repro.apps.forwarder import Forwarder
from repro.core.application import RouterApplication
from repro.core.chunk import Chunk
from repro.core.composite import CompositeApplication
from repro.hw.gpu import KernelSpec
from repro.gen.workloads import (
    ipsec_workload,
    ipv4_workload,
    ipv6_workload,
    openflow_workload,
)

SEED = 7
#: Mixed lengths, so a hook that reads ``frame_len`` must be given the
#: chunk's largest frame to agree with the work item.
LENGTHS = (96, 96, 400, 96, 1200, 96)


def _ipv4_frames(generator):
    return [generator.ipv4_burst(1, length)[0] for length in LENGTHS]


def make_ipv4():
    workload = ipv4_workload(num_routes=500, seed=SEED)
    return IPv4Forwarder(workload.table), _ipv4_frames(workload.generator)


def make_ipv6():
    workload = ipv6_workload(num_routes=500, seed=SEED)
    frames = [workload.generator.ipv6_burst(1, n)[0] for n in LENGTHS]
    return IPv6Forwarder(workload.table), frames


def make_openflow():
    workload = openflow_workload(num_exact=64, num_wildcard=8, seed=SEED)
    return OpenFlowApp(workload.switch), _ipv4_frames(workload.generator)


def make_ipsec():
    workload = ipsec_workload(SEED)
    return IPsecGateway(workload.sa), _ipv4_frames(workload.generator)


def make_ipsec_decap():
    gateway, frames = make_ipsec()
    tunnel = Chunk(frames=frames)
    gateway.cpu_process(tunnel)
    # The seed fixes the keys: a second workload's SA is the receiver's
    # twin, with a fresh anti-replay window.
    return IPsecDecapGateway(ipsec_workload(SEED).sa), list(tunnel.frames)


def make_composite():
    ipv4, frames = make_ipv4()
    return CompositeApplication([ipv4, make_ipsec()[0]]), frames


APPS = {
    "ipv4": make_ipv4,
    "ipv6": make_ipv6,
    "openflow": make_openflow,
    "ipsec": make_ipsec,
    "ipsec-decap": make_ipsec_decap,
}
WITH_COMPOSITE = {**APPS, "ipv4+ipsec": make_composite}
SKELETON = ("pre_shade", "post_shade", "cpu_process", "kernel_fn", "bind_kernel")


def chunk_of(frames):
    return Chunk(frames=[bytearray(f) for f in frames])


def verdicts(chunk):
    return (
        chunk.dispositions.tolist(),
        chunk.out_ports.tolist(),
        [bytes(f) for f in chunk.frames],
    )


@pytest.mark.parametrize("make", WITH_COMPOSITE.values(), ids=WITH_COMPOSITE)
def test_work_item_is_sized_by_the_cost_hooks(make):
    """The modelled launch and the solver read one set of numbers."""
    app, frames = make()
    chunk = chunk_of(frames)
    frame_len, packets = chunk.max_frame_len(), len(chunk)
    work = app.pre_shade(chunk)
    spec, threads_per_packet = app.kernel_cost(frame_len)
    bytes_in, bytes_out = app.gpu_bytes_per_packet(frame_len)
    assert work.spec.name == spec.name == app.kernel_name
    assert work.spec.compute_cycles == spec.compute_cycles
    assert work.spec.mem_accesses == spec.mem_accesses
    assert work.spec.stream_bytes == spec.stream_bytes
    assert work.bytes_in == int(bytes_in * packets)
    assert work.bytes_out == int(bytes_out * packets)
    if isinstance(app, CompositeApplication):
        assert work.threads == packets and work.args == ()
    else:
        assert work.threads == max(1, int(packets * threads_per_packet))
        assert len(work.args) == 1 and len(work.args[0]) == packets


@pytest.mark.parametrize("make", WITH_COMPOSITE.values(), ids=WITH_COMPOSITE)
def test_pickled_work_rebinds_to_the_current_kernel(make):
    """What the forked plane does to every chunk: the callable is
    stripped on the wire, the master's own instance rebinds it, and the
    worker's post-shading lands where CPU-only processing does."""
    worker, frames = make()
    master, _ = make()
    reference, _ = make()
    chunk = chunk_of(frames)
    work = worker.pre_shade(chunk)
    assert work.spec.fn == worker.kernel()

    work = pickle.loads(pickle.dumps(work))
    assert work.spec.fn is None
    assert master.bind_kernel(work).spec.fn == master.kernel()
    worker.post_shade(chunk, work.spec.fn(*work.args))

    expected = chunk_of(frames)
    reference.cpu_process(expected)
    assert verdicts(chunk) == verdicts(expected)

    work.spec = KernelSpec(name="someone-elses-kernel")
    with pytest.raises(KeyError, match="someone-elses-kernel"):
        master.bind_kernel(work)


@pytest.mark.parametrize("make", [make_ipv4, make_ipv6], ids=["ipv4", "ipv6"])
def test_rebind_follows_a_fib_swap(make):
    """The *current* kernel: a work item bound after ``swap_table`` runs
    the new table's lookup, one built before it keeps the old."""
    app, frames = make()
    assert isinstance(app, Forwarder)
    before = app.pre_shade(chunk_of(frames))
    old = app.swap_table(type(app.table)())
    assert before.spec.fn == old.lookup_batch
    stripped = pickle.loads(pickle.dumps(before))
    assert app.bind_kernel(stripped).spec.fn == app.table.lookup_batch


@pytest.mark.parametrize("make", APPS.values(), ids=APPS)
def test_applications_do_not_reimplement_the_skeleton(make):
    cls = type(make()[0])
    for method in SKELETON:
        assert getattr(cls, method) is getattr(RouterApplication, method), method


def test_composite_overrides_pre_shade_only():
    for method in SKELETON:
        same = getattr(CompositeApplication, method) is getattr(
            RouterApplication, method
        )
        assert same == (method != "pre_shade"), method
