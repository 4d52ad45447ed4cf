"""Metric slabs under any sequence of counter, gauge and histogram
updates, new series until full, reads mid-run (also mid-observation),
unclean writer deaths and :func:`aggregate_slabs`, against a dict per
writer that predicts every read, capacity error and aggregate.  No
segment outlives a run.
"""

import itertools
import os
from bisect import bisect_left

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.obs import names
from repro.obs.registry import Counter, Gauge, Histogram
from repro.obs.shm import MetricSlab, ShmMetricsRegistry, aggregate_slabs, read_slab

_SEQ = itertools.count()
DIR_CAP, DATA_CAP = 6, 24
BOUNDS = [1.0, 8.0, 64.0]
HIST = names.ROUTER_CHUNK_SIZE

writers = st.integers(0, 1)
queues = st.sampled_from("012")


def _contents(registry):
    """A registry as the model: key -> [value] or [*counts, sum]."""
    out = {}
    for metric in registry.collect():
        key = (type(metric), metric.name, tuple(metric.labels))
        if isinstance(metric, Histogram):
            assert metric.count == sum(metric.counts)
            out[key] = [*metric.counts, metric.sum]
        else:
            out[key] = [metric.value]
    return out


class _Writer:
    """One writer slab beside what the model says it holds."""

    def __init__(self, writer_id):
        self.slab = MetricSlab.create(
            f"repro-shmsm-{os.getpid():x}-{next(_SEQ)}", writer_id=writer_id,
            dir_capacity=DIR_CAP, data_capacity=DATA_CAP,
        )
        self.registry = ShmMetricsRegistry(self.slab)
        self.model = {(Gauge, names.OBS_SLAB_BYTES, ()): [self.slab.nbytes]}
        self.reader = None
        self.fills = itertools.count()

    def instrument(self, kind, name, **labels):
        """(instrument, model cell), or ``None`` if the slab must refuse."""
        key = (kind, name, tuple(sorted(labels.items())))
        create = getattr(self.registry, kind.kind)
        extra = {"buckets": BOUNDS} if kind is Histogram else {}
        # A histogram holds its bounds, counts and sum; the rest one value.
        used = sum(2 * len(v) - 2 if len(v) > 1 else 1 for v in self.model.values())
        slots = 2 * len(BOUNDS) + 2 if kind is Histogram else 1
        if key not in self.model:
            if len(self.model) == DIR_CAP or used + slots > DATA_CAP:
                with pytest.raises(RuntimeError, match="full"):
                    create(name, **extra, **labels)
                return None
            self.model[key] = [0.0] * (len(BOUNDS) + 2 if kind is Histogram else 1)
        return create(name, **extra, **labels), self.model[key]


class SlabMachine(RuleBasedStateMachine):
    @initialize()
    def create(self):
        self.writers = [_Writer(0), _Writer(1)]

    def teardown(self):
        for writer in self.writers:
            if writer.reader is not None:
                writer.reader.close()
            if writer.registry is not None:
                writer.slab.close()
            writer.slab.unlink()
            assert not os.path.exists(f"/dev/shm/{writer.slab.name}")

    def _instrument(self, w, kind, name, **labels):
        writer = self.writers[w]
        return writer.registry and writer.instrument(kind, name, **labels)

    @rule(w=writers, q=queues, amount=st.floats(0, 1e6),
          name=st.sampled_from((names.ROUTER_RECEIVED_PACKETS,
                                names.ROUTER_FORWARDED_PACKETS)))
    def count(self, w, q, amount, name):
        pair = self._instrument(w, Counter, name, queue=q)
        if pair:
            pair[0].inc(amount)
            pair[1][0] += amount

    @rule(w=writers, q=queues, op=st.sampled_from(("set", "inc", "dec")),
          value=st.floats(-1e6, 1e6))
    def gauge(self, w, q, op, value):
        pair = self._instrument(w, Gauge, names.SHARD_POOL_SLOTS_USED, queue=q)
        if pair:
            getattr(pair[0], op)(value)
            cell = pair[1]
            cell[0] = {"set": value, "inc": cell[0] + value,
                       "dec": cell[0] - value}[op]

    @rule(w=writers, q=queues, value=st.floats(0, 100))
    def observe(self, w, q, value):
        pair = self._instrument(w, Histogram, HIST, queue=q)
        if pair:
            pair[0].observe(value)
            pair[1][bisect_left(BOUNDS, value)] += 1
            pair[1][-1] += value

    @rule(w=writers)
    def allocate_until_full(self, w):
        writer = self.writers[w]
        while self._instrument(w, Counter, names.ROUTER_CHUNKS,
                               fill=str(next(writer.fills))):
            pass

    @rule(w=writers)
    def attach_and_read(self, w):
        writer = self.writers[w]
        if writer.reader is None:
            writer.reader = MetricSlab.attach(writer.slab.name)
            assert writer.reader.writer_id == w
        assert _contents(read_slab(writer.reader)) == writer.model

    @rule(w=writers, q=queues, value=st.floats(0, 100))
    def read_mid_observation(self, w, q, value):
        """A reader between the bucket store and the sum store."""
        pair = self._instrument(w, Histogram, HIST, queue=q)
        if not pair:
            return
        metric, cell = pair
        metric._counts_view[bisect_left(BOUNDS, value)] += 1
        cell[bisect_left(BOUNDS, value)] += 1
        reader = MetricSlab.attach(self.writers[w].slab.name)
        try:
            assert _contents(read_slab(reader)) == self.writers[w].model
        finally:
            reader.close()
        metric._sum_view[0] += value
        cell[-1] += value

    @rule(w=writers)
    def die(self, w):
        """The writer's process goes: its mapping drops, nothing unlinks."""
        writer = self.writers[w]
        if writer.registry is not None:
            writer.slab.close()
            writer.registry = None

    @rule()
    def aggregate(self):
        readers = [MetricSlab.attach(w.slab.name) for w in self.writers]
        try:
            merged = _contents(aggregate_slabs(readers))
        finally:
            for reader in readers:
                reader.close()
        expected = {}
        for writer in self.writers:
            for key, value in writer.model.items():
                base = expected.get(key, [0.0] * len(value))
                expected[key] = [a + b for a, b in zip(base, value)]
        assert merged == expected


TestSlabMachine = SlabMachine.TestCase
TestSlabMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
