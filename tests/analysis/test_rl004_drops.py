"""Discards must carry adjacent drop accounting.

The fixtures RL004 was written against, now run through RL011, which
took over its detection when RL004 was deleted: every shape RL004
flagged must still be flagged, every shape it accepted still accepted.
"""

from tests.analysis.conftest import rule_ids


class TestSheddingGuards:
    def test_unaccounted_overflow_return_triggers(self, lint):
        result = lint({"io_engine/ring.py": """
            def deliver(self, frame):
                if self.ring_overflow:
                    return False
                return self.write(frame)
            """}, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_unaccounted_should_fire_continue_triggers(self, lint):
        result = lint({"hw/nic.py": """
            def receive_burst(self, frames, injector):
                out = []
                for frame in frames:
                    if injector.should_fire("nic.ring_overflow"):
                        continue
                    out.append(frame)
                return out
            """}, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_counted_overflow_is_clean(self, lint):
        result = lint({"io_engine/ring.py": """
            def deliver(self, frame):
                if self.ring_overflow:
                    self.stats.drops += 1
                    return False
                return self.write(frame)
            """}, rules=["RL011"])
        assert rule_ids(result) == []

    def test_metric_inc_counts_as_accounting(self, lint):
        result = lint({"core/queue.py": """
            def put(self, chunk, injector):
                if injector.should_fire("queue.overflow"):
                    self._m_rejected.inc()
                    return False
                self._queue.append(chunk)
                return True
            """}, rules=["RL011"])
        assert rule_ids(result) == []

    def test_raising_guard_is_clean(self, lint):
        # An exception propagates: the caller accounts the failure.
        result = lint({"core/queue.py": """
            def put(self, chunk):
                if self.overflow_imminent:
                    raise OverflowError("output queue overflow")
                self._queue.append(chunk)
            """}, rules=["RL011"])
        assert rule_ids(result) == []


class TestVerdictDrops:
    def test_infra_verdict_drop_without_accounting_triggers(self, lint):
        result = lint({"core/framework.py": """
            def shed(self, chunk):
                chunk.set_drop(chunk.pending_mask())
            """}, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_infra_verdict_drop_with_accounting_is_clean(self, lint):
        result = lint({"core/framework.py": """
            def shed(self, chunk):
                pending = chunk.pending_mask()
                chunk.set_drop(pending)
                self.stats.backpressure_drops += int(pending.sum())
            """}, rules=["RL011"])
        assert rule_ids(result) == []

    def test_application_verdict_drop_is_exempt(self, lint):
        # Apps settle verdicts; conservation is accounted centrally.
        result = lint({"apps/ipv4.py": """
            def pre_shade(self, chunk):
                chunk.set_drop(~chunk.batch().long_enough(14))
            """}, rules=["RL011"])
        assert rule_ids(result) == []
