"""RL011: drop conservation with one level of call-graph awareness."""

from tests.analysis.conftest import messages, rule_ids


class TestGuards:
    def test_unaccounted_guard_still_flagged(self, lint):
        result = lint({
            "core/intake.py": """
                def intake(self, chunk):
                    if self.shedder.should_fire(chunk):
                        return False
                    return True
            """,
        }, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_accounting_in_called_helper_clears_it(self, lint):
        # The bookkeeping was factored into a helper: the rule follows
        # the resolved call edge.
        files = {
            "core/intake.py": """
                class Intake:
                    def intake(self, chunk):
                        if self.shedder.should_fire(chunk):
                            self._account_shed(chunk)
                            return False
                        return True

                    def _account_shed(self, chunk):
                        self.stats_dropped += len(chunk)
            """,
        }
        assert lint(files, rules=["RL011"]).findings == []

    def test_helper_without_accounting_does_not_clear(self, lint):
        result = lint({
            "core/intake.py": """
                class Intake:
                    def intake(self, chunk):
                        if self.shedder.should_fire(chunk):
                            self._log(chunk)
                            return False
                        return True

                    def _log(self, chunk):
                        self.seen += len(chunk)
            """,
        }, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_only_one_level_is_followed(self, lint):
        # Accounting two calls deep stays invisible — the analysis
        # reports what it can defend, not what it can imagine.
        result = lint({
            "core/intake.py": """
                class Intake:
                    def intake(self, chunk):
                        if self.shedder.should_fire(chunk):
                            self._outer(chunk)
                            return False
                        return True

                    def _outer(self, chunk):
                        self._inner(chunk)

                    def _inner(self, chunk):
                        self.stats_dropped += len(chunk)
            """,
        }, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]


class TestVerdictDrops:
    def test_unaccounted_infra_drop_flagged(self, lint):
        result = lint({
            "core/shade.py": """
                def shade(chunk):
                    chunk.set_drop(chunk.pending_mask())
            """,
        }, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]

    def test_unaccounted_mask_shed_in_framework_flagged(self, lint):
        """The regression: the shape the infrastructure really uses —
        ``_shed_chunk`` with its counters deleted — used to lint clean
        because the rule only knew the per-packet ``verdict.drop()``."""
        result = lint({
            "core/framework.py": """
                class PacketShader:
                    def _shed_chunk(self, chunk, egress):
                        mask = chunk.pending_mask()
                        chunk.set_drop(mask)
                        chunk.gpu_input = None
                        self._finish_chunk(chunk, egress)

                    def _finish_chunk(self, chunk, egress):
                        egress.update(chunk.split_by_port())
            """,
        }, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]
        assert "set_drop" in messages(result)

    def test_callee_accounting_clears_verdict_drop(self, lint):
        files = {
            "core/shade.py": """
                class Shader:
                    def shade(self, chunk):
                        chunk.set_drop(chunk.pending_mask())
                        self._tally(chunk)

                    def _tally(self, chunk):
                        self.m_dropped.inc(len(chunk))
            """,
        }
        assert lint(files, rules=["RL011"]).findings == []

    def test_drop_helper_with_accounting_callers_cleared(self, lint):
        # A drop-only helper is fine when every caller accounts for it.
        result = lint({
            "core/shade.py": """
                class Shader:
                    def _discard(self, chunk, index):
                        chunk.set_drop(index)

                    def shade(self, chunk):
                        for index in chunk.pending_indices():
                            self._discard(chunk, index)
                        self.m_dropped.inc(len(chunk))
            """,
        }, rules=["RL011"])
        assert result.findings == []

    def test_apps_layer_stays_exempt(self, lint):
        result = lint({
            "apps/filter.py": """
                def shade(chunk):
                    chunk.set_drop(chunk.pending_mask())
            """,
        }, rules=["RL011"])
        assert result.findings == []


class TestSeededBug:
    def test_seeded_refactored_shed_path(self, lint):
        """The regression RL011 must not lose to its own leniency: a
        shedding guard whose helper *sounds* like bookkeeping but only
        logs — packets vanish uncounted and conservation breaks."""
        result = lint({
            "io_engine/rx.py": """
                class RxRing:
                    def poll(self, ring):
                        if ring.overflow():
                            self._note_overflow(ring)
                            return []
                        return ring.take()

                    def _note_overflow(self, ring):
                        self.log.warning("ring overflow", depth=len(ring))
            """,
        }, rules=["RL011"])
        assert rule_ids(result) == ["RL011"]
        assert "load-shedding guard" in messages(result)
