"""RL006 fixtures: no per-packet loops in the data-plane hot layers."""

from pathlib import Path

from repro.analysis.driver import lint_paths
from repro.analysis.rules import get_rule

from tests.analysis.conftest import rule_ids


class TestHotLoopDetection:
    def test_for_loop_over_chunk_frames_triggers(self, lint):
        result = lint({"apps/ipv4.py": """
            def classify(self, chunk):
                for frame in chunk.frames:
                    self.inspect(frame)
            """}, rules=["RL006"])
        assert rule_ids(result) == ["RL006"]

    def test_comprehension_over_frames_triggers(self, lint):
        result = lint({"core/framework.py": """
            def lengths(self, chunk):
                return [len(frame) for frame in chunk.frames]
            """}, rules=["RL006"])
        assert rule_ids(result) == ["RL006"]

    def test_zip_and_enumerate_forms_trigger(self, lint):
        result = lint({"io_engine/engine.py": """
            def walk(self, chunk):
                for code, port in zip(chunk.dispositions, chunk.out_ports):
                    self.touch(code, port)
                for index, frame in enumerate(chunk.frames):
                    self.touch_at(index, frame)
            """}, rules=["RL006"])
        assert rule_ids(result) == ["RL006", "RL006"]

    def test_bare_local_frames_triggers(self, lint):
        result = lint({"core/slowpath.py": """
            def drain(self, frames):
                for frame in frames:
                    self.kernel_stack(frame)
            """}, rules=["RL006"])
        assert rule_ids(result) == ["RL006"]

    def test_verdict_iteration_triggers(self, lint):
        result = lint({"apps/ipv6.py": """
            def settle(self, chunk):
                for port in chunk.out_ports:
                    self.count(port)
            """}, rules=["RL006"])
        assert rule_ids(result) == ["RL006"]


class TestExemptions:
    def test_inline_suppression_is_clean(self, lint):
        result = lint({"apps/scalar_ref.py": """
            def classify(self, chunk):
                for frame in chunk.frames:  # reprolint: ignore[RL006]
                    self.inspect(frame)
            """}, rules=["RL006"])
        assert rule_ids(result) == []

    def test_cold_layers_are_exempt(self, lint):
        # net/ and gen/ host the scalar building blocks; per-packet
        # loops there are not on the chunk hot path.
        result = lint({"net/pcap.py": """
            def write_all(self, frames):
                for frame in frames:
                    self.write(frame)
            """, "gen/packetgen.py": """
            def burst(self, frames):
                return [bytes(frame) for frame in frames]
            """}, rules=["RL006"])
        assert rule_ids(result) == []

    def test_index_loop_over_flatnonzero_is_clean(self, lint):
        # Looping over a sparse verdict index array is the sanctioned
        # residual — only frames/verdict-column iteration is per-packet.
        result = lint({"apps/ipv4.py": """
            def apply(self, chunk, routed, hops):
                for index in routed.tolist():
                    self.rewrite(int(hops[index]))
            """}, rules=["RL006"])
        assert rule_ids(result) == []

    def test_repo_tree_is_currently_clean(self):
        # Every surviving per-packet loop in the real tree carries an
        # inline suppression; new ones must be vectorized or justified.
        repo_root = Path(__file__).resolve().parents[2]
        result = lint_paths([repo_root / "src"], rules=[get_rule("RL006")])
        assert [f.message for f in result.findings] == []
