"""Fault-site catalog coverage.

The fixtures RL005 was written against, now answered at run time by
the check that replaced it when it was deleted: a site counts as
covered when some chaos scenario actually fires it (``fired_sites`` in
``tests/faults/test_chaos.py``), which a referenced-but-dead site or a
missing scenario rule both fail.
"""

import dataclasses

import pytest

from repro.faults import ALL_SITES, FaultPlan, FaultRule, Sites
from repro.faults.scenarios import SCENARIOS, ChaosScenario
from tests.faults.test_chaos import fired_sites


@pytest.fixture
def probe(monkeypatch):
    """``probe(*rules) -> fired sites`` of a one-off scenario."""

    def _run(*rules):
        monkeypatch.setitem(
            SCENARIOS, "probe", ChaosScenario(plan=FaultPlan(rules=rules))
        )
        return fired_sites(["probe"])

    return _run


class TestCoverage:
    def test_fully_covered_site_is_clean(self):
        assert fired_sites(["dma-error"]) == {Sites.PCIE_DMA}

    def test_site_without_injection_call_triggers(self, probe):
        # A scheduled rule that never fires is no coverage.
        assert probe(FaultRule(site=Sites.PCIE_DMA, probability=0.0)) == set()

    def test_site_without_scenario_triggers(self, monkeypatch):
        for name, scenario in list(SCENARIOS.items()):
            rules = tuple(
                r for r in scenario.plan.rules if r.site != Sites.PCIE_DMA
            )
            plan = dataclasses.replace(scenario.plan, rules=rules)
            monkeypatch.setitem(
                SCENARIOS, name, dataclasses.replace(scenario, plan=plan)
            )
        assert fired_sites(SCENARIOS) == set(ALL_SITES) - {Sites.PCIE_DMA}

    def test_uncovered_new_member_triggers_twice(self):
        # A Sites member missing from ALL_SITES could be neither
        # scheduled (FaultRule rejects it) nor seen by the coverage test.
        members = {
            value for name, value in vars(Sites).items() if name.isupper()
        }
        assert set(ALL_SITES) == members
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule(site="pcie.new_site")

    def test_string_site_reference_counts(self, probe):
        assert probe(FaultRule(site="pcie.dma", probability=0.3)) == {
            Sites.PCIE_DMA
        }

    def test_tree_without_sites_class_is_silent(self):
        # A scenario with no rules fires nothing.
        assert SCENARIOS["heavy-tail"].plan.rules == ()
        assert fired_sites(["heavy-tail"]) == set()
