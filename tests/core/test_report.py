"""The headline report CLI: a view of the paper-reference table."""

from repro.perf.cli import claims_main
from repro.perf.reference import paper_refs


def test_report_runs_and_prints_headlines(capsys):
    assert claims_main([]) == 0
    output = capsys.readouterr().out
    claims = list(paper_refs())
    for figure, ref in claims:
        assert f"{figure.source} ({figure.figure})" in output
        assert f"  {ref.id} " in output and ref.claim() in output
    assert f"{len(claims)}/{len(claims)} claims within their bands" in output
