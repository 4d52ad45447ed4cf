"""``repro bench`` runs the simulated scorecard and nothing else.

Wall-clock speed is measured by one harness, ``bench/`` (see
BENCHMARK.json), so the scorecard CLI has no wall-clock flags: the
former ``--wallclock`` and ``--workers`` are usage errors and are not
offered by ``--help``.
"""

import pytest

from repro.perf.cli import bench_main


def _exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        bench_main(argv)
    return exc.value.code


def _usage(capsys):
    assert _exit_code(["--help"]) == 0
    return capsys.readouterr().out


class TestCLI:
    def test_wallclock_no_write_skips_history(self, capsys):
        for argv in (["--wallclock"], ["--wallclock", "--no-write"]):
            assert _exit_code(argv) == 2, argv
        assert "--wallclock" not in _usage(capsys)

    def test_wallclock_appends_history_by_default(self, capsys):
        assert _exit_code(["--workers", "2"]) == 2
        assert "--workers" not in _usage(capsys)
