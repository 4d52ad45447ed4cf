"""What a run must leave behind: nothing.

The benchmark adopts whatever its children orphan (it is their subreaper),
so that after a child exits anything it forked and failed to reap is a
child of the benchmark: waited for, past a grace period reported and
killed, and in either case reaped before the benchmark exits.
Shared-memory segments of the sharded plane are named ``repro-*`` under
``/dev/shm``; none may outlive a run.
The benchmark itself writes only under ``bench/out/``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import signal
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SHM = Path("/dev/shm")
PR_SET_CHILD_SUBREAPER = 36            # <linux/prctl.h>
#: What every child runs with besides the caller's environment.  OpenBLAS
#: starts one thread per core while numpy is imported; on the reference
#: host that costs nothing in one hour and 60 ms in the next, a quarter of
#: ``ipsec_frames``' set-up.  The program never calls BLAS (its one matmul
#: is on integers), so the pool is pinned to the calling thread.
CHILD_ENV = {"PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}


@dataclass
class ChildRun:
    returncode: int
    stdout: str
    #: From just before the process was created until it was reaped.
    wall_s: float
    #: ``ru_maxrss`` of the child or of the largest descendant it waited
    #: for, whichever is larger.
    peak_rss_mb: float
    #: ``time.monotonic()`` at the start, for ``child.py``'s ``ready_at``.
    started_at: float
    #: Processes the child left running (already killed).
    problems: List[str]


def adopt_orphans() -> None:
    """Make this process the parent of whatever its descendants orphan.

    A finished child's stragglers (multiprocessing's resource tracker ends
    a moment after the process that started it) would otherwise pass to
    init, out of sight and not ours to reap, and still be there when the
    benchmark has exited.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def children() -> Set[int]:
    """Pids whose parent is this process, zombies included."""
    me, found = os.getpid(), set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue                      # exited while we were looking
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            found.add(int(entry.name))
    return found


def run_child(argv: List[str]) -> ChildRun:
    """Run ``argv`` to completion and wait until all it started has ended."""
    OUT.mkdir(exist_ok=True)
    adopt_orphans()
    before = children()
    capture = OUT / f"stdout-{os.getpid()}.txt"
    with capture.open("w") as sink:
        started_at = time.monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, stdout=sink, env=dict(os.environ, **CHILD_ENV),
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            reap_orphans(before, grace_s=0.0)     # interrupted: all of it goes
            capture.unlink()
            raise
        wall_s = time.monotonic() - started_at
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = capture.read_text()
    capture.unlink()
    return ChildRun(
        returncode=proc.returncode,
        stdout=stdout,
        wall_s=wall_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        started_at=started_at,
        problems=reap_orphans(before),
    )


#: How long descendants get to finish on their own after their parent has
#: been reaped (multiprocessing's resource tracker exits a moment later).
GRACE_S = 2.0


def reap_orphans(before: Set[int], grace_s: float = GRACE_S) -> List[str]:
    """Wait for, and past ``grace_s`` kill, every child this process has
    gained since ``before``; return a complaint for each one killed.

    What a killed process leaves behind is adopted in turn, so the loop
    ends only when the whole tree under the finished child is gone.
    """
    deadline = time.monotonic() + grace_s
    killed: List[int] = []
    while True:
        left = children() - before
        if not left:
            return [f"process {pid} outlived its run (killed)" for pid in killed]
        for pid in left:
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    continue
            except ChildProcessError:
                continue
            if time.monotonic() >= deadline and pid not in killed:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
        time.sleep(0.02)


def shm_segments() -> List[str]:
    return sorted(p.name for p in SHM.glob("repro-*")) if SHM.is_dir() else []


def tree_snapshot() -> Dict[str, Tuple[int, int]]:
    """Size and mtime of everything at the top of the checkout but the
    benchmark's own directory, the interpreter's bytecode caches and dot
    entries (``.git`` changes under any concurrent git command, and no
    result file of the program starts with a dot)."""
    snapshot = {}
    for entry in ROOT.iterdir():
        if entry.name in ("bench", "__pycache__") or entry.name.startswith("."):
            continue
        info = entry.stat()
        snapshot[entry.name] = (info.st_size, info.st_mtime_ns)
    return snapshot


def host_description() -> Dict[str, object]:
    import numpy

    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    return {
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_1min": load,
        "busy_at_start": load > 0.5 * cores,
    }


class Watch:
    """Brackets a run: segments and top-level files must be unchanged."""

    def __init__(self) -> None:
        self.segments = shm_segments()
        self.tree = tree_snapshot()

    def sweep(self) -> None:
        """Unlink the segments an interrupted run's killed children left."""
        for name in set(shm_segments()) - set(self.segments):
            (SHM / name).unlink(missing_ok=True)

    def problems(self) -> List[str]:
        found = []
        leaked = sorted(set(shm_segments()) - set(self.segments))
        if leaked:
            found.append(f"/dev/shm segments left behind: {leaked}")
        after = tree_snapshot()
        touched = sorted(
            name for name in set(after) | set(self.tree)
            if after.get(name) != self.tree.get(name)
        )
        if touched:
            found.append(f"files outside bench/out changed: {touched}")
        return found
