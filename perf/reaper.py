"""No process outlives a run: adopt every descendant, and wait for each to end.

``Tabula.initialize(workers=2)`` ships its tables through
``multiprocessing.shared_memory``, which starts a resource-tracker process that
exits only once its parent has gone - after the run, as an orphan nobody waits
for. ``adopt_orphans()`` makes this process the one orphaned descendants are
handed to (Linux ``PR_SET_CHILD_SUBREAPER``), and ``reap_all()`` tells the
tracker to exit, then waits until no child is left, killing whatever outstays
the grace period.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from multiprocessing import resource_tracker
from typing import List

PR_SET_CHILD_SUBREAPER = 36
GRACE_SECONDS = 5.0


def adopt_orphans() -> bool:
    """Have orphaned descendants re-parented to this process instead of init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False  # not Linux: direct children are still waited for


def children() -> List[int]:
    """Pids whose parent is this process, zombies included (from /proc)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..." - comm may itself hold ") ".
                fields = handle.read().rpartition(") ")[2].split()
        except OSError:
            continue  # gone between listdir and open
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_all(grace_seconds: float = GRACE_SECONDS, kill_rounds: int = 5) -> int:
    """Wait until this process has no child left; returns how many had to be killed."""
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        # Closing its pipe is the tracker's signal to exit; the loop waits for it.
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
    killed = 0
    for _ in range(kill_rounds):
        deadline = time.monotonic() + grace_seconds
        while time.monotonic() < deadline:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return killed  # no child left
            if not pid:
                time.sleep(0.01)
        for child in children():  # outstayed the grace period
            try:
                os.kill(child, signal.SIGKILL)
                killed += 1
            except ProcessLookupError:
                pass
    return killed
