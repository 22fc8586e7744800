"""No process outlives a run (each case runs in a process of its own, as a subreaper)."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and prctl")


def _run(script: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_reap_all_waits_for_orphans_and_the_resource_tracker():
    done = _run("""
        import subprocess, sys
        from multiprocessing import shared_memory
        from perf import reaper
        assert reaper.adopt_orphans()
        segment = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
        segment.close(); segment.unlink()
        # A child that leaves a grandchild behind: one that ends by itself, one that never does.
        for seconds in (0.3, 600):
            subprocess.run([sys.executable, "-c",
                "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
                f"'import time; time.sleep({seconds})'])"], check=True)
        assert len(reaper.children()) >= 2
        killed = reaper.reap_all(grace_seconds=1.0)
        assert reaper.children() == [], reaper.children()
        print("killed", killed)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["killed", "1"]


def test_a_parallel_build_run_leaves_no_process_behind():
    """What the driver checks: after ``run.py`` exits, nothing it started is left."""
    done = _run("""
        import subprocess, sys
        from perf import reaper
        assert reaper.adopt_orphans()  # orphans of run.py would land here
        run = subprocess.run([sys.executable, "perf/run.py", "--workload", "build_parallel",
                              "--smoke", "--seconds", "0.5"], capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert reaper.children() == [], reaper.children()
    """)
    assert done.returncode == 0, done.stderr


def test_forked_children_do_not_inherit_the_sigterm_handler():
    """``Pool.terminate()`` must be able to kill a worker blocked outside the interpreter."""
    done = _run("""
        import os, signal, sys
        from perf import run  # registers the at-fork hook
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # as run.main() does
        pid = os.fork()
        if pid == 0:
            os._exit(0 if signal.getsignal(signal.SIGTERM) == signal.SIG_DFL else 1)
        assert os.waitpid(pid, 0)[1] == 0
    """)
    assert done.returncode == 0, done.stderr
