"""Lifecycle of the ``python -m repro.cli serve`` child the HTTP workloads load.

The child is the real entry point on a real loopback socket. Everything it
touches (cube file, CSV, WAL, journal) lives in a scratch directory under
``perf/out`` that is removed on every exit path, and the child is always
terminated and waited for.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

from perf import ROOT
from perf.httpclient import HttpConnection, HttpFailure, build_request

OUT_DIR = Path(__file__).resolve().parent / "out"
HOST = "127.0.0.1"
READY_TIMEOUT_SECONDS = 60.0


class ServerDied(RuntimeError):
    """The child exited (or never became ready); its stderr file says why."""


def scratch_dir(prefix: str) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=OUT_DIR))


def free_port() -> int:
    """Bind-then-release: ask the kernel for an unused loopback port."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def get_json(connection: HttpConnection, path: str) -> Dict[str, object]:
    response = connection.exchange(build_request("GET", path))
    if response.status != 200:
        raise HttpFailure(f"GET {path} answered {response.status}")
    return json.loads(response.body)


class ServerChild:
    """``repro serve`` as a child process: ``start()`` it, always ``stop()`` it.

    ``ingest_dir`` adds ``--ingest DIR``. The child's stdout and stderr go to
    ``perf/out/server-<label>.log`` (kept after the run for diagnosis).
    """

    def __init__(self, label: str, cube: Path, table_csv: Path, ingest_dir: Optional[Path] = None):
        self.label = label
        self.port = free_port()
        self.log_path = OUT_DIR / f"server-{label}.log"
        self._argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--cube", str(cube), "--table", str(table_csv),
            "--host", HOST, "--port", str(self.port), "--quiet",
        ]
        if ingest_dir is not None:
            self._argv += ["--ingest", str(ingest_dir)]
        self._process: Optional[subprocess.Popen] = None

    def start(self) -> None:
        """Spawn the child and wait until ``/readyz`` answers 200."""
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        with open(self.log_path, "wb") as log:
            self._process = subprocess.Popen(
                self._argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT)
            )
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    def _wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_SECONDS
        with HttpConnection(HOST, self.port) as connection:  # reconnects after a refusal
            while time.monotonic() < deadline:
                if not self.alive:
                    raise ServerDied(f"server exited during start-up; see {self.log_path}")
                try:
                    if get_json(connection, "/readyz").get("ok"):
                        return
                except HttpFailure:
                    pass
                time.sleep(0.02)
        raise ServerDied(f"server not ready after {READY_TIMEOUT_SECONDS}s; see {self.log_path}")

    def stop(self) -> None:
        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                process.kill()
        process.wait()


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
