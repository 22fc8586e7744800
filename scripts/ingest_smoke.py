#!/usr/bin/env python3
"""CI soak test for ``repro serve --ingest``: sustained append + crash.

Boots the HTTP gateway with the streaming-ingest pipeline as a real
subprocess, then runs a sustained soak (default 30s, override with
``INGEST_SMOKE_SECONDS``):

- a writer client POSTs micro-batches continuously, treating typed
  backpressure (503 + Retry-After) as the protocol says — sleep and
  retry the *same* batch with the same idempotency seed;
- a query client reads throughout, asserting every answer carries a
  typed outcome and a ``staleness_batches`` stamp;
- halfway through, one crash/recover cycle: the server is SIGKILLed
  mid-stream and restarted over the same WAL + journal directory. The
  restart must replay the orphaned batches (the "recovered" line on
  stdout), the writer's retry of its un-acked batch must land without
  double-applying (content-hashed batch id), and clients must see only
  typed failures outside the kill window;
- after the drain, a second crash/recover cycle: one already
  acknowledged batch is re-posted with its original seed (the server
  deduplicates it, but its WAL logs it again), the server is SIGKILLed
  once more, and the second restart must replay a WAL holding that
  batch twice, print its recovery line and serve.

Exit gates: zero untyped client failures, server-side accounting
coherent, and ``applied_seq`` caught up to ``durable_seq`` (zero lag,
empty queue) at drain. Run with ``REPRO_SANITIZE=1`` in CI: the server
subprocess inherits it and any sanitizer report on stderr fails the
smoke. Stdlib only — no test framework.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

HOST = "127.0.0.1"
PORT = 18791
SOAK_SECONDS = float(os.environ.get("INGEST_SMOKE_SECONDS", "30"))
BATCH_ROWS = 40
DELTA_ROWS = 4000
SEED_BASE = 10_000  # client-stable idempotency seeds: SEED_BASE + index

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def get(url, timeout=10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def post(url, payload, timeout=10.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def wait_ready(base, server, stderr_path, deadline_seconds=60.0) -> None:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        if server.poll() is not None:
            fail(
                f"server exited with {server.returncode} before it was ready:\n"
                + Path(stderr_path).read_text(errors="replace")
            )
        try:
            status, body = get(f"{base}/readyz", timeout=2.0)
            if status == 200 and body.get("ok"):
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.2)
    fail(f"server at {base} never became ready")


def check_sanitizer_log(log_path: Path, who: str) -> None:
    text = log_path.read_text(errors="replace")
    offending = [
        line for line in text.splitlines() if line.startswith("REPRO_SANITIZE:")
    ]
    if offending:
        fail(f"{who}: sanitizer reports on stderr:\n" + "\n".join(offending))


def start_server(rides, cube, ingest_dir, stdout_path, stderr_path):
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--cube", str(cube), "--table", str(rides),
            "--host", HOST, "--port", str(PORT),
            "--workers", "2", "--queue-depth", "32",
            "--ingest", str(ingest_dir),
            "--quiet",
        ],
        stdout=open(stdout_path, "wb"),
        stderr=open(stderr_path, "wb"),
    )
    try:
        wait_ready(f"http://{HOST}:{PORT}", server, stderr_path)
    except BaseException:
        server.kill()
        server.wait(timeout=30)
        raise
    return server


def recovery_line(stdout_path: Path, who: str) -> str:
    """The "recovered N batch(es)" line a restart prints before serving."""
    lines = [
        line for line in stdout_path.read_text().splitlines() if "recovered" in line
    ]
    if not lines:
        fail(f"{who} printed no recovery line")
    return lines[0]


def wait_drained(base):
    """Poll /stats until applied_seq catches durable_seq; return it."""
    deadline = time.monotonic() + 120.0
    marks = None
    while time.monotonic() < deadline:
        status, stats = get(f"{base}/stats")
        if status != 200:
            fail(f"stats: {status}")
        marks = stats["ingest"]["watermarks"]
        if marks["lag_batches"] == 0 and marks["queued_rows"] == 0:
            return stats
        time.sleep(0.2)
    fail(f"applied never caught durable: {marks}")


class Soak:
    """Shared client state: one writer, one query client, typed-only."""

    def __init__(self, base, batches):
        self.base = base
        self.batches = batches  # list of row-dict payloads
        self.stop = threading.Event()
        self.kill_window = threading.Event()
        self.lock = threading.Lock()
        self.accepted = 0
        self.backpressured = 0
        self.killed_errors = 0
        self.queries_ok = 0
        self.max_staleness = 0
        self.untyped = []

    def note_untyped(self, who, detail):
        with self.lock:
            self.untyped.append(f"{who}: {detail}")

    def writer(self):
        index = 0
        while not self.stop.is_set():
            rows = self.batches[index % len(self.batches)]
            try:
                status, body = post(
                    f"{self.base}/ingest",
                    {"rows": rows, "seed": SEED_BASE + index},
                )
            except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
                # Only the planned SIGKILL may drop a connection; the
                # writer then retries the SAME batch with the SAME seed
                # after restart — the exactly-once path under test.
                if self.kill_window.is_set():
                    with self.lock:
                        self.killed_errors += 1
                    time.sleep(0.3)
                    continue
                self.note_untyped("writer", f"connection error: {exc}")
                return
            if status == 200 and body.get("outcome") == "accepted":
                with self.lock:
                    self.accepted += 1
                index += 1
            elif status == 503 and body.get("outcome") == "backpressure":
                with self.lock:
                    self.backpressured += 1
                time.sleep(float(body.get("retry_after_seconds", 0.05)))
            elif status == 503 and body.get("outcome") == "closed":
                time.sleep(0.3)  # server draining around the kill
            else:
                self.note_untyped("writer", f"untyped reply {status}: {body}")
                return

    def querier(self):
        while not self.stop.is_set():
            try:
                status, body = get(
                    f"{self.base}/query?payment_type=cash&limit=2"
                )
            except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
                if self.kill_window.is_set():
                    time.sleep(0.3)
                    continue
                self.note_untyped("querier", f"connection error: {exc}")
                return
            if status == 200:
                staleness = body.get("staleness_batches")
                if staleness is None or staleness < 0:
                    self.note_untyped("querier", f"missing staleness: {body}")
                    return
                with self.lock:
                    self.queries_ok += 1
                    self.max_staleness = max(self.max_staleness, staleness)
            elif status == 503 and body.get("outcome") == "shed":
                time.sleep(0.05)
            else:
                self.note_untyped("querier", f"untyped reply {status}: {body}")
                return
            time.sleep(0.01)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="ingest_smoke_"))
    rides = workdir / "rides.csv"
    cube = workdir / "cube.json"
    ingest_dir = workdir / "ingest"
    base = f"http://{HOST}:{PORT}"

    for argv in (
        ["generate", "--rows", "2000", "--seed", "0", "--out", str(rides)],
        [
            "build", "--table", str(rides),
            "--attrs", "passenger_count,payment_type",
            "--loss", "mean_loss", "--target", "fare_amount",
            "--theta", "0.1", "--out", str(cube),
        ],
    ):
        subprocess.run(
            [sys.executable, "-m", "repro.cli"] + argv, check=True
        )

    # Micro-batch payloads, already JSON-shaped for POST /ingest.
    from repro.data import generate_nyctaxi

    delta = generate_nyctaxi(num_rows=DELTA_ROWS, seed=99)
    batches = [
        delta.slice(i * BATCH_ROWS, (i + 1) * BATCH_ROWS).to_pydict()
        for i in range(DELTA_ROWS // BATCH_ROWS)
    ]

    server = start_server(
        rides, cube, ingest_dir,
        workdir / "server1.stdout", workdir / "server1.stderr",
    )
    soak = Soak(base, batches)
    threads = [
        threading.Thread(target=soak.writer),
        threading.Thread(target=soak.querier),
    ]
    for thread in threads:
        thread.start()

    half = SOAK_SECONDS / 2
    time.sleep(half)

    # One crash/recover cycle: SIGKILL mid-stream, restart on the same
    # WAL + journal, and let the clients ride through it.
    soak.kill_window.set()
    server.send_signal(signal.SIGKILL)
    server.wait(timeout=30)
    server = start_server(
        rides, cube, ingest_dir,
        workdir / "server2.stdout", workdir / "server2.stderr",
    )
    soak.kill_window.clear()
    accepted_at_kill = soak.accepted

    time.sleep(half)
    soak.stop.set()
    for thread in threads:
        thread.join(timeout=60)

    try:
        # Drain: applied_seq must catch durable_seq.
        stats = wait_drained(base)
        marks = stats["ingest"]["watermarks"]

        if soak.untyped:
            fail("untyped client failures:\n" + "\n".join(soak.untyped))
        if soak.accepted < 5:
            fail(f"soak too thin: only {soak.accepted} batches accepted")
        if soak.accepted <= accepted_at_kill:
            fail("no batches accepted after the crash/recover cycle")
        if soak.queries_ok < 10:
            fail(f"query client starved: {soak.queries_ok} answers")
        if stats["ingest"]["failure"]:
            fail(f"pipeline failure: {stats['ingest']['failure']}")
        counters = stats["ingest"]["counters"]
        if counters["offered"] != (
            counters["accepted"]
            + counters["backpressured"]
            + counters["rejected_closed"]
        ):
            fail(f"server-side accounting does not close: {counters}")
        if marks["applied_seq"] != marks["durable_seq"]:
            fail(f"applied != durable after drain: {marks}")

        # The restart must have replayed the WAL before serving.
        first_recovery = recovery_line(workdir / "server2.stdout", "restarted server")

        # Second cycle: a client retry of an acknowledged batch is
        # deduplicated but logged again; the next restart must count it
        # once rather than as new rows.
        deduplicated = stats["ingest"]["counters"]["deduplicated_batches"]
        status, body = post(
            f"{base}/ingest", {"rows": batches[0], "seed": SEED_BASE}
        )
        if status != 200 or body.get("outcome") != "accepted":
            fail(f"re-posted batch not accepted: {status} {body}")
        counters = wait_drained(base)["ingest"]["counters"]
        if counters["deduplicated_batches"] != deduplicated + 1:
            fail(f"re-posted batch was not deduplicated: {counters}")
        server.send_signal(signal.SIGKILL)
        server.wait(timeout=30)
        server = start_server(
            rides, cube, ingest_dir,
            workdir / "server3.stdout", workdir / "server3.stderr",
        )
        second_recovery = recovery_line(workdir / "server3.stdout", "second restart")
        status, body = get(f"{base}/query?payment_type=cash&limit=2")
        if status != 200:
            fail(f"second restart does not serve: {status} {body}")

        print(
            f"ingest soak OK: {soak.accepted} batches accepted "
            f"({soak.backpressured} backpressure retries, "
            f"{soak.killed_errors} in-kill-window drops), "
            f"{soak.queries_ok} concurrent queries "
            f"(max staleness {soak.max_staleness}), "
            f"crash/recover cycles verified: {first_recovery!r}, "
            f"then after a deduplicated re-post: {second_recovery!r}"
        )
    finally:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
    check_sanitizer_log(workdir / "server1.stderr", "pre-crash server")
    check_sanitizer_log(workdir / "server2.stderr", "post-crash server")
    check_sanitizer_log(workdir / "server3.stderr", "second post-crash server")


if __name__ == "__main__":
    main()
