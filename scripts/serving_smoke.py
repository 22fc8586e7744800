#!/usr/bin/env python3
"""CI smoke test for ``repro serve``: boot, overload, kill, verify.

Part 1 — single-process gateway. Boots the HTTP gateway as a real
subprocess over a tiny cube with deliberately few execution slots, a
tight admission bound, and an artificial per-request service floor;
then fires a burst of concurrent stdlib clients well past the admission
bound. Asserts that

- the endpoint answers health/readiness checks,
- overflow requests are *shed* with well-formed 503 JSON bodies
  (typed outcome, VOID guarantee, no rows, jittered Retry-After),
- served requests carry a certified/degraded guarantee and generation,
- ``/stats`` accounting is complete (every request disposed once),
- hot reload works over HTTP and a corrupted replacement rolls back.

Part 2 — sharded chaos. Boots ``repro serve --shards 3`` (supervised
shard workers behind the health-checked router), drives sustained load,
then SIGKILLs one worker mid-stream. Asserts the chaos criterion:

- every response is 200/503/504 — zero connection errors, zero 5xx
  surprises (the monotone-degradation invariant over HTTP),
- DOWNGRADED answers appear while the shard is down and are bounded
  (the blast radius is the victim's cells, not the whole keyspace),
- the supervisor restarts the worker and the probed cells return to
  their pre-kill guarantees (recovery to all-CERTIFIED),
- ``/stats`` exposes the per-shard health the router collected,
- SIGTERM of the server leaves none of its shard workers running.

Run with ``REPRO_SANITIZE=1`` in CI: both server subprocesses inherit
it, and any ``REPRO_SANITIZE:`` line on their stderr fails the smoke.

Exits non-zero on any violation. Stdlib only — no test framework, no
HTTP client dependency — so it runs anywhere the repo does.
"""

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
PORT = 18788
SHARDED_PORT = 18789
WORKERS = 1
QUEUE_DEPTH = 2
BURST = 16
SERVICE_FLOOR = 0.15  # seconds per request: makes the burst overload
SHARDS = 3
CHAOS_SECONDS = 8.0  # sustained load window around the kill


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def get(url, timeout=10.0):
    """(status, json_body, headers) — HTTP errors returned, not raised."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, json.load(response), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def post(url, payload, timeout=10.0):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.load(error)


def wait_ready(base, deadline_seconds=60.0) -> None:
    deadline = time.monotonic() + deadline_seconds
    while time.monotonic() < deadline:
        try:
            status, body, _ = get(f"{base}/readyz", timeout=2.0)
            if status == 200 and body.get("ok"):
                return
        except (urllib.error.URLError, ConnectionError, OSError):
            pass
        time.sleep(0.2)
    fail(f"server at {base} never became ready")


def _proc_stat(pid: int):
    """``(state, ppid)`` from Linux ``/proc``; state ``""`` once the pid is gone."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        return fields[0], int(fields[1])
    except (OSError, IndexError, ValueError):
        return "", -1


def child_pids(parent: int) -> list:
    pids = [int(entry.name) for entry in Path("/proc").glob("[0-9]*")]
    return [pid for pid in pids if _proc_stat(pid)[1] == parent]


def stop(server) -> None:
    """SIGTERM the server; it must take its shard workers down with it."""
    workers = child_pids(server.pid)
    server.terminate()
    try:
        server.wait(timeout=15)
    except subprocess.TimeoutExpired:
        server.kill()
    orphans = [pid for pid in workers if _proc_stat(pid)[0] not in ("", "Z")]
    for pid in orphans:
        os.kill(pid, signal.SIGKILL)
    if orphans:
        fail(f"server {server.pid} exited but left its children running: {orphans}")


def check_sanitizer_log(log_path: Path, who: str) -> None:
    """Any runtime-sanitizer report on the server's stderr is a failure."""
    text = log_path.read_text(errors="replace")
    offending = [
        line for line in text.splitlines() if line.startswith("REPRO_SANITIZE:")
    ]
    if offending:
        fail(f"{who}: sanitizer reports on stderr:\n" + "\n".join(offending))


def single_gateway_smoke(rides: Path, cube: Path, workdir: Path) -> None:
    base = f"http://{HOST}:{PORT}"
    log_path = workdir / "gateway.stderr"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--cube", str(cube), "--table", str(rides),
            "--host", HOST, "--port", str(PORT),
            "--workers", str(WORKERS), "--queue-depth", str(QUEUE_DEPTH),
            "--min-service-seconds", str(SERVICE_FLOOR),
            "--quiet",
        ],
        stderr=open(log_path, "wb"),
    )
    try:
        wait_ready(base)
        status, body, _ = get(f"{base}/healthz")
        if status != 200 or not body.get("ok"):
            fail(f"healthz: {status} {body}")

        # Burst far past workers + queue: overflow must shed, fast.
        results = []
        lock = threading.Lock()

        def client():
            outcome = get(f"{base}/query?payment_type=cash&limit=2")
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=client) for _ in range(BURST)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        shed = [r for r in results if r[0] == 503]
        served = [r for r in results if r[0] == 200]
        if len(shed) + len(served) != BURST:
            fail(f"burst accounting: {len(shed)} shed + {len(served)} served != {BURST}")
        if not shed:
            fail(
                f"no shed responses from a {BURST}-client burst against "
                f"workers={WORKERS} queue={QUEUE_DEPTH}"
            )
        for status, body, headers in shed:
            if body.get("outcome") != "shed":
                fail(f"shed body malformed: {body}")
            if body.get("guarantee") != "VOID" or body.get("rows") is not None:
                fail(f"shed response must carry no answer: {body}")
            # Jittered to spread the retry stampede: uniform over 1..3.
            if headers.get("Retry-After") not in {"1", "2", "3"}:
                fail(f"shed Retry-After outside jitter window: {headers}")
        for status, body, _ in served:
            if body.get("outcome") not in ("ok", "degraded", "circuit_open"):
                fail(f"served body malformed: {body}")
            if body.get("generation") != 1:
                fail(f"unexpected generation: {body}")

        status, stats, _ = get(f"{base}/stats")
        if status != 200:
            fail(f"stats: {status}")
        disposed = sum(stats["outcomes"].values())
        if disposed != stats["requests_total"]:
            fail(f"stats accounting: {stats['outcomes']} vs {stats['requests_total']}")
        if stats["outcomes"]["shed"] != len(shed):
            fail(f"shed count mismatch: {stats['outcomes']['shed']} != {len(shed)}")

        # Hot reload over HTTP: same file swaps in as generation 2...
        status, body = post(f"{base}/reload", {})
        if status != 200 or not body.get("ok") or body.get("generation") != 2:
            fail(f"reload: {status} {body}")
        # ...and a corrupted replacement rolls back with gen 2 serving.
        document = json.loads(cube.read_text())
        pristine = dict(document)
        document["cube_table"] = []
        cube.write_text(json.dumps(document))
        status, body = post(f"{base}/reload", {})
        if status != 409 or body.get("ok") or body.get("generation") != 2:
            fail(f"corrupt reload did not roll back: {status} {body}")
        status, body, _ = get(f"{base}/query?payment_type=cash&limit=1")
        if status != 200 or body.get("generation") != 2:
            fail(f"old cube not serving after rollback: {status} {body}")
        cube.write_text(json.dumps(pristine))  # part 2 needs the real cube

        print(
            f"serving smoke OK: {len(served)} served, {len(shed)} shed "
            f"(burst {BURST}, workers {WORKERS}, queue {QUEUE_DEPTH}); "
            "reload + rollback verified"
        )
    finally:
        stop(server)
    check_sanitizer_log(log_path, "single gateway")


def probe_wheres(cube: Path):
    """A victim shard and query WHEREs that cover it plus its neighbors.

    Ownership is computed client-side with the same consistent-hash
    placement the router uses, so the kill provably intersects the
    probed cells (a random victim could own none of them).
    """
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.serving.placement import Placement

    document = json.loads(cube.read_text())
    attrs = document["cubed_attrs"]
    placement = Placement(SHARDS)
    by_owner = {shard: [] for shard in range(SHARDS)}
    for entry in document["cube_table"]:
        cell = tuple(entry["cell"])
        by_owner[placement.shard_of(cell)].append(cell)
    victim = max(by_owner, key=lambda shard: len(by_owner[shard]))
    if not by_owner[victim]:
        fail("cube has no iceberg cells; enlarge the smoke dataset")
    cells = by_owner[victim][:3] + [
        cell
        for shard in range(SHARDS)
        if shard != victim
        for cell in by_owner[shard][:1]
    ]
    wheres = [
        {a: v for a, v in zip(attrs, cell) if v is not None} for cell in cells
    ]
    return victim, wheres


def sharded_chaos_smoke(rides: Path, cube: Path, workdir: Path) -> None:
    base = f"http://{HOST}:{SHARDED_PORT}"
    victim, wheres = probe_wheres(cube)
    log_path = workdir / "sharded.stderr"
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--cube", str(cube), "--table", str(rides),
            "--host", HOST, "--port", str(SHARDED_PORT),
            "--workers", "2", "--queue-depth", "64",
            "--shards", str(SHARDS),
            "--quiet",
        ],
        stderr=open(log_path, "wb"),
    )
    try:
        wait_ready(base)

        def query(where):
            params = "&".join(f"{a}={v}" for a, v in where.items())
            return get(f"{base}/query?{params}&limit=1")

        # Baseline guarantees with every shard up: iceberg cells certify.
        baseline = {}
        for where in wheres:
            status, body, _ = query(where)
            if status != 200:
                fail(f"baseline query failed: {status} {body}")
            baseline[json.dumps(where, sort_keys=True)] = body["guarantee"]
        if set(baseline.values()) != {"CERTIFIED"}:
            fail(f"iceberg cells must certify with all shards up: {baseline}")

        status, stats, _ = get(f"{base}/stats")
        shards_doc = stats.get("shards") or {}
        if set(shards_doc) != {str(s) for s in range(SHARDS)}:
            fail(f"/stats missing per-shard health: {sorted(shards_doc)}")
        victim_pid = shards_doc[str(victim)].get("pid")
        if not victim_pid:
            fail(f"no pid for victim shard {victim}: {shards_doc}")

        # Sustained load; kill the victim a quarter of the way in.
        results = []
        lock = threading.Lock()
        halt = threading.Event()

        def client(offset):
            step = offset
            while not halt.is_set():
                where = wheres[step % len(wheres)]
                step += 1
                try:
                    status, body, _ = query(where)
                    entry = (status, body.get("guarantee"))
                except Exception as exc:  # noqa: BLE001 - any leak fails the smoke
                    entry = ("error", repr(exc))
                with lock:
                    results.append(entry)

        clients = [
            threading.Thread(target=client, args=(offset,)) for offset in range(4)
        ]
        for thread in clients:
            thread.start()
        time.sleep(CHAOS_SECONDS / 4)
        os.kill(victim_pid, signal.SIGKILL)
        time.sleep(CHAOS_SECONDS * 3 / 4)
        halt.set()
        for thread in clients:
            thread.join(timeout=30)

        statuses = {entry[0] for entry in results}
        if not statuses <= {200, 503, 504}:
            fail(f"chaos produced untyped failures: {sorted(map(str, statuses))}")
        downgraded = sum(1 for _, g in results if g == "DOWNGRADED")
        if downgraded == 0:
            fail(f"kill -9 of shard {victim} never downgraded a probed cell")
        if downgraded >= len(results):
            fail("every response downgraded: blast radius was not contained")

        # Recovery: the supervisor restarts the worker, cells re-certify.
        deadline = time.monotonic() + 60.0
        recovered = False
        while time.monotonic() < deadline:
            _, stats, _ = get(f"{base}/stats")
            victim_doc = (stats.get("shards") or {}).get(str(victim), {})
            if (
                victim_doc.get("state") == "up"
                and victim_doc.get("restarts_total", 0) >= 1
            ):
                after = {
                    json.dumps(w, sort_keys=True): query(w)[1]["guarantee"]
                    for w in wheres
                }
                if after == baseline:
                    recovered = True
                    break
            time.sleep(0.5)
        if not recovered:
            fail(
                f"shard {victim} never recovered to baseline guarantees: "
                f"{(stats.get('shards') or {}).get(str(victim))}"
            )

        print(
            f"sharded chaos OK: {SHARDS} shards, killed shard {victim} "
            f"(pid {victim_pid}) under load — {len(results)} responses, "
            f"statuses {sorted(statuses)}, {downgraded} downgraded, "
            "recovered to baseline guarantees"
        )
    finally:
        stop(server)
    check_sanitizer_log(log_path, "sharded tier")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="serving_smoke_"))
    rides = workdir / "rides.csv"
    cube = workdir / "cube.json"
    run = lambda *args: subprocess.run(  # noqa: E731
        [sys.executable, "-m", "repro.cli", *args], check=True
    )
    run("generate", "--rows", "2000", "--seed", "0", "--out", str(rides))
    run(
        "build", "--table", str(rides),
        "--attrs", "passenger_count,payment_type",
        "--loss", "mean_loss", "--target", "fare_amount",
        "--theta", "0.1", "--out", str(cube),
    )
    single_gateway_smoke(rides, cube, workdir)
    sharded_chaos_smoke(rides, cube, workdir)


if __name__ == "__main__":
    main()
